#!/usr/bin/env python3
"""relaystream benchmark: timed closed-loop runs of one workload.

    python3 perfbench/run.py --workload loss-curves --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --workload audit --write-reference

Run from the repository root; the package is imported from ``src/``. One
caller drives the workload in a closed loop: the next op starts when the
previous one returns. Every workload process is a fresh single-threaded
interpreter, and only one runs at a time.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is measured in
several fresh processes, from process start through ``import relaystream``
and the workload's fixed inputs to the first op, and the median is kept.
``--trace 1`` runs the ops once untraced and once with spans around the
calls into every layer, and reports per-layer metrics plus the tracing
overhead. Both print a table and then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with the run's metadata goes to ``perfbench/out/``.

Every op's output is checked: against the stored reference for the
default seed, and against seed-independent invariants for any seed. An op
that raises, exits with an unexpected code or fails a check is counted as
failed; it is never dropped. Inputs on which the program is known to fail
are kept out of the timed loop; each run tries them once after it and
reports how many still fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
SETUP_SAMPLES = 20  # half before the measured process, half after it
RUN_MARGIN_S = 120  # time a run may take beyond --seconds: setups and probes
# The machine's speed drifts by 10-40% within seconds, and fixed
# pure-Python work slows down with it (see README). A run times
# CALIBRATION_WORK before every op and after the last, divides each op's
# time by the local speed (median of the samples around the op over
# CALIBRATION_REF_S), and so reports timings for a machine on which one
# sample takes CALIBRATION_REF_S. Raw timings go to the result file.
# Setup times are scaled the same way, by samples the benchmark process
# takes just before and just after each setup process.
CALIBRATION_REF_S = 0.0015
SETUP_CALIBRATION_SAMPLES = 3  # on each side of a setup process

sys.path.insert(0, HERE)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# inside a workload process
# ---------------------------------------------------------------------------


def _import_package():
    import relaystream

    where = os.path.dirname(os.path.abspath(relaystream.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"relaystream imported from {where}, not from {SRC}")
    return relaystream


def _caches() -> list:
    """Every functools cache on a relaystream module attribute."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "relaystream":
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def _integer_loop():
    acc = 0
    for i in range(25_000):
        acc += i * i % 7


def _fraction_sum():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)


def _sort_and_index():
    pairs = sorted((i * 7919 % 1000, str(i)) for i in range(3000))
    return len(dict(pairs))


# Fractional parts of multiples of the golden ratio: spread evenly over
# [0, 1) without importing numpy.random, which ensemble ops never load.
_SCAN_INPUT = numpy.arange(100_000) * 0.6180339887498949 % 1.0


def _vector_scan():
    mask = _SCAN_INPUT < 0.3
    numpy.cumsum(mask)
    return numpy.flatnonzero(mask)


# Interpreter loops, exact fractions, allocating and sorting containers,
# and a vectorized numpy scan: the kinds of work the workloads do most.
# Their speeds react differently to a busy machine. The numpy scan made
# the scaled Monte Carlo and planner op times track the machine more
# closely, and the audit ops no worse (see README).
CALIBRATION_WORK = (_integer_loop, _fraction_sum, _sort_and_index, _vector_scan)


def _calibration_sample() -> float:
    """Geometric mean of the times of the calibration work."""
    product = 1.0
    for work in CALIBRATION_WORK:
        start = time.perf_counter()
        work()
        product *= time.perf_counter() - start
    return product ** (1 / len(CALIBRATION_WORK))


def _timed_loop(wl, seconds: float, caches: list, tracer=None) -> dict:
    """Closed loop over the workload's op cycle for ``seconds``."""
    records = []
    calibration = []
    period = len(wl.inputs)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        spec = wl.inputs[i % period]
        for cache in caches:
            cache.cache_clear()
        calibration.append(_calibration_sample())
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, error = wl.run_op(spec), None
        except Exception as e:  # a crashed op is counted, never dropped
            out, error = None, f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            for cache in caches:
                info = cache.cache_info()
                tracer.count("cache.hits", info.hits)
                tracer.count("cache.misses", info.misses)
        records.append({"i": i, "s": elapsed, "out": out, "error": error})
        i += 1
    wall_s = time.perf_counter() - start
    calibration.append(_calibration_sample())
    for j, rec in enumerate(records):
        around = calibration[max(j - 1, 0): j + 2]
        rec["speed"] = statistics.median(around) / CALIBRATION_REF_S
    return {"wall_s": wall_s, "records": records,
            "speed": statistics.median(calibration) / CALIBRATION_REF_S}


def _load_reference(name: str):
    path = os.path.join(REFERENCE, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _judge(wl, loop: dict, reference) -> None:
    """Mark each record ok or failed; failures keep their reason."""
    ops_ref = reference["ops"] if reference and wl.seed == reference["seed"] else None
    period = len(wl.inputs)
    for rec in loop["records"]:
        spec = wl.inputs[rec["i"] % period]
        rec["kind"] = wl.kind(spec)
        expected = ops_ref[rec["i"] % period] if ops_ref is not None else None
        if rec["error"] is not None:
            rec["problems"] = [rec["error"]]
            # the op succeeded when the reference was written
            rec["wrong"] = expected is not None
            continue
        out = json.loads(json.dumps(rec["out"]))
        problems = wl.check(spec, out)
        if ops_ref is not None:
            if expected is not None and expected != out:
                problems.append(f"output {out} differs from reference {expected}")
        rec["problems"] = problems
        rec["wrong"] = bool(problems)
    for rec in loop["records"]:
        rec["ok"] = not rec["problems"]
        rec.pop("out")


def _probe_known_defects(wl, caches: list) -> list:
    """Run each known-failing input once; report whether it still fails."""
    probes = []
    for spec in wl.known_defects:
        for cache in caches:
            cache.cache_clear()
        try:
            problems = wl.check(spec, json.loads(json.dumps(wl.run_op(spec))))
        except Exception as e:
            problems = [f"{type(e).__name__}: {e}"]
        probes.append({"input": {k: spec[k] for k in ("config", "scheme") if k in spec},
                       "fails": bool(problems), "problems": problems[:3]})
    return probes


def child_main(args) -> int:
    _import_package()
    wl = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    reference = _load_reference(wl.name)
    try:
        setup_out = json.loads(json.dumps(wl.setup(workdir)))
        setup_done = time.monotonic()
        result = {"setup_done": setup_done, "setup": setup_out}
        if reference is not None and setup_out != reference["setup"]:
            result["setup_problem"] = f"setup {setup_out} differs from reference {reference['setup']}"
        if args.child == "setup":
            print(json.dumps(result))
            return 0
        caches = _caches()
        result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
        result["caches"] = [f"{c.__module__}.{c.__qualname__}" for c in caches]
        if args.child == "measure":
            loop = _timed_loop(wl, args.seconds, caches)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["known_defects"] = _probe_known_defects(wl, caches)
            _judge(wl, loop, reference)
            result["loops"] = {"untraced": loop}
        else:
            from tracing import PROBE_OP, Tracer

            untraced = _timed_loop(wl, args.seconds / 2, caches)
            result["known_defects"] = _probe_known_defects(wl, caches)
            tracer = Tracer()
            tracer.install()
            wl.setup(workdir)  # traced again, so the setup layers show
            traced = _timed_loop(wl, args.seconds / 2, caches, tracer)
            # tracemalloc slows numpy allocation several times over, so the
            # peak of loss_mask is taken on one extra op of each kind
            tracer.measure_memory = True
            probes = {}
            for spec in wl.inputs:
                probes.setdefault(wl.kind(spec), spec)
            for spec in probes.values():
                for cache in caches:
                    cache.cache_clear()
                tracer.op = PROBE_OP
                try:
                    wl.run_op(spec)
                except Exception:
                    pass  # already counted when the same input ran in the loop
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.jsonl.gz")
            tracer.write_spans(spans_path)
            layers = tracer.layer_metrics(
                len(traced["records"]), {r["i"]: r["speed"] for r in traced["records"]},
                traced["speed"],
            )
            _judge(wl, untraced, reference)
            _judge(wl, traced, reference)
            result["loops"] = {"untraced": untraced, "traced": traced}
            result["layers"] = layers
            result["spans"] = {"path": os.path.relpath(spans_path, ROOT), "count": len(tracer.spans)}
    finally:
        wl.cleanup()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the benchmark process
# ---------------------------------------------------------------------------


def _spawn(mode: str, args, deadline: float) -> tuple[float, dict]:
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload} {mode} process ran past the run's deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} {mode} process exited {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_sample(mode: str, args, deadline: float) -> tuple[dict, float, float]:
    """One workload process, with the machine's speed around it.

    Returns the process's result, its raw setup time and the speed.
    """
    calibration = [_calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    started, child = _spawn(mode, args, deadline)
    calibration += [_calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    speed = statistics.median(calibration) / CALIBRATION_REF_S
    return child, child["setup_done"] - started, speed


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentiles(ms: list) -> tuple[float, float]:
    if len(ms) < 2:
        return (ms[0], ms[0]) if ms else (0.0, 0.0)
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def _loop_summary(loop: dict) -> dict:
    """Raw and speed-scaled figures of one timed loop.

    ``ops_per_s`` divides the ops that passed their checks by the time spent
    inside ops, which leaves out the cache clearing and calibration between
    them. Percentiles are over the ops that passed.
    """
    recs = loop["records"]
    ok = [r for r in recs if r["ok"]]
    busy_s = sum(r["s"] for r in recs)
    scaled_s = sum(r["s"] / r["speed"] for r in recs)
    p50, p90 = _percentiles([r["s"] * 1e3 for r in ok])
    scaled_p50, scaled_p90 = _percentiles([r["s"] / r["speed"] * 1e3 for r in ok])
    kinds: dict = {}
    for r in recs:
        k = kinds.setdefault(r["kind"], {"attempted": 0, "ok": 0, "ms": []})
        k["attempted"] += 1
        if r["ok"]:
            k["ok"] += 1
            k["ms"].append(r["s"] * 1e3)
    for k in kinds.values():
        ms = k.pop("ms")
        k["raw_median_ms"] = statistics.median(ms) if ms else None
    return {
        "attempted": len(recs),
        "ok": len(ok),
        "failed": len(recs) - len(ok),
        "wrong": sum(1 for r in recs if r.get("wrong")),
        "wall_s": loop["wall_s"],
        "busy_s": busy_s,
        "speed": loop["speed"],
        "raw": {"ops_per_s": len(ok) / busy_s, "p50_ms": p50, "p90_ms": p90},
        "ops_per_s": len(ok) / scaled_s,
        "p50_ms": scaled_p50,
        "p90_ms": scaled_p90,
        "by_kind": kinds,
        "ops": [[r["i"], round(r["s"] * 1e3, 3), round(r["speed"], 4), r["ok"]] for r in recs],
        "failures": [
            {"op": r["i"], "kind": r["kind"], "problems": r["problems"][:3]}
            for r in recs if not r["ok"]
        ][:20],
    }


def run_workload(args) -> dict:
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    wl = WORKLOADS[args.workload](args.seed)
    setup_samples = []  # (raw s, speed)
    if args.trace:
        _, child = _spawn("trace", args, deadline)
    else:
        # Setup time drifts with the machine over tens of seconds, so the
        # samples are taken on both sides of the measured run.
        for k in range(SETUP_SAMPLES):
            mode = "measure" if k == SETUP_SAMPLES // 2 - 1 else "setup"
            sample, setup_s, speed = _setup_sample(mode, args, deadline)
            setup_samples.append((setup_s, speed))
            if mode == "measure":
                child = sample

    loops = {name: _loop_summary(loop) for name, loop in child["loops"].items()}
    main = loops["traced" if args.trace else "untraced"]
    attempted = sum(s["attempted"] for s in loops.values())
    failed = sum(s["failed"] for s in loops.values())
    wrong = sum(s["wrong"] for s in loops.values())
    correct = wrong == 0 and "setup_problem" not in child
    known = child["known_defects"]

    rows = []  # (name, value, unit, samples)
    if args.trace:
        for name, (value, unit) in child["layers"].items():
            rows.append((name, value, unit, main["attempted"]))
        untraced = loops["untraced"]["ops_per_s"]
        traced = main["ops_per_s"]
        rows.append(("trace.untraced_ops_per_s", untraced, "1/s", loops["untraced"]["ok"]))
        rows.append(("trace.ops_per_s", traced, "1/s", main["ok"]))
        rows.append(("trace.overhead", untraced / traced - 1 if traced else 0.0, "ratio", main["ok"]))
        rows.append(("known_defects.failing", sum(p["fails"] for p in known), "count", len(known)))
    else:
        rows = [
            ("setup_s", statistics.median(s / speed for s, speed in setup_samples), "s",
             len(setup_samples)),
            ("ops_per_s", main["ops_per_s"], "1/s", main["ok"]),
            ("op_p50_ms", main["p50_ms"], "ms", main["ok"]),
            ("op_p90_ms", main["p90_ms"], "ms", main["ok"]),
            ("peak_rss_mb", child["peak_rss_mb"], "MB", 1),
        ]

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "versions": child["versions"],
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "inputs": wl.describe(),
        "setup": child["setup"],
        "setup_samples": [{"raw_s": s, "speed": speed} for s, speed in setup_samples],
        "calibration": {"work": [w.__name__ for w in CALIBRATION_WORK],
                        "reference_s": CALIBRATION_REF_S},
        "caches_cleared_per_op": child["caches"],
        "loops": loops,
        "known_defects": known,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, v, u, n in rows},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    if "setup_problem" in child:
        result["setup_problem"] = child["setup_problem"]
    if args.trace:
        result["spans"] = child["spans"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed} ({failed / max(attempted, 1):.4f})  "
          f"correct {correct}  "
          f"machine speed {main['speed']:.3f} (times below are scaled by it)")
    if not args.trace:
        raw = main["raw"]
        print(f"# raw: ops_per_s {raw['ops_per_s']:.6g}  op_p50_ms {raw['p50_ms']:.6g}  "
              f"op_p90_ms {raw['p90_ms']:.6g}")
    print(f"{'metric':40} {'value':>14}  {'unit':10} samples")
    for name, value, unit, samples in rows:
        print(f"{name:40} {value:14.6g}  {unit:10} {samples}")
    if not args.trace and main["ok"] < 100:
        print(f"# warning: {main['ok']} ops passed; op_p90_ms has fewer than 10 samples beyond it")
    for p in known:
        state = f"still fails: {p['problems'][0][:120]}" if p["fails"] else "passes now"
        print(f"# known defect {p['input']}: {state}")
    for f in main["failures"][:5]:
        print(f"# failed op {f['op']} ({f['kind']}): {f['problems'][0][:160]}")
    print(f"# result file: {os.path.relpath(path, ROOT)}")
    return result


def write_reference(args) -> int:
    """Run every op of the default seed's cycle once and store the outputs."""
    sys.path.insert(0, SRC)
    _import_package()
    wl = WORKLOADS[args.workload](DEFAULT_SEED)
    try:
        setup_out = json.loads(json.dumps(wl.setup(os.path.join(OUT, f"tmp-{os.getpid()}"))))
        caches = _caches()
        ops = []
        for i, spec in enumerate(wl.inputs):
            for cache in caches:
                cache.cache_clear()
            try:
                out = json.loads(json.dumps(wl.run_op(spec)))
            except Exception as e:
                print(f"op {i}: {type(e).__name__}: {e}; stored as null", file=sys.stderr)
                out = None
            if out is not None:
                for problem in wl.check(spec, out):
                    print(f"op {i}: {problem}", file=sys.stderr)
            ops.append(out)
    finally:
        wl.cleanup()
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, f"{wl.name}.json"), "w") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "setup": {json.dumps(setup_out)}, "ops": [\n')
        fh.write(",\n".join(json.dumps(out) for out in ops))
        fh.write("\n]}\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's outputs as the reference")
    ap.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(SRC, "relaystream", "__init__.py")):
        print(f"error: no relaystream package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.write_reference:
        if args.workload == "all":
            ap.error("--write-reference needs one workload")
        return write_reference(args)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        args.workload = name
        results.append(run_workload(args))
    prefix = len(results) > 1
    metrics = {f"{r['workload']}.{k}" if prefix else k: {"value": m["value"], "unit": m["unit"]}
               for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
