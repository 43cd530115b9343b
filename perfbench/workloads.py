"""The three benchmark workloads.

Each workload turns the run seed into a fixed cycle of op inputs; op i
runs input ``i % period``. ``setup`` builds everything the ops share and
``run_op`` performs one op and returns its output as plain JSON data.
``check`` tests the seed-independent invariants of an output; for the
default seed the outputs are also compared with the stored reference.
``known_defects`` holds inputs on which the program is known to fail; each
run tries them once, outside the timed loop, and reports whether they
still fail.

loss-curves
    Monte Carlo loss estimation (``run_monte_carlo``) on three codes:
    NET_A oswdf, NET_A mwdf matched to it, and the mid-size network MID.
    The NET_A ops (long horizon, few components) and the MID ops (many
    components of few shapes, large per-slot tables) sit on opposite sides
    of any change to the vectorized kernel's time/memory trade-off. Four
    NET_A ops run for every MID op, so the median falls on NET_A ops and
    the 90th percentile on MID ops.
ensemble
    One random network per op, planned by the four calls of a
    ``run_ensemble`` trial. Exact ``Fraction`` work in the planner and
    spectrum modules only: no numpy kernel, no codec, no assembly.
audit
    The CLI path plan -> verify -> verify --deadline T-1 -> simulate, run
    in process through ``relaystream.cli.main`` on documents in a
    temporary directory. Dominated by the pure-Python codec, assembly,
    the verifier's enumeration and witness replay.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import re
import shutil
from fractions import Fraction

DEFAULT_SEED = 0


def _exact(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _rng(name: str, seed: int, *parts) -> random.Random:
    return random.Random("/".join(map(str, (name, seed) + parts)))


# ---------------------------------------------------------------------------
# loss-curves
# ---------------------------------------------------------------------------

NET_A = dict(T=5, N1=(2, 3), N2=(1, 2))
MID = dict(T=20, N1=(3, 5, 7), N2=(2, 4, 6))
NET_A_PACKETS = 50_000
MID_PACKETS = 1_000
CHANNELS = (
    ("iid-0.01", dict(kind="iid", eps=0.01)),
    ("iid-0.05", dict(kind="iid", eps=0.05)),
    ("ge-0.01-0.3-0.005", dict(kind="ge", alpha=0.01, beta=0.3, eps=0.005)),
)
LOSS_CYCLES = 10  # period = 10 cycles of 15 ops, more than one run reaches


class LossCurves:
    name = "loss-curves"
    known_defects = ()

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(self.name, seed)
        inputs = []
        for _ in range(LOSS_CYCLES):
            net_a = [(code, ch) for code in ("A-oswdf", "A-mwdf") for ch, _ in CHANNELS] * 2
            mid = [("MID-oswdf", ch) for ch, _ in CHANNELS]
            rng.shuffle(net_a)
            rng.shuffle(mid)
            for i in range(len(mid)):
                inputs.extend(net_a[4 * i: 4 * i + 4])
                inputs.append(mid[i])
        self.inputs = [
            {"code": code, "channel": ch,
             "packets": MID_PACKETS if code.startswith("MID") else NET_A_PACKETS,
             "mc_seed": rng.randrange(2**32)}
            for code, ch in inputs
        ]

    def describe(self) -> dict:
        return {
            "period": len(self.inputs),
            "mix": "4 NET_A ops (oswdf or matched mwdf) per MID oswdf op; "
                   "channels iid 0.01, iid 0.05, GE(0.01, 0.3, 0.005)",
            "packets": {"NET_A": NET_A_PACKETS, "MID": MID_PACKETS},
        }

    def setup(self, workdir: str) -> dict:
        from relaystream import planner, relay, sim
        from relaystream.channels import GeParams

        net_a = planner.NetworkConfig(**NET_A)
        mid = planner.NetworkConfig(**MID)
        a_os = planner.oswdf_optimize(net_a)
        a_mw = planner.mwdf_plan(net_a, match=a_os)
        mid_os = planner.oswdf_optimize(mid)
        self.codes = {
            "A-oswdf": relay.assemble(a_os),
            "A-mwdf": relay.assemble(a_mw),
            "MID-oswdf": relay.assemble(mid_os),
        }
        self.channels = {}
        for name, spec in CHANNELS:
            if spec["kind"] == "iid":
                self.channels[name] = sim.ChannelSpec("iid", eps=spec["eps"])
            else:
                ge = GeParams(alpha=spec["alpha"], beta=spec["beta"], eps=spec["eps"])
                self.channels[name] = sim.ChannelSpec("ge", ge=ge)
        return {
            name: {"rate": _exact(code.allocation.rate), "n": code.allocation.n,
                   "capped": code.allocation.capped}
            for name, code in self.codes.items()
        }

    def run_op(self, spec: dict) -> dict:
        from relaystream import sim

        res = sim.run_monte_carlo(
            self.codes[spec["code"]], self.channels[spec["channel"]],
            spec["packets"], spec["mc_seed"],
        )
        return {"packets": res.packets, "lost": res.lost}

    def check(self, spec: dict, out: dict) -> list[str]:
        problems = []
        if out["packets"] != spec["packets"]:
            problems.append(f"simulated {out['packets']} packets, asked for {spec['packets']}")
        if not 0 <= out["lost"] <= out["packets"]:
            problems.append(f"lost {out['lost']} of {out['packets']} packets")
        return problems

    def kind(self, spec: dict) -> str:
        return spec["code"].split("-")[0]

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

ENSEMBLE_PERIOD = 1000


class Ensemble:
    name = "ensemble"
    known_defects = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = [{"draw": i} for i in range(ENSEMBLE_PERIOD)]

    def describe(self) -> dict:
        return {
            "period": len(self.inputs),
            "mix": "one sim.sample_config network per op (3-6 links per hop, "
                   "budgets 1-10, T = t_min + 0..10); upper_bound, mwdf_rate, "
                   "cswdf_plan, oswdf_optimize",
        }

    def setup(self, workdir: str) -> dict:
        return {}

    def run_op(self, spec: dict) -> dict:
        from relaystream import planner, sim

        cfg = sim.sample_config(_rng(self.name, self.seed, spec["draw"]))
        upper = planner.upper_bound(cfg)
        mwdf = planner.mwdf_rate(cfg)[0]
        cswdf = planner.cswdf_plan(cfg)[0]
        oswdf = planner.oswdf_optimize(cfg).rate
        return {
            "config": [cfg.T, list(cfg.N1), list(cfg.N2)],
            "upper": _exact(upper), "mwdf": _exact(mwdf),
            "cswdf": _exact(cswdf), "oswdf": _exact(oswdf),
        }

    def check(self, spec: dict, out: dict) -> list[str]:
        upper, mwdf, cswdf, oswdf = (Fraction(out[k]) for k in ("upper", "mwdf", "cswdf", "oswdf"))
        if upper >= oswdf >= max(mwdf, cswdf):
            return []
        return [f"rates out of order: upper {upper}, oswdf {oswdf}, mwdf {mwdf}, cswdf {cswdf}"]

    def kind(self, spec: dict) -> str:
        return "network"

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# (N1, N2, dT1, dT2, T - t_min). Budgets 1-3, one or two links per hop,
# some unit propagation delays. Every shape runs under all three schemes,
# so each seed's pool carries the same work; each op here took under about
# a second at the commit that introduced the benchmark. The costliest ops
# (oswdf on the 1x1 shapes with a budget of 2 or 3 and on the last two 2x2
# shapes) fall in different rounds because of where they sit in this list.
AUDIT_SHAPES = (
    ((1,), (1,), (0,), (0,), 0),
    ((1,), (1,), (0,), (1,), 0),
    ((1,), (1,), (0,), (0,), 1),
    ((1,), (2,), (0,), (0,), 0),
    ((1,), (2,), (1,), (0,), 0),
    ((2,), (1,), (0,), (1,), 0),
    ((2,), (2,), (0,), (0,), 0),
    ((1,), (3,), (0,), (0,), 0),
    ((3,), (1,), (0,), (0,), 0),
    ((1,), (1, 2), (0,), (0, 1), 1),
    ((2,), (2, 3), (0,), (0, 0), 2),
    ((3,), (1, 2), (0,), (0, 0), 1),
    ((1, 2), (1,), (0, 0), (1,), 2),
    ((1, 2), (1,), (0, 1), (0,), 0),
    ((1, 2), (3,), (0, 0), (0,), 0),
    ((2, 3), (1, 2), (0, 0), (0, 0), 1),
    ((1, 2), (2, 3), (0, 0), (0, 1), 1),
    ((1, 2), (1, 2), (0, 0), (0, 1), 0),
    ((3, 1), (1, 3), (1, 0), (0, 0), 0),
)
# Ops repeated in every round, as (shape index, scheme, copies). They put
# clusters of near-equal ops where the percentiles fall, as MID does in
# loss-curves, so that neither percentile jumps between unlike neighbours
# with where a run happens to stop. The median falls on the 1x2 mwdf
# audit of shape 10 and the 90th percentile on the 1x1 oswdf audit of
# shape 8 with its joint-pattern replay. Of the other ops, fewer are
# cheaper than the first than costlier, so the cheap 1x2 mwdf audit of
# shape 9 is repeated too: without it the median sat at the top edge of
# its cluster, next to ops of other shapes.
AUDIT_ANCHORS = ((9, "mwdf", 4), (10, "mwdf", 4), (8, "oswdf", 4))
# Planning this network with oswdf raises inside assemble (a zero-dimension
# padding component longer than the field allows). It is not in the timed
# cycle, where the share of ops it fails would depend on where a run stops;
# every run probes it once, outside the loop, and reports whether it fails.
AUDIT_CRASH = ((3, 1), (2, 3), (0, 0), (0, 1), None, 5)
SCHEMES = ("mwdf", "cswdf", "oswdf")
SIM_PACKETS = 2000
WITNESS_RE = re.compile(
    r"witness: source packet (\d+), symbol (-?\d+); required delay (\d+), achieved (\w+)"
)


class Audit:
    name = "audit"

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(self.name, seed)
        docs = []
        for n1, n2, dt1, dt2, offset in AUDIT_SHAPES:
            # link order inside a hop does not change the work; the seed picks it
            p1 = rng.sample(range(len(n1)), len(n1))
            p2 = rng.sample(range(len(n2)), len(n2))
            doc = {
                "N1": [n1[i] for i in p1], "N2": [n2[i] for i in p2],
                "dT1": [dt1[i] for i in p1], "dT2": [dt2[i] for i in p2],
            }
            z1 = [a + b for a, b in zip(doc["N1"], doc["dT1"])]
            z2 = [a + b for a, b in zip(doc["N2"], doc["dT2"])]
            doc["T"] = max(max(z1) + min(z2), max(z2) + min(z1)) + offset
            docs.append(doc)
        # One round runs every shape once; the scheme of a shape rotates from
        # round to round, from a seeded start. Any stretch of a run then has
        # about the same mix of cheap and costly ops, so the percentiles do
        # not jump with where the run happens to stop.
        start = rng.randrange(len(SCHEMES))
        entries = []
        for r in range(len(SCHEMES)):
            batch = [(doc, SCHEMES[(k + r + start) % len(SCHEMES)]) for k, doc in enumerate(docs)]
            for k, scheme, copies in AUDIT_ANCHORS:
                batch.extend([(docs[k], scheme)] * copies)
            rng.shuffle(batch)
            entries.extend(batch)
        self.inputs = [
            {"config": doc, "scheme": scheme, "sim_seed": rng.randrange(2**31)}
            for doc, scheme in entries
        ]
        n1, n2, dt1, dt2, _, T = AUDIT_CRASH
        crash = {"T": T, "N1": list(n1), "N2": list(n2), "dT1": list(dt1), "dT2": list(dt2)}
        self.known_defects = [{"config": crash, "scheme": "oswdf", "sim_seed": 0}]
        self.tmpdir = None

    def describe(self) -> dict:
        return {
            "period": len(self.inputs),
            "mix": f"{len(AUDIT_SHAPES)} network shapes x schemes {'/'.join(SCHEMES)}, "
                   f"anchors {AUDIT_ANCHORS} per round; "
                   "plan, verify, verify --deadline T-1, "
                   f"simulate --packets {SIM_PACKETS}",
            "networks": [dict(spec["config"], scheme=spec["scheme"]) for spec in self.inputs],
            "known_defects": [dict(spec["config"], scheme=spec["scheme"])
                              for spec in self.known_defects],
        }

    def setup(self, workdir: str) -> dict:
        from relaystream import cli  # noqa: F401  (import cost belongs to setup)

        self.tmpdir = workdir
        os.makedirs(workdir, exist_ok=True)
        for i, spec in enumerate(self.inputs + self.known_defects):
            path = os.path.join(workdir, f"net{i}.json")
            with open(path, "w") as fh:
                json.dump(spec["config"], fh)
            spec["path"] = path
            spec["alloc"] = os.path.join(workdir, f"alloc{i}.json")
            spec["csv"] = os.path.join(workdir, f"sim{i}.csv")
        return {}

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str, str]:
        from relaystream import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_op(self, spec: dict) -> dict:
        T = spec["config"]["T"]
        result: dict = {}
        code, _, err = self._cli(
            ["plan", "--config", spec["path"], "--scheme", spec["scheme"], "--out", spec["alloc"]]
        )
        result["plan"] = code
        if code != 0:
            result["plan_error"] = err.strip().splitlines()[-1:]
            return result
        with open(spec["alloc"]) as fh:
            doc = json.load(fh)
        result["rate"] = doc["rate"]["exact"]
        result["n"] = doc["n"]

        code, out, err = self._cli(["verify", spec["alloc"]])
        result["verify"] = code
        result["verify_line"] = (out or err).strip().splitlines()[0]

        code, out, err = self._cli(["verify", spec["alloc"], "--deadline", str(T - 1)])
        result["tight"] = code
        result["tight_line"] = (out or err).strip().splitlines()[0]
        match = WITNESS_RE.search(err)
        if match:
            src, sym, required, achieved = match.groups()
            result["witness"] = {
                "src_time": int(src), "sym": int(sym), "required_delay": int(required),
                "actual_delay": None if achieved == "never" else int(achieved),
            }

        code, _, _ = self._cli([
            "simulate", spec["alloc"], "--packets", str(SIM_PACKETS),
            "--seed", str(spec["sim_seed"]), "--out", spec["csv"],
        ])
        result["simulate"] = code
        if code == 0:
            with open(spec["csv"]) as fh:
                row = next(csv.DictReader(fh))
            result["packets"] = int(row["packets"])
            result["lost"] = int(row["lost"])
        return result

    def check(self, spec: dict, out: dict) -> list[str]:
        T = spec["config"]["T"]
        problems = []
        if out["plan"] != 0:
            return [f"plan exited {out['plan']}"]
        if out["verify"] != 0:
            problems.append(f"planned allocation fails its own deadline: {out['verify_line']}")
        if out["tight"] not in (0, 1):
            problems.append(f"verify --deadline {T - 1} exited {out['tight']}")
        if out["tight"] == 1:
            w = out.get("witness")
            if w is None and "does not assemble" not in out["tight_line"]:
                problems.append("tightened audit failed without a witness")
            elif w is not None and w["actual_delay"] is not None and w["actual_delay"] <= T - 1:
                problems.append(
                    f"witness replays within the audited deadline ({w['actual_delay']} <= {T - 1})"
                )
        if out["simulate"] != 0:
            problems.append(f"simulate exited {out['simulate']}")
        elif not (out["packets"] == SIM_PACKETS and 0 <= out["lost"] <= out["packets"]):
            problems.append(f"simulate lost {out['lost']} of {out['packets']} packets")
        return problems

    def kind(self, spec: dict) -> str:
        cfg = spec["config"]
        return f"{len(cfg['N1'])}x{len(cfg['N2'])}"

    def cleanup(self) -> None:
        if self.tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (LossCurves, Ensemble, Audit)}
