"""Spans around the calls into relaystream's public functions.

The tracer replaces a function at every place the package refers to it
(its defining module, the modules that imported it by name, the package
namespace), so calls made inside the program are caught as well as the
benchmark's own. Each span is (name, start, end, parent span, op id); spans
stay in memory and are written out once, after the run. Counters that need
a call's arguments or result (steps run, packets lost, exit codes) are
taken in hooks at the same boundary.

Nothing here is imported or installed by an untraced run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

SETUP_OP = -1
PROBE_OP = -2  # memory probe after the traced ops; kept out of the timings

# name -> (module, attribute); from_pairs is a static method on a class.
TARGETS = {
    "cli.main": ("relaystream.cli", "main"),
    "planner.upper_bound": ("relaystream.planner", "upper_bound"),
    "planner.mwdf_rate": ("relaystream.planner", "mwdf_rate"),
    "planner.cswdf_plan": ("relaystream.planner", "cswdf_plan"),
    "planner.oswdf_optimize": ("relaystream.planner", "oswdf_optimize"),
    "planner.mwdf_plan": ("relaystream.planner", "mwdf_plan"),
    "spectrum.from_pairs": ("relaystream.spectrum", "DelayGrouping.from_pairs"),
    "relay.assemble": ("relaystream.relay", "assemble"),
    "relay.run_network": ("relaystream.relay", "run_network"),
    "codes.encode_step": ("relaystream.codes", "encode_step"),
    "codes.decode_step": ("relaystream.codes", "decode_step"),
    "gf.make_mds": ("relaystream.gf", "make_mds"),
    "channels.sample_iid": ("relaystream.channels", "sample_iid"),
    "channels.sample_ge": ("relaystream.channels", "sample_ge"),
    "sim.run_monte_carlo": ("relaystream.sim", "run_monte_carlo"),
    "sim.loss_mask": ("relaystream.sim", "loss_mask"),
    "sim.verify_adversarial": ("relaystream.sim", "verify_adversarial"),
    "sim.component_worst_delays": ("relaystream.sim", "component_worst_delays"),
    "sim.replay_witness": ("relaystream.sim", "replay_witness"),
}

PLANNERS = [n for n in TARGETS if n.startswith("planner.")]


def _hook_cli(tracer, args, result):
    code = result if result in (0, 1, 2) else "other"
    tracer.count(f"cli.exit_{code}")


def _hook_planner(tracer, args, result):
    alloc = result[1] if isinstance(result, tuple) else result
    if getattr(alloc, "capped", False):
        tracer.count("planner.capped")


def _hook_run_network(tracer, args, state):
    tracer.count("relay.run_network.steps", state.time)
    tracer.count("relay.violations", len(state.violations))


def _hook_sample(tracer, args, seq):
    tracer.count("channels.slots", len(seq.bits))
    tracer.count("channels.erased", int(seq.bits.sum()))


def _hook_loss_mask(tracer, args, lost):
    tracer.count("sim.loss_mask.packets", len(lost))


def _hook_mc(tracer, args, res):
    tracer.count("sim.mc.packets", res.packets)
    tracer.count("sim.mc.lost", res.lost)


def _hook_verify(tracer, args, report):
    tracer.count("sim.verify.patterns", report.checked_patterns)
    tracer.count("sim.verify.exhaustive", int(report.exhaustive))


HOOKS = {
    "cli.main": _hook_cli,
    "relay.run_network": _hook_run_network,
    "channels.sample_iid": _hook_sample,
    "channels.sample_ge": _hook_sample,
    "sim.loss_mask": _hook_loss_mask,
    "sim.run_monte_carlo": _hook_mc,
    "sim.verify_adversarial": _hook_verify,
    **{name: _hook_planner for name in PLANNERS},
}


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, last


class Tracer:
    """Records spans and counters for the calls listed in ``TARGETS``."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = SETUP_OP
        self._stack: list[int] = []
        self.measure_memory = False
        self.loss_mask_peak_bytes = 0

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[(key, self.op)] += amount

    def install(self) -> None:
        for module, _ in TARGETS.values():
            importlib.import_module(module)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "relaystream"]
        for name, (module, attr) in TARGETS.items():
            owner, last = _resolve(module, attr)
            original = getattr(owner, last)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, last, staticmethod(wrapper))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        memory_probe = name == "sim.loss_mask"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            measure_memory = memory_probe and self.measure_memory
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name}.errors")
                raise
            finally:
                end = time.perf_counter()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.loss_mask_peak_bytes = max(self.loss_mask_peak_bytes, peak)
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if cache_info:
                    self.count(f"{name}.misses", cache_info().misses - misses)
            if hook:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(
        self, ops: int, speeds: dict[int, float], setup_speed: float
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced ops, as (value, unit).

        Times and counts are means per op; setup spans are reported apart
        and memory-probe spans not at all. A span's time is divided by the
        machine speed measured around its op (``speeds``), or by
        ``setup_speed`` for setup spans.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        setup_self: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child_time[i]
            if op == SETUP_OP:
                setup_self[name.split(".")[0]] += own / setup_speed
            if op < 0:
                continue
            speed = speeds[op]
            calls[name] += 1
            total[name] += (end - start) / speed
            self_time[name] += own / speed
        counts: Counter = Counter()
        for (key, op), value in self.counters.items():
            if op >= 0:
                counts[key] += value

        per = max(ops, 1)
        out: dict[str, tuple[float, str]] = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        put("cli.main.calls", calls["cli.main"] / per, "count/op")
        put("cli.main.self_s", self_time["cli.main"] / per, "s/op")
        for code in ("0", "1", "2"):
            put(f"cli.exit_{code}", counts[f"cli.exit_{code}"] / per, "count/op")
        put("cli.uncaught", counts["cli.main.errors"] / per, "count/op")

        for name in PLANNERS:
            put(f"{name}.s", total[name] / per, "s/op")
        put("planner.calls", sum(calls[n] for n in PLANNERS) / per, "count/op")
        put("planner.capped", counts["planner.capped"] / per, "count/op")

        put("spectrum.from_pairs.calls", calls["spectrum.from_pairs"] / per, "count/op")
        put("spectrum.from_pairs.s", total["spectrum.from_pairs"] / per, "s/op")

        steps = counts["relay.run_network.steps"]
        put("relay.assemble.calls", calls["relay.assemble"] / per, "count/op")
        put("relay.assemble.s", total["relay.assemble"] / per, "s/op")
        put("relay.assemble.errors", counts["relay.assemble.errors"] / per, "count/op")
        put("relay.run_network.calls", calls["relay.run_network"] / per, "count/op")
        put("relay.run_network.self_s", self_time["relay.run_network"] / per, "s/op")
        put("relay.run_network.steps", steps / per, "count/op")
        put("relay.run_network.us_per_step",
            total["relay.run_network"] / steps * 1e6 if steps else 0.0, "us/step")
        put("relay.violations", counts["relay.violations"] / per, "count/op")

        for name in ("codes.encode_step", "codes.decode_step"):
            put(f"{name}.calls", calls[name] / per, "count/op")
            put(f"{name}.s", total[name] / per, "s/op")

        put("gf.make_mds.calls", calls["gf.make_mds"] / per, "count/op")
        put("gf.make_mds.misses", counts["gf.make_mds.misses"] / per, "count/op")
        put("gf.make_mds.s", total["gf.make_mds"] / per, "s/op")

        slots = counts["channels.slots"]
        put("channels.sample_iid.s", total["channels.sample_iid"] / per, "s/op")
        put("channels.sample_ge.s", total["channels.sample_ge"] / per, "s/op")
        put("channels.slots", slots / per, "count/op")
        put("channels.erased_share", counts["channels.erased"] / slots if slots else 0.0, "ratio")

        masked = counts["sim.loss_mask.packets"]
        verifies = calls["sim.verify_adversarial"]
        put("sim.run_monte_carlo.self_s", self_time["sim.run_monte_carlo"] / per, "s/op")
        put("sim.loss_mask.s", total["sim.loss_mask"] / per, "s/op")
        put("sim.loss_mask.ns_per_packet",
            total["sim.loss_mask"] / masked * 1e9 if masked else 0.0, "ns/packet")
        put("sim.loss_mask.peak_mb", self.loss_mask_peak_bytes / 2**20, "MB")
        put("sim.mc.packets", counts["sim.mc.packets"] / per, "count/op")
        put("sim.mc.lost", counts["sim.mc.lost"] / per, "count/op")
        put("sim.verify_adversarial.calls", verifies / per, "count/op")
        put("sim.verify_adversarial.self_s", self_time["sim.verify_adversarial"] / per, "s/op")
        put("sim.verify.patterns", counts["sim.verify.patterns"] / per, "count/op")
        put("sim.verify.exhaustive_share",
            counts["sim.verify.exhaustive"] / verifies if verifies else 0.0, "ratio")
        put("sim.component_worst_delays.s", total["sim.component_worst_delays"] / per, "s/op")
        put("sim.component_worst_delays.misses",
            counts["sim.component_worst_delays.misses"] / per, "count/op")
        put("sim.replay_witness.calls", calls["sim.replay_witness"] / per, "count/op")
        put("sim.replay_witness.s", total["sim.replay_witness"] / per, "s/op")

        put("cache.hits", counts["cache.hits"] / per, "count/op")
        put("cache.misses", counts["cache.misses"] / per, "count/op")

        for layer in ("planner", "relay", "codes", "gf"):
            put(f"setup.{layer}.self_s", setup_self[layer], "s")
        return out
