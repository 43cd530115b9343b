"""The public API is what the experiment scripts and the README import.

Trimming the package namespace can break a script without breaking any
import inside the package, so the scripts and the README's library
sketch are run here. The traced benchmark wraps module functions by
name and reads their results, so those names and fields are checked too,
and the audit workload's seeded cycle is compared with the reference
output the benchmark judges it by.
"""

import ast
import collections
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types

import pytest

import relaystream
from relaystream.channels import GeParams, sample_ge, sample_iid
from relaystream.planner import NetworkConfig, oswdf_optimize
from relaystream.relay import assemble, run_network
from relaystream.sim import ChannelSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = {
    "rate_sweep.py": ["--deadlines", "2"],
    "loss_curves.py": ["--packets", "200", "--eps", "0.01"],
}


def readme_sketch() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def package_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "relaystream"
        for alias in node.names
    }


def test_all_names_resolve():
    for name in relaystream.__all__:
        assert getattr(relaystream, name) is not None, name


def test_all_is_what_scripts_and_readme_import():
    used = package_imports(readme_sketch())
    for script in SCRIPTS:
        with open(os.path.join(ROOT, "scripts", script)) as fh:
            used |= package_imports(fh.read())
    assert sorted(relaystream.__all__) == sorted(used)


def run_script(script, args):
    path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    proc = run_script(script, SCRIPTS[script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") >= 2


@pytest.mark.parametrize("script,args", [
    ("loss_curves.py", ["--eps", "0.1,abc"]),
    ("loss_curves.py", ["--eps", "1.5"]),
    ("loss_curves.py", ["--eps", ","]),
    ("loss_curves.py", ["--channel", "ge", "--eps", "1.0"]),
    ("loss_curves.py", ["--channel", "ge", "--alpha", "2"]),
    ("loss_curves.py", ["--seed", "-1"]),
    ("loss_curves.py", ["--packets", "-1"]),
    ("loss_curves.py", ["--packets", str(10**13)]),
    ("rate_sweep.py", ["--n1", "2,x"]),
    ("rate_sweep.py", ["--n1", ""]),
    ("rate_sweep.py", ["--n1", "-1"]),
    ("rate_sweep.py", ["--deadlines", "0"]),
    ("rate_sweep.py", ["--deadlines", "-2"]),
    # a path under a file: the CSV cannot be written, whatever the machine
    ("loss_curves.py", ["--packets", "10", "--out", os.path.join(os.devnull, "curves.csv")]),
    ("rate_sweep.py", ["--deadlines", "2", "--out", os.path.join(os.devnull, "sweep.csv")]),
    # a deadline below t_min, which no planner meets
    ("loss_curves.py", ["--config", "{tmp}/below_t_min.json"]),
], ids=str)
def test_script_refuses_bad_input_with_usage_error(script, args, tmp_path):
    (tmp_path / "below_t_min.json").write_text('{"T": 2, "N1": [2, 3], "N2": [1, 2]}')
    proc = run_script(script, [arg.format(tmp=tmp_path) for arg in args])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_loss_curves_refuses_an_unwritable_out_before_any_monte_carlo(monkeypatch, capsys):
    path = os.path.join(ROOT, "scripts", "loss_curves.py")
    spec = importlib.util.spec_from_file_location("loss_curves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def never(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the output was opened")

    monkeypatch.setattr(script, "run_monte_carlo", never)
    monkeypatch.setattr(sys, "argv", ["loss_curves.py", "--out", os.path.join(os.devnull, "curves.csv")])
    with pytest.raises(SystemExit) as exit_:
        script.main()
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert err.count("cannot write") == 1, err


def test_readme_sketch_runs(capsys):
    exec(compile(readme_sketch(), "README.md", "exec"), {})
    assert 0 <= float(capsys.readouterr().out) < 1


# the symbolic runtime: the relay, the codec and the field solve
RUNTIME = {"NetworkState", "run_network", "CodecState", "encode_step", "decode_step", "solve_erasures"}


def identifiers(source: str) -> set[str]:
    # every name, attribute and imported name the code refers to
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_the_runtime_layers_name_the_runtime():
    # verification and measurement work from the k-th-arrival rule; only
    # the modules that make up the symbolic runtime refer to it
    package = os.path.dirname(relaystream.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("relay.py", "codes.py", "gf.py"):
            with open(os.path.join(package, name)) as fh:
                assert not identifiers(fh.read()) & RUNTIME, name
    assert identifiers("from relaystream.relay import run_network as r\nr.x") >= {"run_network"}


def perfbench_module(name):
    # a benchmark module loaded by path, as the harness runs it
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_finds_what_it_wraps(tmp_path, capsys):
    # perfbench/tracing.py resolves every TARGETS entry when tracing
    # starts and its hooks read these results: a name removed here would
    # crash every traced run while untraced runs still pass. Each hook is
    # run on a real result of its target
    tracing = perfbench_module("tracing")
    targets = {}
    for name, (module, attr) in tracing.TARGETS.items():
        importlib.import_module(module)
        owner, last = tracing._resolve(module, attr)
        targets[name] = getattr(owner, last, None)
        assert callable(targets[name]), name

    cfg = NetworkConfig(T=3, N1=(1,), N2=(1,))
    code = assemble(oswdf_optimize(cfg))
    state = run_network(code, [[0] * code.k] * 3, [{1, 2}])
    assert state.time > 3 and len(state.violations) > 0
    samples = sample_iid(0.5, 20, 1), sample_ge(GeParams(alpha=0.1, beta=0.5, eps=0.1), 20, 1)
    for seq in samples:
        assert len(seq.bits) == 20 and 0 <= int(seq.bits.sum()) <= 20
    horizon = 10 + code.span + cfg.T + 2
    bits = [sample_iid(0.1, horizon, seed).bits for seed in (1, 2)]
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"T": 3, "N1": [1], "N2": [1]}))
    results = {
        "cli.main": targets["cli.main"](["bounds", "--config", str(config_path)]),
        **{name: targets[name](cfg) for name in tracing.PLANNERS},
        "relay.run_network": state,
        "channels.sample_iid": samples[0],
        "channels.sample_ge": samples[1],
        "sim.loss_mask": targets["sim.loss_mask"](code, bits[:1], bits[1:], 10),
        "sim.run_monte_carlo": targets["sim.run_monte_carlo"](code, ChannelSpec("iid", eps=0.1), 10, 1),
        "sim.verify_adversarial": targets["sim.verify_adversarial"](code),
    }
    capsys.readouterr()
    assert set(results) == set(tracing.HOOKS)
    counts = collections.Counter()
    stub = types.SimpleNamespace(count=lambda key, amount=1: counts.update({key: amount}))
    for name, hook in tracing.HOOKS.items():
        hook(stub, (), results[name])
    assert counts["cli.exit_0"] == 1 and counts["sim.verify.exhaustive"] == 1
    assert counts["relay.run_network.steps"] == state.time
    assert counts["sim.mc.packets"] == counts["sim.loss_mask.packets"] == 10


def test_audit_cycle_matches_the_benchmark_reference(tmp_path):
    # every op of the reference seed's audit cycle (plan exit and rate,
    # the verify and tightened verify lines, the witness, the simulate
    # counts) equals the stored output the benchmark judges by, so a line
    # that moves fails here, not only in a benchmark run
    workloads = perfbench_module("workloads")
    with open(os.path.join(ROOT, "perfbench", "reference", "audit.json")) as fh:
        reference = json.load(fh)
    audit = workloads.Audit(reference["seed"])
    audit.setup(str(tmp_path))
    assert len(audit.inputs) == len(reference["ops"]) == 93
    for i, (spec, expected) in enumerate(zip(audit.inputs, reference["ops"])):
        assert json.loads(json.dumps(audit.run_op(spec))) == expected, i
