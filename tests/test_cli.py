"""End-to-end command line checks: goldens for the reference networks,
document round-trips, witness reporting, CSV determinism, exit codes."""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import relaystream
from relaystream.cli import (
    COMMANDS,
    allocation_from_doc,
    allocation_to_doc,
    build_parser,
    command_parser,
    main,
)
from relaystream.planner import NetworkConfig, mwdf_plan, oswdf_initial, oswdf_optimize
from relaystream.relay import assemble

NET_A = {"T": 5, "N1": [2, 3], "N2": [1, 2]}
NET_B = {"T": 4, "N1": [1], "N2": [3, 2]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_golden_net_a(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", NET_A)
    code, out, _ = run(capsys, ["bounds", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["T_min"] == 4
    assert doc["upper"]["exact"] == "1/1" and doc["upper"]["decimal"] == 1.0
    assert doc["mwdf"]["exact"] == "3/4" and doc["mwdf"]["split"] == [3, 2]
    assert doc["cswdf_closed_form"]["exact"] == "8/9"
    assert doc["cswdf"]["exact"] == "8/9"


def test_bounds_golden_net_b(tmp_path, capsys):
    cfg = write(tmp_path, "b.json", NET_B)
    code, out, _ = run(capsys, ["bounds", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"]["exact"] == "2/3"
    assert doc["mwdf"]["exact"] == "1/2"
    assert doc["cswdf"]["exact"] == "3/5"


def test_bounds_lossless_links(tmp_path, capsys):
    cfg = write(tmp_path, "z.json", {"T": 3, "N1": [0, 0, 0], "N2": [0, 0]})
    code, out, _ = run(capsys, ["bounds", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    # with nothing to erase every value is the smaller link count
    for key in ("upper", "mwdf", "cswdf_closed_form", "cswdf"):
        assert doc[key]["exact"] == "2/1", key


def test_bounds_large_deadline_is_cheap(tmp_path, capsys):
    # the split search is linear in T: T = 2000 takes well under a second,
    # where trying every split T1 + T2 <= T takes minutes
    cfg = write(tmp_path, "big.json", {"T": 2000, "N1": [1, 2, 3], "N2": [2, 4]})
    start = time.perf_counter()
    code, out, _ = run(capsys, ["bounds", "--config", cfg])
    assert time.perf_counter() - start < 10
    assert code == 0
    doc = json.loads(out)
    assert doc["mwdf"]["exact"] == "1993/998" and doc["mwdf"]["split"] == [5, 1995]


def test_bounds_refuses_a_deadline_past_the_cap(tmp_path):
    # the planners loop over the deadline's slots: a 41-byte document with
    # T = 10^9 ran until killed, and now exits 2 before any planning
    path = tmp_path / "huge.json"
    path.write_text('{"T": 1000000000, "N1": [1], "N2": [1]}')
    src = os.path.dirname(os.path.dirname(relaystream.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "relaystream.cli", "bounds", "--config", str(path)],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path}: bad T: 1000000000 is above the largest deadline 10000\n"


def test_bounds_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"T": 5,\n  "N1": [2,],\n}')
    code, _, err = run(capsys, ["bounds", "--config", str(path)])
    assert code == 2
    assert "line 2" in err


def test_bounds_missing_key(tmp_path, capsys):
    cfg = write(tmp_path, "m.json", {"T": 5, "N1": [2]})
    code, _, err = run(capsys, ["bounds", "--config", cfg])
    assert code == 2
    assert "N2" in err


@pytest.mark.parametrize("case,message", [
    ("out-into-missing-directory", "cannot write: No such file or directory"),
    ("config-is-a-directory", "cannot read: Is a directory"),
    ("not-utf-8", "cannot parse: 'utf-8' codec can't decode"),
    ("deeply-nested", "cannot parse: maximum recursion depth exceeded"),
    ("5000-digit-integer", "cannot parse: Exceeds the limit"),
])
def test_unreadable_files_are_usage_errors(tmp_path, capsys, case, message):
    cfg = write(tmp_path, "c.json", NET_A)
    argv = ["plan", "--config", cfg]
    if case == "out-into-missing-directory":
        argv += ["--out", str(tmp_path / "missing" / "plan.json")]
    elif case == "config-is-a-directory":
        argv[2] = str(tmp_path)
    else:
        text = {
            "not-utf-8": b'\xff{"T": 5}',
            "deeply-nested": b"[" * 200_000 + b"]" * 200_000,
            "5000-digit-integer": b'{"T": ' + b"9" * 5000 + b', "N1": [1], "N2": [1]}',
        }[case]
        (tmp_path / "c.json").write_bytes(text)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_oswdf_net_a(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", NET_A)
    code, out, _ = run(capsys, ["plan", "--config", cfg, "--scheme", "oswdf"])
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "oswdf"
    assert doc["rate"]["exact"] == "1/1"
    assert doc["n"] == 40
    assert [e["k"] for e in doc["hop1"]] == [24, 16]
    assert [e["k"] for e in doc["hop2"]] == [22, 18]
    assert doc["hop1"][0]["grouping"] == [[4, 8], [3, 8], [2, 8]]
    assert doc["relabel_delay"] is None
    assert doc["capped"] is False
    assert doc["pairing"] and all(
        p["relay_delay"] + p["dest_delay"] <= 5 for p in doc["pairing"]
    )
    assert sum(p["count"] for p in doc["pairing"]) == 40


def test_plan_mwdf_relabels(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", NET_A)
    code, out, _ = run(capsys, ["plan", "--config", cfg, "--scheme", "mwdf"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"]["exact"] == "3/4"
    assert doc["relabel_delay"] == 3
    assert all(p["relay_delay"] == 3 for p in doc["pairing"])


def test_plan_infeasible_deadline(tmp_path, capsys):
    cfg = write(tmp_path, "t.json", {"T": 3, "N1": [2, 3], "N2": [1, 2]})
    code, _, err = run(capsys, ["plan", "--config", cfg, "--scheme", "oswdf"])
    assert code == 2
    assert "cannot plan" in err


def test_plan_that_does_not_assemble_is_a_usage_error(tmp_path, capsys):
    # oswdf plans this network, but one link's code block is longer than
    # GF(2^8) allows, so assembling the document's pairing fails
    cfg = write(tmp_path, "long.json", {"T": 5, "N1": [3, 1], "N2": [2, 3], "dT2": [0, 1]})
    out_path = tmp_path / "alloc.json"
    code, out, err = run(capsys, ["plan", "--config", cfg, "--scheme", "oswdf", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot plan oswdf for this config:")
    assert "exceeds field order 256" in err
    assert not out_path.exists()


def test_allocation_document_round_trip(tmp_path):
    alloc = oswdf_initial(NetworkConfig(T=5, N1=(2, 3), N2=(1, 2)))
    doc = allocation_to_doc(assemble(alloc))
    back = allocation_from_doc(json.loads(json.dumps(doc)), "mem")
    assert back.rate == alloc.rate
    assert back.k1 == alloc.k1 and back.k2 == alloc.k2
    assert back.groupings1 == alloc.groupings1
    assert back.config == alloc.config
    assert not any("budget" in e for e in doc["hop1"] + doc["hop2"])
    assert back.budgets1 == alloc.config.N1 and back.budgets2 == alloc.config.N2


def test_matched_baseline_document_round_trip(tmp_path, capsys):
    cfg = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
    alloc = mwdf_plan(cfg, match=oswdf_optimize(cfg))
    doc = allocation_to_doc(assemble(alloc))
    assert any("budget" in e for e in doc["hop1"] + doc["hop2"])
    back = allocation_from_doc(json.loads(json.dumps(doc)), "mem")
    assert back.budgets1 == alloc.budgets1
    assert back.budgets2 == alloc.budgets2
    # a rate-1 baseline assembles but cannot survive the network budgets,
    # so verification reports a witness rather than a parse error
    path = write(tmp_path, "matched.json", doc)
    code = main(["verify", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "witness" in err and "declared" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.fixture
def planned_a(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", NET_A)
    out_path = str(tmp_path / "alloc.json")
    code = main(["plan", "--config", cfg, "--scheme", "oswdf", "--out", out_path])
    capsys.readouterr()
    assert code == 0
    return out_path


def test_verify_passes_planned_document(planned_a, capsys):
    code, out, _ = run(capsys, ["verify", planned_a])
    assert code == 0
    assert "PASS" in out and "exhaustive" in out


def test_verify_rejects_inflated_k(planned_a, tmp_path, capsys):
    doc = json.loads(open(planned_a).read())
    doc["hop1"][0]["k"] += 1
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, ["verify", path])
    assert code == 1
    assert out == ""
    assert err == "FAIL: hop1 link 0 declares k=25 but its grouping carries 24 symbols\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_bad_relabel_delay_is_a_usage_error(planned_a, tmp_path, capsys, command):
    doc = json.loads(open(planned_a).read())
    doc["relabel_delay"] = "a"
    path = write(tmp_path, "relabel.json", doc)
    code, out, err = run(capsys, [command, path])
    assert code == 2
    assert "bad relabel_delay" in err
    assert out == ""


@pytest.mark.parametrize(
    "field, edit",
    [
        ("relabel_delay", lambda doc: doc.update(relabel_delay=2.7)),
        ("n", lambda doc: doc["hop1"][0].update(n=40.5)),
        ("k", lambda doc: doc["hop2"][1].update(k=18.2)),
        ("grouping delay", lambda doc: doc["hop1"][0]["grouping"][0].__setitem__(0, 4.5)),
        ("grouping count", lambda doc: doc["hop1"][0]["grouping"][0].__setitem__(1, 7.9)),
        ("budget", lambda doc: doc["hop1"][1].update(budget=3.5)),
        ("T", lambda doc: doc["config"].update(T=5.5)),
        ("N2", lambda doc: doc["config"].update(N2=[1, "2"])),
    ],
    ids=["relabel_delay", "n", "k", "grouping_delay", "grouping_count", "budget", "T", "N2"],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_non_integral_numbers_are_usage_errors(planned_a, tmp_path, capsys, command, field, edit):
    # refused, not floored: 2.7 must not be read as 2
    doc = json.loads(open(planned_a).read())
    edit(doc)
    path = write(tmp_path, "fractional.json", doc)
    code, out, err = run(capsys, [command, path])
    assert code == 2
    assert f"bad {field}" in err
    assert out == ""


def test_integral_floats_are_read_as_integers(tmp_path, capsys):
    cfg = write(tmp_path, "a.json", NET_A)
    out_path = str(tmp_path / "mwdf.json")
    assert main(["plan", "--config", cfg, "--scheme", "mwdf", "--out", out_path]) == 0
    doc = json.loads(open(out_path).read())
    doc["relabel_delay"] = 3.0
    doc["config"]["T"] = 5.0
    code, out, _ = run(capsys, ["verify", write(tmp_path, "floats.json", doc)])
    assert code == 0
    assert out.startswith("PASS: rate 3/4")


@pytest.mark.parametrize("relabel", [-3, 2])
def test_verify_rejects_relay_delay_below_hop1_deadline(tmp_path, capsys, relabel):
    # the mwdf split relays at 3; relaying sooner forwards symbols the relay
    # may not hold yet, which simulate would count as lost
    cfg = write(tmp_path, "a.json", NET_A)
    out_path = str(tmp_path / "mwdf.json")
    assert main(["plan", "--config", cfg, "--scheme", "mwdf", "--out", out_path]) == 0
    doc = json.loads(open(out_path).read())
    doc["relabel_delay"] = relabel
    code, out, err = run(capsys, ["verify", write(tmp_path, "early.json", doc)])
    assert code == 1
    assert out == ""
    assert f"leaves the relay after {relabel} slots" in err
    assert "may take 3" in err
    assert "witness" in err and "achieved never" in err


def test_verify_replays_a_witness_over_hop1_links_slower_than_the_relay_buffer(tmp_path, capsys):
    # relaying at once over hop-1 links 40 slots long: the relay recovers
    # each symbol far past the slots it buffers for its deadline, and the
    # witness replay still ends in a FAIL line
    cfg = write(tmp_path, "a.json", NET_A)
    out_path = str(tmp_path / "mwdf.json")
    assert main(["plan", "--config", cfg, "--scheme", "mwdf", "--out", out_path]) == 0
    doc = json.loads(open(out_path).read())
    doc["config"]["dT1"] = [40, 40]
    doc["relabel_delay"] = 0
    code, out, err = run(capsys, ["verify", write(tmp_path, "far.json", doc)])
    assert code == 1 and out == ""
    assert "leaves the relay after 0 slots" in err and "may take 43" in err
    assert "achieved never" in err


def test_verify_rejects_unpairable_document(planned_a, tmp_path, capsys):
    # tightening T inside the document breaks assembly outright; the
    # diagnostic names the offending pair of slots
    doc = json.loads(open(planned_a).read())
    doc["config"]["T"] = 4
    path = write(tmp_path, "tight.json", doc)
    code, out, err = run(capsys, ["verify", path])
    assert code == 1
    assert out == ""
    assert err.startswith("FAIL: allocation does not assemble: allocation is not pairable: hop-1 link ")


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_stated_rate_must_match_the_codes(planned_a, tmp_path, capsys, command):
    doc = json.loads(open(planned_a).read())
    doc["rate"] = {"exact": "1/2", "decimal": 0.5}
    code, out, err = run(capsys, [command, write(tmp_path, "half.json", doc)])
    assert code == 1
    assert out == ""
    assert err == "FAIL: document states rate 1/2 but its codes carry 1\n"


@pytest.mark.parametrize(
    "rate",
    ["1/1", {"decimal": 1.0}, {"exact": 1}, {"exact": "1/0"}, {"exact": "1e9"}],
    ids=["bare", "no_exact", "number", "zero_denominator", "exponent"],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_malformed_rate_is_a_usage_error(planned_a, tmp_path, capsys, command, rate):
    doc = json.loads(open(planned_a).read())
    doc["rate"] = rate
    code, out, err = run(capsys, [command, write(tmp_path, "rate.json", doc)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bad rate" in err


def test_verify_deadline_audit_produces_witness(planned_a, capsys):
    code, _, err = run(capsys, ["verify", planned_a, "--deadline", "4"])
    assert code == 1
    assert "witness" in err
    assert "required delay 4" in err
    assert "achieved 5" in err


def test_verify_names_a_slot_that_never_recovers(tmp_path, capsys):
    # a hop-1 code built for one erasure, checked against two: slot 0 of
    # its (2, 1) component is never recovered, and the report says so
    # rather than printing the "never" sentinel as a delay
    cfg = write(tmp_path, "one.json", {"T": 4, "N1": [1], "N2": [1]})
    code, out, _ = run(capsys, ["plan", "--config", cfg, "--scheme", "mwdf"])
    assert code == 0
    doc = json.loads(out)
    doc["config"]["N1"] = [2]
    doc["hop1"][0]["budget"] = 1
    code, out, err = run(capsys, ["verify", write(tmp_path, "raised.json", doc)])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "FAIL: hop-1 link 0 slot 0 never recovers, declared 2 (exhaustive)",
        "  witness: source packet 9, symbol 0; required delay 2, achieved never",
        "  hop-1 erasures: [[9, 10]]",
        "  hop-2 erasures: [[]]",
    ]


def test_a_loose_deadline_leaves_a_per_link_witness_where_it_was(planned_a, tmp_path, capsys):
    # NET_A oswdf checked against hop-1 budgets one over its codes': the
    # per-link witness sits past the document's T, not past the deadline
    # checked, so a deadline of 10 000 replays the same witness and says
    # the same; anchored past the deadline, it landed on a source packet
    # whose drawn symbol is 0, and read the 0 the relay forwards in place
    # of a symbol it lacks as a recovery
    doc = json.loads(open(planned_a).read())
    doc["config"]["N1"] = [3, 4]
    doc["hop1"][0]["budget"], doc["hop1"][1]["budget"] = 2, 3
    path = write(tmp_path, "raised.json", doc)
    code, out, err = run(capsys, ["verify", path])
    assert (code, out) == (1, "")
    assert "never recovers" in err and "achieved never" in err
    assert run(capsys, ["verify", path, "--deadline", "10000"]) == (1, "", err)


def cap_address_space():
    # runs in the child only: 2 GiB of address space, far below what a
    # dense range over 3*10^8 delays takes
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("delay", [300_000_000, -300_000_000, 300])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_grouping_delay_outside_the_field_fails_in_bounded_memory(tmp_path, capsys, command, delay):
    # a component of delay d is d + 1 slots long, so no delay outside
    # 0..255 assembles; the document is refused before its grouping is
    # expanded, whatever the number written in it
    cfg = write(tmp_path, "one.json", {"T": 4, "N1": [1], "N2": [1]})
    code, out, _ = run(capsys, ["plan", "--config", cfg, "--scheme", "mwdf"])
    assert code == 0
    doc = json.loads(out)
    doc["hop1"][0]["grouping"] = [[delay, 1], [1, 1]]
    path = write(tmp_path, "far.json", doc)
    src = os.path.dirname(os.path.dirname(relaystream.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "relaystream.cli", command, path],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"FAIL: hop1 link 0 grouping delay {delay} is outside 0..255, the delays the field has components for"
    ]


def test_importing_the_cli_leaves_numpy_unloaded():
    # only sampling and the loss kernel use numpy; bounds, plan, verify and
    # ensemble processes skip its import
    src = os.path.dirname(os.path.dirname(relaystream.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import relaystream.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_loose_deadline_is_cheap(tmp_path, capsys):
    # verify's cost follows the document, not the deadline it checks: the
    # 1x1 joint pairs are counted, not replayed to a horizon past the
    # deadline, so a deadline of 10^9 takes no longer than the document's own
    cfg = write(tmp_path, "one.json", {"T": 4, "N1": [2], "N2": [1]})
    out_path = str(tmp_path / "mwdf.json")
    assert main(["plan", "--config", cfg, "--scheme", "mwdf", "--out", out_path]) == 0
    src = os.path.dirname(os.path.dirname(relaystream.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "relaystream.cli", "verify", out_path, "--deadline", "1000000000"],
        capture_output=True, text=True, timeout=5, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "PASS: rate 1/2 within deadline T=1000000000; 73 patterns checked, exhaustive\n"


def test_verify_witness_on_a_wide_code_is_cheap(tmp_path, capsys):
    # a failure witness's delay comes from the k-th-arrival rule on its
    # route, not from stepping the runtime, so a witness on an oswdf code
    # 84 480 slots wide costs what the document's size does
    cfg = write(tmp_path, "wide.json", {"T": 7, "N1": [2, 2], "N2": [2, 2], "dT1": [0, 1], "dT2": [1, 0]})
    out_path = str(tmp_path / "oswdf.json")
    assert main(["plan", "--config", cfg, "--scheme", "oswdf", "--out", out_path]) == 0
    src = os.path.dirname(os.path.dirname(relaystream.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "relaystream.cli", "verify", out_path, "--deadline", "6"],
        capture_output=True, text=True, timeout=5, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "FAIL: symbol 0 pairs delays 5+2 > T=6 (exhaustive)",
        "  witness: source packet 15, symbol 0; required delay 6, achieved 7",
        "  hop-1 erasures: [[15, 16], []]",
        "  hop-2 erasures: [[], [18, 20]]",
    ]


@pytest.mark.parametrize("hop2", [
    {"n": 3, "k": 2, "grouping": [[2, 1], [1, 1]]},
    {"n": 3, "k": 0, "grouping": []},
], ids=["hop2-carries", "hop2-silent"])
def test_verify_one_by_one_with_silent_hop1_link(tmp_path, capsys, hop2):
    # the 1x1 joint-pair count sizes each hop's window from its slot
    # delays, and a link that carries no symbols has none
    doc = {
        "scheme": "oswdf",
        "config": {"T": 4, "N1": [1], "N2": [1]},
        "hop1": [{"n": 3, "k": 0, "grouping": []}],
        "hop2": [hop2],
    }
    code, out, err = run(capsys, ["verify", write(tmp_path, "silent.json", doc)])
    assert code == 0
    assert out.startswith("PASS: rate 0 ")
    assert err == ""


@pytest.mark.parametrize("deadline", ["0", "-2"])
def test_verify_nonpositive_deadline_is_a_usage_error(planned_a, capsys, deadline):
    code, out, err = run(capsys, ["verify", planned_a, "--deadline", deadline])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --deadline")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@pytest.fixture
def planned_b_mwdf(tmp_path, capsys):
    cfg = write(tmp_path, "b.json", NET_B)
    out_path = str(tmp_path / "mwdf.json")
    code = main(["plan", "--config", cfg, "--scheme", "mwdf", "--out", out_path])
    capsys.readouterr()
    assert code == 0
    return out_path


def test_simulate_clear_grid(planned_b_mwdf, capsys):
    code, out, _ = run(
        capsys,
        ["simulate", planned_b_mwdf, "--eps", "0.0,0.3", "--packets", "300", "--seed", "9"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,rate,channel,eps,alpha,beta,packets,lost,loss_rate,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "mwdf" and first[1] == "1/2"
    assert float(first[8]) == 0.0  # nothing erased, nothing lost
    assert int(lines[2].split(",")[7]) > 0


def test_simulate_deterministic(planned_b_mwdf, capsys):
    argv = ["simulate", planned_b_mwdf, "--eps", "0.1", "--packets", "500", "--seed", "4"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, argv[:-1] + ["5"])
    assert out3 != out1


def test_simulate_rejects_inflated_k(planned_a, tmp_path, capsys):
    # refused with verify's line before anything is simulated
    doc = json.loads(open(planned_a).read())
    doc["hop1"][0]["k"] = 29
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, ["simulate", path, "--packets", "100"])
    assert code == 1
    assert out == ""
    assert err == "FAIL: hop1 link 0 declares k=29 but its grouping carries 24 symbols\n"


def test_simulate_rejects_unpairable_document(planned_a, tmp_path, capsys):
    doc = json.loads(open(planned_a).read())
    doc["config"]["T"] = 4
    path = write(tmp_path, "tight.json", doc)
    verify = run(capsys, ["verify", path])
    assert verify[0] == 1 and verify[2].startswith("FAIL: allocation does not assemble")
    assert run(capsys, ["simulate", path, "--packets", "100"]) == verify


def test_simulate_refuses_an_unwritable_out_before_any_monte_carlo(planned_b_mwdf, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("Monte Carlo ran before the output was opened")

    monkeypatch.setattr(relaystream.cli, "run_monte_carlo", never)
    # a path under a file: the CSV cannot be written, whatever the machine
    out_path = os.path.join(os.devnull, "sim.csv")
    code, out, err = run(capsys, ["simulate", planned_b_mwdf, "--out", out_path])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {out_path}: cannot write") and err.count("\n") == 1, err


def test_simulate_zero_packets(planned_b_mwdf, capsys):
    code, out, _ = run(capsys, ["simulate", planned_b_mwdf, "--packets", "0"])
    assert code == 0
    assert out.strip().splitlines() == ["scheme,rate,channel,eps,alpha,beta,packets,lost,loss_rate,seed"]


@pytest.mark.parametrize("packets", ["10", "0"])
def test_simulate_negative_seed_is_a_usage_error(planned_b_mwdf, capsys, packets):
    code, out, err = run(capsys, ["simulate", planned_b_mwdf, "--packets", packets, "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.endswith("error: --seed must be nonnegative\n"), err


@pytest.mark.parametrize("eps", ["1.5", "-0.1", "nan", "0.1,2"])
def test_simulate_eps_outside_unit_interval_is_a_usage_error(planned_b_mwdf, capsys, eps):
    code, out, err = run(capsys, ["simulate", planned_b_mwdf, "--eps", eps, "--packets", "10"])
    assert code == 2
    assert out == ""
    assert err == f"error: bad --eps value: {eps!r}\n"


def test_simulate_ge_channel(planned_b_mwdf, capsys):
    argv = [
        "simulate", planned_b_mwdf, "--channel", "ge",
        "--eps", "0.01", "--alpha", "0.05", "--beta", "0.4",
        "--packets", "400", "--seed", "2",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "ge" and row[3] == "0.01" and row[4] == "0.05" and row[5] == "0.4"


def test_simulate_ge_channel_grid(planned_b_mwdf, capsys):
    # --eps is one grid parser for both channels: one row per eps
    argv = [
        "simulate", planned_b_mwdf, "--channel", "ge",
        "--eps", "0.01,0.02", "--alpha", "0.05", "--beta", "0.4",
        "--packets", "200", "--seed", "2",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[2:6] for row in rows] == [["ge", "0.01", "0.05", "0.4"], ["ge", "0.02", "0.05", "0.4"]]


@pytest.mark.parametrize("channel", ["iid", "ge"])
@pytest.mark.parametrize("eps", ["", ",", " , "])
def test_simulate_empty_eps_grid_is_a_usage_error(planned_b_mwdf, capsys, channel, eps):
    # an empty grid would simulate nothing and still exit 0
    argv = ["simulate", planned_b_mwdf, "--channel", channel, "--eps", eps, "--packets", "10"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: bad --eps value: {eps!r}\n"


def test_simulate_ge_eps_outside_unit_interval_is_a_usage_error(planned_b_mwdf, capsys):
    argv = ["simulate", planned_b_mwdf, "--channel", "ge", "--eps", "1.5", "--packets", "10"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: bad --eps value: '1.5'\n"


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_csv_and_summary(tmp_path, capsys):
    out_path = str(tmp_path / "rows.csv")
    code, _, err = run(capsys, ["ensemble", "--trials", "5", "--seed", "2", "--out", out_path])
    assert code == 0
    lines = open(out_path).read().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("T,N1,N2,upper,mwdf,cswdf,oswdf")
    assert "dominance violations: 0" in err
    assert "upper bound hit" in err


def edited(path, tmp_path, edit):
    doc = json.loads(open(path).read())
    edit(doc)
    return write(tmp_path, "edited.json", doc)


@pytest.mark.parametrize("argv,message", [
    (lambda alloc, tmp: ["simulate", alloc, "--packets", "-1"], "--packets must be nonnegative"),
    (lambda alloc, tmp: ["ensemble", "--trials", "0"], "--trials must be positive"),
    (lambda alloc, tmp: ["simulate", alloc, "--channel", "ge", "--alpha", "2"],
     "bad channel params: alpha must be in [0, 1]"),
    (lambda alloc, tmp: ["simulate", alloc, "--eps", "0.1,abc"], "bad --eps value: '0.1,abc'"),
    (lambda alloc, tmp: ["verify", edited(alloc, tmp, lambda d: d.pop("hop2"))],
     "allocation document missing 'hop2'"),
    (lambda alloc, tmp: ["verify", write(tmp, "list.json", [1, 2])], "top level must be an object"),
    (lambda alloc, tmp: ["verify", write(tmp, "cfg.json", dict(scheme="oswdf", config=[1], hop1=[], hop2=[]))],
     "cfg.json: config must be an object"),
    (lambda alloc, tmp: ["verify", edited(alloc, tmp, lambda d: d["hop1"].append(d["hop1"][0]))],
     "document lists 3 links where the config has 2"),
    (lambda alloc, tmp: ["simulate", edited(alloc, tmp, lambda d: d["hop2"][1].pop("n"))],
     "bad hop entry: 'n'"),
    (lambda alloc, tmp: ["bounds", "--config", write(tmp, "c.json", [5, [2], [1]])],
     "top level must be an object"),
    (lambda alloc, tmp: ["plan", "--config", write(tmp, "c.json", {**NET_A, "N1": [2, -3]})],
     "bad config: budgets and delays must be nonnegative"),
], ids=[
    "negative-packets", "zero-trials", "ge-alpha-2", "eps-not-a-number", "missing-hop2",
    "document-not-an-object", "document-config-not-an-object", "link-count-mismatch", "hop-entry-without-n",
    "config-not-an-object", "negative-budget",
])
def test_refusals_print_one_error_line(planned_a, tmp_path, capsys, argv, message):
    code, out, err = run(capsys, argv(planned_a, tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_usage_errors(capsys):
    assert main(["plan"]) == 2  # missing --config
    capsys.readouterr()
    assert main(["simulate", "/nonexistent.json", "--packets", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Help and usage-error texts with COLUMNS=80 under Python 3.11's argparse,
# captured from main as it was when every call parsed through the full
# build_parser() tree. main now builds only the invoked subcommand's parser
# where it can, and none of these texts may move.
TOP_HELP = (
    'usage: relaystream [-h] {bounds,plan,verify,simulate,ensemble} ...\n'
    '\n'
    'plan, verify and simulate streaming codes for a relayed link\n'
    '\n'
    'positional arguments:\n'
    '  {bounds,plan,verify,simulate,ensemble}\n'
    '    bounds              closed-form rates for a network config\n'
    '    plan                emit a full allocation document\n'
    '    verify              re-check an allocation document\n'
    '    simulate            Monte Carlo loss of an assembled allocation\n'
    '    ensemble            compare planners over random networks\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
)
BOUNDS_HELP = (
    'usage: relaystream bounds [-h] --config CONFIG [--out OUT]\n'
    '\n'
    'options:\n'
    '  -h, --help       show this help message and exit\n'
    '  --config CONFIG  network config JSON\n'
    '  --out OUT        write the document here instead of stdout\n'
)
PLAN_HELP = (
    'usage: relaystream plan [-h] --config CONFIG [--scheme {mwdf,cswdf,oswdf}]\n'
    '                        [--out OUT]\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    '  --config CONFIG       network config JSON\n'
    '  --scheme {mwdf,cswdf,oswdf}\n'
    '  --out OUT             write the document here instead of stdout\n'
)
VERIFY_HELP = (
    'usage: relaystream verify [-h] [--deadline DEADLINE] allocation\n'
    '\n'
    'positional arguments:\n'
    '  allocation           allocation document JSON\n'
    '\n'
    'options:\n'
    '  -h, --help           show this help message and exit\n'
    "  --deadline DEADLINE  audit against this deadline instead of the document's T\n"
)
SIMULATE_HELP = (
    'usage: relaystream simulate [-h] [--channel {iid,ge}] [--eps EPS]\n'
    '                            [--alpha ALPHA] [--beta BETA] [--packets PACKETS]\n'
    '                            [--seed SEED] [--out OUT]\n'
    '                            allocation\n'
    '\n'
    'positional arguments:\n'
    '  allocation          allocation document JSON\n'
    '\n'
    'options:\n'
    '  -h, --help          show this help message and exit\n'
    '  --channel {iid,ge}\n'
    '  --eps EPS           loss probability; comma list sweeps a grid\n'
    '  --alpha ALPHA       good-to-bad transition (ge)\n'
    '  --beta BETA         bad-to-good transition (ge)\n'
    '  --packets PACKETS\n'
    '  --seed SEED\n'
    '  --out OUT           write the CSV here instead of stdout\n'
)
ENSEMBLE_HELP = (
    'usage: relaystream ensemble [-h] [--trials TRIALS] [--seed SEED] [--out OUT]\n'
    '\n'
    'options:\n'
    '  -h, --help       show this help message and exit\n'
    '  --trials TRIALS\n'
    '  --seed SEED\n'
    '  --out OUT        write the CSV here instead of stdout\n'
)


def usage(help_text):
    return help_text.split("\n\n")[0] + "\n"


CLI_TEXT = [
    ([], 2, "", usage(TOP_HELP)
     + "relaystream: error: the following arguments are required: command\n"),
    (["-h"], 0, TOP_HELP, ""),
    (["--help"], 0, TOP_HELP, ""),
    (["-h", "verify"], 0, TOP_HELP, ""),
    (["bounds", "-h"], 0, BOUNDS_HELP, ""),
    (["plan", "-h"], 0, PLAN_HELP, ""),
    (["verify", "-h"], 0, VERIFY_HELP, ""),
    (["simulate", "-h"], 0, SIMULATE_HELP, ""),
    (["ensemble", "-h"], 0, ENSEMBLE_HELP, ""),
    (["simulate", "--help", "x"], 0, SIMULATE_HELP, ""),
    (["frob"], 2, "", usage(TOP_HELP)
     + "relaystream: error: argument command: invalid choice: 'frob' "
       "(choose from 'bounds', 'plan', 'verify', 'simulate', 'ensemble')\n"),
    # the top level sets the unknown option aside and runs verify on nothing
    (["--bogus", "verify"], 2, "", usage(VERIFY_HELP)
     + "relaystream verify: error: the following arguments are required: allocation\n"),
    (["plan", "--config", "c.json", "--scheme", "bogus"], 2, "", usage(PLAN_HELP)
     + "relaystream plan: error: argument --scheme: invalid choice: 'bogus' "
       "(choose from 'mwdf', 'cswdf', 'oswdf')\n"),
    (["simulate", "a.json", "--channel", "bursty"], 2, "", usage(SIMULATE_HELP)
     + "relaystream simulate: error: argument --channel: invalid choice: 'bursty' "
       "(choose from 'iid', 'ge')\n"),
    (["verify", "a.json", "--deadline", "soon"], 2, "", usage(VERIFY_HELP)
     + "relaystream verify: error: argument --deadline: invalid int value: 'soon'\n"),
    (["ensemble", "--trials", "many"], 2, "", usage(ENSEMBLE_HELP)
     + "relaystream ensemble: error: argument --trials: invalid int value: 'many'\n"),
    (["simulate", "a.json", "--alpha", "x"], 2, "", usage(SIMULATE_HELP)
     + "relaystream simulate: error: argument --alpha: invalid float value: 'x'\n"),
    (["bounds"], 2, "", usage(BOUNDS_HELP)
     + "relaystream bounds: error: the following arguments are required: --config\n"),
    (["verify"], 2, "", usage(VERIFY_HELP)
     + "relaystream verify: error: the following arguments are required: allocation\n"),
    # the full tree reports leftover arguments from its top level
    (["verify", "a", "b"], 2, "", usage(TOP_HELP)
     + "relaystream: error: unrecognized arguments: b\n"),
    # an abbreviated option parses; the missing file is the command's error
    (["verify", "missing.json", "--dead", "3"], 2, "", "error: missing.json: no such file\n"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", CLI_TEXT, ids=[" ".join(argv) or "no-args" for argv, *_ in CLI_TEXT]
)
def test_help_and_usage_error_texts(argv, code, out, err, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, argv) == (code, out, err)


def test_command_parsers_match_the_full_tree(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)
    for name, parser in sub.choices.items():
        assert command_parser(name).format_help() == parser.format_help(), name


def test_main_builds_only_the_invoked_parser(planned_a, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, ["verify", planned_a])[0] == 0
    assert built == ["relaystream verify"]
    assert run(capsys, ["simulate", planned_a, "--packets", "10"])[0] == 0
    assert built == ["relaystream verify", "relaystream simulate"]
    code, _, err = run(capsys, ["verify", "a", "b"])
    assert code == 2
    assert err.splitlines()[0] == "usage: relaystream [-h] {bounds,plan,verify,simulate,ensemble} ..."


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["relaystream", "verify", "-h"])
    assert run(capsys, None) == (0, VERIFY_HELP, "")
