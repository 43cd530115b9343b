"""End-to-end command line checks: goldens for the reference networks,
document round-trips, witness reporting, CSV determinism, exit codes."""

import json

import pytest

from relaystream.cli import allocation_from_doc, allocation_to_doc, main
from relaystream.planner import NetworkConfig, mwdf_plan, oswdf_initial, oswdf_optimize

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


def test_allocation_document_round_trip(tmp_path):
    alloc = oswdf_initial(NetworkConfig(T=5, N1=(2, 3), N2=(1, 2)))
    doc = allocation_to_doc(alloc)
    back = allocation_from_doc(json.loads(json.dumps(doc)), "mem")
    assert back.rate == alloc.rate
    assert back.k1 == alloc.k1 and back.k2 == alloc.k2
    assert back.groupings1 == alloc.groupings1
    assert back.config == alloc.config
    assert back.budgets1 is None and back.budgets2 is None


def test_matched_baseline_document_round_trip(tmp_path, capsys):
    cfg = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
    alloc = mwdf_plan(cfg, match=oswdf_optimize(cfg))
    doc = allocation_to_doc(alloc)
    assert any("budget" in e for e in doc["hop1"] + doc["hop2"])
    back = allocation_from_doc(json.loads(json.dumps(doc)), "mem")
    assert back.build_budgets1() == alloc.build_budgets1()
    assert back.build_budgets2() == alloc.build_budgets2()
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


def test_simulate_zero_packets(planned_b_mwdf, capsys):
    code, out, _ = run(capsys, ["simulate", planned_b_mwdf, "--packets", "0"])
    assert code == 0
    assert out.strip().splitlines() == ["scheme,rate,channel,eps,alpha,beta,packets,lost,loss_rate,seed"]


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


def test_usage_errors(capsys):
    assert main(["plan"]) == 2  # missing --config
    capsys.readouterr()
    assert main(["simulate", "/nonexistent.json", "--packets", "1"]) == 2
    capsys.readouterr()
