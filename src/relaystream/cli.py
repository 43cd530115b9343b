"""Command line front end.

Five subcommands cover the workflow: ``bounds`` prints the closed-form
planner quantities for a network config, ``plan`` emits a full allocation
document for one scheme, ``verify`` re-checks a document against the
adversary, ``simulate`` streams Monte Carlo packets through an assembled
document, and ``ensemble`` compares the planners over random networks.

Configs and allocation documents are JSON. Exact rates appear as "p/q"
strings next to a float so logs stay greppable and lossless at once.
Exit codes: 0 success or pass, 1 verification failure, 2 bad usage or
unparseable input. Exit-1 messages start with ``FAIL:``, exit-2 messages
with ``error:``. ``main`` builds only the parser of the subcommand its
first argument names; any other command line, and one with arguments that
parser leaves over, goes through the full ``build_parser()`` tree, so help
and error texts are those of the full tree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .channels import GeParams
from .gf import FIELD_ORDER
from .planner import (
    Allocation,
    NetworkConfig,
    cswdf_closed_form,
    cswdf_plan,
    mwdf_plan,
    mwdf_rate,
    oswdf_optimize,
    t_min,
    upper_bound,
)
from .relay import NetworkCode, assemble
from .sim import ChannelSpec, run_ensemble, run_monte_carlo, verify_adversarial
from .spectrum import DelayGrouping


RATE_RE = re.compile(r"[0-9]+/[0-9]+")


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def fraction_doc(fr: Fraction) -> dict:
    return {"exact": f"{fr.numerator}/{fr.denominator}", "decimal": float(fr)}


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file")
    except OSError as e:
        raise CliError(f"{path}: cannot read: {e.strerror}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # not UTF-8, nested too deep, or an integer past Python's digit limit
        raise CliError(f"{path}: cannot parse: {e}")


def read_int(value: object, what: str, path: str) -> int:
    """An integer field of a document. Integral floats such as 3.0 are
    read as integers; anything else is refused rather than floored."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{path}: bad {what}: {value!r} is not an integer")
    return value


def config_from_doc(doc: dict, path: str) -> NetworkConfig:
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be an object")
    missing = [key for key in ("T", "N1", "N2") if key not in doc]
    if missing:
        raise CliError(f"{path}: missing required keys: {', '.join(missing)}")
    try:
        return NetworkConfig(
            T=read_int(doc["T"], "T", path),
            N1=tuple(read_int(x, "N1", path) for x in doc["N1"]),
            N2=tuple(read_int(x, "N2", path) for x in doc["N2"]),
            dT1=tuple(read_int(x, "dT1", path) for x in doc.get("dT1", ())),
            dT2=tuple(read_int(x, "dT2", path) for x in doc.get("dT2", ())),
        )
    except (TypeError, ValueError) as e:
        raise CliError(f"{path}: bad config: {e}")


def config_to_doc(config: NetworkConfig) -> dict:
    return {
        "T": config.T,
        "N1": list(config.N1),
        "N2": list(config.N2),
        "dT1": list(config.dT1),
        "dT2": list(config.dT2),
    }


def allocation_to_doc(alloc: Allocation) -> dict:
    def hop(ns, ks, groupings, budgets, net_budgets):
        entries = []
        for i, (n, k, g) in enumerate(zip(ns, ks, groupings)):
            e = {"n": n, "k": k, "grouping": [[d, c] for d, c in g.entries if c]}
            if budgets[i] != net_budgets[i]:
                e["budget"] = budgets[i]
            entries.append(e)
        return entries

    doc = {
        "scheme": alloc.scheme,
        "config": config_to_doc(alloc.config),
        "rate": fraction_doc(alloc.rate),
        "n": alloc.n,
        "hop1": hop(alloc.n1, alloc.k1, alloc.groupings1,
                    alloc.budgets1, alloc.config.N1),
        "hop2": hop(alloc.n2, alloc.k2, alloc.groupings2,
                    alloc.budgets2, alloc.config.N2),
        "bottleneck": alloc.bottleneck,
        "relabel_delay": alloc.relabel_delay,
        "capped": alloc.capped,
    }
    pairing = Counter((r.relay_delay, r.dest_delay) for r in assemble(alloc).routes)
    doc["pairing"] = [
        {"relay_delay": d1, "dest_delay": d2, "count": c}
        for (d1, d2), c in sorted(pairing.items(), reverse=True)
    ]
    return doc


def allocation_from_doc(doc: dict, path: str) -> Allocation:
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be an object")
    for key in ("scheme", "config", "hop1", "hop2"):
        if key not in doc:
            raise CliError(f"{path}: allocation document missing {key!r}")
    config = config_from_doc(doc["config"], path)

    def hop(name, entries, net_budgets):
        if len(entries) != len(net_budgets):
            raise CliError(
                f"{path}: document lists {len(entries)} links where the config has {len(net_budgets)}"
            )
        ns, ks, gs, bs = [], [], [], []
        for link, (e, net) in enumerate(zip(entries, net_budgets)):
            ns.append(read_int(e["n"], "n", path))
            ks.append(read_int(e["k"], "k", path))
            pairs = [
                (read_int(d, "grouping delay", path), read_int(c, "grouping count", path))
                for d, c in e["grouping"]
            ]
            # a delay-d component is d + 1 slots long; refusing here keeps
            # from_pairs from spanning the range out to a far-off delay
            for d, c in pairs:
                if c and not 0 <= d < FIELD_ORDER:
                    raise CliError(
                        f"{name} link {link} grouping delay {d} is outside 0..{FIELD_ORDER - 1}, "
                        "the delays the field has components for",
                        code=1,
                    )
            gs.append(DelayGrouping.from_pairs(pairs))
            bs.append(read_int(e.get("budget", net), "budget", path))
        return tuple(ns), tuple(ks), tuple(gs), tuple(bs)

    try:
        n1, k1, g1, b1 = hop("hop1", doc["hop1"], config.N1)
        n2, k2, g2, b2 = hop("hop2", doc["hop2"], config.N2)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path}: bad hop entry: {e}")
    relabel = doc.get("relabel_delay")
    relabel = None if relabel is None else read_int(relabel, "relabel_delay", path)
    return Allocation(
        scheme=str(doc.get("scheme", "oswdf")),
        config=config,
        n1=n1,
        n2=n2,
        k1=k1,
        k2=k2,
        groupings1=g1,
        groupings2=g2,
        bottleneck=str(doc.get("bottleneck", "hop1")),
        relabel_delay=relabel,
        capped=bool(doc.get("capped", False)),
        budgets1=b1,
        budgets2=b2,
    )


def load_code(path: str) -> tuple[Allocation, NetworkCode]:
    """Read, check and assemble an allocation document.

    Usage errors exit 2. A document that parses but does not hold
    together exits 1: a link's k differs from the symbols its grouping
    carries, the codes do not assemble, or the stated rate differs from
    the rate the codes carry.
    """
    doc = load_json(path)
    alloc = allocation_from_doc(doc, path)
    stated = None
    if "rate" in doc:
        exact = doc["rate"].get("exact") if isinstance(doc["rate"], dict) else None
        try:
            # "p/q" only: Fraction would also expand an exponent such as 1e999999999
            stated = Fraction(RATE_RE.fullmatch(exact)[0])
        except (TypeError, ValueError, ZeroDivisionError):
            raise CliError(f"{path}: bad rate: {doc['rate']!r} has no exact p/q value")
    for hop, ks, groupings in (("hop1", alloc.k1, alloc.groupings1), ("hop2", alloc.k2, alloc.groupings2)):
        for link, (k, g) in enumerate(zip(ks, groupings)):
            if g.total() != k:
                raise CliError(
                    f"{hop} link {link} declares k={k} but its grouping carries {g.total()} symbols",
                    code=1,
                )
    try:
        code = assemble(alloc)
    except ValueError as e:
        raise CliError(f"allocation does not assemble: {e}", code=1)
    if stated is not None and stated != alloc.rate:
        raise CliError(f"document states rate {stated} but its codes carry {alloc.rate}", code=1)
    return alloc, code


def emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"{out}: cannot write: {e.strerror}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    config = config_from_doc(load_json(args.config), args.config)
    rate_mw, t1, t2 = mwdf_rate(config)
    rate_csw, _ = cswdf_plan(config)
    doc = {
        "config": config_to_doc(config),
        "T_min": t_min(config),
        "upper": fraction_doc(upper_bound(config)),
        "mwdf": {**fraction_doc(rate_mw), "split": [t1, t2]},
        "cswdf_closed_form": fraction_doc(cswdf_closed_form(config)),
        "cswdf": fraction_doc(rate_csw),
    }
    emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_plan(args) -> int:
    config = config_from_doc(load_json(args.config), args.config)
    try:
        if args.scheme == "mwdf":
            alloc = mwdf_plan(config)
        elif args.scheme == "cswdf":
            alloc = cswdf_plan(config)[1]
        else:
            alloc = oswdf_optimize(config)
        doc = allocation_to_doc(alloc)
    except ValueError as e:
        raise CliError(f"cannot plan {args.scheme} for this config: {e}")
    emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    alloc, code = load_code(args.allocation)
    check_config = alloc.config
    if args.deadline is not None:
        try:
            check_config = replace(alloc.config, T=args.deadline)
        except ValueError as e:
            raise CliError(f"bad --deadline: {e}")
    report = verify_adversarial(code, config=check_config)
    mode = "exhaustive" if report.exhaustive else "sampled (not exhaustive)"
    if report.ok:
        print(
            f"PASS: rate {alloc.rate} within deadline T={check_config.T}; "
            f"{report.checked_patterns} patterns checked, {mode}"
        )
        return 0
    print(f"FAIL: {report.detail} ({mode})", file=sys.stderr)
    w = report.failure
    if w is not None:
        print(
            f"  witness: source packet {w.src_time}, symbol {w.sym}; "
            f"required delay {w.required_delay}, achieved "
            f"{w.actual_delay if w.actual_delay is not None else 'never'}",
            file=sys.stderr,
        )
        print(f"  hop-1 erasures: {[list(e) for e in w.erasures1]}", file=sys.stderr)
        print(f"  hop-2 erasures: {[list(e) for e in w.erasures2]}", file=sys.stderr)
    return 1


SIM_COLUMNS = [
    "scheme", "rate", "channel", "eps", "alpha", "beta",
    "packets", "lost", "loss_rate", "seed",
]


def _parse_eps_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(f"bad --eps value: {text!r}")
    if not all(0 <= e <= 1 for e in grid):  # NaN fails both comparisons
        raise CliError(f"bad --eps value: {text!r}")
    return grid


def cmd_simulate(args) -> int:
    alloc, code = load_code(args.allocation)
    if args.packets < 0:
        raise CliError("--packets must be nonnegative")
    if args.seed < 0:
        raise CliError("--seed must be nonnegative")

    if args.channel == "iid":
        channels = [ChannelSpec("iid", eps=e) for e in _parse_eps_grid(args.eps)]
    else:
        try:
            params = GeParams(alpha=args.alpha, beta=args.beta, eps=float(args.eps))
        except ValueError as e:
            raise CliError(f"bad channel params: {e}")
        channels = [ChannelSpec("ge", ge=params)]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SIM_COLUMNS)
    if args.packets > 0:
        for spec in channels:
            res = run_monte_carlo(code, spec, args.packets, args.seed)
            ch = res.channel
            writer.writerow([
                res.scheme,
                f"{alloc.rate.numerator}/{alloc.rate.denominator}",
                ch["channel"], ch["eps"], ch["alpha"], ch["beta"],
                res.packets, res.lost, f"{res.loss_rate:.8f}", res.seed,
            ])
    emit(buf.getvalue(), args.out)
    return 0


ENSEMBLE_COLUMNS = [
    "T", "N1", "N2", "upper", "mwdf", "cswdf", "oswdf",
    "upper_decimal", "mwdf_decimal", "cswdf_decimal", "oswdf_decimal", "seed",
]


def cmd_ensemble(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be positive")
    rows = run_ensemble(args.seed, args.trials)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ENSEMBLE_COLUMNS)
    violations = 0
    hits = 0
    for r in rows:
        violations += 0 if r.dominant else 1
        hits += 1 if r.hits_upper else 0
        writer.writerow([
            r.config.T,
            " ".join(map(str, r.config.N1)),
            " ".join(map(str, r.config.N2)),
            f"{r.upper.numerator}/{r.upper.denominator}",
            f"{r.mwdf.numerator}/{r.mwdf.denominator}",
            f"{r.cswdf.numerator}/{r.cswdf.denominator}",
            f"{r.oswdf.numerator}/{r.oswdf.denominator}",
            float(r.upper), float(r.mwdf), float(r.cswdf), float(r.oswdf),
            args.seed,
        ])
    emit(buf.getvalue(), args.out)
    print(
        f"ensemble: {args.trials} trials, seed {args.seed}; "
        f"dominance violations: {violations}; "
        f"upper bound hit in {hits}/{args.trials} trials ({hits / args.trials:.1%})",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="network config JSON")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_bounds)


def _plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="network config JSON")
    p.add_argument("--scheme", choices=["mwdf", "cswdf", "oswdf"], default="oswdf")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_plan)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("allocation", help="allocation document JSON")
    p.add_argument(
        "--deadline", type=int, default=None,
        help="audit against this deadline instead of the document's T",
    )
    p.set_defaults(func=cmd_verify)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("allocation", help="allocation document JSON")
    p.add_argument("--channel", choices=["iid", "ge"], default="iid")
    p.add_argument("--eps", default="0.01", help="loss probability; comma list sweeps a grid (iid)")
    p.add_argument("--alpha", type=float, default=0.0, help="good-to-bad transition (ge)")
    p.add_argument("--beta", type=float, default=0.0, help="bad-to-good transition (ge)")
    p.add_argument("--packets", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)


def _ensemble_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_ensemble)


# name -> (help line in the top-level listing, function adding its arguments)
COMMANDS = {
    "bounds": ("closed-form rates for a network config", _bounds_args),
    "plan": ("emit a full allocation document", _plan_args),
    "verify": ("re-check an allocation document", _verify_args),
    "simulate": ("Monte Carlo loss of an assembled allocation", _simulate_args),
    "ensemble": ("compare planners over random networks", _ensemble_args),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relaystream",
        description="plan, verify and simulate streaming codes for a relayed link",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return p


def command_parser(name: str) -> argparse.ArgumentParser:
    """One subcommand's parser on its own. Its help and error texts are
    those of the same subparser inside build_parser()."""
    p = argparse.ArgumentParser(prog=f"relaystream {name}")
    COMMANDS[name][1](p)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    # the full tree reports unrecognized arguments under its own usage line
    return build_parser().parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except CliError as e:
        print(f"{'FAIL' if e.code == 1 else 'error'}: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
