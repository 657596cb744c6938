"""Command-line surface: construct, count, search, and verify.

Reports are machine-readable JSON (with --json) or short plain-text
summaries.  All counts appear as exact decimal strings, never floats;
every non-exact value carries a provenance tag ("exact", "upper-bound",
or "evidence").  Exit codes: 0 success, 1 verification
failure, 2 capability or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from . import __version__
from .coloring import BLUE, RED, EdgeColoring, split_coloring
from .counting import count_in_view, parse_pattern
from .errors import CapabilityError, DomainError, InvalidSpecError

# verify.SUITES (a test holds the two equal), kept here so that building the
# parser does not import verify, and with it regularity, for every command;
# the search parser's defaults are SearchConfig's, written as literals (a
# test holds them equal too) so that only `search` imports the search layer
SUITES = ("formulas", "structure", "bounds", "stability")


def canonical_json(report: dict) -> str:
    """Serialization used for all reports; parse + re-dump is byte-identical."""
    return json.dumps(report, sort_keys=True, indent=2)


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected i,j: {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers: {text!r}") from exc


def _write_out(path: str | None, payload: bytes) -> None:
    """Write an RMC1 payload to --out, if one was given."""
    if path:
        with open(path, "wb") as fh:
            fh.write(payload)


# each command returns (inputs, results, text lines, exit code); `main` builds
# the report from them and prints it as JSON or as the lines
Outcome = tuple[dict, dict, list[str], int]


def cmd_construct(args: argparse.Namespace) -> Outcome:
    a, b = args.split
    coloring = split_coloring(a, b, flips=args.flip)
    payload = coloring.serialize()
    _write_out(args.out, payload)
    wrote = f" -> {args.out}" if args.out else ""
    return (
        {"split": [a, b], "flips": [list(f) for f in args.flip], "out": args.out},
        {
            "n": coloring.n,
            "red_edges": str(coloring.red_edge_count),
            "blue_edges": str(coloring.blue_edge_count),
            "payload": payload.decode("ascii"),
            "provenance": "exact",
        },
        [
            f"n={coloring.n} red_edges={coloring.red_edge_count} "
            f"blue_edges={coloring.blue_edge_count}{wrote}"
        ],
        0,
    )


def cmd_count(args: argparse.Namespace) -> Outcome:
    with open(args.infile, "rb") as fh:
        coloring = EdgeColoring.parse(fh.read())
    pattern = parse_pattern(args.pattern)
    wanted = (RED, BLUE) if args.color == "both" else (args.color,)
    counts = {color: count_in_view(coloring.view(color), pattern) for color in wanted}
    if args.color == "both":
        counts["total"] = sum(counts.values())
    results: dict = {name: str(value) for name, value in counts.items()}
    results["provenance"] = "exact"
    lines = [f"pattern {pattern.label} on n={coloring.n}"]
    lines += [f"{name} {value}" for name, value in counts.items()]
    inputs = {"in": args.infile, "pattern": pattern.label, "color": args.color, "n": coloring.n}
    return inputs, results, lines, 0


def cmd_search(args: argparse.Namespace) -> Outcome:
    from .search import SearchConfig, anneal_min, exhaustive_min

    pattern = parse_pattern(args.pattern)
    if args.exhaustive:
        result = exhaustive_min(pattern, args.n)
    else:
        if args.seed is None:
            raise DomainError("--anneal requires --seed")
        config = SearchConfig(
            seed=args.seed,
            restarts=args.restarts,
            steps_per_restart=args.steps,
            initial_temperature=args.t0,
            cooling_rate=args.cooling,
        )
        result = anneal_min(pattern, args.n, config)
    payload = result.witness.serialize()
    _write_out(args.out, payload)
    tag = "exact minimum" if result.exact else "upper bound"
    lines = [
        f"min {pattern.label} count over n={args.n}: "
        f"{result.best_count} ({tag}, {result.method})"
    ]
    if args.out:
        lines.append(f"witness -> {args.out}")
    return (
        {
            "pattern": pattern.label,
            "n": args.n,
            "mode": "exhaustive" if args.exhaustive else "anneal",
            "seed": args.seed,
            "out": args.out,
        },
        {
            "best_count": str(result.best_count),
            "method": result.method,
            "exact": result.exact,
            "provenance": "exact" if result.exact else "upper-bound",
            "witness": payload.decode("ascii"),
        },
        lines,
        0,
    )


def cmd_verify(args: argparse.Namespace) -> Outcome:
    from .verify import run_suite

    checks = run_suite(args.suite, seed=args.seed)
    passed = sum(1 for c in checks if c.passed)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {args.suite}/{c.name}: {c.detail}" for c in checks]
    lines.append(f"{passed}/{len(checks)} checks passed")
    return (
        {"suite": args.suite, "seed": args.seed},
        {
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": passed,
            "failed": len(checks) - passed,
        },
        lines,
        0 if passed == len(checks) else 1,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseykit",
        description="Monochromatic subgraph counting and multiplicity search "
        "on two-colored complete graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a split coloring and write it out")
    p.add_argument("--split", type=_pair_arg, required=True, metavar="a,b")
    p.add_argument(
        "--flip",
        type=_pair_arg,
        action="append",
        default=[],
        metavar="i,j",
        help="flip the color of edge {i,j}; repeatable",
    )
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count", help="count monochromatic copies in a coloring file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--pattern", required=True, metavar="P_k|C_k|S_k|K3")
    p.add_argument("--color", choices=[RED, BLUE, "both"], default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("search", help="minimize a monochromatic count over colorings")
    p.add_argument("--pattern", required=True, metavar="P_k|C_k|S_k|K3")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--anneal", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--t0", type=float, default=2.0)
    p.add_argument("--cooling", type=float, default=0.995)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, results, lines, code = args.func(args)
    except (InvalidSpecError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(canonical_json({
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "wall_time_s": round(time.perf_counter() - started, 6),
        }))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
