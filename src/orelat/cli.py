"""Command-line surface: interval, certify, primitive, totient, bbl, reproduce.

Every invocation emits one structured report document (JSON by default, a
plain table behind --format table).  Exit codes: 0 success, 1 claim
mismatch, 2 input error, 3 resource cap, 4 internal error (a computed table
or invariant failed its own check).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from . import catalog as cat
from . import characters as ch
from .certifier import IndexedModel, certify as run_certify
from . import intervals as iv
from . import lattice as lat
from . import reproduce as rp
from . import totients as tt
from .errors import (
    CapExceeded,
    NotAnInteger,
    NotASubgroup,
    OreViolation,
    OrelatError,
    ParseError,
    ValidationFailed,
)
from .perm import FiniteGroup, Permutation, generate, trivial_group

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def load_group_file(path: str, cap: int) -> FiniteGroup:
    """Read {name, degree, generators: [cycle strings]} from a JSON document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"group file {path} is not valid JSON: {exc}") from exc
    try:
        degree, cycles = doc["degree"], doc["generators"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"group file {path} needs 'degree' and 'generators'") from exc
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise ParseError(f"group file {path}: 'degree' must be an integer of at least 1, got {degree!r}")
    if not isinstance(cycles, list) or not all(isinstance(c, str) for c in cycles):
        raise ParseError(f"group file {path}: 'generators' must be a list of cycle strings")
    gens = [Permutation.from_cycles(c, degree) for c in cycles]
    return generate(degree, gens, cap=cap)


def _resolve_pair(args) -> tuple:
    if args.cap < 1:
        raise ParseError(f"--cap must be at least 1, got {args.cap}")
    if args.catalog:
        for flag, value in (("--group-file", args.group_file), ("--subgroup-file", args.subgroup_file)):
            if value is not None:
                raise ParseError(f"--catalog names an interval and cannot be given with {flag}")
        return cat.catalog_pair(args.catalog)
    if not args.group_file:
        raise ParseError("give either --catalog NAME or --group-file FILE")
    ambient = load_group_file(args.group_file, args.cap)
    if args.subgroup_file:
        base = load_group_file(args.subgroup_file, args.cap)
        if base.degree != ambient.degree:
            raise ParseError("group and subgroup files have different degrees")
        if not base <= ambient:
            raise NotASubgroup("subgroup file is not contained in the group file")
        return ambient, base
    return ambient, trivial_group(ambient.degree)


def _resolve_interval(args) -> iv.GroupInterval:
    ambient, base = _resolve_pair(args)
    return iv.overgroup_interval(ambient, base, cap=args.cap)


def _report(command: str, results: dict, claims: Optional[list] = None) -> dict:
    claims = claims or []
    return {
        "command": command,
        "version": __version__,
        "results": results,
        "claims": claims,
        "passed": all(c["pass"] for c in claims),
    }


def _interval_results(interval: iv.GroupInterval) -> dict:
    lattice = interval.lattice
    order = interval.ambient.order
    return {
        "ambient_order": order,
        "base_order": order // interval.total_index,
        "members": [{"id": i, "order": order // idx, "index": idx} for i, idx in enumerate(interval.idx)],
        "hasse_edges": lat.hasse_edges(lattice),
        "boolean": lat.is_boolean(lattice),
        "distributive": lat.is_distributive(lattice),
        "bottom_boolean": lat.is_bottom_boolean(lattice),
        "graded": lattice.is_graded(),
        "rank": lattice.height() if lattice.is_graded() else None,
    }


def cmd_interval(args) -> dict:
    interval = _resolve_interval(args)
    return _report("interval", _interval_results(interval))


def cmd_totient(args) -> dict:
    interval = _resolve_interval(args)
    lattice = interval.lattice
    results = {
        "index": interval.total_index,
        "graded": lattice.is_graded(),
    }
    if lattice.is_graded():
        results["dual_totient"] = tt.dual_totient(interval)
        results["euler_totient"] = tt.euler_totient(interval)
    if lat.is_distributive(lattice):
        results["euler_totient_distributive"] = tt.euler_totient_distributive(interval)
        results["dual_totient_distributive"] = tt.dual_totient_distributive(interval)
        results["generating_cosets"] = iv.generating_coset_count(interval)
        results["ore_witness"] = iv.verify_ore(interval).to_cycles()
    return _report("totient", results)


def cmd_primitive(args) -> dict:
    interval = _resolve_interval(args)
    table = ch.character_table(interval.ambient)
    primitive, witness = ch.is_linearly_primitive(interval, table)
    results = {
        "linearly_primitive": primitive,
        "witness_row": witness,
        "witness_degree": table.degrees[witness] if witness is not None else None,
        "character_degrees": list(table.degrees),
    }
    return _report("primitive", results)


def cmd_certify(args) -> dict:
    if args.model_index is None and args.model_rank is not None:
        raise ParseError("--model-rank describes a scenario and needs --model-index")
    if args.model_index is not None:
        for flag, value in (("--catalog", args.catalog), ("--group-file", args.group_file),
                            ("--subgroup-file", args.subgroup_file)):
            if value is not None:
                raise ParseError(f"{flag} names an interval and cannot be given with --model-index")
        rank = args.model_rank if args.model_rank is not None else 7
        cert = run_certify(IndexedModel(rank, args.model_index))
        results = {"scenario": {"rank": rank, "index": args.model_index},
                   "certificate": cert.to_dict()}
        return _report("certify", results)
    interval = _resolve_interval(args)
    cert = run_certify(interval)
    return _report("certify", {"certificate": cert.to_dict()})


def cmd_bbl(args) -> dict:
    ambient, base = _resolve_pair(args)
    results = {}
    if base.order > 1:
        results["bbl_between"] = iv.bbl_between(ambient, base, cap=args.cap)
    else:
        results["bbl"] = iv.bbl(ambient, cap=args.cap)
        results["cfl"] = iv.cfl(ambient, cap=args.cap)
    return _report("bbl", results)


def cmd_reproduce(args) -> dict:
    results, claims = rp.run_target(args.target)
    return _report(f"reproduce {args.target}", results, claims)


def render_table(report: dict) -> str:
    lines = [f"command: {report['command']}", f"version: {report['version']}"]
    lines.append("results:")
    lines.extend(_render_value(report["results"], "  "))
    if report["claims"]:
        lines.append("claims:")
        width = max(len(c["id"]) for c in report["claims"])
        for c in report["claims"]:
            status = "pass" if c["pass"] else "FAIL"
            lines.append(f"  [{status}] {c['id']:<{width}}  ({c['paper_location']})")
            if not c["pass"]:
                lines.append(f"         expected: {c['expected']}")
                lines.append(f"         actual:   {c['actual']}")
        lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)


def _render_value(value, indent: str) -> list:
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_value(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_flat(v)}")
    elif isinstance(value, list):
        for v in value:
            lines.append(f"{indent}- {_flat(v)}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value) and len(value) <= 12
    return False


def _flat(value) -> str:
    return json.dumps(value) if isinstance(value, (dict, list)) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orelat",
        description="Analyze intervals of finite-group subgroup lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_interval=True):
        if with_interval:
            p.add_argument("--catalog", help="catalog name, e.g. psl2_7/d8 or z12")
            p.add_argument("--group-file", help="JSON group document")
            p.add_argument("--subgroup-file", help="JSON subgroup document")
            p.add_argument("--cap", type=int, default=100_000,
                           help="element / member budget for closures, at least 1")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("interval", help="members, Hasse diagram and flags of [H, G]")
    common(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("totient", help="Euler and dual Euler totients of [H, G]")
    common(p)
    p.set_defaults(func=cmd_totient)

    p = sub.add_parser("primitive", help="linear primitivity by character theory")
    common(p)
    p.set_defaults(func=cmd_primitive)

    p = sub.add_parser("certify", help="rule-chain certificate of linear primitivity")
    common(p)
    p.add_argument("--model-index", type=int, help="certify an abstract boolean scenario")
    p.add_argument("--model-rank", type=int, help="rank of the abstract scenario (default 7)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bbl", help="bottom-boolean chain length (and core-free variant)")
    common(p)
    p.set_defaults(func=cmd_bbl)

    p = sub.add_parser("reproduce", help="re-run a recorded verification suite")
    p.add_argument("target", choices=[*rp.TARGETS, "all"])
    common(p, with_interval=False)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (OrelatError, RecursionError) as exc:
        # no library function recurses with the size of its input, so a
        # RecursionError means a computation outgrew the interpreter's
        # stack: like a cap, a budget was exhausted, not an input refused
        if isinstance(exc, (CapExceeded, RecursionError)):
            code = EXIT_CAP
        elif isinstance(exc, (ValidationFailed, NotAnInteger, OreViolation)):
            code = EXIT_INTERNAL
        else:
            code = EXIT_INPUT
        print(json.dumps({"error": str(exc), "exit": code}), file=sys.stderr)
        return code
    if args.format == "table":
        print(render_table(report))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
