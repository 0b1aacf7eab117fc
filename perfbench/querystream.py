"""The `queries` workload: single-interval questions over generated groups.

`queries_pool.json`, written by `make_pool.py`, holds a fixed mix of
(group, base) cases with the reference answer of every query.  A seed
relabels the points of the cases by a random permutation, which gives
conjugate groups and bases with new generators and a new element order.
Conjugation changes no answer below, and it keeps the work of a stream
nearly the same from seed to seed, so the seed changes the inputs without
changing the mix of cheap and expensive questions.

A query is one user-level operation made of public calls, the way one CLI
invocation is: it builds its interval [H, G] and then answers one of

    interval   member orders and indices, Hasse edges, lattice flags
    totient    totients (graded intervals); generating-coset count and an
               Ore witness when distributive
    certify    rule-chain certificate, after checking distributivity, so an
               expected refusal is an answer and not a failure
    primitive  character-theoretic decision: verdict, least witness degree,
               character degrees
    bbl        bottom-boolean chain length from H
    bbl-full   bbl and cfl of the whole group (a few small groups)

An answer holds only what conjugation preserves, and it must equal the
stored reference.  Cross-checks must hold as well: the totient of a
distributive interval equals its generating-coset count, the Ore witness
generates G together with H (closed by `perm`, not by the interval code),
and the index identity |G:H| = sum deg * dim V^H holds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL_FILE = Path(__file__).with_name("queries_pool.json")


def load_pool() -> dict:
    with POOL_FILE.open() as fh:
        return json.load(fh)


def _conjugate(images: list, sigma: list) -> list:
    """The permutation sigma * p * sigma^-1, as images."""
    out = [0] * len(images)
    for i, x in enumerate(images):
        out[sigma[i]] = sigma[x]
    return out


def select_cases(pool: dict, seed: int) -> list:
    """Every pool case in pool order, points relabelled by one seeded permutation per degree.

    One permutation per degree keeps distinct pool groups distinct, so no
    seed makes two cases share a multiplication table.
    """
    rng = random.Random(seed)
    sigma = {d: rng.sample(range(d), d) for d in sorted({c["degree"] for c in pool["cases"]})}
    return [{
        **case,
        "generators": [_conjugate(g, sigma[case["degree"]]) for g in case["generators"]],
        "base": [_conjugate(b, sigma[case["degree"]]) for b in case["base"]],
    } for case in pool["cases"]]


def build_inputs(orelat, cases: list) -> list:
    """Construct (case, G, H) for every case with `perm.generate`."""
    perm = orelat.perm
    inputs = []
    for case in cases:
        degree = case["degree"]
        group = perm.generate(degree, [perm.Permutation(g) for g in case["generators"]])
        base = perm.subgroup_generated(group, [perm.Permutation(b) for b in case["base"]])
        inputs.append((case, group, base))
    return inputs


def run_query(orelat, kind: str, group, base) -> tuple:
    """Answer one query; returns (answer, problem) with problem None when the cross-checks hold."""
    iv, lat, tt = orelat.intervals, orelat.lattice, orelat.totients
    if kind == "bbl-full":
        return {"bbl": iv.bbl(group), "cfl": iv.cfl(group)}, None
    if kind == "bbl":
        return {"bbl_between": iv.bbl_between(group, base)}, None
    interval = iv.overgroup_interval(group, base)
    lattice = interval.lattice
    if kind == "interval":
        graded = lattice.is_graded()
        return {
            "members": sorted([m.order, interval.index_of[i]] for i, m in enumerate(interval.members)),
            "hasse_edges": int(lattice.covers.sum()),
            "boolean": lat.is_boolean(lattice),
            "distributive": lat.is_distributive(lattice),
            "bottom_boolean": lat.is_bottom_boolean(lattice),
            "graded": graded,
            "rank": lattice.height() if graded else None,
        }, None
    if kind == "totient":
        model = tt.from_group_interval(interval)
        answer = {
            "index": model.total_index,
            "dual_totient": tt.dual_totient(model),
            "euler_totient": tt.euler_totient(model),
        }
        problem = None
        if lat.is_distributive(lattice):
            answer["euler_totient_distributive"] = tt.euler_totient_distributive(model)
            answer["dual_totient_distributive"] = tt.dual_totient_distributive(model)
            answer["generating_cosets"] = iv.generating_coset_count(interval)
            witness = iv.verify_ore(interval)
            if answer["euler_totient_distributive"] != answer["generating_cosets"]:
                problem = "euler_totient_distributive != generating_coset_count"
            elif orelat.perm.subgroup_generated(
                    group, list(base.generators) + [witness]).order != group.order:
                problem = f"Ore witness {witness.to_cycles()} does not generate G with H"
        return answer, problem
    if kind == "certify":
        if not lat.is_distributive(lattice):
            return {"distributive": False}, None
        cert = orelat.certifier.certify(interval)
        return {
            "distributive": True,
            "verdict": cert.verdict,
            "rules": cert.rules_fired(),
            "frontier": [list(t) for t in cert.frontier],
        }, None
    if kind == "primitive":
        ch = orelat.characters
        table = ch.character_table(group)
        primitive, row = ch.is_linearly_primitive(interval, table)
        answer = {
            "primitive": primitive,
            "witness_degree": table.degrees[row] if row is not None else None,
            "degrees": list(table.degrees),
        }
        problem = None if ch.index_identity_holds(table, base) else "index identity fails"
        return answer, problem
    raise ValueError(f"unknown query kind {kind!r}")


def canonical(answer) -> str:
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))
