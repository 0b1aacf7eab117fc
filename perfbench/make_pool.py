"""Regenerate `queries_pool.json`: the query cases and their reference answers.

    python3 perfbench/make_pool.py

Run from the repository root.  Groups are closed from 2-3 random
permutations of degree 4-7 that each move a random subset of points, and
kept when their order lies in [24, 720], no earlier case has the same group
(same element set) and the interval has at most MAX_MEMBERS members; every
order range below gets its number of cases, so small and large, solvable
and non-solvable groups all occur.  Since no two cases share a group, every
case builds its multiplication and character tables cold.  A base subgroup
is generated by 1-2 random non-identity elements.  A case whose group has
order <= FULL_LATTICE_MAX_ORDER also gets the full-lattice `bbl-full` query
with probability FULL_LATTICE_SHARE; on larger groups it costs seconds
where the other queries cost milliseconds.  Every query is answered by the
current code; the answers become the reference that `run.py --workload
queries` compares against.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import orelat  # noqa: E402
import querystream as qs  # noqa: E402

POOL_SEED = 2016
# (lowest order, highest order, cases); few large groups, since a cold
# multiplication table of order 720 alone costs about half a second.
ORDER_RANGES = ((24, 59, 12), (60, 167, 12), (168, 359, 12), (360, 720, 4))
MAX_MEMBERS = 50
FULL_LATTICE_SHARE = 0.3
FULL_LATTICE_MAX_ORDER = 59


def random_permutation(rng: random.Random, degree: int) -> list:
    support = rng.sample(range(degree), rng.randint(2, degree))
    shuffled = support[:]
    rng.shuffle(shuffled)
    images = list(range(degree))
    for a, b in zip(support, shuffled):
        images[a] = b
    return images


def is_solvable(group) -> bool:
    perm = orelat.perm
    current = group
    while current.order > 1:
        elems = current.elements
        comms = {a.inverse() * b.inverse() * a * b for a in elems for b in elems}
        derived = perm.subgroup_generated(current, sorted(comms))
        if derived.order == current.order:
            return False
        current = derived
    return True


def candidate(rng: random.Random):
    perm = orelat.perm
    degree = rng.choice((4, 5, 6, 7))
    gens = [random_permutation(rng, degree) for _ in range(rng.choice((2, 2, 3)))]
    try:
        group = perm.generate(degree, [perm.Permutation(g) for g in gens], cap=720)
    except orelat.CapExceeded:
        return None
    if group.order < ORDER_RANGES[0][0]:
        return None
    others = [g for g in group.elements if not g.is_identity()]
    base_elems = [list(g.images) for g in rng.sample(others, rng.choice((1, 2)))]
    base = perm.subgroup_generated(group, [perm.Permutation(b) for b in base_elems])
    return degree, gens, base_elems, group, base


def query_kinds(group_order: int, graded: bool, full: bool) -> list:
    kinds = ["interval"]
    if graded:
        kinds.append("totient")
    kinds += ["certify", "primitive", "bbl"]
    if full and group_order <= FULL_LATTICE_MAX_ORDER:
        kinds.append("bbl-full")
    return kinds


def answer_case(group, base, full: bool) -> tuple:
    interval = orelat.intervals.overgroup_interval(group, base)
    queries = []
    for kind in query_kinds(group.order, interval.lattice.is_graded(), full):
        answer, problem = qs.run_query(orelat, kind, group, base)
        if problem is not None:
            raise SystemExit(f"cross-check failed while building the pool: {kind}: {problem}")
        queries.append({"kind": kind, "answer": answer})
    return queries, len(interval)


def main() -> int:
    rng = random.Random(POOL_SEED)
    wanted = {(lo, hi): count for lo, hi, count in ORDER_RANGES}
    cases = []
    groups = set()
    while any(wanted.values()):
        found = candidate(rng)
        if found is None:
            continue
        degree, gens, base_elems, group, base = found
        slot = next(((lo, hi) for lo, hi, _ in ORDER_RANGES if lo <= group.order <= hi), None)
        if slot is None or not wanted[slot] or group in groups:
            continue
        full = rng.random() < FULL_LATTICE_SHARE
        queries, members = answer_case(group, base, full)
        if members > MAX_MEMBERS:
            continue
        groups.add(group)
        wanted[slot] -= 1
        cases.append({
            "degree": degree,
            "generators": gens,
            "base": base_elems,
            "order": group.order,
            "base_order": base.order,
            "members": members,
            "solvable": is_solvable(group),
            "queries": queries,
        })
        print(f"order {group.order:4d} base {base.order:3d} members {members:3d} "
              f"queries {' '.join(q['kind'] for q in queries)}", file=sys.stderr)
    with qs.POOL_FILE.open("w") as fh:
        json.dump({"pool_seed": POOL_SEED, "cases": cases}, fh, sort_keys=True, indent=0)
        fh.write("\n")
    solvable = sum(c["solvable"] for c in cases)
    print(f"{len(cases)} cases ({solvable} solvable) -> {qs.POOL_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
