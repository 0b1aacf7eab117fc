"""One-shot verification suites that diff computed results against fixtures.

Every suite returns (results, claims).  A claim is a machine-readable record
{id, paper_location, expected, actual, pass}; any failing claim makes the
whole report fail.  Fixtures live as versioned data files under data/ and
carry the location of the published value they pin.

catalog-primitivity reads each scan group's full lattice in whole passes:
one fixed-dimension matrix per lattice for the witnesses, and one pass per
lo over the boolean [lo, hi] for the conjecture 4.13 monitor.
"""

from __future__ import annotations

import json
from importlib import resources
from operator import mul
from typing import Optional

from . import catalog as cat
from . import certifier as cf
from . import characters as ch
from . import intervals as iv
from . import lattice as lat
from . import totients as tt
from .errors import InvalidParameters


def _load_fixture(name: str) -> dict:
    with resources.files("orelat.data").joinpath(name).open() as fh:
        return json.load(fh)


def _claim(claim_id: str, location: str, expected, actual, kind: str = "theorem-check") -> dict:
    return {
        "id": claim_id,
        "paper_location": location,
        "kind": kind,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


# -- factor-list ---------------------------------------------------------------


def run_factor_list() -> tuple:
    fixture = _load_fixture("factor_list.json")
    limit = fixture["limit"]
    min_factor = fixture["min_factor"]
    min_count = fixture["min_count"]
    entries = cf.factor_products(limit, min_factor, min_count)
    by_number = dict(entries)
    seven = sorted(n for n, by in entries if min_count in by)
    eight = sorted(n for n, by in entries if min_count + 1 in by)
    more = sorted(n for n, by in entries if any(k > min_count + 1 for k in by))
    loc = fixture["paper_location"]
    claims = [
        _claim("seven-factor-numbers", loc,
               sorted(int(k) for k in fixture["seven_factor"]), seven),
        _claim("seven-factor-count", loc, 25, len(seven)),
        _claim("eight-factor-numbers", loc,
               sorted(int(k) for k in fixture["eight_factor"]), eight),
        _claim("nothing-else", loc, [], more),
    ]
    for key, witness in sorted(fixture["seven_factor"].items(), key=lambda kv: int(kv[0])):
        number = int(key)
        present = tuple(sorted(witness)) in by_number.get(number, {}).get(min_count, [])
        claims.append(_claim(f"witness-{number}", loc, True, present))
    results = {
        "limit": limit,
        "seven_factor": seven,
        "eight_factor": eight,
        "factorization_counts": {str(n): {str(k): len(v) for k, v in by.items()}
                                 for n, by in entries},
    }
    return results, claims


# -- lemma-check ---------------------------------------------------------------


def run_lemma_check() -> tuple:
    loc = "lemma 4.18"
    failures = []
    tightest: Optional[tuple] = None
    count = 0
    for a in range(3, 13):
        for b in range(a, 13):
            for c in range(b, 13):
                for n in range(1, 7):
                    res = cf.lemma_check_scan(a, b, c, n)
                    count += 1
                    if not res.passed:
                        failures.append([a, b, c, n, str(res.minimum)])
                    slack = res.minimum - res.bound
                    if tightest is None or slack < tightest[0]:
                        tightest = (slack, (a, b, c, n))
    claims = [
        _claim("scan-all-pass", loc, [], failures),
        _claim("scan-count", loc, 1320, count),
    ]
    results = {
        "combinations": count,
        "failures": failures,
        "tightest_case": {"slack": str(tightest[0]), "at": list(tightest[1])},
    }
    return results, claims


# -- rank2-table ---------------------------------------------------------------


def rank2_index_table(limit: int) -> list:
    """(quadruple, "name[lo,hi]") for the rank-2 rows [H, K, L, G] of `lattice.boolean_intervals`.

    The quadruple is (|G:K|, |G:L|, |L:H|, |K:H|); every catalog scan group
    is read, and a row is kept when |G:H| is below `limit`.
    """
    rows = []
    for name, _ in cat.scan_groups(200):
        full = cat.catalog_interval(name)
        idx = full.idx
        for lo, hi, elems in lat.boolean_intervals(full.lattice):
            if len(elems) == 4 and (total := idx[lo] // idx[hi]) < limit:
                over_k, over_ell = idx[elems[1]] // idx[hi], idx[elems[2]] // idx[hi]
                rows.append(((over_k, over_ell, total // over_ell, total // over_k), f"{name}[{lo},{hi}]"))
    return rows


def census_pattern_holds(quad: tuple) -> bool:
    """Opposite sides equal, except a (7, 7) coatom pair over a base pair in {3, 4}."""
    a, b, c, d = quad
    return (a, b) == (c, d) or (a == b == 7 and c == d and c in (3, 4))


def run_rank2_table() -> tuple:
    fixture = _load_fixture("rank2_census.json")
    loc = fixture["paper_location"]
    limit = fixture["limit"]
    rows = rank2_index_table(limit)
    violations = [
        {"where": where, "quadruple": list(quad)}
        for quad, where in rows if not census_pattern_holds(quad)
    ]
    quads = sorted({quad for quad, _ in rows})
    exceptional = sorted({quad for quad, _ in rows if quad[0] != quad[2]})
    expected_exceptions = sorted(tuple(q) for q in fixture["exception_quadruples"])
    found_needed = [q for q in expected_exceptions if q in exceptional]
    claims = [
        _claim("pattern-holds", loc, True, not violations),
        _claim("exceptions-are-psl-intervals", loc, expected_exceptions, exceptional),
        _claim("both-exceptions-realized", loc, expected_exceptions, found_needed),
    ]
    results = {
        "limit": limit,
        "intervals_scanned": len(rows),
        "distinct_quadruples": [list(q) for q in quads],
        "exceptional_quadruples": [list(q) for q in exceptional],
    }
    if violations:
        results["pattern_violations"] = violations
    return results, claims


# -- totient-formulas ----------------------------------------------------------


def run_totient_formulas() -> tuple:
    loc = "lemma 4.14 / proposition 4.16 / remark 4.17"
    mismatches = []
    split_mismatches = []
    models = 0
    squares = {}  # the grid's direct sums at q = p^2, by (p, n, m), for the p-squared check
    for p in range(2, 14):
        # pq_model(p, q, n, m) has the labels of uniform_model(p, n) at m = 0 and at q = p:
        # one vector serves all those cases, its splits folded once
        uniforms = {n: tt.uniform_model(p, n) for n in range(1, 8)}
        for n, uniform in uniforms.items():
            models += 1
            if tt.dual_totient(uniform) != tt.closed_form_p_n(p, n):
                mismatches.append(["uniform", p, n])
        for q in range(p, 14):
            for n in range(1, 8):
                for m in range(0, n + 1):
                    model = tt.pq_model(p, q, n, m) if m and q != p else uniforms[n]
                    models += 1
                    direct = tt.dual_totient(model)
                    if q == p * p:
                        squares[p, n, m] = direct
                    if direct != tt.closed_form_p_n_q(p, q, n, m):
                        mismatches.append(["pnq", p, q, n, m])
                    # one comparison of the kept splits; the per-coatom walk names a mismatch
                    if model.coatom_splits() != (direct,) * n:
                        split_mismatches += [[p, q, n, m, co] for co in model.coatoms()
                                             if tt.dual_totient_coatom_split(model, co) != direct]
    for p in (2, 3):
        for n in range(1, 7):
            for m in range(1, n + 1):
                if tt.closed_form_p_n_p2(p, n, m) != squares[p, n, m]:
                    mismatches.append(["p-squared", p, n, m])
    claims = [
        _claim("closed-forms-match-direct-sums", loc, [], mismatches),
        # a self-check of the split code: on labels that divide downward a split
        # equals the direct sum by algebra, so only a faulty fold can fail it
        _claim("coatom-split-equals-direct-sum", loc, [], split_mismatches),
    ]
    results = {"models_checked": models, "mismatches": mismatches}
    return results, claims


# -- catalog-primitivity ---------------------------------------------------------


def _top_intervals(full: iv.GroupInterval, table: ch.CharacterTable):
    """(h, certificate, witness row or None) for each distributive [h, G], read off a full lattice.

    Witnesses are sought only for certified intervals, in the fixed-space
    dimensions of every member, one product.
    """
    lattice = full.lattice
    ch._fixed_dims(table, full.masks)
    for h in lat.distributive_bases(lattice):
        cert = cf.certify_above(full, h)
        witness = None
        if cert.is_primitive:
            overgroups = [full.masks[k] for k in lat.upper_covers(lattice, h)]
            _, witness = ch.linear_witness(table, full.masks[h], overgroups)
        yield h, cert, witness


def _boolean_phihats(full: iv.GroupInterval):
    """(lo, hi, rank, dual totient) for every boolean [lo, hi], lo < hi, of a full lattice, by lo and hi.

    A cover's dual totient is (idx[lo] - idx[hi]) / idx[hi]; any other's is the signed sum of its labels
    by atom bitmask over idx[hi], as `lattice.boolean_intervals` gives the members, with no label vector built.
    """
    idx = full.idx
    label = idx.__getitem__
    for lo, hi, elems in lat.boolean_intervals(full.lattice):
        if len(elems) == 2:
            yield lo, hi, 1, (idx[lo] - idx[hi]) // idx[hi]
        else:
            n = len(elems).bit_length() - 1
            yield lo, hi, n, sum(map(mul, tt._signs(n), map(label, elems))) // idx[hi]


def run_catalog_primitivity() -> tuple:
    loc = "main theorem soundness / conjecture 4.13"
    counterexamples = []
    monitor_violations = []
    scanned = certified = boolean_count = 0
    for name, group in cat.scan_groups(200):
        full = cat.catalog_interval(name)
        for h, cert, witness in _top_intervals(full, ch.character_table(group)):
            scanned += 1
            if cert.is_primitive:
                certified += 1
                if witness is None:
                    counterexamples.append([name, h])
        for lo, hi, n, phihat in _boolean_phihats(full):
            boolean_count += 1
            if phihat < 2 ** (n - 1):
                monitor_violations.append([name, lo, hi, phihat, n])
    bound_entries = []
    for n in (1, 2, 3):
        interval = cat.catalog_interval(f"s2xs3_{n}/base")
        boolean = tt.boolean_between(interval, interval.lattice.bottom, interval.lattice.top)
        # the direct sum runs over the lattice, a route independent of the label vector
        bound_entries.append({
            "n": n, "rank": boolean.n, "direct": tt.dual_totient(interval),
            "allsplit": tt.dual_totient_allsplit(boolean), "bound": 2 ** (boolean.n - 1),
        })
    claims = [
        _claim("certified-implies-witness", "theorem 1.6 soundness", [], counterexamples),
        _claim(
            "dual-totient-conjecture-monitor", "conjecture 4.13",
            [], monitor_violations, kind="conjecture-support",
        ),
        _claim(
            "bound-realized-by-product-intervals", "conjecture 4.13 remark",
            [True] * 3,
            [e["direct"] == e["allsplit"] == e["bound"] for e in bound_entries],
            kind="conjecture-support",
        ),
    ]
    results = {
        "distributive_intervals_scanned": scanned,
        "certified_primitive": certified,
        "boolean_intervals_monitored": boolean_count,
        "bound_realizations": bound_entries,
    }
    return results, claims


# -- main-theorem ----------------------------------------------------------------


def run_main_theorem_frontier() -> tuple:
    fixture = _load_fixture("main_theorem.json")
    loc = fixture["paper_location"]
    verdicts = {}
    traces = {}
    frontier = {}
    for key in sorted(fixture["verdicts"], key=int):
        number = int(key)
        cert = cf.certify(cf.IndexedModel(fixture["rank"], number))
        verdicts[key] = cert.verdict
        traces[key] = [s.rule for s in cert.steps]
        if cert.frontier:
            frontier[key] = [list(t) for t in cert.frontier]
    claims = [
        _claim("verdicts", loc, fixture["verdicts"], verdicts),
        _claim("undecided-frontier", loc, fixture["undecided_frontier"], frontier),
        _claim("rule-traces", loc, fixture["rule_traces"], traces),
    ]
    return {"verdicts": verdicts, "frontier": frontier}, claims


# The only list of target names: each maps to its runner and to whether
# `reproduce all` runs it; `all` runs the flagged rows in this order.
TARGETS = {
    "factor-list": (run_factor_list, True),
    "lemma-check": (run_lemma_check, True),
    "rank2-table": (run_rank2_table, True),
    "totient-formulas": (run_totient_formulas, True),
    "catalog-primitivity": (run_catalog_primitivity, True),
    "main-theorem": (run_main_theorem_frontier, False),
}


def run_target(target: str) -> tuple:
    """Run one reproduction target, or with "all" every target flagged for it."""
    if target == "all":
        results = {}
        claims = []
        for name, (runner, in_all) in TARGETS.items():
            if in_all:
                sub_results, sub_claims = runner()
                results[name] = sub_results
                claims.extend({**c, "id": f"{name}:{c['id']}"} for c in sub_claims)
        return results, claims
    if target not in TARGETS:
        raise InvalidParameters(f"unknown target {target!r}; choose from {', '.join(TARGETS)} or all")
    return TARGETS[target][0]()
