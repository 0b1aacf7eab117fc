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

TARGETS = (
    "factor-list",
    "lemma-check",
    "rank2-table",
    "totient-formulas",
    "catalog-primitivity",
)


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


def run_rank2_table() -> tuple:
    fixture = _load_fixture("rank2_census.json")
    loc = fixture["paper_location"]
    limit = fixture["limit"]
    rows = cf.rank2_index_table(limit)
    violations = [
        {"where": where, "quadruple": list(quad)}
        for quad, where in rows if not cf.census_pattern_holds(quad)
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
    for p in range(2, 14):
        # pq_model(p, q, n, 0) is uniform_model(p, n): one object serves every q, its splits folded once
        uniforms = {n: tt.uniform_model(p, n) for n in range(1, 8)}
        for n, uniform in uniforms.items():
            models += 1
            if tt.dual_totient(uniform) != tt.closed_form_p_n(p, n):
                mismatches.append(["uniform", p, n])
        for q in range(p, 14):
            for n in range(1, 8):
                for m in range(0, n + 1):
                    model = tt.pq_model(p, q, n, m) if m else uniforms[n]
                    models += 1
                    direct = tt.dual_totient(model)
                    if direct != tt.closed_form_p_n_q(p, q, n, m):
                        mismatches.append(["pnq", p, q, n, m])
                    # one comparison of the kept splits; the per-coatom walk names a mismatch
                    if model.coatom_splits() != (direct,) * n:
                        split_mismatches += [[p, q, n, m, co] for co in model.coatoms()
                                             if tt.dual_totient_coatom_split(model, co) != direct]
    for p in (2, 3):
        for n in range(1, 7):
            for m in range(1, n + 1):
                if tt.closed_form_p_n_p2(p, n, m) != tt.dual_totient(tt.pq_model(p, p * p, n, m)):
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

    An interval of a distributive lattice is distributive, so the tests run
    down from the top, where they are cheap, and once [h, G] fails every
    h' <= h fails untested.  Witnesses are sought only for certified
    intervals, in the fixed-space dimensions of every member, one product.
    """
    lattice = full.lattice
    ch._fixed_dims(table, full.masks)
    failed = 0
    distributive = []
    for h in reversed(range(lattice.n)):
        if not failed >> h & 1:
            if lat._distributive_above(lattice, h):
                distributive.append(h)
            else:
                failed |= lattice._down[h]
    for h in reversed(distributive):
        cert = cf.certify_above(full, h)
        witness = None
        if cert.is_primitive:
            overgroups = [full.masks[k] for k in lat.upper_covers(lattice, h)]
            _, witness = ch.linear_witness(table, full.masks[h], overgroups)
        yield h, cert, witness


def _boolean_phihats(full: iv.GroupInterval):
    """(lo, hi, rank, dual totient) for every boolean [lo, hi] with lo < hi of a full lattice.

    The dual totient is the signed sum of the labels of [lo, hi], by atom
    bitmask and relative to hi, read with the cached sign table; no label
    vector is built.
    """
    lattice, idx = full.lattice, full.idx
    label = idx.__getitem__
    for lo in range(lattice.n):
        for hi, elems in lat._boolean_intervals_above(lattice, lo):
            if hi != lo:
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


# -- main-theorem frontier (used by certify reporting and acceptance) ------------


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


_RUNNERS = {
    "factor-list": run_factor_list,
    "lemma-check": run_lemma_check,
    "rank2-table": run_rank2_table,
    "totient-formulas": run_totient_formulas,
    "catalog-primitivity": run_catalog_primitivity,
}


def run_target(target: str) -> tuple:
    """Run one reproduction target, or all of them."""
    if target == "all":
        results = {}
        claims = []
        for name in TARGETS:
            sub_results, sub_claims = _RUNNERS[name]()
            results[name] = sub_results
            claims.extend({**c, "id": f"{name}:{c['id']}"} for c in sub_claims)
        return results, claims
    if target not in _RUNNERS:
        raise ValueError(f"unknown target {target!r}; choose from {', '.join(TARGETS)} or all")
    return _RUNNERS[target]()
