"""Spans around the calls into each orelat module's public functions.

`Tracer.install` replaces every public function of the package modules by a
light wrapper that records a span (name, start, end, parent span, query id)
in memory.  The replacement also covers names another module bound at
import, such as `catalog.full_subgroup_lattice`, so every route into a
function is seen.  `FiniteLattice.__init__` gets a counter, since lattices
are built by three different functions.  cProfile is not used: it charges
every Python call, which inflates the call-heavy layers several-fold.

`layer_metrics` turns one traced repetition into the per-layer metrics
listed in `PER_LAYER`.  For an operation group (`<module>.<op>`) `calls` and
`busy_s` count only spans not nested in a span of the same group, and
`self_s` is the group's span time minus the time of child spans outside the
group.  `<module>.self_s` is the same over all wrapped functions of a
module.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from contextlib import contextmanager

MODULES = (
    "perm", "lattice", "intervals", "totients", "characters", "certifier", "catalog", "reproduce",
)

REPRODUCE_TARGETS = (
    "factor-list", "lemma-check", "rank2-table", "totient-formulas", "catalog-primitivity",
)

# Operation groups: metric prefix -> wrapped functions, as <module>.<function>.
OPS = {
    "perm.generate": ("perm.generate", "perm.subgroup_generated"),
    "perm.normal_core": ("perm.normal_core",),
    "intervals.overgroup_interval": ("intervals.overgroup_interval",),
    "intervals.sub_interval": ("intervals.sub_interval",),
    "intervals.ore": ("intervals.verify_ore", "intervals.generating_coset_count"),
    "intervals.bbl": ("intervals.bbl", "intervals.bbl_between", "intervals.cfl"),
    "lattice.build_lattice": ("lattice.build_lattice",),
    "lattice.interval": ("lattice.interval",),
    "lattice.scan": ("lattice.is_distributive", "lattice.is_boolean", "lattice.is_bottom_boolean"),
    "totients.model": (
        "totients.boolean_index_model", "totients.uniform_model", "totients.pq_model",
        "totients.sub_model", "totients.from_group_interval",
    ),
    "totients.dual_totient": ("totients.dual_totient",),
    "totients.coatom_split": ("totients.dual_totient_coatom_split",),
    "characters.conjugacy_classes": ("characters.conjugacy_classes",),
    "characters.character_table": ("characters.character_table",),
    "characters.fixed_dim": ("characters.fixed_dim",),
    "characters.primitive": ("characters.is_linearly_primitive",),
    "certifier.certify": ("certifier.certify",),
    "certifier.chain_types": ("certifier.chain_types",),
    "certifier.rank2_index_table": ("certifier.rank2_index_table",),
    "certifier.lemma_check_scan": ("certifier.lemma_check_scan",),
}
# The benchmark opens one span per reproduce target it runs, named after it.
OPS.update({f"reproduce.{t}": (f"reproduce.{t}",) for t in REPRODUCE_TARGETS})

OP_OF = {fn: op for op, fns in OPS.items() for fn in fns}

# (metric, unit, better); the traced run reports exactly these.
PER_LAYER = (
    [
        ("perm.generate.calls", "count", "lower"),
        ("perm.generate.busy_s", "s", "lower"),
        ("perm.normal_core.calls", "count", "lower"),
        ("perm.normal_core.busy_s", "s", "lower"),
        ("intervals.overgroup_interval.calls", "count", "lower"),
        ("intervals.overgroup_interval.busy_s", "s", "lower"),
        ("intervals.overgroup_interval.self_s", "s", "lower"),
        ("intervals.members", "count", "lower"),
        ("intervals.sub_interval.calls", "count", "lower"),
        ("intervals.sub_interval.busy_s", "s", "lower"),
        ("intervals.ore.busy_s", "s", "lower"),
        ("intervals.bbl.busy_s", "s", "lower"),
        ("intervals.full_lattice.builds", "count", "lower"),
        ("intervals.full_lattice.distinct", "count", "lower"),
        ("intervals.full_lattice.reuse_ratio", "1", "higher"),
        ("lattice.build_lattice.calls", "count", "lower"),
        ("lattice.build_lattice.busy_s", "s", "lower"),
        ("lattice.interval.calls", "count", "lower"),
        ("lattice.interval.busy_s", "s", "lower"),
        ("lattice.scan.calls", "count", "lower"),
        ("lattice.scan.busy_s", "s", "lower"),
        ("lattice.lattices_built", "count", "lower"),
        ("totients.model.calls", "count", "lower"),
        ("totients.model.busy_s", "s", "lower"),
        ("totients.dual_totient.calls", "count", "lower"),
        ("totients.dual_totient.busy_s", "s", "lower"),
        ("totients.coatom_split.calls", "count", "lower"),
        ("totients.coatom_split.busy_s", "s", "lower"),
        ("totients.coatom_split.self_s", "s", "lower"),
        ("characters.conjugacy_classes.calls", "count", "lower"),
        ("characters.conjugacy_classes.busy_s", "s", "lower"),
        ("characters.character_table.calls", "count", "lower"),
        ("characters.character_table.busy_s", "s", "lower"),
        ("characters.character_table.self_s", "s", "lower"),
        ("characters.classes", "count", "lower"),
        ("characters.fixed_dim.calls", "count", "lower"),
        ("characters.fixed_dim.busy_s", "s", "lower"),
        ("characters.primitive.calls", "count", "lower"),
        ("characters.primitive.busy_s", "s", "lower"),
        ("certifier.certify.calls", "count", "lower"),
        ("certifier.certify.busy_s", "s", "lower"),
        ("certifier.certify.self_s", "s", "lower"),
        ("certifier.verdict.primitive", "count", "higher"),
        ("certifier.verdict.undecided", "count", "lower"),
        ("certifier.chain_types.busy_s", "s", "lower"),
        ("certifier.rank2_index_table.busy_s", "s", "lower"),
        ("certifier.rank2_index_table.self_s", "s", "lower"),
        ("certifier.lemma_check_scan.busy_s", "s", "lower"),
    ]
    + [(f"reproduce.{t}.busy_s", "s", "lower") for t in REPRODUCE_TARGETS]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("bench.spans", "count", "lower"),
        ("bench.wall_untraced_s", "s", "lower"),
        ("bench.wall_traced_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
        ("bench.wall_raw_s", "s", "lower"),
        ("bench.cold_setup_s", "s", "lower"),
        ("bench.host_speed", "1", "higher"),
    ]
)

# Metrics that count work; they do not depend on the machine and must repeat exactly.
COUNTERS = (
    "intervals.members",
    "lattice.lattices_built",
    "intervals.full_lattice.builds",
    "intervals.full_lattice.distinct",
    "characters.classes",
    "certifier.verdict.primitive",
    "certifier.verdict.undecided",
)


def _note_overgroup_interval(args, result):
    """(members, ambient group when the base is trivial, i.e. a full lattice)."""
    group, sub = args[0], args[1]
    return len(result), group if sub.order == 1 else None


NOTES = {
    "intervals.overgroup_interval": _note_overgroup_interval,
    "characters.conjugacy_classes": lambda args, result: len(result),
    "certifier.certify": lambda args, result: result.verdict,
}


class Tracer:
    """In-memory spans; each span is [name, start, end, parent index, query id, note]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = 0
        self.lattices_built = 0

    def install(self, orelat) -> None:
        """Wrap the public functions of a freshly imported orelat package."""
        wrapped = {}
        for mod_name in MODULES:
            module = getattr(orelat, mod_name)
            for attr, value in vars(module).items():
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                wrapped[id(value)] = self._wrap(name, value, NOTES.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orelat" and not mod_name.startswith("orelat."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        cls = orelat.lattice.FiniteLattice
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.lattices_built += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, query: int):
        """A span opened by the benchmark itself, e.g. around one query."""
        self.query = query
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, query, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


def layer_metrics(tracer: Tracer, seconds) -> dict:
    """Per-layer metrics of one traced repetition (bench.* wall times are added by the caller).

    `seconds(start, end)` gives a span's duration, in reference seconds for
    `hostspeed.Clock.seconds`.
    """
    spans = tracer.spans
    duration = [seconds(span[1], span[2]) for span in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]
    values = {name: 0 for name, unit, _ in PER_LAYER if unit == "count"}
    values.update({name: 0.0 for name, unit, _ in PER_LAYER if unit != "count"})
    ops_above: list = []  # operation groups on the path from the root to each span
    full_groups = set()
    for i, (name, _, _, parent, _, note) in enumerate(spans):
        inherited = ops_above[parent] if parent >= 0 else frozenset()
        self_time = duration[i] - child_time[i]
        module = name.split(".", 1)[0]
        if f"{module}.self_s" in values:
            values[f"{module}.self_s"] += self_time
        op = OP_OF.get(name)
        if op is None:
            ops_above.append(inherited)
        else:
            ops_above.append(inherited | {op})
            if op not in inherited:
                _add(values, f"{op}.calls", 1)
                _add(values, f"{op}.busy_s", duration[i])
            _add(values, f"{op}.self_s", self_time)
        if name == "intervals.overgroup_interval" and note is not None:
            values["intervals.members"] += note[0]
            if note[1] is not None:
                values["intervals.full_lattice.builds"] += 1
                full_groups.add(note[1])
        elif name == "characters.conjugacy_classes" and note is not None:
            values["characters.classes"] += note
        elif name == "certifier.certify" and note is not None:
            key = f"certifier.verdict.{note}"
            if key in values:
                values[key] += 1
    builds = values["intervals.full_lattice.builds"]
    values["intervals.full_lattice.distinct"] = len(full_groups)
    values["intervals.full_lattice.reuse_ratio"] = len(full_groups) / builds if builds else 0.0
    values["lattice.lattices_built"] = tracer.lattices_built
    values["bench.spans"] = len(spans)
    return values


def _add(values: dict, key: str, amount) -> None:
    if key in values:
        values[key] += amount


def write_spans(path, tracers: list) -> None:
    """Write every span of every traced repetition as gzipped JSON lines.

    Query id 0 is the set-up; the benchmark's own span for query k is the
    root span with that id, named after the query kind or reproduce target.
    """
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for rep, tracer in enumerate(tracers):
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for i, (name, start, end, parent, query, _) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "rep": rep, "id": i, "name": name, "parent": parent, "query": query,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")
