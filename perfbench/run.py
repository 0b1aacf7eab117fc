"""orelat benchmark: one workload per invocation, single process, no threads.

    python3 perfbench/run.py --workload formulas --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a result file with the samples and
provenance goes to `perfbench/results/`.

Workloads, chosen so that each planned optimisation has a workload where
it shows and one where it must not move anything:

    formulas      reproduce factor-list, lemma-check, totient-formulas: the
                  group-free suites, all lattice.interval + totients work.
    catalog-scan  reproduce rank2-table then catalog-primitivity, as
                  `reproduce all` orders them: full subgroup lattices of the
                  22 scan groups, sub-lattice scans, certifier, characters.
    queries       closed loop, one client: a seeded stream of single-interval
                  questions over generated groups of order 24-720 (see
                  querystream.py); cold multiplication and character tables.

Every repetition re-imports orelat, so its module caches (multiplication
tables, full lattices, character tables) start empty, as in a fresh CLI
process.  Repetitions run while one more, as long as the last, still ends
within `--seconds`; there is always at least one.  Set-up-only rounds run
for half a second before the first repetition and after each one, so the
set-up samples come from all through the run and not from one stretch of
it, whose host speed may be unusual.

Every time below is in reference seconds (hostspeed.py): wall time with
the host's drifting speed taken out, as measured by a fixed kernel that
runs from a timer signal all through the run, after the first set-up.

End-to-end metrics (`--trace 0`, no wrappers installed):

    setup_s       import orelat and construct the workload's input groups;
                  median over every set-up of the run but the first.  The
                  first one also imports numpy and the standard library
                  modules orelat uses; the later ones import only orelat,
                  since a dependency cannot be imported twice in a process.
                  So setup_s leaves out interpreter start and dependency
                  imports; the first set-up is reported on its own as
                  `bench.cold_setup_s` by `--trace 1` and in the result file.
                  Bytecode is neither written nor, in a checkout without
                  __pycache__, read, so each import compiles orelat's source.
    wall_s        the workload's fixed work after set-up; median over reps
    query_p50_ms  per-query latency percentiles.  On `queries` every answer
    query_p90_ms  to a stream entry in every rep is one sample (the stream
                  has over 100 queries, so even one rep puts more than 10
                  beyond p90); on the suites a query is one whole run of the
                  suite, as one `orelat reproduce` call
    peak_rss_mb   peak resident memory after the first repetition: the cold
                  set-up and one run of the workload

`error_rate` (failed / attempted operations) is printed and stored in the
result file; the JSON line carries it as `failed` / `attempted`.  A failure
is an exception, a failing claim, an answer that differs from the stored
reference, a failed cross-check or a hit time limit.

`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of spans.PER_LAYER (median over traced reps), the tracing
overhead (traced minus untraced wall_s), the untraced wall time in plain
seconds (`bench.wall_raw_s`), the first set-up of the run
(`bench.cold_setup_s`), the host's speed over the run (`bench.host_speed`)
and writes every span, with its plain perf_counter times, to a gzipped
JSON-lines file next to the result file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

START = time.perf_counter()
sys.dont_write_bytecode = True  # the run writes only its result files
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import hostspeed  # noqa: E402
import querystream as qs  # noqa: E402
import spans  # noqa: E402

SUITES = {
    "formulas": ("factor-list", "lemma-check", "totient-formulas"),
    "catalog-scan": ("rank2-table", "catalog-primitivity"),
}
WORKLOADS = tuple(SUITES) + ("queries",)
SETUP_BURST_S = 0.5  # set-up-only rounds before the first repetition and after each
SCAN_MAX_ORDER = 200
RUN_LIMIT_S = 150.0  # whole run; the process must end well within 180 s
OP_LIMIT_S = {"suite": 120.0, "query": 20.0}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation or the run exceeds its wall-clock limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def time_limit(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def drop_orelat() -> None:
    """Forget the imported package, so the next import starts with every cache empty."""
    for name in [n for n in sys.modules if n == "orelat" or n.startswith("orelat.")]:
        del sys.modules[name]
    gc.collect()


def import_orelat():
    orelat = importlib.import_module("orelat")
    for name in spans.MODULES:
        importlib.import_module(f"orelat.{name}")
    if Path(orelat.__file__).resolve().parent != SRC / "orelat":
        raise SystemExit(f"imported orelat from {orelat.__file__}, not from {SRC}")
    return orelat


# -- workloads -----------------------------------------------------------------


class Suite:
    """Fixed reproduce targets; the seed changes nothing."""

    query_limit = OP_LIMIT_S["suite"]

    def __init__(self, name: str):
        self.name = name
        self.targets = SUITES[name]

    def setup(self, orelat):
        if self.name == "catalog-scan":
            orelat.catalog.scan_groups(SCAN_MAX_ORDER)
        return None

    def operations(self, orelat, inputs):
        for target in self.targets:
            yield f"reproduce.{target}", lambda t=target: self._check(orelat, t)

    @staticmethod
    def _check(orelat, target: str):
        _, claims = orelat.reproduce.run_target(target)
        if not claims:
            return "no claims reported"
        failed = [c["id"] for c in claims if not c["pass"]]
        return f"failing claims: {failed}" if failed else None


class Queries:
    """The seeded single-interval query stream of querystream.py."""

    query_limit = OP_LIMIT_S["query"]

    def __init__(self, seed: int):
        self.cases = qs.select_cases(qs.load_pool(), seed)

    def setup(self, orelat):
        return qs.build_inputs(orelat, self.cases)

    def operations(self, orelat, inputs):
        for case, group, base in inputs:
            for query in case["queries"]:
                yield f"query.{query['kind']}", (
                    lambda q=query, g=group, b=base: self._check(orelat, q, g, b))

    @staticmethod
    def _check(orelat, query: dict, group, base):
        answer, problem = qs.run_query(orelat, query["kind"], group, base)
        if problem is not None:
            return problem
        got, want = qs.canonical(answer), qs.canonical(query["answer"])
        if got != want:
            return f"answer {got[:300]} differs from reference {want[:300]}"
        return None


# -- repetitions ------------------------------------------------------------------


class Rep:
    def __init__(self):
        self.began = self.set_up = self.ended = None  # perf_counter readings
        self.ops: list = []  # (start, end) perf_counter readings of every operation
        self.setup_s = self.wall_s = self.raw_wall_s = None  # set by `timed`
        self.latencies: list = []
        self.attempted = 0
        self.failures: list = []
        self.complete = False

    def timed(self, clock) -> None:
        """Turn the readings into reference seconds (hostspeed.py), once the clock has stopped."""
        if self.set_up is not None:
            self.setup_s = clock.seconds(self.began, self.set_up)
        if self.ended is not None:
            self.wall_s = clock.seconds(self.set_up, self.ended)
            self.raw_wall_s = self.ended - self.set_up
        self.latencies = [clock.seconds(a, b) for a, b in self.ops]


def remaining(deadline: float) -> float:
    return deadline - time.perf_counter()


def run_rep(workload, deadline: float, tracer=None, work: bool = True) -> Rep:
    """Set up (fresh import + inputs) and, with `work`, run every operation once."""
    rep = Rep()
    drop_orelat()
    start = rep.began = time.perf_counter()
    try:
        with time_limit(min(OP_LIMIT_S["suite"], remaining(deadline))):
            orelat = import_orelat()
            if tracer is None:
                inputs = workload.setup(orelat)
            else:
                tracer.install(orelat)
                with tracer.span("bench.setup", 0):
                    inputs = workload.setup(orelat)
    except OpTimeout:
        rep.attempted, rep.failures = 1, [("setup", "time limit")]
        return rep
    except Exception as exc:  # a failed set-up is a failed operation, reported
        rep.attempted, rep.failures = 1, [("setup", f"{type(exc).__name__}: {exc}")]
        return rep
    rep.set_up = time.perf_counter()
    if not work:
        rep.complete = True
        return rep
    for number, (label, operation) in enumerate(workload.operations(orelat, inputs), 1):
        limit = min(workload.query_limit, remaining(deadline))
        if limit <= 0:
            rep.attempted += 1
            rep.failures.append((label, "run time limit reached"))
            return rep
        rep.attempted += 1
        began = time.perf_counter()
        try:
            with time_limit(limit):
                if tracer is None:
                    problem = operation()
                else:
                    with tracer.span(label, number):
                        problem = operation()
        except OpTimeout:
            problem = f"time limit of {limit:.1f} s"
        except Exception as exc:  # any exception, budget exits included, is a failure
            problem = f"{type(exc).__name__}: {exc}"
        rep.ops.append((began, time.perf_counter()))
        if problem is not None:
            rep.failures.append((f"{number}:{label}", problem))
    rep.ended = time.perf_counter()
    rep.complete = True
    return rep


def another_fits(began: float, last_start: float, seconds: float) -> bool:
    """Whether one more repetition as long as the last still ends within `seconds`."""
    now = time.perf_counter()
    return now - began + (now - last_start) <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_rounds(workload, seconds: float, deadline: float) -> list:
    """Set-up-only repetitions for `seconds`, at least one; stops at the first failure."""
    reps = []
    end = time.perf_counter() + seconds
    while True:
        reps.append(run_rep(workload, deadline, work=False))
        if not reps[-1].complete or time.perf_counter() >= end:
            return reps


def p90(values: list) -> float:
    """The 90th percentile, interpolated between closest ranks as numpy does by default."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, seconds: float, deadline: float, clock) -> tuple:
    """A cold set-up, then set-up rounds and an untraced rep in turn while another fits."""
    reps = [run_rep(workload, deadline, work=False)]
    rss = None
    clock.start()
    try:
        began = time.perf_counter()
        while reps[-1].complete:
            rep_start = time.perf_counter()
            reps += setup_rounds(workload, SETUP_BURST_S, deadline)
            if not reps[-1].complete:
                break
            reps.append(run_rep(workload, deadline))
            if rss is None:
                rss = peak_rss_mb()
            if not another_fits(began, rep_start, seconds):
                break
        if reps[-1].complete:
            reps += setup_rounds(workload, SETUP_BURST_S, deadline)
    finally:
        clock.stop()
    for rep in reps:
        rep.timed(clock)
    cold, *setups = [r.setup_s for r in reps if r.setup_s is not None] or [None]
    work_reps = [r for r in reps if r.wall_s is not None]
    samples = {"cold_setup_s": [cold] if cold is not None else [], "setup_s": setups,
               "wall_s": [r.wall_s for r in work_reps],
               "raw_wall_s": [r.raw_wall_s for r in work_reps]}
    if isinstance(workload, Queries):
        latencies = [x for r in work_reps for x in r.latencies]
    else:
        latencies = samples["wall_s"]
    samples["query_latency_s"] = latencies
    metrics = {}
    if setups and work_reps:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(samples["wall_s"]), "s"),
            "query_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "query_p90_ms": (1000.0 * p90(latencies), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    return reps, metrics, samples


def measure_traced(workload, seconds: float, deadline: float, clock) -> tuple:
    """A cold set-up, then pairs of an untraced and a traced rep while another pair fits."""
    reps, tracers = [run_rep(workload, deadline, work=False)], []
    clock.start()
    try:
        began = time.perf_counter()
        while reps[-1].complete:
            pair_start = time.perf_counter()
            reps.append(run_rep(workload, deadline))
            if not reps[-1].complete:
                break
            tracer = spans.Tracer()
            reps.append(run_rep(workload, deadline, tracer))
            if not reps[-1].complete:
                break
            tracers.append(tracer)
            if not another_fits(began, pair_start, seconds):
                break
    finally:
        clock.stop()
    for rep in reps:
        rep.timed(clock)
    pairs = list(zip(reps[1::2], reps[2::2]))[:len(tracers)]
    untraced = [plain.wall_s for plain, _ in pairs]
    traced = [rep.wall_s for _, rep in pairs]
    per_rep = [spans.layer_metrics(t, clock.seconds) for t in tracers]
    problems = []
    for name in spans.COUNTERS:
        seen = {m[name] for m in per_rep}
        if len(seen) > 1:
            problems.append(f"counter {name} differs between repetitions: {sorted(seen)}")
    metrics = {}
    if per_rep:
        for name, unit, _ in spans.PER_LAYER:
            if name.startswith("bench.") and name != "bench.spans":
                continue
            values = [m[name] for m in per_rep]
            metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
        wall_plain, wall_traced = statistics.median(untraced), statistics.median(traced)
        metrics["bench.wall_untraced_s"] = (wall_plain, "s")
        metrics["bench.wall_traced_s"] = (wall_traced, "s")
        metrics["bench.trace_overhead_s"] = (wall_traced - wall_plain, "s")
        metrics["bench.wall_raw_s"] = (statistics.median(p.raw_wall_s for p, _ in pairs), "s")
        metrics["bench.cold_setup_s"] = (reps[0].setup_s, "s")
        metrics["bench.host_speed"] = (clock.speed(), "1")
    samples = {"cold_setup_s": [reps[0].setup_s], "wall_untraced_s": untraced,
               "wall_traced_s": traced, "traced_reps": per_rep}
    return reps, metrics, samples, tracers, problems


# -- provenance ---------------------------------------------------------------------


def git_revision(root: Path):
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(SRC / "orelat"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orelat" / "__init__.py").is_file():
        print(f"error: no orelat package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = START + RUN_LIMIT_S
    workload = Queries(args.seed) if args.workload == "queries" else Suite(args.workload)
    tracers, problems = [], []
    clock = hostspeed.Clock()
    if args.trace:
        reps, metrics, samples, tracers, problems = measure_traced(
            workload, args.seconds, deadline, clock)
    else:
        reps, metrics, samples = measure(workload, args.seconds, deadline, clock)
    attempted = sum(r.attempted for r in reps)
    failures = [f for r in reps for f in r.failures]
    failed = len(failures)
    if not metrics:
        problems.append("no complete repetition")
    correct = failed == 0 and not problems
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers:
        spans.write_spans(RESULTS / f"{stem}-spans.jsonl.gz", tracers)
    result = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": [list(f) for f in failures[:50]],
        "problems": problems,
        "repetitions": sum(r.wall_s is not None for r in reps),
        "host_speed": clock.speed() if clock.durations else None,
        "kernel_samples": len(clock.durations),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
    }
    if "query_p90_ms" in metrics:
        latencies = samples["query_latency_s"]
        limit = metrics["query_p90_ms"][0] / 1000.0
        result["percentile_basis"] = {
            "samples": len(latencies),
            "beyond_p90": sum(x > limit for x in latencies),
            "repetitions": len(samples["wall_s"]),
        }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    if "percentile_basis" in result:
        print(f"{'query percentiles over':40s} {result['percentile_basis']}")
    print(f"{'error_rate':40s} {result['error_rate']!r} ({failed}/{attempted})")
    for label, problem in failures[:10]:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
