"""Traced in-process replay: layer spans, self times and counts.

The jobs of a workload are replayed through ``boolrank.cli.main`` inside
this process.  Every public function of the layer modules is swapped, for
the duration of a traced round, for a wrapper that records a span (name,
start, end, parent, job) and, for some functions, a count taken from the
call's arguments or result after the span ends.  Spans stay in memory and
are written out when the run ends.  Untraced rounds alternate with traced
ones, so the difference between them is the tracing overhead.

A layer's self time is its spans' durations minus the parts covered by
child spans.  boolrank itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("boolmat", "cover", "crown", "algebraic", "bounds", "spanoid")

# Counts recorded at a layer boundary: function -> {count name: f(args, result)}.
COUNTS = {
    "boolmat.format_matrix": {"bytes": lambda a, r: len(r)},
    "boolmat.parse_matrix": {"bytes": lambda a, r: len(a[0])},
    "cover.format_cover": {"bytes": lambda a, r: len(r)},
    "cover.check_q_covering": {"subsets": lambda a, r: r.checked},
    "cover.verify_kron_hypotheses": {"entries": lambda a, r: a[0].count_ones() * len(a[1])},
    "cover.compose_kron_cover": {"rects": lambda a, r: r.size},
    "algebraic.algebraic_family": {
        "member_bytes": lambda a, r: sum(m.bits.nbytes for m in r[1].members)
    },
    "bounds.maximal_rectangles": {"count": lambda a, r: len(r)},
}

# The per-layer metrics, with the end-to-end metric and workload each should
# move; the job group in brackets is where in the workload the layer works.
PER_LAYER = [
    ("cli.startup_s", "s", "job_gmean_s on check (rank)"),
    ("boolmat.format_matrix.s", "s", "job_max_s and wall_s on build (construct)"),
    ("boolmat.format_matrix.bytes", "bytes", "job_max_s and wall_s on build (construct)"),
    ("boolmat.kronecker.s", "s", "wall_s on build (construct)"),
    ("boolmat.parse_matrix.s", "s", "wall_s on check (verify)"),
    ("boolmat.parse_matrix.bytes", "bytes", "wall_s on check (verify)"),
    ("cover.parse_family.s", "s", "wall_s on check (verify)"),
    ("cover.parse_cover.s", "s", "wall_s on check (verify)"),
    ("cover.format_cover.s", "s", "wall_s on build (construct)"),
    ("cover.format_cover.bytes", "bytes", "wall_s on build (construct)"),
    ("cover.format_family.s", "s", "wall_s on build (construct)"),
    ("cover.MatrixFamily.s", "s", "wall_s on check (verify) and build (asymptotic)"),
    ("cover.cover_matrix.s", "s", "wall_s on check (verify) and build (asymptotic)"),
    ("cover.check_q_covering.s", "s", "job_max_s on check (verify)"),
    ("cover.check_q_covering.subsets", "count", "job_max_s on check (verify)"),
    ("cover.verify_kron_hypotheses.s", "s", "wall_s on build (asymptotic) and check (verify)"),
    ("cover.verify_kron_hypotheses.entries", "count",
     "wall_s on build (asymptotic) and check (verify)"),
    ("cover.verify_cover.s", "s", "wall_s on check (verify)"),
    ("cover.compose_kron_cover.s", "s", "wall_s on build (construct)"),
    ("cover.compose_kron_cover.rects", "count", "wall_s on build (construct)"),
    ("crown.gap_families.s", "s", "wall_s on build (construct)"),
    ("crown.restrict_family.s", "s", "wall_s on build (asymptotic)"),
    ("algebraic.algebraic_family.s", "s", "wall_s on build (asymptotic and construct)"),
    ("algebraic.algebraic_family.member_bytes", "bytes", "peak_rss_mb on build (asymptotic)"),
    ("bounds.exact_boolean_rank.s", "s", "wall_s on check (rank)"),
    ("bounds.maximal_rectangles.s", "s", "wall_s on check (rank)"),
    ("bounds.maximal_rectangles.count", "count", "wall_s on check (rank)"),
    ("bounds.kron_lower_bound.s", "s", "wall_s on check (rank)"),
    ("bounds.isolation_number.s", "s", "wall_s on check (rank)"),
    ("bounds.mu.s", "s", "wall_s on check (rank)"),
    ("spanoid.spanoid_rank.s", "s", "wall_s on check (rank)"),
    *((f"{layer}.self_s", "s", "wall_s on every workload that calls it")
      for layer in ("cli", *LAYERS)),
    ("trace.coverage_min", "ratio", "none: share of the least-covered job's time under layer spans"),
    ("trace.overhead", "ratio", "none: fastest traced over fastest untraced round, minus 1"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Reported with their children, because their work is the calls they make:
# the MatrixFamily check is its cover_matrix calls, and gap_families is the
# triple construction in crown's helpers.  Every other ".s" metric is self
# time.
INCLUSIVE = {"cover.MatrixFamily", "crown.gap_families"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = ""

    def wrap(self, name: str, fn):
        counters = COUNTS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            for key, count in counters.items():
                self.counts[f"{name}.{key}"] += count(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every public layer function, wherever boolrank binds it."""
        pkg = importlib.import_module("boolrank")
        wrappers = {}
        # Generator functions are left alone: a span would time only the
        # creation of the generator, not the work done while iterating it.
        for layer in LAYERS:
            mod = importlib.import_module(f"boolrank.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        patched = []
        for name, mod in list(sys.modules.items()):
            if name == "boolrank" or name.startswith("boolrank."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        patched.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
        family = pkg.cover.MatrixFamily
        post_init = family.__post_init__
        family.__post_init__ = self.wrap("cover.MatrixFamily", post_init)
        try:
            yield
        finally:
            family.__post_init__ = post_init
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def times(self) -> dict[tuple[str, str], list]:
        """(job, function) -> [calls, self time, inclusive time].

        Inclusive time skips spans nested in a span of the same function.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, parent, job), inner in zip(self.spans, child):
            entry = out[job, name]
            entry[0] += 1
            entry[1] += end - start - inner
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                entry[2] += end - start
        return out

    def coverage(self) -> dict[str, float]:
        """Per job: share of its cli.main time spent under layer spans."""
        under: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == "cli.main":
                under[parent] += end - start
        return {
            job: under[i] / (end - start)
            for i, (name, start, end, _, job) in enumerate(self.spans)
            if name == "cli.main"
        }


def run_round(workload, judge, tracer: Tracer | None):
    """Replay every job once in-process; returns (wall time, problems)."""
    from boolrank import cli

    problems = {}
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    t0 = time.perf_counter()
    for job in workload.jobs:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.label
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(job.argv)
        problem = judge(job, rc, out.getvalue(), err.getvalue())
        if job.output is not None:
            job.output.unlink(missing_ok=True)
        if problem:
            problems[job.label] = problem
    return time.perf_counter() - t0, problems


def replay(workload, seconds: float, judge, root: Path, launcher) -> dict:
    """Alternate untraced and traced in-process rounds for ``seconds`` (at
    least one of each), then report the traced rounds' medians."""
    startup = statistics.median(launcher.run(["sigma", "1"])["wall_s"] for _ in range(5))
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("BOOLRANK_MAX_ENTRIES", None)
    importlib.import_module("boolrank.cli")

    plain, traced, problems, failed = [], [], {}, 0
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            took, bad = run_round(workload, judge, None)
            plain.append(took)
        else:
            tracer = Tracer()
            with tracer.installed():
                took, bad = run_round(workload, judge, tracer)
            traced.append((took, tracer))
        problems.update(bad)
        failed += len(bad)

    rounds = []
    for took, tracer in traced:
        values = dict.fromkeys(UNITS, 0.0)
        for (_, name), (_, own, total) in tracer.times().items():
            key = name + ".s"
            values[key] = values.get(key, 0.0) + (total if name in INCLUSIVE else own)
            values[name.split(".")[0] + ".self_s"] += own
        values.update(tracer.counts)
        values["trace.coverage_min"] = min(tracer.coverage().values())
        rounds.append(values)
    metrics = {name: statistics.median(r[name] for r in rounds) for name, _, _ in PER_LAYER}
    metrics["cli.startup_s"] = startup
    # Fastest rounds: the first round of a run is cold, and slow phases of a
    # shared machine hit rounds at random.
    metrics["trace.overhead"] = min(t for t, _ in traced) / min(plain) - 1
    last = traced[-1][1]
    spans_file = root / ".perfbench" / "results" / f"{workload.name}-spans.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(last.spans))
    per_job: dict[str, dict] = defaultdict(dict)
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (job, name), (calls, own, total) in last.times().items():
        per_job[job][name] = {"calls": calls, "self_s": own, "total_s": total}
        layers[name]["calls"] += calls
        layers[name]["self_s"] += own
    attempted = len(workload.jobs) * (len(plain) + len(traced))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": {"untraced_s": plain, "traced_s": [t for t, _ in traced]},
        "layers": dict(sorted(layers.items())),
        "job_layers": per_job,
        "counts": dict(last.counts),
        "coverage": last.coverage(),
        "job_count": len(workload.jobs),
    }


def report_text(records: list[dict]) -> str:
    lines = []
    for rec in records:
        name = rec["workload"]
        lines.append(f"== {name}: layer self time (last traced round) ==")
        for fn, info in sorted(rec["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            if info["self_s"] >= 1e-4:
                lines.append(f"  {fn:<40} calls={info['calls']:<6} self={info['self_s']:.4f} s")
        for key, value in sorted(rec["counts"].items()):
            lines.append(f"  count {key:<40} {value:.0f}")
        lines.append(f"== {name}: share of in-process job time under layer spans ==")
        for job, share in rec["coverage"].items():
            lines.append(f"  {job:<24} {share:.3f}")
        r = rec["rounds"]
        lines.append(f"== {name}: tracing overhead {rec['metrics']['trace.overhead']['value']:+.3f} "
                     f"(untraced rounds {['%.3f' % t for t in r['untraced_s']]}, "
                     f"traced {['%.3f' % t for t in r['traced_s']]}) ==")
    lines.append("== per-layer metric -> end-to-end metric it should move ==")
    for metric, unit, moves in PER_LAYER:
        lines.append(f"  {metric:<42} [{unit}] -> {moves}")
    return "\n".join(lines)
