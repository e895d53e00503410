"""Render the ROADMAP Baseline table from benchmark result files.

    python3 perfbench/baseline.py [results-dir]

Reads every ``<workload>-seed<n>-trace<0|1>.json`` in the directory
(default .perfbench/results), takes each row's median over the files
that have it, and prints a markdown table: layer rows from traced runs
(inclusive time of one call site in one job), CLI rows from untraced runs
(median wall time and peak RSS of one job).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# (row label, job, function) -- inclusive time of function in job.  Job
# labels are unique across workloads, so a row reads every result file that
# ran its job.
LAYER_ROWS = [
    ("`check_q_covering` (6859-crown, 18 members, q=3)", "qcover-c6859", "cover.check_q_covering"),
    ("`format_matrix` (6859-crown)", "crown-6859", "boolmat.format_matrix"),
    ("`verify_kron_hypotheses` (6859, s=6)", "asym-6859-s6", "cover.verify_kron_hypotheses"),
    ("`exact_boolean_rank(crown 8)`", "rank-exact-8", "bounds.exact_boolean_rank"),
    ("`parse_family(a33.fam)`", "qcover-c6859", "cover.parse_family"),
    ("`parse_matrix(c6859)`", "qcover-c6859", "boolmat.parse_matrix"),
    ("`gap_cover(252, 252)`", "gap-252-252", "crown.gap_cover"),
    ("`algebraic_family(3, 3)`", "algebraic-3-3", "algebraic.algebraic_family"),
]

# (row label, job) -- median wall time and peak RSS of the process.
CLI_ROWS = [
    ("CLI `cover asymptotic 6859 --q 3 --s 6`", "asym-6859-s6"),
    ("CLI `verify qcover c6859.mat a33.fam 3`", "qcover-c6859"),
    ("CLI `crown 6859 -o`", "crown-6859"),
    ("CLI `cover gap 252 252 -o`", "gap-252-252"),
    ("CLI `rank exact` (crown 8, permuted)", "rank-exact-8"),
]


def load(results: Path) -> tuple[list[dict], list[dict]]:
    plain, traced = [], []
    for path in sorted(results.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        (traced if rec["trace"] else plain).append(rec)
    return plain, traced


def table(plain: list[dict], traced: list[dict]) -> str:
    lines = ["| Layer / workload | Time | Note |", "|---|---|---|"]
    for label, job, fn in LAYER_ROWS:
        values = [
            rec["job_layers"][job][fn]["total_s"]
            for rec in traced
            if fn in rec["job_layers"].get(job, {})
        ]
        if values:
            lines.append(f"| {label} | {statistics.median(values):.2f} s | "
                         f"traced, median of {len(values)} run(s) |")
    for label, job in CLI_ROWS:
        runs = [rec["samples"][job] for rec in plain if job in rec["samples"]]
        if runs:
            wall = statistics.median(statistics.median(s["wall_s"] for s in r) for r in runs)
            rss = max(s["rss_mb"] for r in runs for s in r)
            lines.append(f"| {label} | {wall:.2f} s | ~{rss:.0f} MB peak RSS, "
                         f"{sum(map(len, runs))} runs |")
    env = (plain or traced)[0]["environment"]
    lines.append(f"\nMeasured at {env['git_sha'][:12]}, Python {env['python']}, "
                 f"numpy {env['numpy']}, {env['nproc']} CPUs.")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    results = Path(argv[0]) if argv else Path(".perfbench/results")
    plain, traced = load(results)
    if not plain and not traced:
        print(f"no result files in {results}", file=sys.stderr)
        return 2
    print(table(plain, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
