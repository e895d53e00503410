"""boolrank benchmark: CLI certificate workloads, timed as whole processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

One client runs the workload's jobs one at a time in a closed loop, each a
``python -m boolrank ...`` process, until --seconds have passed and every
job has run at least once.  Each job's wall time and peak RSS (from
os.wait4) are recorded and its exit code and output checked against
answers the benchmark derives itself (gen.py).  With --trace 1 the same
jobs are replayed in-process under layer spans instead (spans.py), and the
per-layer metrics are reported.  ``all`` runs the benchmark's two workloads,
build and check; each of the four job groups they are made of (asymptotic,
construct, verify, rank) can also be run as a workload of its own, and the
end-to-end metrics of every group are printed as well.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with every job's samples,
stdout sha256 and the environment, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 60  # a hung job is killed and counted as failed

END_TO_END = {
    "wall_s": "s",
    "job_gmean_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env(root: Path) -> dict[str, str]:
    """The environment every boolrank process gets.

    BOOLRANK_MAX_ENTRIES is removed so materialize/lazy decisions cannot
    drift with the caller's shell; numeric libraries get one thread each,
    matching the single-client loop.
    """
    env = {k: v for k, v in os.environ.items() if k != "BOOLRANK_MAX_ENTRIES"}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    """Runs ``python -m boolrank`` jobs through launch.py, one at a time.

    The helper, not this process, spawns the jobs, so a job's peak RSS is its
    own and not this process's (see launch.py).
    """

    def __init__(self, env: dict[str, str], scratch: Path):
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str]) -> dict:
        """Wall time, exit code, peak RSS and output of one job."""
        out, err = self.scratch / "job.stdout", self.scratch / "job.stderr"
        request = {"argv": [sys.executable, "-m", "boolrank", *argv],
                   "stdout": str(out), "stderr": str(err), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        res = json.loads(reply)
        res["stdout"] = out.read_text(errors="replace")
        res["stderr"] = err.read_text(errors="replace")
        return res

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def judge(job: jobs_mod.Job, rc: int, out: str, err: str) -> str | None:
    if rc != job.rc:
        return f"exit code {rc}, want {job.rc}: {err.strip()[-200:]}"
    return job.check(out, err)


def setup(work: Path, name: str, seed: int, launcher: Launcher) -> tuple[jobs_mod.Workload, float]:
    """Write and check the workload's inputs, then start one boolrank process
    so the interpreter and numpy are in the page cache before timing."""
    t0 = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = jobs_mod.build(name, work, seed)
    warm = launcher.run(["sigma", "1"])
    if warm["rc"] != 0 or warm["stdout"] != "0\n":
        raise RuntimeError(f"boolrank does not start: {warm['stderr'].strip()[-300:]}")
    return workload, time.perf_counter() - t0


def output_digest(job: jobs_mod.Job) -> str | None:
    """sha256 of the job's -o file, which is then removed so its dirty pages
    are dropped rather than written back while later jobs are timed."""
    if job.output is None or not job.output.exists():
        return None
    digest = jobs_mod.sha256(job.output.read_bytes())
    job.output.unlink()
    return digest


def closed_loop(workload: jobs_mod.Workload, seconds: float, launcher: Launcher):
    """Run the job list round after round until the time is up (one job in
    flight at a time); every job runs at least once."""
    samples = {job.label: [] for job in workload.jobs}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for job in workload.jobs:
            if rounds and time.perf_counter() - start >= seconds:
                break
            res = launcher.run(job.argv)
            problem = judge(job, res["rc"], res["stdout"], res["stderr"])
            samples[job.label].append({
                "wall_s": res["wall_s"],
                "rss_mb": res["rss_mb"],
                "rc": res["rc"],
                "stdout_sha256": jobs_mod.sha256(res["stdout"].encode()),
                "output_sha256": output_digest(job),
                "problem": problem,
            })
        rounds += 1
    return samples, rounds


def job_metrics(samples: dict[str, list[dict]]) -> dict[str, float]:
    per_job = {label: statistics.median(s["wall_s"] for s in runs) for label, runs in samples.items()}
    return {
        "wall_s": sum(per_job.values()),
        "job_gmean_s": statistics.geometric_mean(per_job.values()),
        "job_max_s": max(per_job.values()),
        "peak_rss_mb": max(s["rss_mb"] for runs in samples.values() for s in runs),
    }


def end_to_end(samples: dict[str, list[dict]], setup_times: list[float]) -> dict[str, float]:
    return {**job_metrics(samples), "setup_s": statistics.median(setup_times)}


def group_metrics(workload: jobs_mod.Workload, samples: dict[str, list[dict]]) -> dict[str, dict]:
    """The job metrics of each group the workload is made of."""
    groups: dict[str, dict] = {}
    for job in workload.jobs:
        groups.setdefault(job.group, {})[job.label] = samples[job.label]
    return {group: job_metrics(part) for group, part in groups.items()}


def environment(root: Path) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = res.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool) -> dict:
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(root)}
    work = root / ".perfbench" / name
    scratch = root / ".perfbench" / "jobs"
    scratch.mkdir(parents=True, exist_ok=True)
    with Launcher(child_env(root), scratch) as launcher:
        setup_times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            workload, took = setup(work, name, seed, launcher)
            setup_times.append(took)
        record.update(inputs=workload.inputs, setup_s=setup_times,
                      jobs={job.label: job.argv for job in workload.jobs},
                      groups={job.label: job.group for job in workload.jobs})
        if traced:
            report = spans.replay(workload, seconds, judge, root, launcher)
            record.update(report)
            attempted, failed = report["attempted"], report["failed"]
            values, units = report["metrics"], spans.UNITS
        else:
            samples, rounds = closed_loop(workload, seconds, launcher)
            record.update(samples=samples, rounds=rounds, job_count=len(samples),
                          group_metrics=group_metrics(workload, samples))
            attempted = sum(len(runs) for runs in samples.values())
            failed = sum(1 for runs in samples.values() for s in runs if s["problem"])
            values, units = end_to_end(samples, setup_times), END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted, metrics=metrics)
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        note = f" (n={record['job_count']} jobs)" if metric == "job_gmean_s" else ""
        print(f"{name:<11} {metric:<44} {m['value']:.6g} {m['unit']}{note}")
    print(f"{name:<11} {'fail_ratio':<44} {record['fail_ratio']:.6g} "
          f"({record['failed']}/{record['attempted']} jobs)")
    groups = record.get("group_metrics", {})
    for group, values in groups.items() if len(groups) > 1 else ():
        for metric, value in values.items():
            print(f"{name:<11} {group + '.' + metric:<44} {value:.6g} {END_TO_END[metric]}")
    for label, runs in record.get("samples", {}).items():
        for s in runs:
            if s["problem"]:
                print(f"{name:<11} FAIL {label}: {s['problem']}")
    for label, problem in record.get("problems", {}).items():
        print(f"{name:<11} FAIL {label}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*jobs_mod.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "boolrank" / "__main__.py").is_file():
        print(f"no boolrank sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = jobs_mod.BENCHMARK if args.workload == "all" else (args.workload,)
    records = [run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for record in records:
        print_record(record)
    if args.trace:
        print(spans.report_text(records))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
