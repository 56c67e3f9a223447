"""Benchmark runner for stancecast.

    python3 perfbench/run.py --workload cli-scraped [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Workloads: cli-scraped, deep-threads,
planted-forecast (see workloads.py for what each exercises and why).

Every set-up and every timed pass runs in a fresh single-threaded worker
process (one client, closed loop), with BLAS/OpenMP pinned to one thread.
`--trace 0` repeats passes until `--seconds` have been measured and reports
the end-to-end metrics as medians over passes, with the pass count.
`--trace 1` makes the same untraced passes, then one traced pass, and
reports the per-layer metrics, with the tracing overhead as the traced
`run_s` minus the untraced median.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Work files
go to .perfbench_work/ in the checkout: the spans of a traced pass
(spans.jsonl), the output digests (digests.json) and the full result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

WORKLOADS = ("cli-scraped", "deep-threads", "planted-forecast")
DEFAULT_SEEDS = {"cli-scraped": 1, "deep-threads": 7, "planted-forecast": 11}
END_TO_END = (("run_s", "s"), ("entries_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# The CLI rerun on a finished output dir (cache hits except profile and
# report) is short, so it is repeated and its median taken. The library
# workloads have no cache to rerun against.
RERUNS = {"cli-scraped": 5, "deep-threads": 0, "planted-forecast": 0}
RUN_LIMIT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Runner:
    """Starts worker processes and tallies the operations they report."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env["PYTHONHASHSEED"] = "0"
        for var in PINNED_THREADS:
            self.env[var] = "1"

    def worker(self, tag: str, *args: str) -> dict | None:
        result = self.work / f"{tag}.json"
        command = [sys.executable, str(HERE / "worker.py"), *args,
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--inputs", str(self.work / "inputs"), "--result", str(result)]
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run(command, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result.exists():
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"worker {tag}: exit {code}, see {self.work / (tag + '.log')}")
            return None
        data = json.loads(result.read_text())
        self.attempted += data["ops"]["attempted"]
        self.failed += data["ops"]["failed"]
        self.failures += [f"{tag}: {f}" for f in data["ops"]["failures"]]
        return data

    def run_pass(self, tag: str, reruns: int, spans: Path | None = None) -> dict | None:
        args = ["run", "--out", str(self.work / f"{tag}-out"), "--reruns", str(reruns)]
        if spans is not None:
            args += ["--spans", str(spans)]
        return self.worker(tag, *args)


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced passes until `seconds` have gone by (at least one pass)."""
    passes = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        data = runner.run_pass(f"pass{len(passes)}", RERUNS[runner.workload])
        if data is None:
            break
        passes.append(data)
        now = time.monotonic()
        if now - started >= seconds or runner.deadline - now < 2 * (now - began):
            break
    metrics = {}
    for name in (*dict(END_TO_END), "rerun_s"):
        values = [p["metrics"][name] for p in passes if name in p["metrics"]]
        if values:
            metrics[name] = statistics.median(values)
    return metrics, passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so subprocess.run kills
    # and reaps the running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not (ROOT / "src" / "stancecast" / "__init__.py").is_file():
        print(f"perfbench: no stancecast sources under {ROOT / 'src'}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, seed, work)

    setup = runner.worker("setup", "setup")
    units = dict(END_TO_END, rerun_s="s", **dict(tracer.per_layer_names()))
    reported = [name for name, _ in (tracer.per_layer_names() if args.trace else END_TO_END)]
    metrics, passes = {}, []
    if setup is not None:
        metrics, passes = measure(runner, args.seconds)
        metrics["setup_s"] = setup["setup_s"]
    if passes and args.trace:
        traced = runner.run_pass("traced", min(RERUNS[args.workload], 1),
                                 spans=work / "spans.jsonl")
        if traced and traced["layers"]:
            metrics.update(traced["layers"])
            metrics["synth.generate_s"] = setup["synth.generate_s"]
            metrics["pipeline.rerun_s"] = metrics.get("rerun_s", 0.0)
            metrics["trace.run_s"] = traced["metrics"]["run_s"]
            metrics["trace.untraced_run_s"] = metrics["run_s"]
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["run_s"]
    if passes:
        (work / "digests.json").write_text(json.dumps(passes[0]["digests"], indent=1))
    shutil.rmtree(work / "inputs", ignore_errors=True)

    correct = runner.failed == 0 and all(name in metrics for name in reported)
    print(f"{'passes':<44} {len(passes):>16d} untraced, medians taken over them")
    for name in metrics:
        print(f"{name:<44} {metrics[name]:>16.6f} {units[name]}")
    for name, digest in sorted(passes[0]["digests"].items() if passes else []):
        print(f"digest {name:<37} {digest}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    summary = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]}
                    for name in reported},
    }
    (work / "result.json").write_text(json.dumps(dict(summary, passes=len(passes)), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
