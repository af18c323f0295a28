"""ergopt benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 28 --trace 0

Run from the repository root. Workloads (see BENCHMARK.json and
perfbench/predictions.json for why each one exists):

    solve-ladder     `solve` on planted full-shift and golden-mean rungs
    barrier-ladder   `barrier --out` on the same rungs
    separate-depth   `separate --depth K` then `verify` at K = 2..10
    small-batch      six commands on each of 300 small random instances

Each workload runs in its own child Python process (perfbench/worker.py),
which calls `ergopt.cli.main` in process, one job at a time, in passes
over the job list until --seconds are used up. Set-up (import, instance
generation, file writes) is timed in five more children as well.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics: setup_s (median over the six set-ups), wall_s (the job list's
time, each job at its median over the passes), job_p50_ms / job_p99_ms
(over those per-job medians) and peak_rss_mib. The times are scaled to
a nominal machine speed measured by a calibration loop during the run
(see perfbench/worker.py); the summary line before the JSON gives the
raw wall time and the scale. With --trace 1, traced and untraced passes
alternate and the metrics are the per-layer span totals of one pass
(see perfbench/spans.py), scaled the same way, plus the trace overhead.

Every job's exit code, stdout and written files are checked: against
reference digests recorded from the seed code where perfbench/reference
has them for this seed, and by the checks in perfbench/checks.py always.
Per-job rows (and, when traced, the spans of one pass) are written to
perfbench/out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # plus the measuring worker's own set-up
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1


def reference_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "reference" / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def gate(result: dict, reference: dict | None) -> dict[str, str]:
    """Failing jobs with their reasons: the worker's own checks, plus
    every digest that differs from the stored reference."""
    failures = dict(result["failures"])
    if reference is not None:
        for job, got in zip(result["jobs"], result["digests"]):
            if reference.get(job) != got:
                failures.setdefault(job, "output digest differs from the reference")
        if set(reference) != set(result["jobs"]):
            failures.setdefault("(job list)", "job list differs from the reference")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(seconds), str(trace), str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ergopt" / "cli.py").is_file():
        print(f"error: no ergopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [child(args.workload, args.seed, 0, 0, out_dir / f"setup{k}")["setup_s"]
                  for k in range(SETUP_SAMPLES)]
        result = child(args.workload, args.seed, args.seconds, args.trace, out_dir / "work")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in out_dir.glob("setup*"):
            shutil.rmtree(path)
        shutil.rmtree(out_dir / "work", ignore_errors=True)
    setups.append(result["setup_s"])

    failures = gate(result, reference_digests(args.workload, args.seed))
    jobs = len(result["jobs"])
    attempted = jobs * result["passes"]
    failed = min(len(failures), jobs) * result["passes"]
    job_ms = [1e3 * s for s in result["job_s"]]
    wall_s = sum(result["job_s"])
    for job, reason in sorted(failures.items())[:20]:
        print(f"FAILED {job}: {reason}")
    print(f"{args.workload} seed {args.seed}: {jobs} jobs x {result['passes']} passes,"
          f" fail_frac {failed / attempted:.4f}, p50/p99 over {jobs} per-job medians,"
          f" raw wall {result['raw_wall_s']:.4f} s at speed scale {result['speed_scale']:.3f},"
          f" python {result['python']}, nproc {result['nproc']}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["layers"].items()}
        layers = result["layers"]
        gap = layers["trace.self_sum_s"] - layers["trace.untraced_wall_s"]
        print(f"trace: spans' self time {layers['trace.self_sum_s']:.4f} s against untraced"
              f" wall {layers['trace.untraced_wall_s']:.4f} s (gap {gap:+.4f} s); overhead"
              f" {layers['trace.overhead_s']:.4f} s; within overhead:"
              f" {'yes' if abs(gap) <= abs(layers['trace.overhead_s']) else 'no'}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "job_p50_ms": {"value": statistics.median(job_ms), "unit": "ms"},
            "job_p99_ms": {"value": percentile(job_ms, 99), "unit": "ms"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("maxbits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
