"""Child process of the benchmark: set up one workload, then run its job
list in passes through `ergopt.cli.main` until the time is up.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORK_DIR

With SECONDS = 0 it only times the set-up (import, instance generation,
instance-file writes). It writes `result.json` into WORK_DIR, and the
per-job rows (plus, when traced, the spans of one pass) next to it.

Machine speed. On a shared virtual machine (2 vCPUs, Intel Xeon at
2.1 GHz, Python 3.11) the same Python code ran up to 1.7x slower for
seconds or minutes at a time, which moved the raw job-list time of one
workload by 20-40% between runs minutes apart. So the
worker also times a fixed calibration loop (`calibrate`) between jobs,
at most every quarter second, and every reported time is scaled to a
machine on which that loop takes CAL_NOMINAL_S: a job's time is divided
by the loop times measured just before and just after it, over
CAL_NOMINAL_S. The raw time is reported alongside. A change to ergopt
moves the scaled times just as it moves the raw ones, because the loop
runs none of ergopt's code.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CAL_NOMINAL_S = 0.003
CAL_INTERVAL_S = 0.25
CAL_SAMPLES = 3


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction sums and comparisons, the
    kind of work that dominates ergopt."""
    from fractions import Fraction

    start = time.perf_counter()
    acc = Fraction(0)
    best = [None] * 16
    for i in range(600):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        j = i & 15
        if best[j] is None or acc < best[j]:
            best[j] = acc
    return time.perf_counter() - start


def speed_sample() -> float:
    return statistics.median(calibrate() for _ in range(CAL_SAMPLES))


def setup(workload: str, seed: int, work: Path):
    """Everything a user pays before the first job: importing the
    program, generating the instances and writing their files."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ergopt.cli  # noqa: F401

    import workloads

    jobs = workloads.build(workload, seed, work / "inst")
    return jobs, time.perf_counter() - start


def fill(argv, work: Path) -> list[str]:
    return [a.format(inst=work / "inst", out=work / "out", repo=ROOT) for a in argv]


def out_target(argv) -> Path | None:
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def run_job(argv: list[str]):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    import ergopt.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = ergopt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def written(argv) -> dict[str, bytes]:
    """Files a job wrote, by name: the --out file, or the files in the
    --out directory."""
    target = out_target(argv)
    if target is None or not target.exists():
        return {}
    if target.is_dir():
        return {p.name: p.read_bytes() for p in sorted(target.iterdir())}
    return {target.name: target.read_bytes()}


def digest(code: int, stdout: str, files: dict[str, bytes], work: Path) -> str:
    """Exit code, stdout and written files, with this run's work
    directory and the checkout replaced by fixed placeholders."""
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    stdout = stdout.replace(str(work), "{work}").replace(str(ROOT), "{repo}")
    h.update(stdout.encode("utf-8"))
    for name, data in files.items():
        h.update(f"\nfile {name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()[:16]


def run_pass(jobs, work: Path, scales: list | None = None, tracer=None,
             reruns: list | None = None, traced_first: bool = False):
    """Run every job once. Returns per job (seconds, exit code, digest,
    stdout, stderr, files).

    With `scales`, times the calibration loop between jobs and appends
    each job's speed scale: the mean of the last calibration before it
    and the first after it, over CAL_NOMINAL_S. With `tracer`, each job
    also runs with the spans installed, right after (or, with
    `traced_first`, right before) its untraced run, so that both runs
    see the same machine; (seconds, digest) of the traced run go to
    `reruns`."""
    rows, windows, cal = [], [], []

    def traced_run(job, argv):
        tracer.job = job.id
        tracer.install()
        try:
            code, stdout, _, seconds = run_job(argv)
        finally:
            tracer.uninstall()
        reruns.append((seconds, digest(code, stdout, written(argv), work)))

    for job in jobs:
        if scales is not None and (not cal or time.perf_counter() - cal[-1][0] > CAL_INTERVAL_S):
            cal.append((time.perf_counter(), speed_sample()))
        argv = fill(job.argv, work)
        begin = time.perf_counter()
        if tracer is not None and traced_first:
            traced_run(job, argv)
        code, stdout, stderr, seconds = run_job(argv)
        files = written(argv)
        rows.append((seconds, code, digest(code, stdout, files, work), stdout, stderr, files))
        if tracer is not None and not traced_first:
            traced_run(job, argv)
        windows.append((begin, time.perf_counter()))
    if scales is not None:
        cal.append((time.perf_counter(), speed_sample()))
        times = [t for t, _ in cal]
        for begin, end in windows:
            before = cal[bisect.bisect_right(times, begin) - 1][1]
            after = cal[bisect.bisect_left(times, end)][1]
            scales.append((before + after) / 2 / CAL_NOMINAL_S)
    return rows


def job_rows(workload, jobs, job_s, spans, scale_of_job) -> list[dict]:
    """One row per job: its scaled median time and, from one traced pass,
    graph sizes, critical structure, lifted nodes, passes, bit lengths
    and per-stage self times."""
    by_job: dict[str, list] = {}
    for s in spans:
        by_job.setdefault(s.job, []).append(s)
    rows = []
    for job, seconds in zip(jobs, job_s):
        row = {"workload": workload, "job": job.id, "command": " ".join(job.argv),
               "job_ms": 1e3 * seconds}
        stages: dict[str, float] = {}
        for s in by_job.get(job.id, ()):
            stages[s.name] = stages.get(s.name, 0.0) + s.self_s / scale_of_job[s.job]
            c = s.counts
            if s.name == "symbolic.refine" and "nodes" not in row:
                row["nodes"], row["edges"] = c["nodes"], c["edges"]
            elif s.name == "tropical.critical_structure":
                row.update(c)
            elif s.name == "symbolic.lift_to":
                row["lifted_nodes"] = max(row.get("lifted_nodes", 0), c["nodes"])
            elif s.name == "subactions.separating_subaction":
                row["passes"] = c["passes"]
            if "maxbits" in c:
                row["maxbits"] = max(row.get("maxbits", 0), c["maxbits"])
        if stages:
            row["stage_self_s"] = stages
        rows.append(row)
    return rows


def per_job_medians(passes: list[list[float]]) -> list[float]:
    return [statistics.median(p[k] for p in passes) for k in range(len(passes[0]))]


def measure(workload, seed, jobs, seconds, trace, work) -> dict:
    """Run passes until `seconds` are used up. With `trace`, every job
    also runs traced, next to its untraced run; the order flips from
    pass to pass after an untimed warm-up pass and the pass count is
    even, so that neither side gets the warmer start, and the trace
    figures are means over the passes."""
    import checks
    from spans import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    (work / "out").mkdir(exist_ok=True)
    untraced, raw, pass_scales = [], [], []
    traced, layers_per_pass, self_per_job = [], [], []
    first = None
    bad_code = [False] * len(jobs)
    unstable = [False] * len(jobs)
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        run_pass(jobs, work)  # warm-up, so no traced or untraced run is a first run
    while True:
        begin = time.perf_counter()
        scales: list[float] = []
        reruns: list[tuple] = []
        if tracer is not None:
            tracer.spans.clear()
        rows = run_pass(jobs, work, scales, tracer, reruns, len(untraced) % 2 == 1)
        untraced.append([r[0] / f for r, f in zip(rows, scales)])
        raw.append([r[0] for r in rows])
        pass_scales.append(statistics.median(scales))
        first = first or rows
        bad_code = [bad or r[1] != 0 for bad, r in zip(bad_code, rows)]
        unstable = [bad or r[2] != f[2] for bad, r, f in zip(unstable, rows, first)]
        if tracer is not None:
            scale_of_job = {job.id: f for job, f in zip(jobs, scales)}
            traced.append([t / f for (t, _), f in zip(reruns, scales)])
            unstable = [bad or t[1] != f[2] for bad, t, f in zip(unstable, reruns, first)]
            layers_per_pass.append(layer_metrics(tracer.spans, scale_of_job))
            own = dict.fromkeys(scale_of_job, 0.0)
            for s in tracer.spans:
                own[s.job] += s.self_s / scale_of_job[s.job]
            self_per_job.append(list(own.values()))
        took = time.perf_counter() - begin
        if time.perf_counter() + took > deadline and (tracer is None or len(untraced) % 2 == 0):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = {}
    for job, row, code_bad, moved in zip(jobs, first, bad_code, unstable):
        _, code, _, stdout, stderr, files = row
        if code_bad:
            failures[job.id] = f"exit code {code}: {stderr.strip()[-200:]}"
        elif moved:
            failures[job.id] = "output differs between runs"
        else:
            reason = checks.check(workload, job, stdout, files, work / "inst")
            if reason:
                failures[job.id] = reason

    job_s = per_job_medians(untraced)
    result = {
        "jobs": [j.id for j in jobs],
        "digests": [r[2] for r in first],
        "failures": failures,
        "passes": len(untraced),
        "job_s": job_s,
        "raw_wall_s": sum(per_job_medians(raw)),
        "speed_scale": statistics.median(pass_scales),
        "peak_rss_mib": peak_rss_mib,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    out_dir = work.parent
    with open(out_dir / "jobs.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "python": result["python"],
                             "nproc": result["nproc"], "passes": result["passes"],
                             "traced": bool(trace),
                             "speed_scale": result["speed_scale"]}) + "\n")
        rows = job_rows(workload, jobs, job_s, tracer.spans if tracer else [],
                        scale_of_job if tracer else {})
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    if tracer is not None:
        layers = {k: statistics.median(m[k] for m in layers_per_pass)
                  for k in layers_per_pass[0]}
        untraced_wall = statistics.mean(map(sum, untraced))
        traced_wall = statistics.mean(map(sum, traced))
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.self_sum_s"] = statistics.mean(map(sum, self_per_job))
        result["layers"] = layers
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for k, s in enumerate(tracer.spans):
                fh.write(json.dumps({"id": k, "parent": s.parent, "job": s.job,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "self_s": s.self_s, **s.counts}) + "\n")
    return result


def main(argv) -> int:
    workload, seed, seconds, trace, work = argv
    seconds, trace, work = float(seconds), int(trace), Path(work)
    jobs, setup_s = setup(workload, int(seed), work)
    scale = speed_sample() / CAL_NOMINAL_S
    result = {"setup_s": setup_s / scale, "raw_setup_s": setup_s}
    if seconds > 0:
        result.update(measure(workload, int(seed), jobs, seconds, trace, work))
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
