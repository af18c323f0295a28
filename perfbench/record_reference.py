"""Record reference output digests for the correctness gate.

    python3 perfbench/record_reference.py SEED [SEED ...]

Runs every workload's job list once per seed with the program as it is
checked out and writes perfbench/reference/<workload>.json, mapping each
seed to {job id: digest of exit code, stdout and written files}. Record
only from a commit whose outputs are trusted; the stored digests are
what every later run with these seeds must reproduce byte for byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def record(workload: str, seed: int) -> dict[str, str]:
    work = HERE / "out" / f"reference-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, _ = worker.setup(workload, seed, work)
        (work / "out").mkdir()
        rows = worker.run_pass(jobs, work)
        digests = {}
        for job, (_, code, dig, stdout, stderr, files) in zip(jobs, rows):
            reason = (f"exit code {code}: {stderr.strip()}" if code != 0
                      else checks.check(workload, job, stdout, files, work / "inst"))
            if reason:
                raise SystemExit(f"{workload} seed {seed} job {job.id}: {reason}")
            digests[job.id] = dig
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(seeds: list[int]) -> int:
    if not seeds:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for workload in WORKLOADS:
        table = {str(seed): record(workload, seed) for seed in seeds}
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: seeds {', '.join(table)}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
