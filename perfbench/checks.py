"""Output checks that do not need stored reference digests.

Each check reads one job's stdout and written files and returns None
when they are right, or a one-line reason. The checks use facts the
benchmark knows from how it made the input (the planted critical cycles
of the ladders) or recompute a small answer independently (the minimum
cycle mean of a small-batch instance by cycle enumeration), so a seed
without reference digests is still checked.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path


def _field(stdout: str, prefix: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _read_matrix(text: str):
    lines = text.splitlines()
    words = lines[0].split(",")[1:]
    rows = [[Fraction(c) for c in line.split(",")[1:]] for line in lines[1:]]
    return words, rows


def check_ladder_solve(stdout: str, files: dict, expect: dict) -> str | None:
    if _field(stdout, "abar = ") != expect["abar"]:
        return f"abar {_field(stdout, 'abar = ')!r} is not the planted {expect['abar']}"
    crit = _field(stdout, "critical edges: ")
    if crit is None or sorted(crit.split(",")) != expect["critical_edges"]:
        return "critical edges are not the planted cycles"
    if _field(stdout, "components: ") != str(expect["components"]):
        return "component count is not the planted one"
    nodes = _field(stdout, "nodes: ")
    if nodes is None or len(nodes.split(",")) != expect["nodes"]:
        return "node count differs from the rung size"
    if "constraint matrix H:" not in stdout:
        return "two components but no constraint matrix"
    return None


def check_ladder_barrier(stdout: str, files: dict, expect: dict) -> str | None:
    if sorted(files) != ["h.csv", "phi.csv"] or stdout.count("wrote ") != 2:
        return "barrier did not write exactly phi.csv and h.csv"
    words, phi = _read_matrix(files["phi.csv"].decode("utf-8"))
    h_words, h = _read_matrix(files["h.csv"].decode("utf-8"))
    if words != h_words or len(words) != expect["nodes"] or len(phi) != len(words):
        return "matrix headers do not list the rung's nodes"
    critical = set(expect["critical_nodes"])
    for i, w in enumerate(words):
        if (h[i][i] == 0) != (w in critical):
            return f"h[{w}][{w}] = {h[i][i]} contradicts the planted critical set"
        if any(p > q for p, q in zip(phi[i], h[i])):
            return f"phi exceeds h in row {w}"
    return None


def _min_cycle_mean(instance: dict) -> Fraction:
    """Brute-force abar of a small-batch instance on its order-1 graph.

    A two-sided (1,1) table is first minimized over the past symbol; a
    range-1 table weighs an edge by its first symbol.
    """
    size = instance["alphabet_size"]
    allowed = instance["transition"]
    pot = instance["potential"]
    table = {k: Fraction(v) for k, v in pot["entries"].items()}
    if pot["side"] == "two":
        one = {}
        for a in range(size):
            pasts = [table[f"{y}{a}"] for y in range(size) if allowed[y][a]]
            one[str(a)] = min(pasts)
        table = one

    def weight(a, b):
        return table[f"{a}{b}"] if f"{a}{b}" in table else table[str(a)]

    best = None
    for length in range(1, size + 1):
        for cycle in itertools.permutations(range(size), length):
            if cycle[0] != min(cycle):
                continue
            steps = list(zip(cycle, cycle[1:] + cycle[:1]))
            if all(allowed[a][b] for a, b in steps):
                mean = sum(weight(a, b) for a, b in steps) / length
                best = mean if best is None else min(best, mean)
    return best


def check_small(command: str, stdout: str, files: dict, instance_path: Path,
                expect: dict) -> str | None:
    if command == "info":
        return None if _field(stdout, "nodes: ") else "info printed no node count"
    if command == "solve":
        abar = _field(stdout, "abar = ")
        instance = json.loads(instance_path.read_text(encoding="utf-8"))
        want = _min_cycle_mean(instance)
        return None if abar == str(want) else f"abar {abar} != brute force {want}"
    if command == "barrier":
        return None if "phi:" in stdout and "h:" in stdout else "barrier printed no matrices"
    if command == "calibrate":
        return None if len(files) == 1 and "node values: " in stdout else "no sub-action file"
    if command == "verify":
        ok = (stdout.startswith("sub-action: yes; calibrated: yes;")
              and stdout.rstrip().endswith("critical containment: yes"))
        return None if ok else f"calibrated sub-action failed verify: {stdout.strip()}"
    if command == "oracle":
        lines = stdout.splitlines()
        want = 5 if expect.get("two_sided") else 4
        ok = len(lines) == want and all(line.endswith(": ok") for line in lines)
        return None if ok else "oracle checks did not all pass"
    return f"no check for {command}"


def check_separate(command: str, stdout: str, files: dict) -> str | None:
    if command == "separate":
        ok = stdout.startswith("certificate: OK;") and len(files) == 1
        return None if ok else "separate did not certify"
    ok = ("sub-action: yes;" in stdout and "separating certificate: yes;" in stdout
          and stdout.rstrip().endswith("critical containment: yes"))
    return None if ok else f"separating sub-action failed verify: {stdout.strip()}"


def check(workload: str, job, stdout: str, files: dict, inst_dir: Path) -> str | None:
    command = job.argv[0]
    try:
        if workload == "solve-ladder":
            return check_ladder_solve(stdout, files, job.expect)
        if workload == "barrier-ladder":
            return check_ladder_barrier(stdout, files, job.expect)
        if workload == "separate-depth":
            return check_separate(command, stdout, files)
        instance = inst_dir / Path(job.argv[2]).name
        return check_small(command, stdout, files, instance, job.expect)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
