"""Seeded instances and job lists for the four benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
writes the same instance-file bytes and the same job list. The program
under test only ever sees the files.

Why the instance families look the way they do:

- The ladders plant the minimizing cycles. Each rung gets two
  node-disjoint periodic orbits whose edges weigh 1/2; every other edge
  weighs an integer drawn uniformly from 1..8. Then abar = 1/2, the
  critical edges are exactly the planted ones and there are exactly two
  components, for every seed. With all weights drawn from 0..8 the
  cost of one 128-node rung varied 0.7-3.3 s between seeds (critical
  nodes 1-26, abar denominators 1-8; 2-vCPU Xeon VM, Python 3.11),
  which no run length averages out.
  The planted answer is also an independent check of `solve`.
- The ladder stops at 144 nodes so that one pass takes a few seconds
  and every run measures several passes; larger rungs took 5-10 s each.
- The three tie-heavy `separate` systems are drawn once from a fixed
  stream; the seed only relabels their symbols. A relabelled system is
  the same problem with other words: its graph sizes and averaging
  passes do not depend on the seed, only the order of its nodes does.
  Freshly drawn 0/1 weights made a system's cost jump about 2x with the
  number of averaging passes they needed, which moved the workload's
  median job time by 23% between seeds. They are lifted to
  depth 7 rather than 8 to keep several passes in a run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SYSTEMS = {
    "full2": ((1, 1), (1, 1)),
    "full3": ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    "golden": ((1, 1), (1, 0)),
}

# (system, graph order, expected node count)
LADDER = (
    ("full2", 5, 32),
    ("full2", 6, 64),
    ("full2", 7, 128),
    ("full3", 3, 27),
    ("full3", 4, 81),
    ("golden", 8, 55),
    ("golden", 9, 89),
    ("golden", 10, 144),
)
PLANTED_WEIGHT = "1/2"

SEPARATE_FIXED = (("e1", 10), ("golden_mean", 10), ("e2", 8))
TIE_HEAVY_SYSTEMS = 3
TIE_HEAVY_MAX_DEPTH = 7

SMALL_BATCH_INSTANCES = 300

WORKLOADS = ("solve-ladder", "barrier-ladder", "separate-depth", "small-batch")


@dataclass(frozen=True)
class Job:
    """One CLI invocation. `argv` holds {inst}, {out} and {repo}
    placeholders that the worker fills with real paths."""

    id: str
    argv: tuple[str, ...]
    # facts the output checks rely on, known from how the input was made
    expect: dict


def words(matrix, length: int) -> list[tuple[int, ...]]:
    """Admissible words of the given length, in lexicographic order."""
    out = [(a,) for a in range(len(matrix))]
    for _ in range(length - 1):
        out = [w + (b,) for w in out for b in range(len(matrix)) if matrix[w[-1]][b]]
    return out


def _word_text(word) -> str:
    return "".join(str(s) for s in word)


def _periodic_orbit(rng: random.Random, matrix, order: int, period: int, taken: set):
    """A random admissible periodic sequence of the given primitive
    period whose `order`-windows are distinct and avoid `taken`.
    Returns its edge words (length order+1) and node words, or None
    when a thousand draws found none."""
    size = len(matrix)
    for _ in range(1000):
        cyc = [rng.randrange(size)]
        for _ in range(period - 1):
            cyc.append(rng.choice([b for b in range(size) if matrix[cyc[-1]][b]]))
        if not matrix[cyc[-1]][cyc[0]]:
            continue
        seq = cyc * (order // period + 2)
        nodes = [tuple(seq[i:i + order]) for i in range(period)]
        if len(set(nodes)) == period and not taken & set(nodes):
            edges = [tuple(seq[i:i + order + 1]) for i in range(period)]
            return edges, nodes
    return None


def ladder_instance(rng: random.Random, system: str, order: int):
    """Instance data for one rung plus the planted critical words."""
    matrix = SYSTEMS[system]
    entries = {w: rng.randint(1, 8) for w in words(matrix, order + 1)}
    while True:
        # the second orbit can be boxed in by the first: draw both again
        first = _periodic_orbit(rng, matrix, order, order + 1, set())
        second = _periodic_orbit(rng, matrix, order, order // 2 + 1, set(first[1]))
        if second is not None:
            break
    critical_edges = first[0] + second[0]
    taken = set(first[1]) | set(second[1])
    for e in critical_edges:
        entries[e] = PLANTED_WEIGHT
    data = {
        "alphabet_size": len(matrix),
        "transition": [list(row) for row in matrix],
        "lambda": "1/2",
        "potential": {
            "side": "one",
            "range": order + 1,
            "entries": {_word_text(w): v for w, v in entries.items()},
        },
    }
    expect = {
        "abar": PLANTED_WEIGHT,
        "critical_edges": sorted(_word_text(e) for e in critical_edges),
        "critical_nodes": sorted(_word_text(n) for n in taken),
        "components": 2,
        "nodes": len(words(matrix, order)),
    }
    return data, expect


def _irreducible(matrix) -> bool:
    n = len(matrix)
    for start in range(n):
        seen, stack = {start}, [start]
        while stack:
            a = stack.pop()
            for b in range(n):
                if matrix[a][b] and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != n:
            return False
    return True


def tie_heavy_systems() -> list[tuple]:
    """The fixed tie-heavy systems: alphabet 3, seven of the nine pairs
    allowed (irreducible), range 3, weights 0 or 1. Each is (transition
    matrix, {3-word: weight})."""
    rng = random.Random("tie-heavy")
    systems = []
    while len(systems) < TIE_HEAVY_SYSTEMS:
        zeros = rng.sample(range(9), 2)
        m = tuple(tuple(0 if 3 * i + j in zeros else 1 for j in range(3)) for i in range(3))
        if _irreducible(m):
            systems.append((m, {w: rng.randint(0, 1) for w in words(m, 3)}))
    return systems


def relabeled(matrix, weights: dict, perm) -> dict:
    """Instance data for the system with symbol a renamed perm[a]."""
    size = len(matrix)
    moved = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            moved[perm[a]][perm[b]] = matrix[a][b]
    entries = {_word_text(perm[x] for x in w): v for w, v in weights.items()}
    return {
        "alphabet_size": size,
        "transition": moved,
        "lambda": "1/2",
        "potential": {"side": "one", "range": 3, "entries": dict(sorted(entries.items()))},
    }


def _dump(data: dict) -> bytes:
    return (json.dumps(data, indent=1) + "\n").encode("utf-8")


def build(workload: str, seed: int, inst_dir: Path) -> list[Job]:
    """Write the workload's instance files under inst_dir and return its
    job list. Nothing here runs the solver."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # both ladders draw from one stream so they run the same instances
    family = "ladder" if workload.endswith("-ladder") else workload
    rng = random.Random(f"{family}:{seed}")
    inst_dir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def write(name: str, data: dict) -> str:
        (inst_dir / f"{name}.json").write_bytes(_dump(data))
        return f"{{inst}}/{name}.json"

    if workload in ("solve-ladder", "barrier-ladder"):
        for system, order, _ in LADDER:
            name = f"{system}-{order}"
            data, expect = ladder_instance(rng, system, order)
            path = write(name, data)
            if workload == "solve-ladder":
                jobs.append(Job(name, ("solve", "--instance", path), expect))
            else:
                jobs.append(Job(name, ("barrier", "--instance", path,
                                       "--out", f"{{out}}/{name}"), expect))
    elif workload == "separate-depth":
        targets = [(name, f"{{repo}}/instances/{name}.json", top)
                   for name, top in SEPARATE_FIXED]
        for k, (matrix, weights) in enumerate(tie_heavy_systems()):
            name = f"tie{k}"
            data = relabeled(matrix, weights, rng.sample(range(3), 3))
            targets.append((name, write(name, data), TIE_HEAVY_MAX_DEPTH))
        for name, path, top in targets:
            for depth in range(2, top + 1):
                sub = f"{{out}}/{name}-d{depth}.csv"
                jid = f"{name}-d{depth}"
                jobs.append(Job(f"{jid}-separate", ("separate", "--instance", path,
                                "--depth", str(depth), "--out", sub), {}))
                jobs.append(Job(f"{jid}-verify", ("verify", "--instance", path,
                                "--subaction", sub), {}))
    else:
        from ergopt.instances import dump_instance, random_instance, random_two_sided

        for k in range(SMALL_BATCH_INSTANCES):
            two = rng.random() < 0.25
            inst = (random_two_sided if two else random_instance)(rng)
            name = f"i{k:03d}"
            path = write(name, dump_instance(inst))
            sub = f"{{out}}/{name}.csv"
            for cmd in (("info", "--instance", path),
                        ("solve", "--instance", path),
                        ("barrier", "--instance", path),
                        ("calibrate", "--instance", path, "--out", sub),
                        ("verify", "--instance", path, "--subaction", sub),
                        ("oracle", "--instance", path)):
                jobs.append(Job(f"{name}-{cmd[0]}", cmd, {"two_sided": two}))
    return jobs
