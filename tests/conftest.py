import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ergopt.errors import ErgoptError
from ergopt.instances import load_instance, random_instance, random_two_sided
from ergopt.pipeline import solve_instance
from ergopt.potential import OneSidedPotential, build_one_sided
from ergopt.symbolic import Edge, LassoPoint, admissible_words, build_sft

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

CORPUS_SEED = 20260815
N_ONE_SIDED = 200
N_TWO_SIDED = 50
N_TIE_HEAVY = 300

# Weights on the nine edges 00, 01, ..., 22 of the e2 graph. The solver
# kernels and the oracle's walk tables run on integers over one common
# denominator L of w - abar: here L is a product of two large primes, or
# 3 although every weight is an integer (abar = 1/3 comes from the cycle
# 0 -> 1 -> 2 -> 0).
SCALING_CASES = {
    "coprime": [Fraction(n, 9973 if k % 2 else 10007)
                for k, n in enumerate((41, 17, 29, 23, 53, 11, 37, 19, 47))],
    "cycle_length": [1, 1, 1, 1, 1, 0, 0, 1, 1],
}


@pytest.fixture(scope="session")
def e1_bundle():
    return solve_instance(load_instance(INSTANCE_DIR / "e1.json"))


@pytest.fixture(scope="session")
def e2_bundle():
    return solve_instance(load_instance(INSTANCE_DIR / "e2.json"))


@pytest.fixture(scope="session")
def golden_bundle():
    return solve_instance(load_instance(INSTANCE_DIR / "golden_mean.json"))


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng) for _ in range(N_ONE_SIDED)]


@pytest.fixture(scope="session")
def corpus_bundles(corpus):
    return [solve_instance(inst) for inst in corpus]


def tie_heavy_instance(rng: random.Random) -> OneSidedPotential:
    """Irreducible system on 2-4 symbols (transitions drawn as in
    `random_instance`), range 2 or 3 (2 on 4 symbols), and weights
    0..top with top 1, 2 or 4: few distinct weights make ties, so many
    systems have two or more critical components."""
    while True:
        size = rng.choice((2, 3, 4))
        matrix = [[int(rng.random() < 0.6) for _ in range(size)] for _ in range(size)]
        try:
            sft = build_sft(size, matrix, Fraction(1, 2))
            break
        except ErgoptError:
            continue
    m = 2 if size == 4 else rng.choice((2, 3))
    top = rng.choice((1, 2, 4))
    entries = {w: Fraction(rng.randint(0, top)) for w in admissible_words(sft, m)}
    return build_one_sided(sft, m, entries)


@pytest.fixture(scope="session")
def tie_heavy_bundles():
    rng = random.Random(CORPUS_SEED + 2)
    return [solve_instance(tie_heavy_instance(rng)) for _ in range(N_TIE_HEAVY)]


@pytest.fixture(scope="session")
def multi_component_bundles(tie_heavy_bundles):
    """The tie-heavy systems with two or more critical components."""
    return [b for b in tie_heavy_bundles if len(b.crit.components) >= 2]


@pytest.fixture(scope="session")
def two_sided_corpus():
    rng = random.Random(CORPUS_SEED + 1)
    return [random_two_sided(rng) for _ in range(N_TWO_SIDED)]


@pytest.fixture(scope="session")
def two_sided_bundles(two_sided_corpus):
    return [solve_instance(inst) for inst in two_sided_corpus]


@st.composite
def irreducible_systems(draw, min_size=2, max_size=4):
    """Irreducible systems on 2-4 symbols (or min_size-max_size), from
    sparse to full: a cycle through every symbol in a drawn order keeps
    each one irreducible, and every other transition is drawn with a
    drawn density."""
    size = draw(st.integers(min_size, max_size))
    cycle = draw(st.permutations(range(size)))
    density = draw(st.sampled_from((0, 1 / 4, 1 / 2, 1)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    matrix = [[int(rng.random() < density) for _ in range(size)] for _ in range(size)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        matrix[a][b] = 1
    return build_sft(size, matrix, Fraction(1, 2))


def periodic_lassos(sft, max_period):
    """All purely periodic admissible lassos with cycle length <= max_period.

    Distinct rotations are distinct points and are all included; the
    canonical form dedupes only genuine coincidences.
    """
    out = []
    seen = set()
    words = [(a,) for a in range(sft.alphabet_size)]
    for _ in range(max_period):
        for w in words:
            if sft.allows(w[-1], w[0]):
                x = LassoPoint.make((), w)
                if x not in seen and x.admissible(sft):
                    seen.add(x)
                    out.append(x)
        words = [w + (b,) for w in words for b in sft.successors[w[-1]]]
    return out


def random_lasso(rng, sft, max_preperiod=4):
    """Admissible lasso from a random walk: walk until a symbol repeats,
    close the cycle there."""
    walk = [rng.randrange(sft.alphabet_size)]
    while True:
        walk.append(rng.choice(sft.successors[walk[-1]]))
        for i, s in enumerate(walk[:-1]):
            if s == walk[-1] and i <= max_preperiod:
                return LassoPoint.make(walk[:i], walk[i:-1])


class SimpleDigraph:
    """Plain indexed digraph with the same adjacency surface as
    DeBruijnGraph, for tests on raw graphs."""

    def __init__(self, n_nodes, edge_pairs):
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        edges = []
        out_edges = [[] for _ in range(n_nodes)]
        in_edges = [[] for _ in range(n_nodes)]
        for tail, head in edge_pairs:
            if not (0 <= tail < n_nodes and 0 <= head < n_nodes):
                raise ValueError(f"edge ({tail},{head}) out of range")
            out_edges[tail].append(len(edges))
            in_edges[head].append(len(edges))
            edges.append(Edge(tail, head, ()))
        self.n_nodes = n_nodes
        self.edges = tuple(edges)
        self.tails = [e.tail for e in edges]
        self.heads = [e.head for e in edges]
        self.out_edges = tuple(tuple(v) for v in out_edges)
        self.in_edges = tuple(tuple(v) for v in in_edges)

    @property
    def n_edges(self):
        return len(self.edges)
