import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SCALING_CASES, SimpleDigraph
from ergopt.errors import NotInConstraintSet
from ergopt.instances import random_instance
from ergopt.oracle import barrier_window, brute_cycles, path_min_table
from ergopt.pipeline import solve_instance
from ergopt.potential import build_one_sided, compile_weights
from ergopt.subactions import calibrated_from_boundary
from ergopt.symbolic import build_sft, refine
from ergopt.tropical import (
    _dense_path_minima,
    _feedback_plan,
    _path_minima,
    _scale,
    calibrated_fixed_point,
    constraint_polytope,
    critical_structure,
    lax_oleinik_step,
    mane_matrix,
    minimizing_value,
    peierls_matrix,
)

HALF = Fraction(1, 2)

# Graphs that are not strongly connected, by shape: node 2 has no
# out-edge; the loop at 2 cannot be left; nothing enters 2; the loop at
# 2 is cut off; the loop 2 <-> 3 cannot get back to 0 <-> 1.
NOT_STRONGLY_CONNECTED = {
    "dead_end": (3, [(0, 1), (1, 0), (0, 2)]),
    "trap_loop": (3, [(0, 1), (1, 0), (0, 2), (2, 2)]),
    "unreached_source": (3, [(0, 1), (1, 0), (2, 0)]),
    "island_loop": (3, [(0, 1), (1, 0), (2, 2)]),
    "one_way_loops": (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]),
}


@st.composite
def strongly_connected_systems(draw):
    """A SimpleDigraph of 1-10 nodes made strongly connected by a
    Hamiltonian cycle, plus extra edges, in a drawn edge order, with
    weights from {-1, 0, 1, 2}, all zero, or two disjoint planted cycles
    of mean 0 (one on a single node) among heavier edges."""
    n = draw(st.integers(1, 10))
    nodes = draw(st.permutations(range(n)))
    pairs = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    node = st.integers(0, n - 1)
    pairs |= set(draw(st.lists(st.tuples(node, node), max_size=2 * n)))
    kind = draw(st.sampled_from(["small", "zero", "planted"]))
    planted: dict = {}
    if kind == "planted":
        cut = draw(st.integers(1, max(n - 1, 1)))
        for loop in filter(None, (nodes[:cut], nodes[cut:])):
            costs = draw(st.lists(st.integers(-1, 1), min_size=len(loop),
                                  max_size=len(loop)))
            costs[-1] = -sum(costs[:-1])
            for i, c in enumerate(costs):
                planted[loop[i], loop[(i + 1) % len(loop)]] = c
        pairs |= set(planted)
    edges = draw(st.permutations(sorted(pairs)))
    if kind == "small":
        weights = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=len(edges),
                                max_size=len(edges)))
    elif kind == "zero":
        weights = [0] * len(edges)
    else:
        weights = [planted.get(e, draw(st.integers(1, 2))) for e in edges]
    return SimpleDigraph(n, edges), [Fraction(w) for w in weights]


def rows(matrix):
    return tuple(tuple(v for v in row) for row in matrix)


class TestMinimizingValue:
    def test_two_node_example(self):
        g = SimpleDigraph(2, [(0, 1), (1, 0), (1, 1)])
        weights = (Fraction(1), Fraction(3), Fraction(3))
        summary = minimizing_value(g, weights)
        assert summary.abar == 2
        cycle = summary.witness_cycle
        assert [g.edges[k].tail for k in cycle] in ([0, 1], [1, 0])
        mean = sum(weights[k] for k in cycle) / len(cycle)
        assert mean == 2

    def test_e1(self, e1_bundle):
        assert e1_bundle.abar == 0
        cycle = e1_bundle.crit.witness_cycle
        assert len(cycle) == 1
        assert e1_bundle.graph.edges[cycle[0]].word == (0, 0)

    def test_golden(self, golden_bundle):
        assert golden_bundle.abar == 0
        words = [golden_bundle.graph.edges[k].word
                 for k in golden_bundle.crit.witness_cycle]
        assert words == [(0, 1), (1, 0)]

    def test_witness_mean_on_corpus(self, corpus_bundles):
        for b in corpus_bundles:
            cycle = b.crit.witness_cycle
            mean = sum(b.weights[k] for k in cycle) / len(cycle)
            assert mean == b.abar

    @given(st.integers(0, 10**6))
    def test_karp_agrees_with_brute_enumeration(self, seed):
        inst = random_instance(random.Random(seed))
        b = solve_instance(inst)
        assert b.abar == min(m for _, m in brute_cycles(b.graph, b.weights))

    @settings(max_examples=300)
    @given(strongly_connected_systems())
    def test_policy_iteration_agrees_with_brute_cycles(self, system):
        g, weights = system
        cycles = brute_cycles(g, weights)
        abar = min(m for _, m in cycles)
        summary = minimizing_value(g, weights)
        assert summary.abar == abar
        assert set(summary.critical_edges) == {
            k for cycle, m in cycles if m == abar for k in cycle}
        witness = summary.witness_cycle
        assert sum(weights[k] for k in witness) == abar * len(witness)

    @pytest.mark.parametrize("shape", sorted(NOT_STRONGLY_CONNECTED))
    def test_rejects_a_graph_that_is_not_strongly_connected(self, shape):
        n, pairs = NOT_STRONGLY_CONNECTED[shape]
        g = SimpleDigraph(n, pairs)
        # every part in turn holds the cheapest cycle
        for cheap in range(n):
            weights = [Fraction(0 if tail == cheap else 1) for tail, _ in pairs]
            for solve in (minimizing_value, critical_structure):
                with pytest.raises(ValueError, match="graph is not strongly connected"):
                    solve(g, weights)

    def test_memory_stays_linear_in_the_graph(self):
        # 1024 nodes; Karp's (n+1) x n table peaked at 14.8 MiB on this graph
        graph = refine(build_sft(2, [[1, 1], [1, 1]], HALF), 10)
        rng = random.Random(0)
        weights = [Fraction(rng.randint(0, 8)) for _ in graph.edges]
        tracemalloc.start()
        try:
            minimizing_value(graph, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBarrierMatrices:
    def test_abar_above_the_minimum_has_no_mane_matrix(self):
        # abar 3 > 2 leaves the negative cycle 1 -> 1, so no row settles
        g = SimpleDigraph(2, [(0, 1), (1, 0), (1, 1)])
        weights = (Fraction(1), Fraction(3), Fraction(3))
        assert mane_matrix(g, weights, Fraction(2), range(2)) == ((0, -1), (1, 0))
        assert mane_matrix(g, weights, Fraction(2), [1]) == ((1, 0),)
        with pytest.raises(ValueError):
            mane_matrix(g, weights, Fraction(3), range(2))

    def test_e1(self, e1_bundle):
        assert rows(e1_bundle.barriers.phi) == ((0, 0), (1, 1))
        assert rows(e1_bundle.barriers.h) == ((0, 0), (1, 1))

    def test_e2(self, e2_bundle):
        assert rows(e2_bundle.barriers.phi) == ((0, 1, 1), (1, 1, 1), (1, 1, 0))
        assert rows(e2_bundle.barriers.h) == ((0, 1, 1), (1, 2, 1), (1, 1, 0))

    def test_axioms_on_fixtures(self, e1_bundle, e2_bundle, golden_bundle):
        for b in (e1_bundle, e2_bundle, golden_bundle):
            phi, h = b.barriers.phi, b.barriers.h
            n = b.graph.n_nodes
            crit_nodes = set(b.crit.critical_nodes)
            for i, j, k in product(range(n), repeat=3):
                assert phi[i][k] <= phi[i][j] + phi[j][k]
                assert h[i][k] <= h[i][j] + h[j][k]
            for i in range(n):
                for j in range(n):
                    assert phi[i][j] <= h[i][j]
                assert (phi[i][i] == 0) == (i in crit_nodes)
                assert (h[i][i] == 0) == (i in crit_nodes)
                if i in crit_nodes:
                    assert phi[i] == h[i]


class TestCriticalStructure:
    def test_e1(self, e1_bundle):
        crit = e1_bundle.crit
        g = e1_bundle.graph
        assert [g.edges[k].word for k in crit.critical_edges] == [(0, 0)]
        assert crit.critical_nodes == (0,)
        assert len(crit.components) == 1
        assert crit.representatives == (0,)
        assert crit.rows == ((0, 0),)

    def test_e2_two_components(self, e2_bundle):
        crit = e2_bundle.crit
        g = e2_bundle.graph
        assert [g.edges[k].word for k in crit.critical_edges] == [(0, 0), (2, 2)]
        assert crit.representatives == (0, 2)
        assert crit.node_component == (0, None, 1)

    def test_constant_potential_everything_critical(self):
        sft = build_sft(2, [[1, 1], [1, 1]], HALF)
        pot = build_one_sided(sft, 1, {(0,): Fraction(3), (1,): Fraction(3)})
        graph = refine(sft, 1)
        weights = compile_weights(pot, graph)
        summary = minimizing_value(graph, weights)
        crit = critical_structure(graph, weights)
        assert crit.critical_edges == summary.critical_edges
        assert len(crit.critical_edges) == graph.n_edges
        assert len(crit.components) == 1
        assert crit.components[0].nodes == (0, 1)

    def test_round_trip_definition_on_corpus(self, corpus_bundles, two_sided_bundles):
        # an edge is critical exactly when it closes into a zero-mean
        # cycle: (w - abar) + phi[head][tail] == 0; and the relaxation
        # kernel on reversed arcs yields the columns of phi
        for b in corpus_bundles + two_sided_bundles:
            phi, g = b.barriers.phi, b.graph
            assert b.crit.critical_edges == tuple(
                k for k, e in enumerate(g.edges)
                if (b.weights[k] - b.abar) + phi[e.head][e.tail] == 0
            )
            normalized = [w - b.abar for w in b.weights]
            for j in range(g.n_nodes):
                col = _path_minima(normalized, g.in_edges[j], g.in_edges, g.tails, g.n_nodes)
                assert col == [phi[i][j] for i in range(g.n_nodes)]

    def test_pairwise_component_test_on_corpus(self, corpus_bundles):
        # two critical nodes share a component exactly when their
        # round-trip barrier vanishes
        for b in corpus_bundles:
            h = b.barriers.h
            for i in b.crit.critical_nodes:
                for j in b.crit.critical_nodes:
                    same = b.crit.node_component[i] == b.crit.node_component[j]
                    assert same == (h[i][j] + h[j][i] == 0)

    def test_components_are_node_disjoint_on_corpus(self, corpus_bundles):
        for b in corpus_bundles:
            seen = set()
            for comp in b.crit.components:
                assert not (seen & set(comp.nodes))
                seen |= set(comp.nodes)


class TestCalibratedFixedPoint:
    def test_e1(self, e1_bundle):
        assert e1_bundle.fixed_point == (0, 0)

    def test_e2(self, e2_bundle):
        assert e2_bundle.fixed_point == (0, 1, 0)

    def test_fixed_point_property_on_corpus(self, corpus_bundles):
        for b in corpus_bundles:
            stepped = lax_oleinik_step(b.fixed_point, b.graph, b.weights, b.abar)
            assert stepped == b.fixed_point

    def test_dominated_by_phi_on_corpus(self, corpus_bundles):
        for b in corpus_bundles[:60]:
            u = b.fixed_point
            phi = b.barriers.phi
            n = b.graph.n_nodes
            for i in range(n):
                for j in range(n):
                    assert u[j] - u[i] <= phi[i][j]


class TestConstraintPolytope:
    def test_constant_vectors_always_inside(self, e2_bundle):
        poly = constraint_polytope(e2_bundle.crit)
        assert poly.matrix == ((0, 1), (1, 0))
        for c in (0, 5, -3):
            assert poly.contains((Fraction(c), Fraction(c)))

    def test_violating_vector_outside(self, e2_bundle):
        poly = constraint_polytope(e2_bundle.crit)
        assert not poly.contains((Fraction(0), Fraction(2)))
        with pytest.raises(NotInConstraintSet):
            calibrated_from_boundary((Fraction(0), Fraction(2)), e2_bundle.crit)

    def test_min_plus_span_is_inside(self, corpus_bundles):
        rng = random.Random(5)
        for b in corpus_bundles[:40]:
            poly = constraint_polytope(b.crit)
            r = len(poly.representatives)
            c = [Fraction(rng.randint(-4, 4)) for _ in range(r)]
            bd = tuple(
                min(c[l] + poly.matrix[l][i] for l in range(r)) for i in range(r)
            )
            assert poly.contains(bd)


class TestRelayFormula:
    def test_h_from_phi_and_critical_nodes(self, corpus_bundles):
        for b in corpus_bundles[:60]:
            phi, h = b.barriers.phi, b.barriers.h
            n = b.graph.n_nodes
            for i in range(n):
                for j in range(n):
                    assert h[i][j] == min(
                        phi[i][z] + phi[z][j] for z in b.crit.critical_nodes
                    )

    def test_recomputation_matches_bundle(self, golden_bundle):
        b = golden_bundle
        n = b.graph.n_nodes
        phi = mane_matrix(b.graph, b.weights, b.abar, range(n))
        crit = critical_structure(b.graph, b.weights)
        h = peierls_matrix(phi, crit)
        assert rows(phi) == rows(b.barriers.phi)
        assert crit.critical_edges == b.crit.critical_edges
        assert rows(h) == rows(b.barriers.h)
        assert calibrated_fixed_point(crit) == b.fixed_point
        # the dense-h formula for the fixed point
        assert tuple(min(h[r][j] for r in crit.representatives)
                     for j in range(n)) == b.fixed_point


class TestRepresentativeRows:
    def test_rows_are_the_dense_barrier_rows(self, corpus_bundles, two_sided_bundles,
                                             e1_bundle, e2_bundle, golden_bundle):
        # a critical node's barrier row is its Mane row; the fixed point
        # and H keep their dense-h formulas as the reference
        fixtures = [e1_bundle, e2_bundle, golden_bundle]
        for b in corpus_bundles + two_sided_bundles + fixtures:
            phi, h = b.barriers.phi, b.barriers.h
            reps = b.crit.representatives
            assert len(b.crit.rows) == len(reps)
            for row, r in zip(b.crit.rows, reps):
                assert row == phi[r] == h[r]
            assert b.fixed_point == tuple(
                min(h[r][j] for r in reps) for j in range(b.graph.n_nodes))
            assert constraint_polytope(b.crit).matrix == tuple(
                tuple(h[a][c] for c in reps) for a in reps)


def scale_by_subtraction(values, shift):
    """`_scale` by its definition: one Fraction subtraction per value,
    then L the lcm of the differences' denominators."""
    shifted = [Fraction(v) - shift for v in values]
    big = math.lcm(*(v.denominator for v in shifted))
    return big, [v.numerator * (big // v.denominator) for v in shifted]


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=60)


class TestScale:
    @given(st.lists(RATIONALS | st.integers(-50, 50), max_size=12), RATIONALS | st.just(0))
    @example([], Fraction(3, 7))
    @example([Fraction(1, 6), Fraction(-5, 4), 3], 0)
    @example([Fraction(-7, 3), -2, Fraction(-1, 9)], Fraction(-4, 15))
    @example([Fraction(2, 3)] * 3, Fraction(2, 3))
    @example([Fraction(1, 6), Fraction(5, 6)], Fraction(1, 2))
    def test_integer_shift_matches_subtraction(self, values, shift):
        # all values equal to the shift give L = 1; 1/6 and 5/6 less 1/2
        # leave thirds, so the joint denominator 6 is divided down
        big, ints = _scale(values, shift)
        assert (big, ints) == scale_by_subtraction(values, shift)
        assert type(big) is int and all(type(d) is int for d in ints)
        if values and all(v == shift for v in values):
            assert big == 1


class TestIntegerKernel:
    @pytest.mark.parametrize("case", sorted(SCALING_CASES))
    def test_scaled_kernels_match_the_oracle(self, e2_bundle, case):
        g = e2_bundle.graph
        weights = [Fraction(w) for w in SCALING_CASES[case]]
        n = g.n_nodes
        cycles = brute_cycles(g, weights)
        abar = min(m for _, m in cycles)
        summary = minimizing_value(g, weights)
        assert summary.abar == abar
        crit = summary
        assert set(crit.critical_edges) == {
            k for cycle, m in cycles if m == abar for k in cycle}
        phi = mane_matrix(g, weights, abar, range(n))
        h = peierls_matrix(phi, crit)
        start, stop = barrier_window(g, weights, abar, h)
        for i in range(n):
            table = path_min_table(g, weights, abar, i, stop)
            for j in range(n):
                assert phi[i][j] == min(table[k][j] for k in range(1, n + 1))
                assert h[i][j] == min(table[k][j] for k in range(start, stop + 1))
        assert crit.rows == tuple(phi[r] for r in crit.representatives)

    def test_cycle_length_denominator(self, e2_bundle):
        weights = SCALING_CASES["cycle_length"]
        summary = minimizing_value(e2_bundle.graph, weights)
        assert summary.abar == Fraction(1, 3)
        assert len(summary.witness_cycle) == 3

    def test_barrier_views_lie_on_the_common_denominator(self, e2_bundle):
        # the dense matrices are integers over L, the lcm of the
        # denominators of w - abar; their Fraction views are those
        # integers over L and equal the oracle's path minima
        g, n = e2_bundle.graph, e2_bundle.graph.n_nodes
        for case in sorted(SCALING_CASES):
            weights = tuple(Fraction(w) for w in SCALING_CASES[case])
            summary = minimizing_value(g, weights)
            abar = summary.abar
            b = replace(e2_bundle, crit=summary).barriers
            assert b.big == math.lcm(*((w - abar).denominator for w in weights)), case
            start, stop = barrier_window(g, weights, abar, b.h)
            for i in range(n):
                table = path_min_table(g, weights, abar, i, stop)
                for j in range(n):
                    for view, ints in ((b.phi, b.phi_ints), (b.h, b.h_ints)):
                        assert type(ints[i][j]) is int
                        assert b.big % view[i][j].denominator == 0
                        assert view[i][j] == Fraction(ints[i][j], b.big)
                    assert b.phi[i][j] == min(table[k][j] for k in range(1, n + 1))
                    assert b.h[i][j] == min(table[k][j] for k in range(start, stop + 1))


class TestFeedbackRows:
    @pytest.mark.parametrize("matrix, order", [
        ([[1, 1], [1, 1]], 7), ([[1, 1, 1]] * 3, 4), ([[1, 1], [1, 0]], 10)],
        ids=["full2-7", "full3-4", "golden-10"])
    def test_dense_phi_is_the_per_source_rows(self, matrix, order):
        # past the oracle's 10 nodes: full-2 (128 nodes), full-3 (81) and
        # golden-mean (144) systems with weights in thirds, solved; the
        # dense phi searches from under a third of the nodes and relays
        # the other rows, and must equal one search per node
        graph = refine(build_sft(len(matrix), matrix, HALF), order)
        n, out, heads = graph.n_nodes, graph.out_edges, graph.heads
        rng = random.Random(order)
        weights = [Fraction(rng.randint(0, 8), rng.choice((1, 3))) for _ in range(graph.n_edges)]
        abar = critical_structure(graph, weights).abar
        big, costs = _scale(weights, abar)
        per_source = tuple(tuple(_path_minima(costs, out[i], out, heads, n)) for i in range(n))
        assert mane_matrix(graph, weights, abar, range(n), scaled=True) == (big, per_source)
        assert len(_feedback_plan(out, heads, n)[0]) < n // 3

    @pytest.mark.parametrize("matrix, order, size", [
        ([[1, 1], [1, 1]], 7, 32), ([[1, 1, 1]] * 3, 4, 24), ([[1, 1], [1, 0]], 10, 23)],
        ids=["full2-7", "full3-4", "golden-10"])
    def test_feedback_plan(self, matrix, order, size):
        # F depends only on the graph, so its size is pinned; every other
        # node is built once, after each of its successors outside F
        graph = refine(build_sft(len(matrix), matrix, HALF), order)
        n, out, heads = graph.n_nodes, graph.out_edges, graph.heads
        feedback, build = _feedback_plan(out, heads, n)
        assert len(feedback) == size
        assert sorted(feedback + build) == list(range(n))
        place = {v: i for i, v in enumerate(build)}
        for v in build:
            assert all(place.get(heads[k], -1) < place[v] for k in out[v])


@st.composite
def weighted_multigraphs(draw, spanning=False):
    """A SimpleDigraph of 1-10 nodes with any arcs, loops and parallel
    arcs included, and integer arc costs from -2 to 3. Spanning, it also
    has a cycle through every node in a drawn order, so it is strongly
    connected."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if spanning:
        order = draw(st.permutations(range(n)))
        pairs += [(order[i - 1], order[i]) for i in range(n)]
    costs = draw(st.lists(st.integers(-2, 3), min_size=len(pairs), max_size=len(pairs)))
    return SimpleDigraph(n, pairs), costs


def walk_minima(n, arcs, costs, first):
    """Per node, the least cost of a walk of 1..n arcs (tail, head) that
    begins with an arc in `first`; None where there is none."""
    layer = [None] * n
    for k in first:
        head = arcs[k][1]
        if layer[head] is None or costs[k] < layer[head]:
            layer[head] = costs[k]
    best = list(layer)
    for _ in range(n - 1):
        nxt = [None] * n
        for (tail, head), c in zip(arcs, costs):
            if layer[tail] is not None and (nxt[head] is None or layer[tail] + c < nxt[head]):
                nxt[head] = layer[tail] + c
        layer = nxt
        best = [b if v is None or (b is not None and b <= v) else v
                for b, v in zip(best, layer)]
    return best


class TestPathMinima:
    @given(weighted_multigraphs(), st.data())
    @settings(max_examples=150)
    def test_rows_and_columns_are_walk_minima(self, drawn, data):
        # a walk of more than n arcs repeats a node, so without a negative
        # cycle in reach the minima over 1..n arcs are the path minima; a
        # negative cycle is in reach when one of its nodes has a negative
        # closed walk (of at most n arcs) and is reached
        g, costs = drawn
        n = g.n_nodes
        forward = list(zip(g.tails, g.heads))
        backward = list(zip(g.heads, g.tails))
        closed = [walk_minima(n, forward, costs, g.out_edges[x])[x] for x in range(n)]
        negative = {x for x, c in enumerate(closed) if c is not None and c < 0}
        subset = data.draw(st.lists(st.sampled_from(range(g.n_edges)), unique=True)
                           if g.n_edges else st.just([]))
        cases = [(g.out_edges, g.heads, forward, first) for first in [*g.out_edges, subset]]
        cases += [(g.in_edges, g.tails, backward, first) for first in g.in_edges]
        for out, ends, arcs, first in cases:
            want = walk_minima(n, arcs, costs, first)
            if negative & {v for v, d in enumerate(want) if d is not None}:
                with pytest.raises(ValueError, match="negative cycle"):
                    _path_minima(costs, first, out, ends, n)
            else:
                assert _path_minima(costs, first, out, ends, n) == want

    @given(weighted_multigraphs() | weighted_multigraphs(spanning=True))
    @settings(max_examples=300)
    @example((SimpleDigraph(*NOT_STRONGLY_CONNECTED["dead_end"]), [1, 1, 1]))
    @example((SimpleDigraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (2, 0)]), [1, 1, -1, 0, 1]))
    @example((SimpleDigraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)]), [2, 1, 3, 0]))
    def test_dense_rows_are_walk_minima(self, drawn):
        # every row at once, as the searches from nodes 0, 1, ... in turn
        # give them: the first row that reaches a negative cycle or misses
        # a node decides the error. Node 2 of the dead end has no out-arc;
        # node 0 misses the negative loop 2 <-> 3 that a search from the
        # feedback set runs into, so the graph is not strongly connected
        g, costs = drawn
        n = g.n_nodes
        arcs = list(zip(g.tails, g.heads))
        closed = [walk_minima(n, arcs, costs, g.out_edges[x])[x] for x in range(n)]
        negative = {x for x, c in enumerate(closed) if c is not None and c < 0}
        want, error = [], None
        for v in range(n):
            row = walk_minima(n, arcs, costs, g.out_edges[v])
            if negative & {x for x, d in enumerate(row) if d is not None}:
                error = "negative cycle"
            elif None in row:
                error = "not strongly connected"
            if error:
                break
            want.append(row)
        if error:
            with pytest.raises(ValueError, match=error):
                _dense_path_minima(costs, g.out_edges, g.heads, n)
        else:
            assert _dense_path_minima(costs, g.out_edges, g.heads, n) == want
