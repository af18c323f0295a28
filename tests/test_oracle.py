import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import SCALING_CASES, SimpleDigraph, periodic_lassos, random_lasso
from ergopt.errors import BudgetExceeded, NoPathExists, TooLarge
from ergopt.instances import random_instance
from ergopt.oracle import (
    WALK_CAP,
    SEpsilonQuery,
    WordGraph,
    barrier_window,
    brute_cycles,
    holonomic_value_brute,
    is_nonwandering,
    path_min_sums,
    path_min_table,
    point_barrier,
    s_epsilon,
    walk_minima,
)
from ergopt.pipeline import barrier_matrices, solve_instance
from ergopt.potential import build_one_sided, build_two_sided
from ergopt.symbolic import LassoPoint, build_sft, lasso_shift, lift_to


HALF = Fraction(1, 2)

ZERO = LassoPoint.make((), (0,))
ONE = LassoPoint.make((), (1,))
ONE_ZERO = LassoPoint.make((1,), (0,))


def full_shift(size=2):
    return build_sft(size, [[1] * size for _ in range(size)], HALF)


def constant_potential(value=3):
    return build_one_sided(full_shift(), 1, {(0,): value, (1,): value})


def constant_bundle(value=3):
    return solve_instance(constant_potential(value))


def detour_bundle():
    """Full 2-shift, range 2: a loop of weight 1 at 0, a free loop at 1,
    and a detour 0 -> 1 -> 0 of weight 8."""
    return solve_instance(build_one_sided(
        full_shift(), 2, {(0, 0): 1, (0, 1): 4, (1, 0): 4, (1, 1): 0}))


def words_of(graph):
    """The oracle's graph of a solver graph's system and order."""
    return WordGraph(graph.sft, graph.order)


class TestWordGraph:
    def test_only_the_nodes_count_against_the_budget(self):
        g = WordGraph(full_shift(), 4, node_budget=16)
        assert (g.n_nodes, len(g.edges)) == (16, 32)
        assert g.out_edges == [[2 * v, 2 * v + 1] for v in range(16)]
        with pytest.raises(BudgetExceeded):
            WordGraph(full_shift(), 4, node_budget=15)


class TestBruteCycles:
    def test_single_loop(self):
        g = SimpleDigraph(1, [(0, 0)])
        assert brute_cycles(g, (Fraction(5),)) == [((0,), Fraction(5))]

    def test_two_node_graph(self):
        g = SimpleDigraph(2, [(0, 1), (1, 0), (1, 1)])
        cycles = brute_cycles(g, (Fraction(1), Fraction(3), Fraction(3)))
        assert {m for _, m in cycles} == {2, 3}
        assert sorted(c for c, _ in cycles) == [(0, 1), (2,)]

    def test_e1_means(self, e1_bundle):
        cycles = brute_cycles(words_of(e1_bundle.graph), e1_bundle.weights)
        assert len(cycles) == 3
        assert {m for _, m in cycles} == {0, 1, HALF}

    def test_full_three_shift_count(self, e2_bundle):
        # 3 loops, 3 two-cycles, 2 three-cycles
        assert len(brute_cycles(words_of(e2_bundle.graph), e2_bundle.weights)) == 8

    def test_means_recompute(self, corpus_bundles):
        for b in corpus_bundles[:40]:
            for cycle, mean in brute_cycles(words_of(b.graph), b.weights):
                assert sum(b.weights[k] for k in cycle) == mean * len(cycle)

    def test_acyclic_graph_rejected(self):
        with pytest.raises(ValueError):
            brute_cycles(SimpleDigraph(2, [(0, 1)]), (Fraction(0),))

    def test_node_limit(self, e1_bundle):
        lifted, lw = lift_to(e1_bundle.graph, e1_bundle.weights, 4)
        assert lifted.n_nodes == 16
        with pytest.raises(TooLarge):
            brute_cycles(words_of(lifted), lw)


class TestPathMinSums:
    def test_e1_values(self, e1_bundle):
        g, w = words_of(e1_bundle.graph), e1_bundle.weights
        assert path_min_sums(g, w, e1_bundle.abar, 1, 0, 1) == 1
        assert path_min_sums(g, w, e1_bundle.abar, 0, 0, 5) == 0
        assert path_min_sums(g, w, e1_bundle.abar, 0, 1, 1) == 0

    def test_no_walk_is_none(self, golden_bundle):
        g, w = words_of(golden_bundle.graph), golden_bundle.weights
        assert path_min_sums(g, w, golden_bundle.abar, 1, 1, 1) is None

    def test_guards(self, e1_bundle):
        g, w, a = e1_bundle.graph, e1_bundle.weights, e1_bundle.abar
        with pytest.raises(ValueError):
            path_min_sums(words_of(g), w, a, 0, 0, 0)
        with pytest.raises(TooLarge):
            path_min_sums(words_of(g), w, a, 0, 0, WALK_CAP + 1)
        lifted, lw = lift_to(g, w, 4)
        with pytest.raises(TooLarge):
            path_min_sums(words_of(lifted), lw, a, 0, 0, 1)

    @given(st.integers(0, 10**6), st.integers(1, 18))
    def test_agrees_with_table(self, seed, k):
        rng = random.Random(seed)
        b = solve_instance(random_instance(rng))
        g, n = words_of(b.graph), b.graph.n_nodes
        k = min(k, 2 * n * n)
        i = rng.randrange(n)
        rows = path_min_table(g, b.weights, b.abar, i, k)
        for j in range(n):
            assert rows[k][j] == path_min_sums(g, b.weights, b.abar, i, j, k)


def assert_table_matches_sums(graph, weights):
    """path_min_table against the Fraction reference path_min_sums at
    every source, length 1..2n^2 and target, None included."""
    abar = min(m for _, m in brute_cycles(graph, weights))
    n, k_max = graph.n_nodes, 2 * graph.n_nodes ** 2
    for i in range(n):
        rows = path_min_table(graph, weights, abar, i, k_max)
        assert len(rows) == k_max + 1
        assert rows[0] == [Fraction(0) if j == i else None for j in range(n)]
        for k in range(1, k_max + 1):
            for j in range(n):
                assert rows[k][j] == path_min_sums(graph, weights, abar, i, j, k), (i, j, k)


class TestPathMinTable:
    @pytest.mark.parametrize("case", sorted(SCALING_CASES))
    def test_integer_rows_match_the_fraction_reference(self, e2_bundle, case):
        weights = [Fraction(w) for w in SCALING_CASES[case]]
        assert_table_matches_sums(words_of(e2_bundle.graph), weights)

    def test_missing_walks_stay_none(self):
        # a bare two-cycle: no walk of odd length returns, and abar brings
        # both primes and the cycle length 2 into the denominator
        g = SimpleDigraph(2, [(0, 1), (1, 0)])
        weights = [Fraction(41, 9973), Fraction(18, 10007)]
        assert min(m for _, m in brute_cycles(g, weights)).denominator == 2 * 9973 * 10007
        assert_table_matches_sums(g, weights)
        rows = path_min_table(g, weights, Fraction(0), 0, 3)
        assert [row[0] for row in rows] == [0, None, Fraction(589801, 9973 * 10007), None]

    def test_row_zero_is_the_empty_walk(self, e2_bundle):
        rows = path_min_table(words_of(e2_bundle.graph), e2_bundle.weights,
                              e2_bundle.abar, 1, 3)
        assert rows[0] == [None, Fraction(0), None]
        assert len(rows) == 4

    def test_guards(self, e1_bundle):
        with pytest.raises(TooLarge):
            path_min_table(words_of(e1_bundle.graph), e1_bundle.weights, e1_bundle.abar,
                           0, 5001)
        lifted, lw = lift_to(e1_bundle.graph, e1_bundle.weights, 4)
        with pytest.raises(TooLarge):
            path_min_table(words_of(lifted), lw, e1_bundle.abar, 0, 1)


class TestBarrierWindow:
    def test_constant_system_recurs_at_once(self):
        b = constant_bundle()
        assert barrier_window(words_of(b.graph), b.weights, b.abar) == (1, 1)

    def test_e1_window_recovers_h(self, e1_bundle):
        b, h, g = e1_bundle, barrier_matrices(e1_bundle).h, words_of(e1_bundle.graph)
        start, stop = barrier_window(g, b.weights, b.abar)
        assert (start, stop) == (1, 1)
        for i in range(2):
            rows = path_min_table(g, b.weights, b.abar, i, stop)
            for j in range(2):
                got = min(rows[k][j] for k in range(start, stop + 1)
                          if rows[k][j] is not None)
                assert got == h[i][j]

    def test_expensive_detour_regression(self):
        # Cheap loop off the critical set: h(0,0) is only reached once the
        # loop's surplus has outrun the detour through node 1, past the
        # n^2..2n^2 range a naive window scan would use; the walk minima
        # recur only from there on.
        b = detour_bundle()
        g, h = words_of(b.graph), barrier_matrices(b).h
        assert b.abar == 0
        assert h[0][0] == 8

        naive = min(v for v in (
            path_min_sums(g, b.weights, b.abar, 0, 0, k)
            for k in range(4, 9)
        ) if v is not None)
        assert naive == 4  # the naive window undercuts the true barrier

        start, stop = barrier_window(g, b.weights, b.abar)
        assert (start, stop) == (8, 8)
        rows = path_min_table(g, b.weights, b.abar, 0, stop)
        scaled = min(rows[k][0] for k in range(start, stop + 1)
                     if rows[k][0] is not None)
        assert scaled == 8

    @pytest.mark.parametrize("offset", [HALF, -HALF])
    def test_a_wrong_abar_never_recurs(self, offset):
        # off the least cycle mean the walk minima drift, down with a
        # negative cycle or up with none at zero, and no table comes back
        b = detour_bundle()
        with pytest.raises(TooLarge):
            barrier_window(words_of(b.graph), b.weights, b.abar + offset)

    def test_window_matches_h_on_corpus(self, corpus_bundles):
        for b in corpus_bundles[:30]:
            g, n, h = words_of(b.graph), b.graph.n_nodes, barrier_matrices(b).h
            start, stop = barrier_window(g, b.weights, b.abar)
            for i in range(n):
                rows = path_min_table(g, b.weights, b.abar, i, stop)
                for j in range(n):
                    got = min(rows[k][j] for k in range(start, stop + 1)
                              if rows[k][j] is not None)
                    assert got == h[i][j]


def assert_walk_minima_match_tables(b):
    """walk_minima against each source's path_min_table: phi the minimum
    over lengths 1..2n^2, h over barrier_window's window, the step row 1."""
    graph, weights, abar = words_of(b.graph), b.weights, b.abar
    n = graph.n_nodes
    start, stop = barrier_window(graph, weights, abar)
    tables = [path_min_table(graph, weights, abar, i, max(2 * n * n, stop)) for i in range(n)]

    def least(lengths):
        return tuple(tuple(min(rows[k][j] for k in lengths if rows[k][j] is not None)
                           for j in range(n)) for rows in tables)

    phi, h, step = walk_minima(graph, weights, abar)
    assert phi == least(range(1, 2 * n * n + 1))
    assert h == least(range(start, stop + 1))
    assert step == tuple(tuple(rows[1]) for rows in tables)


class TestWalkMinima:
    @given(st.integers(0, 10**6))
    def test_random_instances(self, seed):
        assert_walk_minima_match_tables(solve_instance(random_instance(random.Random(seed))))

    def test_corpus(self, corpus_bundles, two_sided_bundles):
        for b in corpus_bundles + two_sided_bundles:
            assert_walk_minima_match_tables(b)

    def test_expensive_detour(self):
        # the tables run to length 8, far past n = 2: the loop at 0 gives
        # phi and the step, the detour through 1 the barrier
        b = detour_bundle()
        assert_walk_minima_match_tables(b)
        phi, h, step = walk_minima(words_of(b.graph), b.weights, b.abar)
        assert (phi[0][0], h[0][0], step[0][0]) == (1, 8, 1)

    def test_tie_heavy_systems_of_order_two(self, tie_heavy_bundles):
        order_two = [b for b in tie_heavy_bundles if b.graph.order == 2]
        assert len(order_two) == 84
        for b in order_two:
            assert_walk_minima_match_tables(b)

    @pytest.mark.parametrize("case", sorted(SCALING_CASES))
    def test_fraction_reference(self, e2_bundle, case):
        # against path_min_sums, walk by walk, on weights over large primes
        graph = words_of(e2_bundle.graph)
        weights = [Fraction(w) for w in SCALING_CASES[case]]
        abar = min(m for _, m in brute_cycles(graph, weights))
        n = graph.n_nodes
        start, stop = barrier_window(graph, weights, abar)

        def least(lengths):
            return tuple(tuple(min(path_min_sums(graph, weights, abar, i, j, k) for k in lengths)
                               for j in range(n)) for i in range(n))

        assert walk_minima(graph, weights, abar) == (
            least(range(1, 2 * n * n + 1)), least(range(start, stop + 1)), least([1]))


class TestSEpsilon:
    def test_e1_values(self, e1_potential):
        pot = e1_potential
        assert s_epsilon(SEpsilonQuery(ZERO, ZERO, 2, HALF**2), pot) == 0
        assert s_epsilon(SEpsilonQuery(ONE_ZERO, ZERO, 2, HALF), pot) == 1

    def test_constant_potential_vanishes(self):
        q = SEpsilonQuery(ZERO, ONE, 3, HALF)
        assert s_epsilon(q, constant_potential()) == 0

    def test_pin_conflict(self, e1_potential):
        q = SEpsilonQuery(ZERO, ONE, 1, HALF**2)
        with pytest.raises(NoPathExists):
            s_epsilon(q, e1_potential)

    def test_validation(self, e1_potential, golden_potential):
        pot = e1_potential
        with pytest.raises(ValueError):
            s_epsilon(SEpsilonQuery(ZERO, ZERO, 0, HALF), pot)
        with pytest.raises(ValueError):
            s_epsilon(SEpsilonQuery(ZERO, ZERO, 1, Fraction(1, 3)), pot)
        with pytest.raises(ValueError):
            s_epsilon(SEpsilonQuery(ZERO, ZERO, 1, Fraction(1)), pot)
        with pytest.raises(TooLarge):
            s_epsilon(SEpsilonQuery(ZERO, ZERO, 22, HALF**2), pot)
        with pytest.raises(ValueError):
            s_epsilon(SEpsilonQuery(ONE, ONE, 1, HALF), golden_potential)

    def test_the_symbol_budget_is_inclusive(self, e1_potential):
        # e1's window is 2 and epsilon = lambda gives p = 1: k = 21 spends
        # exactly SYMBOL_BUDGET symbols, one more is refused
        pot = e1_potential
        assert s_epsilon(SEpsilonQuery(ZERO, ZERO, 21, HALF), pot) == 0
        with pytest.raises(TooLarge, match=r"^p \+ k \+ window = 25 exceeds the budget 24$"):
            s_epsilon(SEpsilonQuery(ZERO, ZERO, 22, HALF), pot)

    def test_shrinking_epsilon_raises_the_minimum(self, e1_potential, e2_potential,
                                                  golden_potential):
        rng = random.Random(5)
        for pot in (e1_potential, e2_potential, golden_potential):
            for _ in range(12):
                x, y = random_lasso(rng, pot.sft), random_lasso(rng, pot.sft)
                k = rng.randint(1, 4)
                prev = None
                for p in (1, 2, 3):
                    try:
                        cur = s_epsilon(SEpsilonQuery(x, y, k, HALF**p), pot)
                    except NoPathExists:
                        break
                    if prev is not None:
                        assert cur >= prev
                    prev = cur

    def test_k_infimum_reaches_the_point_barrier(self, e1_potential, e1_bundle):
        pot = e1_potential
        for x, y, want in ((ONE_ZERO, ZERO, 1), (ZERO, ONE, 0)):
            got = []
            for k in range(1, 7):
                try:
                    got.append(s_epsilon(SEpsilonQuery(x, y, k, HALF**3), pot))
                except NoPathExists:
                    continue
            assert min(got) == want
            direct = point_barrier(x, y, "mane", words_of(e1_bundle.graph),
                                   e1_bundle.weights, e1_bundle.abar)
            assert direct == want


class TestPointBarrier:
    def args(self, b):
        return words_of(b.graph), b.weights, b.abar

    def test_e1_values(self, e1_bundle):
        a = self.args(e1_bundle)
        assert point_barrier(ZERO, ZERO, "mane", *a) == 0
        assert point_barrier(ZERO, ZERO, "peierls", *a) == 0
        assert point_barrier(ZERO, ONE, "mane", *a) == 0
        assert point_barrier(ONE_ZERO, ZERO, "mane", *a) == 1
        assert point_barrier(ONE_ZERO, ZERO, "peierls", *a) == 1

    def test_divergence(self, e1_bundle):
        a = self.args(e1_bundle)
        assert point_barrier(ONE, ZERO, "mane", *a) == math.inf
        assert point_barrier(ONE, ZERO, "peierls", *a) == math.inf

    def test_validation(self, e1_bundle, golden_bundle):
        with pytest.raises(ValueError):
            point_barrier(ZERO, ZERO, "phih", *self.args(e1_bundle))
        with pytest.raises(ValueError):
            point_barrier(ONE, ONE, "mane", *self.args(golden_bundle))

    def test_peierls_dominates_mane(self, e1_bundle, e2_bundle, golden_bundle):
        rng = random.Random(9)
        for b in (e1_bundle, e2_bundle, golden_bundle):
            for _ in range(15):
                x, y = random_lasso(rng, b.graph.sft), random_lasso(rng, b.graph.sft)
                lo = point_barrier(x, y, "mane", *self.args(b))
                hi = point_barrier(x, y, "peierls", *self.args(b))
                assert hi >= lo

    def test_orbit_splitting(self, e1_bundle, e2_bundle, golden_bundle):
        # mane(x, x) splits at every point of a periodic orbit
        for b in (e1_bundle, e2_bundle, golden_bundle):
            for x in periodic_lassos(b.graph.sft, 4):
                whole = point_barrier(x, x, "mane", *self.args(b))
                z = x
                for _ in range(len(x.cycle) - 1):
                    z = lasso_shift(z)
                    out = point_barrier(x, z, "mane", *self.args(b))
                    back = point_barrier(z, x, "mane", *self.args(b))
                    assert out + back == whole

    def test_critical_periodic_points_match_the_solver_h(self, e1_bundle, e2_bundle,
                                                          golden_bundle):
        # from a periodic point on a critical cycle the Peierls barrier is
        # the node-level h, which the oracle computes without the solver
        for b in (e1_bundle, e2_bundle, golden_bundle):
            h, points = barrier_matrices(b).h, periodic_lassos(b.graph.sft, 3)
            g = words_of(b.graph)
            critical = [x for x in points
                        if point_barrier(x, x, "peierls", *self.args(b)) == 0]
            assert critical
            for x in critical:
                for y in points:
                    i, j = (g.node_index(z.expansion(g.order)) for z in (x, y))
                    assert point_barrier(x, y, "peierls", *self.args(b)) == h[i][j]


class TestIsNonwandering:
    def test_e1_verdicts(self, e1_potential, e1_bundle):
        rep = is_nonwandering(ZERO, e1_bundle, e1_potential)
        assert rep.exact and rep.search and rep.component == 0
        assert all(hit is not None for _, hit in rep.found)

        for x in (ONE, ONE_ZERO):
            rep = is_nonwandering(x, e1_bundle, e1_potential)
            assert not rep.exact and not rep.search and rep.component is None

    def test_report_shape(self, e1_potential, e1_bundle):
        rep = is_nonwandering(ZERO, e1_bundle, e1_potential, search_budget=6)
        assert [p for p, _ in rep.found] == [1, 2, 3, 4]
        assert rep.search_budget == 6

    def test_inadmissible_rejected(self, golden_potential, golden_bundle):
        with pytest.raises(ValueError):
            is_nonwandering(ONE, golden_bundle, golden_potential)

    def test_ways_agree_on_fixture_lassos(self, e1_potential, e2_potential,
                                          golden_potential, e1_bundle, e2_bundle,
                                          golden_bundle):
        rng = random.Random(13)
        for pot, b in ((e1_potential, e1_bundle), (e2_potential, e2_bundle),
                       (golden_potential, golden_bundle)):
            points = periodic_lassos(pot.sft, 3)
            points += [random_lasso(rng, pot.sft) for _ in range(8)]
            for x in points:
                rep = is_nonwandering(x, b, pot)
                assert rep.exact == rep.search

    def test_periodic_verdict_matches_the_barrier(self, e1_potential, e2_potential,
                                                  golden_potential, e1_bundle, e2_bundle,
                                                  golden_bundle):
        # a periodic point is non-wandering exactly when its own Peierls
        # barrier vanishes
        for pot, b in ((e1_potential, e1_bundle), (e2_potential, e2_bundle),
                       (golden_potential, golden_bundle)):
            for x in periodic_lassos(pot.sft, 4):
                rep = is_nonwandering(x, b, pot)
                pb = point_barrier(x, x, "peierls", words_of(b.graph), b.weights, b.abar)
                assert rep.exact == (pb == 0)


class TestHolonomicBrute:
    def test_golden_fixture(self, golden_bundle):
        ahat = build_two_sided(golden_bundle.graph.sft, 1, 1,
                               {(0, 0): 3, (0, 1): 0, (1, 0): 5})
        assert holonomic_value_brute(ahat) == Fraction(3, 2)

    def test_full_shift_fixture(self):
        sft = full_shift()
        ahat = build_two_sided(sft, 1, 1,
                               {(0, 0): 0, (1, 0): 2, (0, 1): 1, (1, 1): 3})
        assert holonomic_value_brute(ahat) == 0

    def test_agrees_with_reduction_on_corpus(self, two_sided_corpus):
        for inst in two_sided_corpus[:10]:
            b = solve_instance(inst)
            assert holonomic_value_brute(inst) == b.abar
