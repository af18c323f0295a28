import random
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from ergopt.errors import (
    BudgetExceeded,
    EmptyRowOrColumn,
    LambdaOutOfRange,
    NotIrreducible,
)
from ergopt.instances import random_instance
from ergopt.oracle import Edge, WordGraph
from ergopt.symbolic import (
    LassoPoint,
    MAX_WORD_LENGTH,
    build_sft,
    count_words,
    lasso_distance,
    lasso_shift,
    lift_to,
    refine,
    strongly_connected_components,
)

from conftest import irreducible_systems, random_lasso

HALF = Fraction(1, 2)

FULL2 = build_sft(2, [[1, 1], [1, 1]], HALF)
GOLDEN = build_sft(2, [[1, 1], [1, 0]], HALF)
FULL3 = build_sft(3, [[1] * 3] * 3, HALF)
FORBIDDEN3 = build_sft(3, [[1, 1, 0], [1, 0, 1], [0, 1, 1]], HALF)
ELEVEN = build_sft(11, [[1 if (a + b) % 3 else 0 for b in range(11)] for a in range(11)], HALF)

# the corpus generator's systems, and sparse to full ones on up to 4 symbols
SYSTEMS = st.one_of(
    st.integers(0, 10**6).map(lambda seed: random_instance(random.Random(seed)).sft),
    irreducible_systems(),
)


def order_within(sft, r, extra, cap=2200):
    """The largest order up to r whose admissible (order + extra)-words
    number at most `cap`, or 1."""
    while r > 1 and count_words(sft, r + extra, cap) > cap:
        r -= 1
    return r


class TestBuildSft:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            build_sft(2, [[1, 1], [1]], HALF)

    def test_rejects_non_binary_entries(self):
        # the message names the first offending entry in row order
        with pytest.raises(ValueError, match=r"^transition matrix entries must be 0 or 1: "
                                             r"row 0, column 1 is 2$"):
            build_sft(2, [[1, 2], [1, 1]], HALF)
        with pytest.raises(ValueError, match=r"row 1, column 0 is -1$"):
            build_sft(2, [[1, 1], [-1, 3]], HALF)

    def test_rejects_empty_row(self):
        with pytest.raises(EmptyRowOrColumn):
            build_sft(2, [[0, 0], [1, 1]], HALF)

    def test_rejects_empty_column(self):
        with pytest.raises(EmptyRowOrColumn):
            build_sft(2, [[1, 0], [1, 0]], HALF)

    def test_rejects_reducible(self):
        # a sink component cannot reach the component the search returns last
        for matrix, sink, source in (([[1, 1], [0, 1]], 1, 0),
                                     ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 0, 2),
                                     ([[1, 1, 0], [0, 1, 1], [0, 1, 1]], 1, 0)):
            with pytest.raises(NotIrreducible, match=rf"^transition matrix is not strongly "
                                                     rf"connected: symbol {sink} cannot "
                                                     rf"reach symbol {source}$"):
                build_sft(len(matrix), matrix, HALF)

    @pytest.mark.parametrize("lam", [0, 1, 2, Fraction(3, 2), -1])
    def test_rejects_lambda_outside_unit_interval(self, lam):
        with pytest.raises(LambdaOutOfRange):
            build_sft(2, [[1, 1], [1, 1]], lam)

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(ValueError):
            build_sft(65, [[1] * 65 for _ in range(65)], HALF)

    def test_successors_and_predecessors(self):
        assert GOLDEN.successors == ((0, 1), (0,))
        assert GOLDEN.predecessors == ((0, 1), (0,))

    def test_admissible(self):
        assert GOLDEN.admissible((0, 1, 0, 0))
        assert not GOLDEN.admissible((0, 1, 1))
        assert not GOLDEN.admissible(())
        assert not GOLDEN.admissible((2,))

    @given(irreducible_systems(1, 12), st.data())
    def test_admissible_by_pairs_agrees_with_the_definition(self, sft, data):
        # symbols from -1 to the alphabet size, so out-of-range symbols,
        # the empty word and one-symbol words are all drawn
        size = sft.alphabet_size
        word = data.draw(st.lists(st.integers(-1, size), max_size=5))
        in_range = all(0 <= s < size for s in word)
        expected = (len(word) > 0 and in_range
                    and all(sft.transition[a][b] == 1 for a, b in zip(word, word[1:])))
        assert sft.admissible(word) == sft.admissible(tuple(word)) == expected
        # and a walk along the successors, of the same length, is admissible
        if word and in_range:
            walk = [word[0]]
            for _ in word[1:]:
                walk.append(data.draw(st.sampled_from(sft.successors[walk[-1]])))
            assert sft.admissible(tuple(walk))


def assert_wired_by_words(g):
    """The solver graph's int arrays and edge words are those of the
    oracle's graph, wired from the words alone, of its system and order."""
    words = WordGraph(g.sft, g.order)
    assert g.lasts == [w[-1] for w in words.nodes]
    assert g.tails == [e.tail for e in words.edges]
    assert g.heads == [e.head for e in words.edges]
    assert list(map(list, g.out_edges)) == words.out_edges
    assert [Edge(g.tails[k], g.heads[k], g.edge_word(k)) for k in range(g.n_edges)] == list(
        words.edges)


class TestRefine:
    def test_full_shift_order_1(self):
        g = refine(FULL2, 1)
        assert g.n_nodes == 2 and g.n_edges == 4
        assert g.lasts == [0, 1]

    def test_full_shift_order_2(self):
        g = refine(FULL2, 2)
        assert g.n_nodes == 4 and g.n_edges == 8

    def test_golden_mean_order_2(self):
        g = refine(GOLDEN, 2)
        assert g.lasts == [0, 1, 0]
        assert tuple(map(g.edge_word, range(g.n_edges))) == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1),
        )

    def test_edge_endpoints_follow_the_shift(self):
        for g in (refine(FULL2, 2), refine(GOLDEN, 3)):
            r, nodes = g.order, WordGraph(g.sft, g.order).nodes
            for k in range(g.n_edges):
                assert nodes[g.tails[k]] == g.edge_word(k)[:r]
                assert nodes[g.heads[k]] == g.edge_word(k)[1:]

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            refine(FULL2, 0)

    def test_node_budget(self):
        with pytest.raises(BudgetExceeded):
            refine(FULL2, 10, node_budget=100)
        with pytest.raises(BudgetExceeded):
            refine(FULL2, 1, node_budget=1)

    def test_node_and_edge_lookup(self):
        g = refine(GOLDEN, 2)
        words = WordGraph(g.sft, g.order)
        assert words.node_index((0, 1)) == 1
        assert words.edge_index((1, 0, 1)) == 4 and g.edge_word(4) == (1, 0, 1)
        with pytest.raises(ValueError, match=r"^not an admissible node word: \(1, 1\)$"):
            words.node_index((1, 1))
        with pytest.raises(ValueError, match=r"^not an admissible edge word: \(0, 1, 1\)$"):
            words.edge_index((0, 1, 1))

    @pytest.mark.parametrize("word", [(1, 1), (0,), (0, 0, 0), (), (0, 2), (2, 0), (0, -1)])
    def test_edge_index_rejects_non_edges(self, word):
        # a forbidden transition, wrong lengths, out-of-range symbols
        with pytest.raises(ValueError, match="not an admissible edge word"):
            WordGraph(GOLDEN, 1).edge_index(word)

    def test_edge_index_round_trips(self):
        for g in (refine(GOLDEN, 3), refine(FULL3, 2)):
            words = WordGraph(g.sft, g.order)
            assert [words.edge_index(g.edge_word(k)) for k in range(g.n_edges)] == list(
                range(g.n_edges))

    @given(SYSTEMS, st.integers(1, 5))
    def test_next_order_is_the_line_graph(self, sft, r):
        r = order_within(sft, r, 2)
        low, up = refine(sft, r), refine(sft, r + 1)
        assert up.lasts == [low.edge_word(k)[-1] for k in range(low.n_edges)]
        for k in range(up.n_edges):
            first, second = up.tails[k], up.heads[k]
            assert low.heads[first] == low.tails[second]
            assert up.edge_word(k) == low.edge_word(first) + low.edge_word(second)[-1:]
        assert up.n_edges == sum(len(low.out_edges[head]) for head in low.heads)

    @given(SYSTEMS, st.integers(1, 5))
    def test_int_arrays_match_the_words(self, sft, r):
        r = order_within(sft, r, 1)
        g = refine(sft, r)
        assert_wired_by_words(g)
        # out-edges are numbered consecutively by tail
        assert [k for ks in g.out_edges for k in ks] == list(range(g.n_edges))
        for v, ks in enumerate(g.out_edges):
            assert ks == range(ks.start, ks.stop) and ks
            assert all(g.tails[k] == v for k in ks)
        for v, ks in enumerate(g.in_edges):
            assert ks == tuple(k for k in range(g.n_edges) if g.heads[k] == v)

    def test_word_length_cap(self):
        cycle = build_sft(2, [[0, 1], [1, 0]], HALF)
        assert count_words(cycle, MAX_WORD_LENGTH, 2) == 2
        with pytest.raises(BudgetExceeded, match="word length"):
            count_words(cycle, MAX_WORD_LENGTH + 1, 2)
        with pytest.raises(BudgetExceeded, match="word length"):
            refine(cycle, 10**6)

    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_strongly_connected_at_every_order(self, seed, r):
        inst = random_instance(random.Random(seed))
        g = refine(inst.sft, r)
        succ = [[] for _ in range(g.n_nodes)]
        for tail, head in zip(g.tails, g.heads):
            succ[tail].append(head)
        assert len(strongly_connected_components(succ)) == 1


class TestWiring:
    """The solver's line-step wiring against the oracle's word wiring."""

    @pytest.mark.parametrize("sft", [FULL2, GOLDEN, FORBIDDEN3, ELEVEN],
                             ids=["full2", "golden", "forbidden3", "eleven"])
    @pytest.mark.parametrize("r", range(1, 6))
    def test_refine_line_graph_and_lift_to(self, sft, r):
        g = refine(sft, r)
        assert_wired_by_words(g)
        base = refine(sft, 1)
        lifted, _ = lift_to(base, [Fraction(0)] * base.n_edges, r)
        graphs = [lifted] + ([refine(sft, r - 1).line_graph()] if r > 1 else [])
        for other in graphs:
            assert other.order == r
            assert (other.tails, other.heads, other.lasts) == (g.tails, g.heads, g.lasts)
            assert other.out_edges == g.out_edges


def check_components(succ, ours):
    """`ours` are networkx's components of the digraph `succ`, each
    sorted, listed so that every arc enters a component no later than
    the one it leaves (reverse topological order)."""
    n = len(succ)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((v, w) for v, ws in enumerate(succ) for w in ws)
    expected = {frozenset(c) for c in nx.strongly_connected_components(graph)}
    assert {frozenset(c) for c in ours} == expected
    assert all(comp == sorted(comp) for comp in ours)
    place = {v: i for i, comp in enumerate(ours) for v in comp}
    assert all(place[w] <= place[v] for v, ws in enumerate(succ) for w in ws)


class TestScc:
    @given(st.integers(2, 9), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                                       max_size=30))
    def test_matches_networkx(self, n, pairs):
        succ = [[] for _ in range(n)]
        for a, b in pairs:
            succ[a % n].append(b % n)
        check_components(succ, strongly_connected_components(succ))

    def test_sparse_graph_with_many_components(self):
        # 3000 nodes, each with 0-2 arcs to near neighbours and a few long
        # arcs: hundreds of components of 2 nodes and more, and singletons
        rng = random.Random(3000)
        n = 3000
        succ = [[min(n - 1, max(0, v + rng.randint(-6, 6))) for _ in range(rng.randint(0, 2))]
                for v in range(n)]
        for _ in range(40):
            succ[rng.randrange(n)].append(rng.randrange(n))
        ours = strongly_connected_components(succ)
        assert sum(len(c) >= 2 for c in ours) > 100
        check_components(succ, ours)

    @pytest.mark.parametrize("closed", [True, False], ids=["cycle", "path"])
    def test_long_cycle_and_path_do_not_recurse(self, closed):
        # far past the interpreter's recursion limit: the finish-order
        # search goes 100 000 deep on the path, the reversed-arc sweep on
        # the cycle
        n = 100_000
        succ = [[v + 1] for v in range(n - 1)] + [[0] if closed else []]
        ours = strongly_connected_components(succ)
        assert ours == ([list(range(n))] if closed else [[v] for v in reversed(range(n))])


class TestLasso:
    def test_make_primitive_cycle(self):
        x = LassoPoint.make((), (0, 1, 0, 1))
        assert x.cycle == (0, 1)

    def test_make_absorbs_preperiod_tail(self):
        x = LassoPoint.make((1, 0), (0,))
        assert x.preperiod == (1,) and x.cycle == (0,)

    def test_shift_drops_preperiod(self):
        x = LassoPoint.make((1,), (0,))
        assert lasso_shift(x) == LassoPoint.make((), (0,))

    def test_shift_rotates_cycle(self):
        x = LassoPoint.make((), (0, 1))
        assert lasso_shift(x) == LassoPoint.make((), (1, 0))

    def test_expansion(self):
        x = LassoPoint.make((1,), (0, 1))
        assert x.expansion(6) == (1, 0, 1, 0, 1, 0)

    def test_admissible(self):
        assert LassoPoint.make((1,), (0,)).admissible(GOLDEN)
        assert not LassoPoint.make((), (1,)).admissible(GOLDEN)
        assert not LassoPoint.make((), (2,)).admissible(GOLDEN)

    @given(st.integers(0, 10**6))
    def test_shift_matches_expansion(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        x = random_lasso(rng, inst.sft)
        assert lasso_shift(x).expansion(8) == x.expansion(9)[1:]

    @given(st.integers(0, 10**6))
    def test_shifting_past_preperiod_is_periodic(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        x = random_lasso(rng, inst.sft)
        for _ in range(len(x.preperiod)):
            x = lasso_shift(x)
        assert x.preperiod == ()
        period = len(x.cycle)
        y = x
        for _ in range(period):
            y = lasso_shift(y)
        assert y == x


class TestLassoDistance:
    def test_identity(self):
        x = LassoPoint.make((0,), (1, 0))
        same = LassoPoint.make((0, 1), (0, 1))
        assert lasso_distance(x, same, FULL2) == 0

    def test_first_disagreement(self):
        x = LassoPoint.make((), (0,))
        y = LassoPoint.make((0, 0, 1), (0,))
        assert lasso_distance(x, y, FULL2) == HALF**2

    @given(st.integers(0, 10**6))
    def test_ultrametric(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        x, y, z = (random_lasso(rng, inst.sft) for _ in range(3))
        d = lambda a, b: lasso_distance(a, b, inst.sft)
        assert d(x, z) <= max(d(x, y), d(y, z))
        assert d(x, y) == d(y, x)
        assert (d(x, y) == 0) == (x == y)


class TestLift:
    def test_lifted_weights_follow_prefix(self):
        g = refine(GOLDEN, 1)
        weights = tuple(Fraction(i) for i in range(g.n_edges))
        lifted, lw = lift_to(g, weights, 2)
        assert lifted.order == 2
        base, words = WordGraph(g.sft, g.order), WordGraph(lifted.sft, lifted.order)
        for e, w in zip(words.edges, lw):
            assert w == weights[base.edge_index(e.word[:2])]

    def test_lift_to_matches_iterated_lift(self):
        g = refine(FULL2, 1)
        weights = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
        once, w_once = lift_to(g, weights, 2)
        twice, w_twice = lift_to(once, w_once, 3)
        direct, w_direct = lift_to(g, weights, 3)
        assert (direct.tails, direct.heads, direct.lasts) == (twice.tails, twice.heads,
                                                              twice.lasts)
        assert w_direct == w_twice

    def test_lift_to_same_order_is_identity(self):
        g = refine(FULL2, 2)
        weights = tuple(Fraction(i) for i in range(g.n_edges))
        lifted, lw = lift_to(g, weights, 2)
        assert lifted is g and lw == weights

    def test_lift_to_rejects_lower_order(self):
        g = refine(FULL2, 2)
        with pytest.raises(ValueError):
            lift_to(g, [Fraction(0)] * g.n_edges, 1)

    def test_lift_to_counts_before_building(self, e2_bundle):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                lift_to(e2_bundle.graph, e2_bundle.weights, 30, node_budget=1000)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_path_sums_preserved(self):
        g = refine(GOLDEN, 1)
        weights = (Fraction(3), Fraction(1), Fraction(4))
        lifted, lw = lift_to(g, weights, 3)
        g, lifted = WordGraph(g.sft, g.order), WordGraph(lifted.sft, lifted.order)
        word = (0, 1, 0, 0, 0, 1, 0)
        base = sum(weights[g.edge_index(word[i:i + 2])] for i in range(len(word) - 1))
        upstairs = sum(
            lw[lifted.edge_index(word[i:i + 4])] for i in range(len(word) - 3)
        )
        # the lifted walk is shorter by order-1 steps; compare the common window
        trimmed = sum(weights[g.edge_index(word[i:i + 2])] for i in range(len(word) - 3))
        assert upstairs == trimmed
        assert base == trimmed + weights[g.edge_index(word[-3:-1])] + weights[
            g.edge_index(word[-2:])]

    def test_node_of(self):
        # the node holding a point's cylinder, looked up by its first r symbols
        g = WordGraph(GOLDEN, 2)
        assert g.node_index(LassoPoint.make((), (0,)).expansion(2)) == 0
        assert g.node_index(LassoPoint.make((), (0, 1)).expansion(2)) == 1
        assert g.node_index(LassoPoint.make((1,), (0,)).expansion(2)) == 2
