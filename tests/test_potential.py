import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import irreducible_systems
from ergopt.errors import (BudgetExceeded, IncompatibleOrder, InstanceFormatError,
                           NotASubAction)
from ergopt.instances import parse_instance, random_instance
from ergopt.oracle import WordGraph
from ergopt.potential import (
    admissible_words,
    build_one_sided,
    build_two_sided,
    compile_weights,
    reduce_two_sided,
    truncate,
)
from ergopt.subactions import SubAction, normalize
from ergopt.symbolic import build_sft, count_words, lift_to, refine
from ergopt.tropical import calibrated_fixed_point, minimizing_value

HALF = Fraction(1, 2)
FULL2 = build_sft(2, [[1, 1], [1, 1]], HALF)
GOLDEN = build_sft(2, [[1, 1], [1, 0]], HALF)


def one_sided(sft, m, table):
    return build_one_sided(sft, m, {k: Fraction(v) for k, v in table.items()})


class TestAdmissibleWords:
    def test_golden_mean_lengths(self):
        assert admissible_words(GOLDEN, 1) == [(0,), (1,)]
        assert admissible_words(GOLDEN, 2) == [(0, 0), (0, 1), (1, 0)]
        assert len(admissible_words(GOLDEN, 3)) == 5

    def test_lexicographic(self):
        words = admissible_words(FULL2, 3)
        assert words == sorted(words)

    def test_count_matches_the_list(self):
        for length in range(1, 8):
            n = len(admissible_words(GOLDEN, length))
            assert count_words(GOLDEN, length, n) == n
            assert count_words(GOLDEN, length, n - 1) > n - 1

    def test_counted_before_built(self):
        full4 = build_sft(4, [[1] * 4] * 4, HALF)
        with pytest.raises(BudgetExceeded):
            admissible_words(full4, 40, node_budget=1000)
        with pytest.raises(ValueError, match="missing"):
            one_sided(full4, 40, {(0,) * 40: 0})


class TestTable:
    # each key is checked for its length, its admissibility and a repeat
    # as it comes, so each of those is reported before the missing words
    @pytest.mark.parametrize("entries, message", [
        ({(0, 0): 0, (0,): 1}, "table word (0,) does not have length 2"),
        ({(0, 0): 0, (1, 1): 1}, "table word (1, 1) is not admissible"),
        ([((0, 1), 0), ((1, 0), 1), ((0, 1), 1)], "duplicate table word (0, 1)"),
        ([((0, 1), 0), ((0, 1), 1)], "duplicate table word (0, 1)"),
        ({(0, 1): 0, "01": 1}, "table key '01' is not a word, a tuple of symbols"),
    ])
    def test_each_key_is_refused_before_a_missing_word(self, entries, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build_one_sided(GOLDEN, 2, entries)

    def test_one_symbol_outside_the_alphabet_is_not_admissible(self):
        with pytest.raises(ValueError, match=r"^table word \(2,\) is not admissible$"):
            build_one_sided(GOLDEN, 1, {(2,): 0})

    @pytest.mark.parametrize("key", ["10", "0,1", [1, 0], 10],
                             ids=["digits", "commas", "list", "int"])
    def test_a_key_that_is_not_a_tuple_is_refused(self, key):
        # a string spells a word only for an alphabet: "10" is the one
        # symbol 10 beside eleven symbols, the word (1, 0) beside ten
        full11 = build_sft(11, [[1] * 11] * 11, HALF)
        with pytest.raises(ValueError, match=rf"^table key {re.escape(repr(key))} is not a "
                                             r"word, a tuple of symbols$"):
            build_one_sided(full11, 1, [(key, 0)])
        with pytest.raises(ValueError, match="is not a word"):
            build_two_sided(full11, 1, 1, [(key, 0)])

    def test_missing_word_is_reported_last(self):
        with pytest.raises(ValueError, match=r"^table is missing admissible words of "
                                             r"length 2: it has only 2$"):
            build_one_sided(GOLDEN, 2, {(0, 0): 0, (1, 0): 1})

    def test_two_spellings_of_a_word_are_a_duplicate(self):
        data = {"alphabet_size": 2, "transition": [[1, 1], [1, 0]], "lambda": "1/2",
                "potential": {"side": "one", "range": 2,
                              "entries": {"01": 0, "0,1": 1, "00": 0, "10": 0}}}
        with pytest.raises(InstanceFormatError,
                           match=r"^potential: duplicate table word \(0, 1\)$"):
            parse_instance(data)

    def test_fractions_are_kept_and_others_converted(self):
        half = Fraction(1, 2)
        table = build_one_sided(GOLDEN, 2, {(0, 0): half, (0, 1): 3, (1, 0): "1/3"}).table
        assert table[(0, 0)] is half
        assert table == {(0, 0): half, (0, 1): Fraction(3), (1, 0): Fraction(1, 3)}
        assert all(type(v) is Fraction for v in table.values())


class TestValues:
    def test_values_are_in_word_order_and_the_table_is_a_view(self):
        b = one_sided(GOLDEN, 3, {(1, 0, 1): 7, (0, 0, 0): 1, (0, 1, 0): 5, (1, 0, 0): 6,
                                  (0, 0, 1): 2})
        assert b.values == (1, 2, 5, 6, 7)
        assert list(b.table) == admissible_words(GOLDEN, 3)
        with pytest.raises(TypeError):
            b.table[(0, 0, 0)] = 0

    def test_values_given_in_word_order(self):
        b = build_one_sided(GOLDEN, 1, values=(Fraction(3), Fraction(4)))
        assert b.values == (3, 3, 4) and b.table[(1, 0)] == 4
        ahat = build_two_sided(GOLDEN, 1, 1, values=(Fraction(1), Fraction(2), Fraction(3)))
        assert ahat.table == {(0, 0): 1, (0, 1): 2, (1, 0): 3}

    @pytest.mark.parametrize("count", [2, 4])
    def test_values_of_the_wrong_count_are_refused(self, count):
        with pytest.raises(ValueError, match=rf"^{count} values do not match the "
                                             r"admissible 2-words$"):
            build_one_sided(GOLDEN, 2, values=(Fraction(0),) * count)


class TestBuildOneSided:
    def test_range_one_is_promoted(self):
        f = one_sided(FULL2, 1, {(0,): 0, (1,): 1})
        assert f.declared_range == 1 and f.range == 2
        assert f.value((0, 1, 1)) == 0
        assert f.value((1, 0, 0)) == 1

    def test_missing_word(self):
        with pytest.raises(ValueError):
            one_sided(FULL2, 1, {(0,): 0})

    def test_extra_word(self):
        with pytest.raises(ValueError):
            one_sided(GOLDEN, 2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0})

    def test_value_needs_full_window(self):
        f = one_sided(FULL2, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3})
        with pytest.raises(ValueError):
            f.value((0,))

    def test_holder_metadata_carried(self):
        f = build_one_sided(FULL2, 1, {(0,): Fraction(0), (1,): Fraction(1)},
                            holder_theta=HALF, holder_const=Fraction(3))
        assert f.holder_theta == HALF and f.holder_const == 3


class TestTruncate:
    def test_range_two_to_one(self):
        f = one_sided(FULL2, 2, {(0, 0): 0, (0, 1): 4, (1, 0): 1, (1, 1): 1})
        g, bound = truncate(f, 1)
        assert g.range == 2 and g.declared_range == 1
        assert g.value((0, 0)) == 0 and g.value((0, 1)) == 0
        assert g.value((1, 0)) == 1 and g.value((1, 1)) == 1
        assert bound == 4

    def test_constant_potential(self):
        f = one_sided(FULL2, 2, {(0, 0): 7, (0, 1): 7, (1, 0): 7, (1, 1): 7})
        g, bound = truncate(f, 1)
        assert bound == 0
        assert g.value((1, 1)) == 7

    def test_identity_at_full_range(self):
        f = one_sided(GOLDEN, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 0})
        g, bound = truncate(f, 2)
        assert bound == 0 and g.table == f.table

    def test_rejects_bad_range(self):
        f = one_sided(FULL2, 2, {(0, 0): 0, (0, 1): 4, (1, 0): 1, (1, 1): 1})
        with pytest.raises(ValueError):
            truncate(f, 0)
        with pytest.raises(ValueError):
            truncate(f, 3)

    @given(st.integers(0, 10**6))
    def test_truncation_sandwich(self, seed):
        rng = random.Random(seed)
        pot = random_instance(rng)
        if pot.range < 2:
            return
        trunc, bound = truncate(pot, 1)
        for w in admissible_words(pot.sft, pot.range):
            assert trunc.value(w) <= pot.value(w) <= trunc.value(w) + bound


class TestTwoSided:
    def test_reduce_full_shift(self):
        # mins taken over the past coordinate componentwise
        ahat = build_two_sided(FULL2, 1, 1, {
            (0, 0): Fraction(0), (1, 0): Fraction(2),
            (0, 1): Fraction(1), (1, 1): Fraction(3),
        })
        b = reduce_two_sided(ahat)
        assert b.value((0, 0)) == 0
        assert b.value((1, 1)) == 1

    def test_reduce_golden_mean_pins_the_only_past(self):
        ahat = build_two_sided(GOLDEN, 1, 1, {
            (0, 0): Fraction(7), (1, 0): Fraction(1), (0, 1): Fraction(5),
        })
        b = reduce_two_sided(ahat)
        assert b.value((1, 0)) == 5
        assert b.value((0, 0)) == 1

    def test_past_independent_table_collapses_to_future(self):
        ahat = build_two_sided(FULL2, 1, 1, {
            (0, 0): Fraction(4), (1, 0): Fraction(4),
            (0, 1): Fraction(9), (1, 1): Fraction(9),
        })
        b = reduce_two_sided(ahat)
        assert b.value((0, 0)) == 4 and b.value((1, 1)) == 9

    def test_reduction_is_the_minimum_over_pasts(self):
        # at past depths 1-3 and future depths 1-4, against the minimum
        # over pasts written out from the word-keyed table; on the uneven
        # system the q-word blocks of the three symbols differ in size
        uneven = build_sft(3, [[1, 1, 0], [0, 0, 1], [1, 1, 1]], HALF)
        rng = random.Random(28)
        for sft, p, q in product((GOLDEN, FULL2, uneven), range(1, 4), range(1, 5)):
            entries = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for w in admissible_words(sft, p + q)}
            ahat = build_two_sided(sft, p, q, entries)
            envelope = {}
            for word, value in ahat.table.items():
                envelope[word[p:]] = min(value, envelope.get(word[p:], value))
            b = reduce_two_sided(ahat)
            want = build_one_sided(sft, q, envelope)
            assert (b.declared_range, b.values) == (q, want.values), (sft, p, q)

    def test_junction_admissibility_enforced(self):
        with pytest.raises(ValueError):
            build_two_sided(GOLDEN, 1, 1, {
                (0, 0): Fraction(0), (1, 0): Fraction(0),
                (0, 1): Fraction(0), (1, 1): Fraction(0),
            })


class TestNormalize:
    def test_weights_nonnegative_and_tight_on_critical(self, corpus_bundles):
        for bundle in corpus_bundles[:40]:
            u = SubAction(bundle.graph.order, calibrated_fixed_point(bundle), "user-supplied")
            norm = normalize(u, bundle)
            weights = compile_weights(norm, bundle.graph)
            assert all(w >= 0 for w in weights)
            assert min(weights[k] for k in bundle.critical_edges) == 0
            assert all(weights[k] == 0 for k in bundle.critical_edges)

    def test_weights_are_the_slacks(self, corpus_bundles):
        for bundle in corpus_bundles[:40]:
            g, u = bundle.graph, calibrated_fixed_point(bundle)
            sub = SubAction(g.order, u, "user-supplied")
            weights = compile_weights(normalize(sub, bundle), g)
            assert weights == tuple(
                w - bundle.abar - u[head] + u[tail]
                for w, tail, head in zip(bundle.weights, g.tails, g.heads)
            )

    def test_rejects_non_subaction(self, e1_bundle):
        bad = SubAction(1, (Fraction(0), Fraction(5)), "user-supplied")
        with pytest.raises(NotASubAction,
                           match=re.escape("edge (0, 1) has negative normalized weight -5")):
            normalize(bad, e1_bundle)

    def test_rejects_depth_mismatch(self, e1_bundle):
        u = SubAction(2, (Fraction(0),) * 4, "user-supplied")
        with pytest.raises(IncompatibleOrder):
            normalize(u, e1_bundle)


class TestCompileWeights:
    def test_fixture_weights(self, e1_bundle):
        assert e1_bundle.weights == (0, 0, 1, 1)

    def test_rejects_coarse_graph(self):
        f = one_sided(FULL2, 3, {w: 0 for w in admissible_words(FULL2, 3)})
        with pytest.raises(IncompatibleOrder):
            compile_weights(f, refine(FULL2, 1))

    def test_rejects_fine_graph(self):
        f = one_sided(FULL2, 2, {w: 0 for w in admissible_words(FULL2, 2)})
        with pytest.raises(IncompatibleOrder, match=r"^a range-2 potential compiles onto "
                                                    r"order 1, not 2$"):
            compile_weights(f, refine(FULL2, 2))

    @given(irreducible_systems(), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_matches_the_table_read_through_edge_words(self, sft, m, rng):
        # entries arrive in a shuffled order; each edge takes the value of
        # its word's length-m prefix, at order m - 1 and, lifted, on finer
        # graphs
        words = admissible_words(sft, m)
        rng.shuffle(words)
        b = one_sided(sft, m, {w: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for w in words})
        base = refine(sft, b.working_order)
        weights = compile_weights(b, base)
        for order in range(b.range - 1, b.range + 3):
            if count_words(sft, order + 1, 2000) > 2000:
                break
            graph, lifted = lift_to(base, weights, order)
            edges = WordGraph(graph.sft, graph.order).edges
            assert lifted == tuple(b.table[e.word[:b.range]] for e in edges)

    def test_rejects_a_table_of_the_wrong_size(self):
        f = one_sided(FULL2, 2, {w: 0 for w in admissible_words(FULL2, 2)})
        g = refine(GOLDEN, 1)
        with pytest.raises(IncompatibleOrder, match="needs 3 values, it has 4"):
            compile_weights(f, g)

    def test_rejects_a_graph_of_another_transition_matrix(self):
        # 01, 10, 11 against the golden mean's 00, 01, 10: the sizes agree
        sft = build_sft(2, [[0, 1], [1, 1]], HALF)
        f = one_sided(sft, 2, {(0, 1): 5, (1, 0): 5, (1, 1): 0})
        base = refine(GOLDEN, 1)
        for order in (1, 2):
            with pytest.raises(IncompatibleOrder, match="transition matrix"):
                lift_to(base, compile_weights(f, base), order)
        # lambda never enters the weights
        other_lambda = build_sft(2, [[0, 1], [1, 1]], Fraction(1, 3))
        assert compile_weights(f, refine(other_lambda, 1)) == (5, 5, 0)

    def test_lifted_graph_same_cycle_values(self):
        f = one_sided(GOLDEN, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 0})
        base = refine(GOLDEN, 1)
        w_base = compile_weights(f, base)
        fine, w_fine = lift_to(base, w_base, 3)
        assert minimizing_value(base, w_base).abar == minimizing_value(fine, w_fine).abar
