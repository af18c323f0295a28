import inspect
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product

import pytest

from ergopt import pipeline, tropical
from ergopt.instances import parse_instance
from ergopt.oracle import holonomic_value_brute, is_nonwandering, s_epsilon
from ergopt.pipeline import SolveBundle, solve_instance
from ergopt.potential import (OneSidedPotential, TwoSidedPotential, build_one_sided,
                              compile_weights, reduce_two_sided)
from ergopt.symbolic import LassoPoint, build_sft


class TestOneSolvedSystem:
    def test_each_fact_is_stored_once(self):
        assert [f.name for f in fields(SolveBundle)] == ["potential", "crit"]
        assert not hasattr(tropical, "ErgodicSummary")
        assert list(inspect.signature(solve_instance).parameters) == [
            "potential", "node_budget"]
        assert not hasattr(pipeline, "solve_potential")
        assert list(inspect.signature(reduce_two_sided).parameters) == ["ahat"]

    def test_views_are_the_solved_system(self, e1_bundle, e2_bundle, golden_bundle,
                                         two_sided_bundles):
        for b in (e1_bundle, e2_bundle, golden_bundle, *two_sided_bundles[:5]):
            crit = b.crit
            assert b.graph is crit.graph
            assert b.weights is crit.weights
            assert b.sft is crit.graph.sft is b.potential.sft
            assert b.abar is crit.abar

    def test_views_cannot_be_replaced(self, e1_bundle):
        with pytest.raises(TypeError):
            replace(e1_bundle, weights=tuple(w + 1 for w in e1_bundle.weights))
        with pytest.raises(AttributeError):
            e1_bundle.abar = Fraction(1)

    def test_two_sided_table_is_held_as_given(self, two_sided_corpus, two_sided_bundles):
        # the envelope is derived from the table, not stored beside it
        for inst, b in zip(two_sided_corpus, two_sided_bundles):
            assert isinstance(b.potential, TwoSidedPotential)
            assert b.potential is inst
            assert compile_weights(reduce_two_sided(b.potential), b.graph) == b.weights

    def test_nonwandering_search_reads_the_table_as_given(self, two_sided_bundles):
        # the oracle enumerates the pasts of the two-sided table itself and
        # reaches the same reports as on the envelope; each point is taken
        # once, in its canonical form
        for b in two_sided_bundles[:20]:
            envelope = replace(b, potential=reduce_two_sided(b.potential))
            symbols = range(b.sft.alphabet_size)
            points = dict.fromkeys(LassoPoint.make(pre, cyc)
                                   for p, c in product((0, 1), (1, 2))
                                   for pre in product(symbols, repeat=p)
                                   for cyc in product(symbols, repeat=c))
            for x in (x for x in points if x.admissible(b.sft)):
                assert is_nonwandering(x, b, 6) == is_nonwandering(x, envelope, 6)

    def test_solves_on_the_potential_own_system(self):
        # on the golden mean these values would give abar 5/2; on their
        # own system the loop 1 -> 1 costs 0
        sft = build_sft(2, [[0, 1], [1, 1]], Fraction(1, 2))
        b = solve_instance(build_one_sided(sft, 2, {(0, 1): 5, (1, 0): 5, (1, 1): 0}))
        assert b.sft is sft
        assert b.abar == 0
        assert b.weights == (5, 5, 0)


class TestInstanceHoldsThePotential:
    def test_an_instance_is_its_potential(self):
        # an instance file holds one potential, which holds its system
        data = {"alphabet_size": 2, "transition": [[0, 1], [1, 1]], "lambda": "1/2",
                "potential": {"side": "one", "range": 1, "entries": {"0": 1, "1": 0}}}
        one = parse_instance(data)
        data["potential"] = {"side": "two", "past_depth": 1, "future_depth": 1,
                             "entries": {"01": 1, "10": 2, "11": 0}}
        two = parse_instance(data)
        assert (type(one), type(two)) == (OneSidedPotential, TwoSidedPotential)
        assert one.sft == two.sft and one.sft.transition == ((0, 1), (1, 1))
        for pot in (one, two):
            assert pot.potential is pot

    def test_oracle_reads_the_system_from_its_holder(self):
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(holonomic_value_brute) == ["ahat"]
        assert params(s_epsilon) == ["query", "potential"]
        assert params(is_nonwandering) == ["x", "bundle", "search_budget"]
        assert inspect.signature(is_nonwandering).parameters["search_budget"].default == 16
