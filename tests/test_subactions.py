import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from conftest import INSTANCE_DIR, irreducible_systems
from ergopt import symbolic
from ergopt.errors import BudgetExceeded, IncompatibleOrder, NotASubAction, NotCalibrated
from ergopt.instances import load_instance, random_instance, random_two_sided
from ergopt.oracle import WordGraph
from ergopt.pipeline import barrier_matrices, solve_instance
from ergopt.potential import OneSidedPotential, build_one_sided
from ergopt.subactions import (
    ContactSet,
    GapReport,
    SubAction,
    _EdgeLift,
    _NodeLift,
    _parent_lift,
    _separate,
    _verdict,
    calibrated_from_boundary,
    contact_locus,
    convex_combination,
    dominant_calibrated,
    gap_analysis,
    lift_critical,
    normalize,
    separating_subaction,
    verify,
)
from ergopt.symbolic import (
    DEFAULT_NODE_BUDGET,
    DeBruijnGraph,
    admissible_words,
    build_sft,
    count_words,
    lift_to,
)
from ergopt.tropical import (
    calibrated_fixed_point,
    constraint_polytope,
    critical_structure,
    lax_oleinik_step,
)


# SHA-256 of repr((sub.values, cert)) for separating sub-actions that take
# two passes, recorded when the passes still ran in Fraction arithmetic.
# Keys are (seed, depth, gamma); the test draws each system from
# random.Random(seed).
TWO_PASS_DIGESTS = {
    (30, 3, "1/2"): "e8f97725c773df6d2adccda348253f8de6c5fcd3b2ef90705cdce93e747a3788",
    (30, 3, "2/3"): "56c79f854506eee8abb3831708724b67671417bff8eb79d7f85dbefe2ce11696",
    (30, 4, "1/2"): "7d76023469b6cb218ff6619d605d1bf789df4b8e4b134df1ede5129cfc430b58",
    (30, 4, "2/3"): "5867e381d02a0d1d39224efd0732aa6eeaba5c1b5ecc8970175c16eab6aac580",
    (64, 3, "1/2"): "47abb46e3792df5725cfa559fb0483c2aff978571ead71cf5116240ae0e56eea",
    (64, 3, "2/3"): "4333f5756f879ecea32aa500c42562e5e62d24d35e4136af0b3e1928aafddad4",
    (64, 4, "1/2"): "2d2a4c99ce29cd09ba1b5bda7db08a7eb0d45e62126bc1fe4db779e0d9e9c411",
    (64, 4, "2/3"): "b3249d676c05a8af178e62c59a5e47a3f43706fa2155a5cb4cd2eeb75517ec67",
    (109, 3, "1/2"): "1d37f6f1c69d8c4f04b1964361cc60e86d454f2b8c01b1ea71613e3398622be8",
    (109, 3, "2/3"): "506ccb7b5ed1be7125efdd60d334af71fd2ed66877f9dbfd9c1add2f58baa126",
    (109, 4, "1/2"): "42fc82edc8f66a4987b2e452609b3768b959fa34ae48d15c874b434267252e83",
    (109, 4, "2/3"): "7a6a0cf36230df9f2cf8a3ce129671ed4427eb4b37086d837bd44074f0c5acd2",
    (134, 3, "1/2"): "8dfca593d6ffe88f1b47f79e711f01e96a495545c2a4651b5c974ae9cd682ac5",
    (134, 3, "2/3"): "5afb543d00559c45914b0dbfdd23dc9c524e93bd810035728a29f2576b27fe0e",
    (134, 4, "1/2"): "eaa03020e566c3d21ab81c5f8736ee41ae84ca2839cea460e88a09bfb0ad9f82",
    (134, 4, "2/3"): "867db8be3b5eb9b5a2bb87f794a744d1c7f0fa2e1ec6bf776f5c5b95ffec8829",
    (179, 3, "1/2"): "71cf84827c62f99feedd5ed99f6107aaca4f5dc785cac0267c88999ea86d1e00",
    (179, 3, "2/3"): "1fe6a908a95f6f70933635c638fa88ac26b17a6901ec4432b257a62dd540cd54",
    (179, 4, "1/2"): "9eb99c0c3a730688f189a6665f138720a401a98e7c1402b558ff4a8dc880b9eb",
    (179, 4, "2/3"): "233e6ad364aa7ae36d7f54a11797030fabb90da6aa587c9c1ce52e5e94d2eb1a",
    (185, 3, "1/2"): "9e6752f09895f37a45cdb7d050971eb3cea7c25331b1d7981802411a2a48dadd",
    (185, 3, "2/3"): "2ab58f28e28d935f08e258f0bbfb0d5168d27244d438c7df20065a4220856a09",
    (185, 4, "1/2"): "78e74dbd5463b483e40ec5ae7c5e9ead12a0fc9ab8313fb61ee7eb7d5b59159f",
    (185, 4, "2/3"): "eaabf1668fc3c0b29d8c1a6c992a2a7a68d17128cf034ab7ff214366dac51d4d",
    (290, 3, "1/2"): "bf5cb2d946409b7d512136327ba6f31aafce0265d168f81260b2cb12c6935e8b",
    (290, 3, "2/3"): "98198dc76ddb96154d6fd1c3d73681704fe1b7921ce1783be158a8a69b493ddf",
    (290, 4, "1/2"): "886d60e6e1c0006197ef2ee321eb5d24bcc6e8d7c461db339df1e99f2d9cba3d",
    (290, 4, "2/3"): "6140c5553216163a620874a835067e2a7b95dfde08be0dc0734782f39dd5cddc",
}


def fixed_sub(bundle):
    return SubAction(bundle.graph.order, calibrated_fixed_point(bundle), "user-supplied")


def calibrated_family(b, rng):
    """The fixed point, the dominant member of every component and one
    member from random boundary data in the constraint polytope."""
    family = [fixed_sub(b)]
    for i in range(len(b.components)):
        family.append(dominant_calibrated(i, Fraction(rng.randint(-3, 3)), b))
    poly = constraint_polytope(b)
    r = len(poly.representatives)
    c = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
    bd = tuple(min(c[l] + poly.matrix[l][i] for l in range(r)) for i in range(r))
    family.append(calibrated_from_boundary(bd, b))
    return family


class TestCalibratedFromBoundary:
    def test_e2_zero_boundary(self, e2_bundle):
        u = calibrated_from_boundary((Fraction(0), Fraction(0)), e2_bundle)
        assert u.values == (0, 1, 0)
        assert u.provenance == "calibrated-from-boundary"

    def test_e2_shifted_boundary(self, e2_bundle):
        u = calibrated_from_boundary((Fraction(0), Fraction(1)), e2_bundle)
        assert u.values == (0, 1, 1)

    def test_outputs_are_lax_oleinik_fixed_points(self, corpus_bundles):
        rng = random.Random(11)
        for b in corpus_bundles:
            poly = constraint_polytope(b)
            r = len(poly.representatives)
            c = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
            bd = tuple(min(c[l] + poly.matrix[l][i] for l in range(r))
                       for i in range(r))
            u = calibrated_from_boundary(bd, b)
            assert lax_oleinik_step(u.values, b.graph, b.weights, b.abar) == u.values

    def test_representation_closure(self, corpus_bundles):
        # a calibrated sub-action is recovered from its boundary restriction
        for b in corpus_bundles:
            u = calibrated_fixed_point(b)
            bd = tuple(u[i] for i in b.representatives)
            rebuilt = calibrated_from_boundary(bd, b)
            assert rebuilt.values == u


class TestDominant:
    def test_e2_both_components(self, e2_bundle):
        crit = e2_bundle
        assert dominant_calibrated(0, Fraction(0), crit).values == (0, 1, 1)
        assert dominant_calibrated(1, Fraction(0), crit).values == (1, 1, 0)
        assert dominant_calibrated(0, Fraction(2), crit).values == (2, 3, 3)

    def test_provenance(self, e2_bundle):
        u = dominant_calibrated(0, Fraction(0), e2_bundle)
        assert u.provenance == "dominant"

    def test_single_component_instance(self, e1_bundle):
        u = dominant_calibrated(0, Fraction(0), e1_bundle)
        assert u.values == (0, 0)

    def test_index_past_the_last_component_is_refused(self, e1_bundle, e2_bundle):
        # one past the end is a ValueError (exit 3), not an IndexError
        for b in (e1_bundle, e2_bundle):
            k = len(b.representatives)
            with pytest.raises(ValueError, match=rf"^component index {k} out of range "
                                                 rf"0\.\.{k - 1}$"):
                dominant_calibrated(k, Fraction(0), b)

    def test_matches_boundary_construction_on_corpus(self, corpus_bundles):
        for b in corpus_bundles[:60]:
            h = barrier_matrices(b).h
            for i0 in range(len(b.components)):
                direct = dominant_calibrated(i0, Fraction(1), b)
                reps = b.representatives
                bd = tuple(Fraction(1) + h[reps[i0]][r] for r in reps)
                assert direct.values == calibrated_from_boundary(bd, b).values
                # the dense-h formula for the dominant row
                assert direct.values == tuple(Fraction(1) + v for v in h[reps[i0]])


class TestContactLocus:
    def test_e1_fixed_point(self, e1_bundle):
        u = fixed_sub(e1_bundle)
        contact = contact_locus(u, e1_bundle)
        assert contact.tight_words == ((0, 0), (0, 1))

    def test_contains_critical_edges_for_any_subaction(self, corpus_bundles):
        for b in corpus_bundles[:60]:
            u = fixed_sub(b)
            contact = contact_locus(u, b)
            assert set(b.critical_edges) <= set(contact.tight_edges)

    def test_rejects_non_subaction(self, e1_bundle):
        bad = SubAction(1, (Fraction(0), Fraction(9)), "user-supplied")
        with pytest.raises(NotASubAction, match=r"^edge \(0, 1\) has negative slack -9$"):
            contact_locus(bad, e1_bundle)

    def test_lifted_sub_action_is_read_at_its_depth(self, corpus_bundles):
        # the fixed point lifted through `base` gives each lifted edge the
        # slack of its base edge, so the tight edges are those over tight
        # base edges, and verify reads the same words
        for b in corpus_bundles[:40]:
            crit, depth = b, b.graph.order + 1
            _, edge_base, _, _, base = lift_critical(crit, depth)
            u = SubAction(depth, tuple(map(calibrated_fixed_point(b).__getitem__, base)),
                          "user-supplied")
            tight_base = set(contact_locus(fixed_sub(b), crit).tight_edges)
            contact = contact_locus(u, crit)
            assert contact.depth == depth
            assert set(contact.tight_edges) == {
                k for k, e in enumerate(edge_base) if e in tight_base}
            assert contact.tight_words == verify(u, crit).tight_words

    def test_rejects_a_depth_below_the_graph_order(self, e1_bundle):
        with pytest.raises(ValueError, match="cannot lower order 1 to 0"):
            contact_locus(SubAction(0, (Fraction(0),), "user-supplied"), e1_bundle)


@pytest.mark.parametrize("check", ["verify", "contact_locus", "gap_analysis", "normalize"])
def test_one_value_short_is_refused(e2_bundle, check):
    # one shape check, in `subactions._scaled_costs`, serves every
    # sub-action check, `normalize` too
    u = fixed_sub(e2_bundle)
    short = SubAction(u.depth, u.values[:-1], "user-supplied")
    calls = {
        "verify": lambda: verify(short, e2_bundle),
        "contact_locus": lambda: contact_locus(short, e2_bundle),
        "gap_analysis": lambda: gap_analysis(u, short, e2_bundle),
        "normalize": lambda: normalize(short, e2_bundle),
    }
    with pytest.raises(IncompatibleOrder, match="expected 3 node values, got 2"):
        calls[check]()


class TestVerify:
    def test_e1_fixed_point_verdict(self, e1_bundle):
        v = verify(fixed_sub(e1_bundle), e1_bundle)
        assert v.is_subaction and v.is_calibrated
        assert not v.separating_certificate
        assert v.critical_containment
        assert v.tight_words == ((0, 0), (0, 1))
        assert v.noncritical_tight_words == ((0, 1),)

    def test_non_subaction_reports_instead_of_raising(self, e1_bundle):
        bad = SubAction(1, (Fraction(0), Fraction(9)), "user-supplied")
        v = verify(bad, e1_bundle)
        assert not v.is_subaction and not v.is_calibrated

    def test_deeper_subaction(self, e1_bundle):
        sub, _ = separating_subaction(e1_bundle, 2)
        v = verify(sub, e1_bundle)
        assert v.is_subaction and v.separating_certificate and v.critical_containment
        assert v.tight_words == ((0, 0, 0),)


class TestCalibration:
    def test_backward_orbits_reach_the_attaining_component(self, corpus_bundles):
        # walking back from x along zero-slack in-edges reaches a critical
        # component i with u(x) = u(x_i) + h(x_i, x)
        rng = random.Random(53)
        for b in corpus_bundles:
            g, crit = b.graph, b
            for u in calibrated_family(b, rng):
                tight = set(contact_locus(u, crit).tight_edges)
                for x in range(g.n_nodes):
                    y = x
                    for _ in range(g.n_nodes):
                        if crit.node_component[y] is not None:
                            break
                        y = g.tails[min(k for k in g.in_edges[y] if k in tight)]
                    i = crit.node_component[y]
                    assert i is not None
                    rep = crit.components[i].representative
                    assert u.values[x] == u.values[rep] + crit.rows[i][x]

    def test_zero_in_slack_rule_matches_lax_oleinik(self, corpus_bundles):
        rng = random.Random(59)
        seen = set()
        for b in corpus_bundles[:40]:
            depth = b.graph.order + 1
            lifted, edge_base, _, _, base = lift_critical(b, depth)
            lw = tuple(map(b.weights.__getitem__, edge_base))
            family = calibrated_family(b, rng)
            sep, _ = separating_subaction(b, depth)
            deep = SubAction(depth, tuple(map(calibrated_fixed_point(b).__getitem__, base)),
                             "user-supplied")
            g = b.graph
            k = next(k for k in range(g.n_edges) if g.tails[k] != g.heads[k])
            bad = list(calibrated_fixed_point(b))
            bad[g.heads[k]] = bad[g.tails[k]] + b.weights[k] - b.abar + 1
            cases = [
                *family, sep,
                convex_combination([family[0], family[-1]],
                                   [Fraction(1, 3), Fraction(2, 3)]),
                convex_combination([deep, sep], [Fraction(1, 2), Fraction(1, 2)]),
                SubAction(b.graph.order, tuple(bad), "user-supplied"),
            ]
            for u in cases:
                g, w = (lifted, lw) if u.depth == depth else (b.graph, b.weights)
                v = verify(u, b)
                fixed = lax_oleinik_step(u.values, g, w, b.abar) == u.values
                assert v.is_calibrated == (v.is_subaction and fixed)
                seen.add((v.is_subaction, v.is_calibrated))
                if v.is_subaction and not v.is_calibrated:
                    with pytest.raises(NotCalibrated):
                        gap_analysis(u, u, b)
        assert seen == {(True, True), (True, False), (False, False)}


class TestSeparating:
    def test_e1_depth_2(self, e1_bundle):
        sub, cert = separating_subaction(e1_bundle, 2)
        assert cert.ok and cert.depth == 2 and cert.gamma == Fraction(1, 2)
        assert cert.tight_words == ((0, 0, 0),)
        assert cert.residual_words == ()
        assert sub.depth == 2 and sub.provenance == "separating"

    def test_e2_depth_2(self, e2_bundle):
        _, cert = separating_subaction(e2_bundle, 2)
        assert cert.tight_words == ((0, 0, 0), (2, 2, 2))

    def test_golden_depth_2(self, golden_bundle):
        _, cert = separating_subaction(golden_bundle, 2)
        assert cert.tight_words == ((0, 1, 0), (1, 0, 1))

    def test_gamma_validation(self, e1_bundle):
        for gamma in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                separating_subaction(e1_bundle, 2, gamma=gamma)

    def test_depth_validation(self, e1_bundle):
        with pytest.raises(ValueError):
            separating_subaction(e1_bundle, 0)

    def test_gamma_scales_values_not_tightness(self, e2_bundle):
        _, cert_half = separating_subaction(e2_bundle, 2)
        _, cert_tenth = separating_subaction(e2_bundle, 2, gamma=Fraction(1, 10))
        assert cert_half.tight_words == cert_tenth.tight_words

    @pytest.mark.parametrize("seed, depth, gamma", sorted(TWO_PASS_DIGESTS))
    def test_two_pass_outputs_are_pinned(self, seed, depth, gamma):
        rng = random.Random(seed)
        inst = (random_two_sided if rng.random() < 0.25 else random_instance)(rng)
        b = solve_instance(inst)
        sub, cert = separating_subaction(b, depth, Fraction(gamma))
        assert cert.passes == 2
        digest = hashlib.sha256(repr((sub.values, cert)).encode()).hexdigest()
        assert digest == TWO_PASS_DIGESTS[seed, depth, gamma]

    @given(irreducible_systems(), st.integers(1, 3), st.sampled_from((0, 1, 2)),
           st.randoms(use_true_random=False))
    def test_tie_heavy_systems_are_certified(self, sft, m, top, rng):
        # weights drawn from 0..top tie many cycles at abar, where a pass
        # is most likely to stall; the tight words must still be exactly
        # the critical words of the lifted system
        assume(count_words(sft, m, 60) <= 60)
        entries = {w: rng.randint(0, top) for w in admissible_words(sft, m)}
        b = solve_instance(build_one_sided(sft, m, entries))
        for depth in (b.graph.order, b.graph.order + 1):
            lifted, lw = lift_to(b.graph, b.weights, depth)
            critical = critical_structure(lifted, lw).critical_edges
            for gamma in (Fraction(1, 2), Fraction(2, 3)):
                _, cert = separating_subaction(b, depth, gamma)
                assert cert.ok and cert.residual_words == ()
                assert cert.tight_words == tuple(map(lifted.edge_word, critical))

    def test_result_is_a_subaction_at_depth(self, corpus_bundles):
        for b in corpus_bundles[:40]:
            n = b.graph.n_nodes
            sub, cert = separating_subaction(b, n + 2)
            v = verify(sub, b)
            assert v.is_subaction
            assert v.separating_certificate
            assert set(cert.tight_words) == set(v.tight_words)


def carried(b, depth):
    """Word -> component of the lifted nodes and of the lifted edges at
    `depth`, as carried up from the base."""
    lifted, _, nodes, edges, _ = lift_critical(b, depth)
    words = WordGraph(lifted.sft, lifted.order)
    return (dict(zip(words.nodes, nodes)),
            {e.word: c for e, c in zip(words.edges, edges)})


class TestItineraryComponent:
    """A word lies in component c when every base window of it is a
    critical edge of c; the carried tables say which."""

    def test_node_length_words(self, e2_bundle):
        nodes, _ = carried(e2_bundle, 1)
        assert nodes[(0,)] == 0
        assert nodes[(1,)] is None
        assert nodes[(2,)] == 1

    def test_longer_words(self, e2_bundle, golden_bundle):
        nodes, edges = carried(e2_bundle, 1)
        assert edges[(2, 2)] == 1
        assert edges[(0, 2)] is None
        nodes, _ = carried(e2_bundle, 3)
        assert nodes[(0, 0, 0)] == 0
        nodes, _ = carried(golden_bundle, 3)
        assert nodes[(0, 1, 0)] == 0
        assert nodes[(0, 0, 1)] is None


def check_label_views(crit):
    """The critical edges, nodes and components of `crit` are its labels
    read back: the labelled indices in ascending order, and component i
    the nodes and edges labelled i, numbered by smallest node."""
    assert crit.critical_edges == tuple(
        k for k, c in enumerate(crit.edge_component) if c is not None)
    assert crit.critical_nodes == tuple(
        v for v, c in enumerate(crit.node_component) if c is not None)
    for i, comp in enumerate(crit.components):
        assert comp.index == i
        assert comp.nodes == tuple(v for v, c in enumerate(crit.node_component) if c == i)
        assert comp.edges == tuple(k for k, c in enumerate(crit.edge_component) if c == i)
        assert comp.representative == min(comp.nodes)
    reps = crit.representatives
    assert list(reps) == sorted(reps) and len(reps) == len(crit.rows)


class TestLiftCritical:
    def test_matches_the_critical_structure_of_the_lift(
            self, corpus_bundles, two_sided_bundles, multi_component_bundles,
            e1_bundle, e2_bundle, golden_bundle):
        """The carried components equal those of a fresh zero-cycle pass
        on the lifted graph, index for index; the systems with two or
        more components are where a label mix-up shows."""
        bundles = [*corpus_bundles, *two_sided_bundles, *multi_component_bundles,
                   e1_bundle, e2_bundle, golden_bundle]
        lifts = 0
        for b in bundles:
            check_label_views(b)
            for depth in range(b.graph.order, b.graph.order + 4):
                if count_words(b.graph.sft, depth, 400) > 400:
                    break
                lifted, edge_base, nodes, edges, _ = lift_critical(b, depth)
                lw = tuple(map(b.weights.__getitem__, edge_base))
                fresh = critical_structure(lifted, lw)
                assert nodes == fresh.node_component
                assert edges == fresh.edge_component
                check_label_views(fresh)
                lifts += 1
        assert lifts > len(bundles)

    @given(irreducible_systems(), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_lift_by_its_definition(self, sft, m, rng):
        # word by word, without the solver's zero-cycle pass on the lift:
        # each lifted edge's word begins with its base edge, and a lifted
        # word lies in component c exactly when every (r+1)-window of it is
        # a critical base edge of c (at the base depth, a node keeps its own)
        assume(count_words(sft, m, 60) <= 60)
        entries = {w: rng.randint(0, 2) for w in admissible_words(sft, m)}
        crit = solve_instance(build_one_sided(sft, m, entries))
        g, r = WordGraph(crit.graph.sft, crit.graph.order), crit.graph.order

        def component(word):
            if len(word) == r:
                return crit.node_component[g.node_index(word)]
            found = {crit.edge_component[g.edge_index(word[i:i + r + 1])]
                     for i in range(len(word) - r)}
            return found.pop() if len(found) == 1 else None

        for depth in range(r, r + 4):
            if count_words(sft, depth + 1, 2000) > 2000:
                break
            lifted, edge_base, nodes, edges, _ = lift_critical(crit, depth)
            assert nodes == tuple(map(component, WordGraph(sft, depth).nodes))
            for k in range(lifted.n_edges):
                word = lifted.edge_word(k)
                assert g.edge_index(word[:r + 1]) == edge_base[k]
                assert edges[k] == component(word)

    @given(st.integers(0, 10**6), st.integers(0, 3))
    def test_base_node_of_every_lifted_node(self, seed, extra):
        b = solve_instance(random_instance(random.Random(seed)))
        depth = b.graph.order + extra
        assume(count_words(b.graph.sft, depth, 2000) <= 2000)
        lifted, _, _, _, base = lift_critical(b, depth)
        g = WordGraph(b.graph.sft, b.graph.order)
        assert list(base) == [g.node_index(w[:g.order])
                              for w in WordGraph(lifted.sft, lifted.order).nodes]

    def test_one_budget_check_for_a_deep_lift(self, monkeypatch):
        # a single cycle has two words at every length; counting them
        # once per level made the lift quadratic in the depth
        sft = build_sft(2, [[0, 1], [1, 0]], Fraction(1, 2))
        b = solve_instance(build_one_sided(sft, 2, {(0, 1): 0, (1, 0): 1}))
        calls = []
        count = symbolic.count_words
        monkeypatch.setattr(symbolic, "count_words",
                            lambda *args: calls.append(args) or count(*args))
        lifted, _, nodes, edges, base = lift_critical(b, 1024)
        assert (lifted.order, lifted.n_nodes, lifted.n_edges) == (1024, 2, 2)
        assert nodes == (0, 0) and edges == (0, 0) and list(base) == [0, 1]
        assert len(calls) <= 2

    def test_base_map_carries_values_by_prefix(self):
        sft = build_sft(2, [[1, 1], [1, 1]], Fraction(1, 2))
        b = solve_instance(build_one_sided(sft, 1, {(0,): 0, (1,): 1}))
        base = lift_critical(b, 2)[4]
        values = (Fraction(5), Fraction(7))
        assert tuple(values[i] for i in base) == (
            Fraction(5), Fraction(5), Fraction(7), Fraction(7),
        )

    def test_node_budget_reaches_the_lift(self, e1_bundle):
        # 2**11 admissible 11-words on the full 2-shift: the budget is
        # checked by the lift itself, before any pass runs
        b = e1_bundle
        assert lift_critical(b, 11, 2**11)[0].n_nodes == 2**11
        sep, cert = separating_subaction(b, 11, node_budget=2**11)
        assert cert.ok
        assert verify(sep, b, node_budget=2**11).separating_certificate
        for refuse in (
                lambda: lift_critical(b, 11, 2**11 - 1),
                lambda: separating_subaction(b, 11, node_budget=2**11 - 1),
                lambda: verify(sep, b, node_budget=2**11 - 1)):
            with pytest.raises(BudgetExceeded, match="node budget of 2047"):
                refuse()

    def test_rejects_lower_order(self, e2_bundle):
        b = e2_bundle
        lifted, lw = lift_to(b.graph, b.weights, 2)
        crit = critical_structure(lifted, lw)
        with pytest.raises(ValueError, match="cannot lower order 2 to 1"):
            lift_critical(crit, 1)


def parity_cases(corpus_bundles, cap=300, lowest=1):
    """(bundle, depth) for AC-5's corpus and the instance files at depths
    order+`lowest` to order+3, while the lift has at most `cap` nodes."""
    files = [solve_instance(load_instance(path))
             for path in sorted(INSTANCE_DIR.glob("*.json"))]
    for b in [*corpus_bundles, *files]:
        for depth in range(b.graph.order + lowest, b.graph.order + 4):
            if count_words(b.graph.sft, depth, cap) > cap:
                break
            yield b, depth


def explicit(crit, depth):
    """The lift to `depth` as `lift_critical` builds it, slacks per edge."""
    return _EdgeLift(crit, lift_critical(crit, depth))


class TestParentHeldLift:
    """Above the graph order, `separating_subaction` and `verify` hold the
    lift by the graph one order below; the per-edge pass on the explicit
    lift of `lift_critical` is their slow check."""

    def test_separating_matches_the_per_edge_pass(self, corpus_bundles):
        cases = 0
        for b, depth in parity_cases(corpus_bundles):
            for gamma in (Fraction(1, 2), Fraction(2, 3)):
                got = separating_subaction(b, depth, gamma)
                assert got == _separate(explicit(b, depth), gamma)
            cases += 1
        assert cases > 400

    def test_members_match_the_per_edge_pass(self, corpus_bundles):
        # at depth order+1, P is the graph itself and the edges of one
        # out-block may cost differently; higher up each out-block has one
        # cost and the forward minima are taken per range of heads
        cases = 0
        for b, depth in parity_cases(corpus_bundles):
            node = _NodeLift(b, _parent_lift(b, depth, DEFAULT_NODE_BUDGET))
            edge = explicit(b, depth)
            fixed = list(map(calibrated_fixed_point(b).__getitem__, node.base))
            for lift in (node, edge):
                lift.read(fixed)
            assert node.members() == edge.members()
            for lift in (node, edge):
                lift.average(Fraction(1, 2))
                lift.scan()
            assert node.values == edge.values
            assert node.members() == edge.members()
            cases += 1
        assert cases > 400

    def test_verify_matches_the_per_edge_pass(self, corpus_bundles):
        # beside the separating and the lifted fixed point, two inputs that
        # are not sub-actions: one lifted node V gets a zero-slack edge
        # V -> x and, in the same out-block, a negative one V -> y, which a
        # scan of the block tops alone would miss; and a random nudge
        rng = random.Random(71)
        beside = 0
        for b, depth in parity_cases(corpus_bundles):
            crit = b
            lifted, edge_base, _, _, base = lift_critical(crit, depth)
            sep, _ = separating_subaction(crit, depth)
            fixed = list(map(calibrated_fixed_point(b).__getitem__, base))
            cases = [sep.values, fixed,
                     [x + rng.choice((0, 0, 0, Fraction(1, 2), -1)) for x in sep.values]]
            for v in range(lifted.n_nodes):
                ks = [k for k in lifted.out_edges[v] if lifted.heads[k] != v]
                if len(ks) >= 2:
                    x, y = lifted.heads[ks[0]], lifted.heads[ks[1]]
                    values = list(fixed)
                    values[x] = values[v] + crit.weights[edge_base[ks[0]]] - crit.abar
                    values[y] = values[x] + 1
                    cases.append(values)
                    break
            for values in cases:
                got = verify(SubAction(depth, tuple(values), "user-supplied"), crit)
                assert got == _verdict(explicit(crit, depth), values)
            if len(cases) == 4:
                assert not got.is_subaction
                assert lifted.edge_word(ks[0]) in got.tight_words
                beside += 1
        assert beside > 300

    def test_no_graph_at_the_depth_is_built(self, e2_bundle, monkeypatch):
        crit, orders = e2_bundle, []
        line_graph = DeBruijnGraph.line_graph
        monkeypatch.setattr(DeBruijnGraph, "line_graph",
                            lambda g: orders.append(g.order + 1) or line_graph(g))
        lifted, _, _, _, base = lift_critical(crit, 6)
        assert lifted.order == 6 and orders == [2, 3, 4, 5, 6]
        orders.clear()
        fixed = SubAction(6, tuple(map(calibrated_fixed_point(e2_bundle).__getitem__, base)),
                          "user-supplied")
        sub, cert = separating_subaction(crit, 6)
        assert cert.ok and verify(sub, crit).separating_certificate
        assert contact_locus(sub, crit).tight_words == cert.tight_words
        report = gap_analysis(fixed, sub, crit)
        assert min(report.component_constants) == report.minimum
        assert orders and max(orders) == 5

    def test_budget_is_checked_before_any_graph_is_built(self, e2_bundle, monkeypatch):
        built = []
        monkeypatch.setattr(DeBruijnGraph, "line_graph", lambda g: built.append(g))
        crit, words = e2_bundle, 3 ** 6
        u = SubAction(6, (Fraction(0),) * words, "user-supplied")
        for refuse in (lambda: separating_subaction(crit, 6, node_budget=words - 1),
                       lambda: verify(u, crit, node_budget=words - 1),
                       lambda: lift_critical(crit, 6, words - 1)):
            with pytest.raises(BudgetExceeded, match=f"node budget of {words - 1}"):
                refuse()
        assert built == []

    def test_a_wrong_value_count_is_refused(self, e2_bundle):
        for depth in (2, 4):
            n = 3 ** depth
            for count in (n - 1, n + 1):
                u = SubAction(depth, (Fraction(0),) * count, "user-supplied")
                with pytest.raises(IncompatibleOrder,
                                   match=f"expected {n} node values, got {count}"):
                    verify(u, e2_bundle)


def outcome(call, *args):
    """What `call` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except (ValueError, NotASubAction, NotCalibrated) as exc:
        return type(exc), str(exc)


def reference_slacks(crit, explicit):
    """u -> the slack of each edge of `explicit`, `lift_critical`'s lift
    to u's depth, in Fractions; each u's slacks are computed once."""
    lifted, edge_base, _, _, _ = explicit
    costs = [w - crit.abar for w in crit.weights]

    @functools.cache
    def slacks(u):
        if len(u.values) != lifted.n_nodes:
            raise IncompatibleOrder(
                f"expected {lifted.n_nodes} node values, got {len(u.values)}")
        x = u.values
        return [costs[e] - x[h] + x[t] for e, t, h in zip(edge_base, lifted.tails, lifted.heads)]
    return slacks


def reference_contact(u, explicit, slacks):
    """`contact_locus`, slack by slack on `lift_critical`'s lift."""
    lifted = explicit[0]
    for k, s in enumerate(slacks(u)):
        if s < 0:
            raise NotASubAction(f"edge {lifted.edge_word(k)} has negative slack {s}")
    tight = tuple(k for k, s in enumerate(slacks(u)) if s == 0)
    return ContactSet(u.depth, tight, tuple(map(lifted.edge_word, tight)))


def reference_gap(u, v, crit, explicit, slacks):
    """`gap_analysis`, slack by slack on `lift_critical`'s lift: u is
    calibrated when every lifted node is the head of a zero-slack edge."""
    if u.depth != v.depth:
        raise IncompatibleOrder(f"depths differ: {u.depth} vs {v.depth}")
    lifted, nodes = explicit[0], explicit[2]
    for name, sub in (("u", u), ("v", v)):
        try:
            reference_contact(sub, explicit, slacks)
        except NotASubAction as exc:
            raise NotASubAction(f"{name} violates the sub-action inequality: {exc}") from None
    if {h for s, h in zip(slacks(u), lifted.heads) if s == 0} != set(range(lifted.n_nodes)):
        raise NotCalibrated("u is not a fixed point of the one-step minimum")
    diff = [a - b for a, b in zip(u.values, v.values)]
    constants = tuple(min(d for d, c in zip(diff, nodes) if c == i)
                      for i in range(len(crit.components)))
    minimum = min(diff)
    return GapReport(constants, minimum, tuple(n for n, d in enumerate(diff) if d == minimum),
                     constants.index(min(constants)))


class TestOneSlackReader:
    """`contact_locus` and `gap_analysis` run on the lift `verify` and
    `separating_subaction` use; slack by slack on the explicit lift of
    `lift_critical` is their reference."""

    def test_matches_the_explicit_lift(self, corpus_bundles):
        rng = random.Random(83)
        kinds, cases = set(), 0
        for b, depth in parity_cases(corpus_bundles, lowest=0):
            crit = b
            explicit = lift_critical(crit, depth)
            lifted, edge_base, _, _, base = explicit
            slacks = reference_slacks(crit, explicit)
            fixed = SubAction(depth, tuple(map(calibrated_fixed_point(b).__getitem__, base)),
                              "user-supplied")
            sep, _ = separating_subaction(crit, depth)
            nudged = tuple(x + rng.choice((0, 0, 0, Fraction(1, 2), -1)) for x in sep.values)
            subs = [fixed, sep, SubAction(depth, nudged, "user-supplied")]
            # a zero-slack edge V -> x beside a negative one V -> y in V's
            # out-block, the first negative edge in lifted edge order
            for v in range(lifted.n_nodes):
                ks = [k for k in lifted.out_edges[v] if lifted.heads[k] != v]
                if len(ks) >= 2:
                    x, y = lifted.heads[ks[0]], lifted.heads[ks[1]]
                    values = list(fixed.values)
                    values[x] = values[v] + crit.weights[edge_base[ks[0]]] - crit.abar
                    values[y] = values[x] + 1
                    subs.append(SubAction(depth, tuple(values), "user-supplied"))
                    break
            for u in subs:
                got = outcome(contact_locus, u, crit)
                assert got == outcome(reference_contact, u, explicit, slacks)
                kinds.add(type(got) if isinstance(got, ContactSet) else got[0])
                for pair in ((fixed, u), (u, fixed), (u, u)):
                    got = outcome(gap_analysis, *pair, crit)
                    assert got == outcome(reference_gap, *pair, crit, explicit, slacks)
                    kinds.add(type(got) if isinstance(got, GapReport) else got[0])
            cases += 1
        assert cases > 500
        assert kinds == {ContactSet, GapReport, NotASubAction, NotCalibrated}

    def test_normalize_matches_the_explicit_lift(self, corpus_bundles):
        # at the graph order `normalize` reads the same slacks: its table is
        # the reference slack of every edge, in edge order, and it names the
        # first negative edge as `contact_locus` does
        rng = random.Random(89)
        kinds, cases = set(), 0
        for b, depth in parity_cases(corpus_bundles, lowest=0):
            if depth != b.graph.order:
                continue
            crit = b
            explicit = lift_critical(crit, depth)
            lifted = explicit[0]
            slacks = reference_slacks(crit, explicit)
            sep, _ = separating_subaction(crit, depth)
            nudged = tuple(x + rng.choice((0, 0, 0, Fraction(1, 2), -1)) for x in sep.values)
            for u in (fixed_sub(b), sep, SubAction(depth, nudged, "user-supplied")):
                got = outcome(normalize, u, crit)
                want = outcome(reference_contact, u, explicit, slacks)
                if isinstance(want, ContactSet):
                    assert isinstance(got, OneSidedPotential) and got.range == depth + 1
                    assert list(got.table.items()) == list(
                        zip(map(lifted.edge_word, range(lifted.n_edges)), slacks(u)))
                    kinds.add(OneSidedPotential)
                else:
                    assert got == (NotASubAction, want[1].replace(
                        "negative slack", "negative normalized weight"))
                    kinds.add(NotASubAction)
            cases += 1
        assert cases > 200
        assert kinds == {OneSidedPotential, NotASubAction}

    def test_wrong_value_counts_match_the_explicit_lift(self, e2_bundle):
        crit = e2_bundle
        for depth in (1, 2, 4):
            explicit = lift_critical(crit, depth)
            slacks = reference_slacks(crit, explicit)
            good = SubAction(depth, (Fraction(0),) * 3 ** depth, "user-supplied")
            short = SubAction(depth, (Fraction(0),) * (3 ** depth - 1), "user-supplied")
            for call, ref in (
                    (lambda: contact_locus(short, crit),
                     lambda: reference_contact(short, explicit, slacks)),
                    (lambda: gap_analysis(short, good, crit),
                     lambda: reference_gap(short, good, crit, explicit, slacks)),
                    (lambda: gap_analysis(good, short, crit),
                     lambda: reference_gap(good, short, crit, explicit, slacks))):
                with pytest.raises(IncompatibleOrder) as got:
                    call()
                with pytest.raises(IncompatibleOrder) as want:
                    ref()
                assert str(got.value) == str(want.value)


class TestConvexCombination:
    def test_coefficient_validation(self, e1_bundle):
        u = fixed_sub(e1_bundle)
        with pytest.raises(ValueError):
            convex_combination([u, u], [Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(ValueError):
            convex_combination([u, u], [Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(IncompatibleOrder):
            convex_combination(
                [u, SubAction(2, (Fraction(0),) * 4, "user-supplied")],
                [Fraction(1, 2), Fraction(1, 2)],
            )

    def test_value_counts_must_match(self):
        two = SubAction(2, (Fraction(0), Fraction(1)), "user-supplied")
        four = SubAction(2, (Fraction(0),) * 4, "user-supplied")
        for pair in ((two, four), (four, two)):
            with pytest.raises(IncompatibleOrder, match="equal value counts"):
                convex_combination(pair, [Fraction(1, 2), Fraction(1, 2)])

    def test_tight_set_is_intersection(self, corpus_bundles):
        rng = random.Random(31)
        for b in corpus_bundles[:60]:
            poly = constraint_polytope(b)
            r = len(poly.representatives)
            c = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
            bd = tuple(min(c[l] + poly.matrix[l][i] for l in range(r))
                       for i in range(r))
            u1 = fixed_sub(b)
            u2 = calibrated_from_boundary(bd, b)
            mix = convex_combination([u1, u2], [Fraction(1, 3), Fraction(2, 3)])
            t1 = set(contact_locus(u1, b).tight_edges)
            t2 = set(contact_locus(u2, b).tight_edges)
            tm = set(contact_locus(mix, b).tight_edges)
            assert tm == t1 & t2


class TestGapAnalysis:
    def test_e2_constants_and_location(self, e2_bundle):
        u = calibrated_from_boundary((Fraction(0), Fraction(1)), e2_bundle)
        v = fixed_sub(e2_bundle)
        report = gap_analysis(u, v, e2_bundle)
        assert report.component_constants == (0, 1)
        assert report.minimum == 0
        assert report.argmin_nodes == (0, 1)
        assert report.attained_component == 0

    def test_names_the_first_negative_edge(self, e1_bundle):
        fixed = fixed_sub(e1_bundle)
        bad = SubAction(1, (Fraction(0), Fraction(5)), "user-supplied")
        for pair, name in (((bad, fixed), "u"), ((fixed, bad), "v")):
            with pytest.raises(NotASubAction, match=rf"^{name} violates the sub-action "
                                                    r"inequality: edge \(0, 1\) has "
                                                    r"negative slack -5$"):
                gap_analysis(*pair, e1_bundle)

    def test_rejects_uncalibrated_u(self, e1_bundle):
        sep, _ = separating_subaction(e1_bundle, 1)
        with pytest.raises(NotCalibrated):
            gap_analysis(sep, sep, e1_bundle)

    def test_rejects_depth_mismatch(self, e1_bundle):
        u = fixed_sub(e1_bundle)
        v = SubAction(2, (Fraction(0),) * 4, "user-supplied")
        with pytest.raises(IncompatibleOrder):
            gap_analysis(u, v, e1_bundle)

    def test_calibrated_minus_fixed_point_on_corpus(self, corpus_bundles):
        rng = random.Random(47)
        for b in corpus_bundles[:60]:
            poly = constraint_polytope(b)
            r = len(poly.representatives)
            c = [Fraction(rng.randint(-3, 3)) for _ in range(r)]
            bd = tuple(min(c[l] + poly.matrix[l][i] for l in range(r))
                       for i in range(r))
            u = calibrated_from_boundary(bd, b)
            report = gap_analysis(u, fixed_sub(b), b)
            assert min(report.component_constants) == report.minimum

    def test_against_lifted_separating_candidate(self, e1_bundle):
        b = e1_bundle
        sep, _ = separating_subaction(b, 2)
        base = lift_critical(b, 2)[4]
        u = SubAction(2, tuple(map(calibrated_fixed_point(b).__getitem__, base)),
                      "user-supplied")
        report = gap_analysis(u, sep, b)
        assert min(report.component_constants) == report.minimum
