"""Construction and verification of sub-actions: the calibrated family
parametrized by boundary data on the critical components, the dominant
member, finite-depth separating sub-actions with their certificates,
contact loci, convex combinations, and the u - v gap analysis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    IncompatibleOrder,
    InternalError,
    NotASubAction,
    NotCalibrated,
    NotInConstraintSet,
)
from .symbolic import DEFAULT_NODE_BUDGET, Word, check_budget
from .tropical import (
    CriticalStructure,
    _path_minima,
    _slacks,
    _unscale,
    calibrated_fixed_point,
)


@dataclass(frozen=True)
class SubAction:
    """Node function at a fixed cylinder depth, with its origin tag."""

    depth: int
    values: tuple[Fraction, ...]
    provenance: str  # calibrated-from-boundary | dominant | separating | user-supplied


@dataclass(frozen=True)
class ContactSet:
    depth: int
    tight_edges: tuple[int, ...]
    tight_words: tuple[Word, ...]


@dataclass(frozen=True)
class Verdict:
    is_subaction: bool
    is_calibrated: bool
    separating_certificate: bool
    critical_containment: bool
    tight_words: tuple[Word, ...]
    noncritical_tight_words: tuple[Word, ...]


@dataclass(frozen=True)
class SeparatingCertificate:
    ok: bool
    depth: int
    gamma: Fraction
    passes: int
    tight_words: tuple[Word, ...]
    residual_words: tuple[Word, ...]


@dataclass(frozen=True)
class GapReport:
    component_constants: tuple[Fraction, ...]
    minimum: Fraction
    argmin_nodes: tuple[int, ...]
    min_on_critical: Fraction
    attained_component: int


def lift_critical(crit: CriticalStructure, depth: int,
                  node_budget: int = DEFAULT_NODE_BUDGET):
    """`(graph, edge_base, nodes, edges, base)`: the graph of `crit` at
    `depth`; for every lifted edge, the edge of `crit.graph` its word
    begins with (`edge_base`), whose weight it carries; the critical
    component of every lifted node and edge (None off the critical
    words); and the node of `crit.graph` each lifted node's word begins
    with (`base`). No weight is lifted: edge k weighs
    `crit.weights[edge_base[k]]`.

    One check against `node_budget`, then one line step per order: a
    lifted node is an edge one order down, so it keeps that edge's
    component and its tail's base node, and a lifted edge, starting with
    its tail, keeps its tail's base edge. A lifted edge joins two
    consecutive edges one order down and lies in component c when both
    do, that is, when every base window of its word is a critical edge
    of c. Only critical words have a component, so they are carried as
    (edge, component) pairs: each step marks the lifted nodes from the
    pairs and keeps the out-edges of a marked node whose head has its
    component.
    """
    graph, nodes = crit.graph, crit.node_component
    if depth < graph.order:
        raise ValueError(f"cannot lower order {graph.order} to {depth}")
    if depth > graph.order:
        check_budget(graph.sft, depth, node_budget)
    critical = list(crit.edge_component.items())
    edge_base: Sequence[int] = range(graph.n_edges)
    base: Sequence[int] = range(graph.n_nodes)
    while graph.order < depth:
        base = list(map(base.__getitem__, graph.tails))
        graph = graph.line_graph()
        edge_base = list(map(edge_base.__getitem__, graph.tails))
        nodes = [None] * graph.n_nodes
        for k, c in critical:
            nodes[k] = c
        heads = graph.heads
        critical = [(k, c) for v, c in critical
                    for k in graph.out_edges[v] if nodes[heads[k]] == c]
    edges: list[int | None] = [None] * graph.n_edges
    for k, c in critical:
        edges[k] = c
    return graph, edge_base, tuple(nodes), tuple(edges), base


def _calibrated(slacks: Sequence[int], graph) -> bool:
    """Given slacks >= 0, whether u is a Lax-Oleinik fixed point: (Lu)(j)
    is u(j) plus the least slack into j, so Lu = u exactly when every
    node is the head of a zero-slack edge, a backward step in the
    contact locus."""
    return len({h for s, h in zip(slacks, graph.heads) if s == 0}) == graph.n_nodes


def _tight_words(slacks: Sequence[int], graph, edge_comp):
    """The words of the zero-slack edges of `graph`, and those of them
    that lie in no critical component."""
    tight = [k for k, s in enumerate(slacks) if s == 0]
    words = tuple(map(graph.edge_word, tight))
    return words, tuple(w for w, k in zip(words, tight) if edge_comp[k] is None)


def calibrated_from_boundary(bd, crit: CriticalStructure) -> SubAction:
    """u(x) = min over components i of [u_i + h(rep_i, x)].

    Boundary data must satisfy the pairwise constraints
    u_j - u_i <= h(rep_i, rep_j); then u extends it, is calibrated, and
    restricting back to the representatives returns the data unchanged.
    """
    values = tuple(Fraction(v) for v in bd)
    reps, rows = crit.representatives, crit.rows
    if len(values) != len(reps):
        raise ValueError(f"expected {len(reps)} boundary values, got {len(values)}")
    for i in range(len(reps)):
        for j in range(len(reps)):
            if values[j] - values[i] > rows[i][reps[j]]:
                raise NotInConstraintSet(
                    f"boundary data violates u[{j}] - u[{i}] <= h(rep {i}, rep {j}) "
                    f"= {rows[i][reps[j]]}"
                )
    u = tuple(min(v + row[x] for v, row in zip(values, rows))
              for x in range(crit.graph.n_nodes))
    return SubAction(crit.graph.order, u, "calibrated-from-boundary")


def dominant_calibrated(i0: int, u_i0, crit: CriticalStructure) -> SubAction:
    """The unique calibrated sub-action whose boundary data is induced
    by component i0: u = u_i0 + h(rep_i0, .)."""
    reps, rows = crit.representatives, crit.rows
    if not 0 <= i0 < len(reps):
        raise ValueError(f"component index {i0} out of range 0..{len(reps) - 1}")
    u_i0 = Fraction(u_i0)
    bd = tuple(u_i0 + rows[i0][r] for r in reps)
    direct = tuple(u_i0 + v for v in rows[i0])
    rebuilt = calibrated_from_boundary(bd, crit)
    if rebuilt.values != direct:
        raise InternalError("dominant row disagrees with its boundary reconstruction")
    for i1 in range(len(reps)):
        if i1 == i0:
            continue
        if all(bd[j] == bd[i1] + rows[i1][reps[j]] for j in range(len(reps))):
            raise InternalError(
                f"component {i1} also reproduces the dominant boundary data; "
                "components cannot be disjoint"
            )
    return SubAction(crit.graph.order, direct, "dominant")


def contact_locus(u: SubAction, crit: CriticalStructure) -> ContactSet:
    """Edges of the graph of `crit`, lifted to u's depth (at least the
    graph order), where the sub-action inequality is an equality."""
    lifted, edge_base, _, _, _ = lift_critical(crit, u.depth)
    big, slacks = _slacks(u.values, lifted, crit.weights, crit.abar, edge_base)
    for k, s in enumerate(slacks):
        if s < 0:
            raise NotASubAction(
                f"edge {lifted.edge_word(k)} has negative slack {Fraction(s, big)}"
            )
    tight = tuple(k for k, s in enumerate(slacks) if s == 0)
    return ContactSet(u.depth, tight, tuple(map(lifted.edge_word, tight)))


def verify(u: SubAction, crit: CriticalStructure,
           node_budget: int = DEFAULT_NODE_BUDGET) -> Verdict:
    """Check the four defining predicates of u against the system of `crit`.

    Its graph is lifted to u's depth, refused past `node_budget`
    nodes; otherwise nothing raises, the verdicts just report. The slacks
    read each lifted edge's weight through `edge_base`, so only u's
    values are scaled at depth, never the lifted weights.
    """
    lifted, edge_base, _, edge_comp, _ = lift_critical(crit, u.depth, node_budget)
    _, slacks = _slacks(u.values, lifted, crit.weights, crit.abar, edge_base)
    is_sub = all(s >= 0 for s in slacks)
    is_cal = is_sub and _calibrated(slacks, lifted)
    tight_words, noncritical = _tight_words(slacks, lifted, edge_comp)
    certificate = is_sub and not noncritical
    containment = all(s == 0 for s, c in zip(slacks, edge_comp) if c is not None)
    return Verdict(is_sub, is_cal, certificate, containment, tight_words, noncritical)


def separating_subaction(crit: CriticalStructure, depth_budget: int,
                         gamma: Fraction = Fraction(1, 2),
                         node_budget: int = DEFAULT_NODE_BUDGET,
                         ) -> tuple[SubAction, SeparatingCertificate]:
    """Finite-depth separating sub-action of the system of `crit`, by
    perturb-and-average, and its certificate.

    Starting from the calibrated fixed point lifted to the working
    depth, each pass normalizes by the current sub-action (slacks B>=0),
    forms a family of B-compatible perturbations (j-step forward minima
    for j=1..depth, plus each component's barrier row from and potential
    column into a critical representative), and averages them into the
    sub-action. Critical itineraries stay tight under every member.
    Passes repeat until every tight word is critical (`cert.ok`) or the
    tight set stops moving (`cert.residual_words` lists the non-critical
    ones). Only the lift raises: below the graph order or past `node_budget`.

    Each signed member f (row, -column, -w_j) has f(head) - f(tail) <= B
    on every edge: rows by the triangle inequality, columns likewise, and
    w_j as w_j(tail) <= B + w_{j-1}(head), where B >= 0 makes
    w_{j-1} <= w_j. So a pass leaves each slack at least (1 - gamma) B and
    tight sets are nested; a pass runs only on a nonempty tight set smaller
    than the one before, so passes <= |initial tight set| <= n_edges. A
    pass that makes a positive slack tight raises InternalError.

    The first slacks are those of the base graph: the fixed point v is
    lifted as u = v o base, and lifted edge k, from a_0..a_{D-1} to
    a_1..a_D at depth D over a base of order r, has the slack
    w(a_0..a_r) - abar - v(a_1..a_r) + v(a_0..a_{r-1}), that of its base
    edge `edge_base[k]`. So only base values are scaled, and read
    through `base` and `edge_base`. Every base weight appears at depth,
    so the running denominator starts at the lcm of the lifted system's
    denominators. From there the values and slacks are integers over
    that running denominator, moved together by each pass and reduced
    by their gcd. Each pass adds the same rationals whatever that
    denominator is, so the values are those of the same passes done in
    Fractions, which are built only for the returned sub-action.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie strictly between 0 and 1, got {gamma}")
    lifted, edge_base, node_comp, edge_comp, base = lift_critical(crit, depth_budget,
                                                                  node_budget)
    v = calibrated_fixed_point(crit)
    big, slacks = _slacks(v, crit.graph, crit.weights, crit.abar, range(crit.graph.n_edges))
    slacks = list(map(slacks.__getitem__, edge_base))
    values = [x.numerator * (big // x.denominator) for x in v]
    values = list(map(values.__getitem__, base))
    reps = [node_comp.index(c.index) for c in crit.components]
    n, tails, heads = lifted.n_nodes, lifted.tails, lifted.heads
    out, ins = lifted.out_edges, lifted.in_edges
    ranges = [slice(r.start, r.stop) for r in out]
    prev_zero: list[int] | None = None
    passes = 0
    while True:
        if min(slacks) < 0:
            raise InternalError("perturbation broke the sub-action bound")
        zero = [k for k, s in enumerate(slacks) if s == 0]
        if prev_zero is not None and not set(zero).issubset(prev_zero):
            raise InternalError("a pass made a positive slack tight")
        if all(edge_comp[k] is not None for k in zero) or zero == prev_zero:
            break
        prev_zero = zero
        passes += 1

        # Perturbation family, in integers over big. Signs make each
        # member a sub-action: forward minima and potential columns fall
        # along cheap edges (subtract), barrier rows rise along them (add).
        plus: list[list[int]] = []
        minus: list[list[int]] = []
        wj = [0] * n
        for _ in range(depth_budget):
            via = list(map(operator.add, slacks, map(wj.__getitem__, heads)))
            wj = list(map(min, map(via.__getitem__, ranges)))
            minus.append(wj)
        for rep in reps:
            row = _path_minima(slacks, out[rep], out, heads, n)
            col = _path_minima(slacks, ins[rep], ins, tails, n)
            if None in row or None in col:
                raise InternalError("lifted graph is not strongly connected")
            plus.append(row)
            minus.append(col)
        # u += gamma * (signed sum of the members) / (members * big): over
        # q * big each value gains its delta, and each slack gains the
        # delta at its tail and loses the one at its head
        q = (len(plus) + len(minus)) * gamma.denominator
        delta = [gamma.numerator * (a - b)
                 for a, b in zip(map(sum, zip(*plus)), map(sum, zip(*minus)))]
        values = [q * x + d for x, d in zip(values, delta)]
        slacks = [q * s - delta[h] + delta[t] for s, t, h in zip(slacks, tails, heads)]
        big *= q
        g = math.gcd(big, *values, *slacks)
        if g > 1:
            big //= g
            values = [x // g for x in values]
            slacks = [s // g for s in slacks]

    tight_words, residual = _tight_words(slacks, lifted, edge_comp)
    sub = SubAction(depth_budget, _unscale([values], big)[0], "separating")
    return sub, SeparatingCertificate(not residual, depth_budget, gamma, passes,
                                      tight_words, residual)


def gap_analysis(u: SubAction, v: SubAction, crit: CriticalStructure) -> GapReport:
    """Where a calibrated u sits above another sub-action v, both of the
    system of `crit`.

    u - v is constant on every critical component, and its global
    minimum over all nodes is attained on the critical words, indeed on
    at least one whole component; both facts are checked exactly.
    """
    if u.depth != v.depth:
        raise IncompatibleOrder(f"depths differ: {u.depth} vs {v.depth}")
    lifted, edge_base, node_comp, _, _ = lift_critical(crit, u.depth)
    slacks: dict[str, list[int]] = {}
    for name, sub in (("u", u), ("v", v)):
        _, slacks[name] = _slacks(sub.values, lifted, crit.weights, crit.abar, edge_base)
        if any(s < 0 for s in slacks[name]):
            raise NotASubAction(f"{name} violates the sub-action inequality")
    if not _calibrated(slacks["u"], lifted):
        raise NotCalibrated("u is not a fixed point of the one-step minimum")

    diff = [a - b for a, b in zip(u.values, v.values)]
    constants = []
    for c in range(len(crit.components)):
        vals = {d for d, k in zip(diff, node_comp) if k == c}
        if len(vals) != 1:
            raise InternalError(f"u - v is not one constant on component {c}")
        constants.append(vals.pop())
    minimum = min(diff)
    argmin = tuple(n for n, d in enumerate(diff) if d == minimum)
    min_critical = min(constants)
    if min_critical != minimum:
        raise InternalError("minimum of u - v is not attained on a critical word")
    attained = next(c for c, const in enumerate(constants) if const == minimum)
    return GapReport(tuple(constants), minimum, argmin, min_critical, attained)


def convex_combination(subactions: Sequence[SubAction],
                       coefficients: Sequence[Fraction]) -> SubAction:
    """Rational convex combination; the tight set becomes the
    intersection of the constituents' tight sets."""
    if not subactions or len(subactions) != len(coefficients):
        raise ValueError("need matching, nonempty sub-actions and coefficients")
    depth = subactions[0].depth
    if any(s.depth != depth for s in subactions):
        raise IncompatibleOrder("convex combination requires equal depths")
    coeffs = [Fraction(c) for c in coefficients]
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        raise ValueError("coefficients must be nonnegative rationals summing to 1")
    n = len(subactions[0].values)
    values = tuple(
        sum(c * s.values[x] for c, s in zip(coeffs, subactions))
        for x in range(n)
    )
    return SubAction(depth, values, "user-supplied")
