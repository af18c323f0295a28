"""Construction and verification of sub-actions: the calibrated family
parametrized by boundary data on the critical components, the dominant
member, finite-depth separating sub-actions with their certificates,
contact loci, the normalized potential, convex combinations, and the
u - v gap analysis.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    IncompatibleOrder,
    InternalError,
    NotASubAction,
    NotCalibrated,
    NotInConstraintSet,
)
from .potential import OneSidedPotential
from .symbolic import DEFAULT_NODE_BUDGET, Word, check_budget
from .tropical import (
    CriticalStructure,
    _path_minima,
    _relay,
    _scale,
    _unscale,
    calibrated_fixed_point,
    constraint_polytope,
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
    attained_component: int


def _lift_step(graph, edge_base, edges):
    """One line step of a lift (see `lift_critical`): `(graph,
    edge_base, edges)` one order up, whose nodes are the edges here."""
    graph = graph.line_graph()
    heads, lifted = graph.heads, [None] * graph.n_edges
    # a lifted edge lies in the component its tail and head share, if any
    for v, c in enumerate(edges):
        if c is not None:
            for k in graph.out_edges[v]:
                if edges[heads[k]] == c:
                    lifted[k] = c
    return graph, list(map(edge_base.__getitem__, graph.tails)), lifted


def _parent_lift(crit: CriticalStructure, depth: int, node_budget: int):
    """`(graph, edge_base, edges)`, the lift of `crit` to one order below
    a `depth` above its graph order: that graph, whose edges are the
    lifted nodes at `depth`; the base edge of each of its edges; and the
    component of each of its edges. The admissible depth-words are
    counted once against `node_budget` before any step is taken."""
    graph = crit.graph
    check_budget(graph.sft, depth, node_budget)
    lift = (graph, range(graph.n_edges), crit.edge_component)
    while lift[0].order < depth - 1:
        lift = _lift_step(*lift)
    return lift


def lift_critical(crit: CriticalStructure, depth: int,
                  node_budget: int = DEFAULT_NODE_BUDGET):
    """`(graph, edge_base, nodes, edges, base)`: the graph of `crit` at
    `depth`; for every lifted edge, the edge of `crit.graph` its word
    begins with (`edge_base`), whose weight it carries; the critical
    component of every lifted node and edge (None off the critical
    words); and the node of `crit.graph` each lifted node's word begins
    with (`base`). No weight is lifted: edge k weighs
    `crit.weights[edge_base[k]]`.

    At the graph order `_lift` runs on this. Above it, this is
    `_parent_lift`, which counts the depth-words against `node_budget`
    before any step, and one more line step, the explicit lift that the
    tests check `_NodeLift` against. A lifted node is an edge one order
    down, so it keeps that edge's component, and a lifted edge, starting
    with its tail, keeps its tail's base edge; a lifted node's base node
    is the tail of its base edge. A lifted edge joins two consecutive
    edges one order down and lies in component c when both do, that is,
    when every base window of its word is a critical edge of c.
    """
    graph = crit.graph
    if depth < graph.order:
        raise ValueError(f"cannot lower order {graph.order} to {depth}")
    if depth == graph.order:
        return (graph, range(graph.n_edges), crit.node_component, crit.edge_component,
                range(graph.n_nodes))
    parent, parent_base, nodes = _parent_lift(crit, depth, node_budget)
    lifted, edge_base, edges = _lift_step(parent, parent_base, nodes)
    return (lifted, edge_base, tuple(nodes), tuple(edges),
            list(map(graph.tails.__getitem__, parent_base)))


def _scaled_costs(values, n_nodes: int, weights, abar) -> tuple[int, list[int], list[int]]:
    """L, the node values u * L and the edge costs (w - abar) * L as ints,
    over one common denominator L of u, w and abar, so s / L is each
    slack c - u(head) + u(tail) exactly; L may exceed the lcm of the
    slacks' own denominators. Values of another count than `n_nodes`
    raise IncompatibleOrder: this is the one shape check of every
    sub-action check.
    """
    n = len(values)
    if n != n_nodes:
        raise IncompatibleOrder(f"expected {n_nodes} node values, got {n}")
    big, scaled = _scale([*values, *weights, abar])
    shift = scaled.pop()
    return big, scaled[:n], [w - shift for w in scaled[n:]]


class _Lift:
    """A sub-action on the lift of the system of `crit` to `depth`, as
    ints over one denominator `big`: its `values` at the lifted nodes and
    `costs`, the (w - abar) * big that its slacks are read from, each
    that of the base edge `cost_base` maps it to. `nodes` and `base` give
    each lifted node's component and base node, and `reps` the first
    lifted node of each component.

    `scan` gives whether no slack is negative and the tight edges in
    lifted edge order; `members`, at that scan, the number of a
    separating pass's perturbations and their signed sum at each lifted
    node; `negative`, the first edge of negative slack and that slack,
    which `read_sub` names; `edge_indices`, tight edges as numbered in
    `lift_critical`'s lift.
    `_EdgeLift` and `_NodeLift` hold the slacks two ways.
    """

    def __init__(self, crit: CriticalStructure, depth: int, nodes, base, cost_base):
        self.crit, self.depth, self.nodes, self.base = crit, depth, nodes, base
        self.cost_base = cost_base
        self.reps = [nodes.index(c) for c in range(len(crit.representatives))]

    def load(self, big: int, values: list[int], costs: Sequence[int]) -> None:
        """Values at the lifted nodes and costs per base edge, over big."""
        self.big, self.values = big, values
        self.costs = list(map(costs.__getitem__, self.cost_base))

    def read(self, values: Sequence[Fraction]) -> tuple[bool, bool, list]:
        """Load node values at the depth and scan them: whether they are a
        sub-action, whether calibrated, and the tight edges. A sub-action
        is a Lax-Oleinik fixed point exactly when every lifted node is the
        head of a tight edge, as (Lu)(j) is u(j) plus the least slack into j."""
        self.load(*_scaled_costs(values, len(self.base), self.crit.weights, self.crit.abar))
        is_sub, tight = self.scan()
        return is_sub, is_sub and len(self.tight_heads(tight)) == len(self.base), tight

    def read_sub(self, values: Sequence[Fraction], prefix: str = "",
                 slack: str = "slack") -> tuple[bool, list]:
        """`read` of node values that must be a sub-action: whether
        calibrated, and the tight edges. Else NotASubAction names the
        first edge of negative slack after `prefix`, `slack` naming it."""
        is_sub, is_cal, tight = self.read(values)
        if not is_sub:
            edge, s = self.negative()
            raise NotASubAction(f"{prefix}edge {self.words([edge])[0]} has negative {slack} "
                                f"{Fraction(s, self.big)}")
        return is_cal, tight

    def spell(self, tight) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
        """The words of the tight edges, and those of them that lie in no
        critical component."""
        words = self.words(tight)
        spelled = dict(zip(tight, words))
        return words, tuple(map(spelled.__getitem__, self.residual(tight)))

    def average(self, gamma: Fraction) -> None:
        """u += gamma * (signed sum of the members) / (members * big): over
        q * big each value gains its delta, the costs only scale, and all
        are reduced by their gcd with the new denominator."""
        count, total = self.members()
        p, q = gamma.numerator, count * gamma.denominator
        self.values = [q * x + p * t for x, t in zip(self.values, total)]
        self.costs = [q * c for c in self.costs]
        self.big *= q
        g = math.gcd(self.big, *self.values, *self.costs)
        if g > 1:
            self.big //= g
            self.values = [x // g for x in self.values]
            self.costs = [c // g for c in self.costs]


class _EdgeLift(_Lift):
    """Slacks held per edge of an explicit lift, `lift_critical`'s. At
    the graph order that lift is the graph itself; above it, this is the
    slow check of `_NodeLift`. `scan` keeps the slacks it computes, for
    `members` and `contained` to read."""

    def __init__(self, crit: CriticalStructure, lift):
        self.graph, edge_base, nodes, self.edge_comp, base = lift
        self.ranges = [slice(r.start, r.stop) for r in self.graph.out_edges]
        super().__init__(crit, self.graph.order, nodes, base, edge_base)

    def scan(self) -> tuple[bool, list[int]]:
        u, graph = self.values, self.graph
        self.slacks = [c - u[h] + u[t] for c, t, h
                       in zip(self.costs, graph.tails, graph.heads)]
        return min(self.slacks) >= 0, [k for k, s in enumerate(self.slacks) if s == 0]

    def residual(self, tight: list[int]) -> Iterator[int]:
        return (k for k in tight if self.edge_comp[k] is None)

    def negative(self) -> tuple[int, int]:
        return next((k, s) for k, s in enumerate(self.slacks) if s < 0)

    def edge_indices(self, tight: list[int]) -> list[int]:
        return tight

    def words(self, tight: list[int]) -> tuple[Word, ...]:
        return tuple(map(self.graph.edge_word, tight))

    def tight_heads(self, tight: list[int]) -> set[int]:
        return set(map(self.graph.heads.__getitem__, tight))

    def contained(self) -> bool:
        return all(s == 0 for s, c in zip(self.slacks, self.edge_comp) if c is not None)

    def members(self) -> tuple[int, list[int]]:
        """Signs make each member a sub-action: forward minima and
        potential columns fall along cheap edges (minus), barrier rows
        rise along them (plus)."""
        graph, slacks, n = self.graph, self.slacks, len(self.values)
        out, ins, tails, heads = graph.out_edges, graph.in_edges, graph.tails, graph.heads
        minus, wj = [], [0] * n
        for _ in range(self.depth):
            via = list(map(operator.add, slacks, map(wj.__getitem__, heads)))
            wj = list(map(min, map(via.__getitem__, self.ranges)))
            minus.append(wj)
        plus = []
        for rep in self.reps:
            row = _path_minima(slacks, out[rep], out, heads, n)
            col = _path_minima(slacks, ins[rep], ins, tails, n)
            if None in row or None in col:
                raise InternalError("lifted graph is not strongly connected")
            plus.append(row)
            minus.append(col)
        return len(plus) + len(minus), list(map(operator.sub, map(sum, zip(*plus)),
                                                map(sum, zip(*minus))))


class _NodeLift(_Lift):
    """The lift to a depth D above the graph order, held by the order-(D-1)
    graph P of `_parent_lift`, with no lifted graph built. Lifted node V
    is P's edge V; its lifted out-edges run to the P-edges out of
    P.heads[V], its out-block, in order, and each starts with V's base
    edge, so all of them cost W[V] = `costs[V]` and V -> X has the slack
    W[V] + u(V) - u(X). A tight edge is the pair (V, X), and it is
    critical when V and X lie in one component. The explicit lift
    numbers its edges by tail, so (V, X) is its edge start[V] + X -
    out[heads[V]].start, with start the running sum of the block sizes.
    V's base node is the tail of its base edge."""

    def __init__(self, crit: CriticalStructure, parent_lift):
        self.parent, edge_base, nodes = parent_lift
        self.blocks = [slice(r.start, r.stop) for r in self.parent.out_edges]
        super().__init__(crit, self.parent.order + 1, nodes,
                         list(map(crit.graph.tails.__getitem__, edge_base)), edge_base)

    def scan(self) -> tuple[bool, list[tuple[int, int]]]:
        """On a sub-action only the top of an out-block can be tight, but
        the scan reads every edge whose slack is 0, beside a negative one
        too. It keeps the tops, for `members` to read."""
        u, out, heads = self.values, self.parent.out_edges, self.parent.heads
        self.top = top = [max(u[b]) for b in self.blocks]
        reach = list(map(operator.add, self.costs, u))
        tops = list(map(top.__getitem__, heads))
        tight = [(v, x) for v, a, t in zip(range(len(u)), reach, tops) if a <= t
                 for x in out[heads[v]] if u[x] == a]
        return all(map(operator.ge, reach, tops)), tight

    def residual(self, tight: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        nodes = self.nodes
        return ((v, x) for v, x in tight if nodes[v] is None or nodes[v] != nodes[x])

    def negative(self) -> tuple[tuple[int, int], int]:
        u, costs, out, heads = self.values, self.costs, self.parent.out_edges, self.parent.heads
        return next(((v, x), s) for v in range(len(u)) for x in out[heads[v]]
                    if (s := costs[v] + u[v] - u[x]) < 0)

    def edge_indices(self, tight: list[tuple[int, int]]) -> list[int]:
        out, heads = self.parent.out_edges, self.parent.heads
        start = list(itertools.accumulate((len(out[h]) for h in heads), initial=0))
        return [start[v] + x - out[heads[v]].start for v, x in tight]

    def words(self, tight: list[tuple[int, int]]) -> tuple[Word, ...]:
        parent = self.parent
        last = parent.lasts
        return tuple(parent.edge_word(v) + (last[parent.heads[x]],) for v, x in tight)

    def tight_heads(self, tight: list[tuple[int, int]]) -> set[int]:
        return {x for _, x in tight}

    def contained(self) -> bool:
        u, costs, nodes = self.values, self.costs, self.nodes
        out, heads = self.parent.out_edges, self.parent.heads
        return all(costs[v] + u[v] == u[x] for v, c in enumerate(nodes) if c is not None
                   for x in out[heads[v]] if nodes[x] == c)

    def members(self) -> tuple[int, list[int]]:
        """`_EdgeLift.members`, from P and summed there. With g_0 = -u and
        g_j(V) = W[V] + least_{j-1}[P.heads[V]], least_j[h] the minimum
        of g_j over the out-block of h (least_0 is minus the scan's
        `top`), the forward minima are g_j + u. When P's order is above
        the graph order r, every edge out of h begins with h's base
        edge, so all cost C[h], and P is a line graph, so their heads
        are one range of P's nodes, the out-range of h's head one order
        down, which every h of that head shares.
        A step is then least_j[h] = C[h] + the minimum of least_{j-1}
        over h's range, one minimum per range: about n + n/s values of
        P's n nodes of out-degree s, not 3 per edge. At depth r + 1, P
        is the graph itself, its costs differ inside an out-block, and
        the step takes the minimum of g_j per block.
        A lifted path V_0 .. V_m costs W[V_0] + .. + W[V_{m-1}] + u(V_0)
        - u(V_m), which is the cost of the P-path of arcs V_0 .. V_{m-1}
        to P.tails[V_m]. So the row of rep is u(rep) - u(X) plus P's row
        of first arc rep at P.tails[X], and the column into rep is
        u(X) - u(rep) + W[X] plus P's column into P.tails[rep] at
        P.heads[X], whose own entry is 0: a lifted path of one arc ends
        there. Summed over the k representatives and the D forward
        minima, with U the sum of u over the representatives, the signed
        total at X is
        2U - (2k + D) u(X) - (k + D) W[X] + rows[P.tails[X]]
        - (cols + leasts)[P.heads[X]],
        where rows, cols and leasts are the sums of P's rows, P's
        columns and least_0 .. least_{D-1}, each held on P's nodes."""
        parent, u, costs, depth = self.parent, self.values, self.costs, self.depth
        out, ins, tails, heads = parent.out_edges, parent.in_edges, parent.tails, parent.heads
        least = [-t for t in self.top]
        leasts = least
        if parent.order > self.crit.graph.order:
            # the head ranges tile P's nodes in order
            first = [heads[b.start] for b in out]
            starts = sorted(set(first))
            group = list(map(dict(zip(starts, itertools.count())).__getitem__, first))
            spans = list(map(slice, starts, [*starts[1:], parent.n_nodes]))
            cost = [costs[b.start] for b in out]

            def step(least):
                least = list(map(min, map(least.__getitem__, spans)))
                return list(map(operator.add, cost, map(least.__getitem__, group)))
        else:
            def step(least):
                via = list(map(operator.add, costs, map(least.__getitem__, heads)))
                return list(map(min, map(via.__getitem__, self.blocks)))
        for _ in range(depth - 1):
            least = step(least)
            leasts = list(map(operator.add, leasts, least))
        rows = cols = [0] * parent.n_nodes
        for rep in self.reps:
            end = tails[rep]
            row = _path_minima(costs, (rep,), out, heads, parent.n_nodes)
            col = _path_minima(costs, ins[end], ins, tails, parent.n_nodes)
            col[end] = 0
            if None in row or None in col:
                raise InternalError("lifted graph is not strongly connected")
            rows = list(map(operator.add, rows, row))
            cols = list(map(operator.add, cols, col))
        k = len(self.reps)
        twice_u = 2 * sum(map(u.__getitem__, self.reps))
        back = list(map(operator.add, cols, leasts))
        return 2 * k + depth, [twice_u - (2 * k + depth) * x - (k + depth) * c + r - b
                               for x, c, r, b in zip(u, costs, map(rows.__getitem__, tails),
                                                     map(back.__getitem__, heads))]


def _lift(crit: CriticalStructure, depth: int, node_budget: int) -> _Lift:
    """The lift every sub-action function runs on: above the
    graph order, held by the graph one order below (`_NodeLift`); at it,
    the graph itself (`_EdgeLift`)."""
    if depth > crit.graph.order:
        return _NodeLift(crit, _parent_lift(crit, depth, node_budget))
    return _EdgeLift(crit, lift_critical(crit, depth, node_budget))


def calibrated_from_boundary(bd, crit: CriticalStructure) -> SubAction:
    """u(x) = min over components i of [u_i + h(rep_i, x)].

    Boundary data must satisfy the pairwise constraints
    u_j - u_i <= h(rep_i, rep_j); then u extends it, is calibrated, and
    restricting back to the representatives returns the data unchanged.
    """
    values = tuple(Fraction(v) for v in bd)
    poly = constraint_polytope(crit)
    pair = poly.violation(values)
    if pair is not None:
        i, j = pair
        raise NotInConstraintSet(f"boundary data violates u[{j}] - u[{i}] <= "
                                 f"h(rep {i}, rep {j}) = {poly.matrix[i][j]}")
    u = tuple(_relay(zip(values, crit.rows)))
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
    lift = _lift(crit, u.depth, DEFAULT_NODE_BUDGET)
    tight = lift.read_sub(u.values)[1]
    return ContactSet(u.depth, tuple(lift.edge_indices(tight)), lift.words(tight))


def normalize(u: SubAction, crit: CriticalStructure) -> OneSidedPotential:
    """The edge slacks B = w - abar - u(head) + u(tail) >= 0 of the
    SubAction u at the base depth of the solved system `crit`, as a
    potential of range order+1, so it compiles onto the same graph (or
    any finer one) like any other observable. A depth mismatch with the
    graph order is refused.
    """
    graph = crit.graph
    if u.depth != graph.order:
        raise IncompatibleOrder(
            f"sub-action depth {u.depth} does not match graph order {graph.order}"
        )
    lift = _lift(crit, graph.order, DEFAULT_NODE_BUDGET)
    lift.read_sub(u.values, slack="normalized weight")
    values = _unscale([lift.slacks], lift.big)[0]  # in edge order, which is word order
    return OneSidedPotential(graph.sft, graph.order + 1, values, graph.order + 1)


def verify(u: SubAction, crit: CriticalStructure,
           node_budget: int = DEFAULT_NODE_BUDGET) -> Verdict:
    """Check the four defining predicates of u against the system of `crit`.

    Its graph is lifted to u's depth (ValueError below the graph order,
    BudgetExceeded past `node_budget` nodes), and a value count other
    than the lifted nodes' raises IncompatibleOrder; past that the
    verdicts just report. No lifted graph is built above the graph order.
    """
    return _verdict(_lift(crit, u.depth, node_budget), u.values)


def _verdict(lift: _Lift, values: Sequence[Fraction]) -> Verdict:
    """`verify` of the node values on `lift`."""
    is_sub, is_cal, tight = lift.read(values)
    words, noncritical = lift.spell(tight)
    return Verdict(is_sub, is_cal, is_sub and not noncritical, lift.contained(),
                   words, noncritical)


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

    At a depth D above the graph order r, lifted node V = a_0..a_{D-1}
    is an edge of the order-(D-1) graph, and each of its out-edges, to a
    node V' = a_1..a_D, has the slack W[V] + u(V) - u(V'), with W[V] =
    w(a_0..a_r) - abar the cost of V's base edge: one cost per lifted
    node. The fixed point v is lifted as u = v o base, under which that
    slack is the one of the base edge, w(a_0..a_r) - abar - v(a_1..a_r)
    + v(a_0..a_{r-1}). The members are read off the order-(D-1) graph
    with costs W (`_NodeLift.members`), and a pass moves u alone: W only
    scales with the denominator. At the graph order the slacks are held
    per edge (`_EdgeLift`). Every base weight appears at depth, so the
    running denominator starts at the lcm of the lifted system's
    denominators. From there the values and costs are integers over that
    running denominator, moved together by each pass and reduced by
    their gcd, which is that of the values and slacks too, since each
    node has an out-edge. Each pass adds the same rationals whatever
    that denominator is, so the values are those of the same passes
    done in Fractions, which are built only for the returned sub-action.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie strictly between 0 and 1, got {gamma}")
    return _separate(_lift(crit, depth_budget, node_budget), gamma)


def _separate(lift: _Lift, gamma: Fraction) -> tuple[SubAction, SeparatingCertificate]:
    """`separating_subaction` on `lift`."""
    crit = lift.crit
    big, v, costs = _scaled_costs(calibrated_fixed_point(crit), crit.graph.n_nodes,
                                  crit.weights, crit.abar)
    lift.load(big, list(map(v.__getitem__, lift.base)), costs)
    prev_zero: list | None = None
    passes = 0
    while True:
        is_sub, zero = lift.scan()
        if not is_sub:
            raise InternalError("perturbation broke the sub-action bound")
        if prev_zero is not None and not set(zero).issubset(prev_zero):
            raise InternalError("a pass made a positive slack tight")
        if next(lift.residual(zero), None) is None or zero == prev_zero:
            break
        prev_zero = zero
        passes += 1
        lift.average(gamma)

    tight_words, residual = lift.spell(zero)
    sub = SubAction(lift.depth, _unscale([lift.values], lift.big)[0], "separating")
    return sub, SeparatingCertificate(not residual, lift.depth, gamma, passes,
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
    lift = _lift(crit, u.depth, DEFAULT_NODE_BUDGET)
    is_cal = lift.read_sub(u.values, "u violates the sub-action inequality: ")[0]
    u_big, u_ints = lift.big, lift.values
    lift.read_sub(v.values, "v violates the sub-action inequality: ")
    if not is_cal:
        raise NotCalibrated("u is not a fixed point of the one-step minimum")

    # u - v as ints over the lcm of the two denominators the reads chose
    big = math.lcm(u_big, lift.big)
    a, b = big // u_big, big // lift.big
    diff = [a * x - b * y for x, y in zip(u_ints, lift.values)]
    seen: list[set[int]] = [set() for _ in crit.components]
    for d, c in zip(diff, lift.nodes):
        if c is not None:
            seen[c].add(d)
    constants = []
    for c, vals in enumerate(seen):
        if len(vals) != 1:
            raise InternalError(f"u - v is not one constant on component {c}")
        constants.append(vals.pop())
    minimum = min(diff)
    argmin = tuple(n for n, d in enumerate(diff) if d == minimum)
    if min(constants) != minimum:
        raise InternalError("minimum of u - v is not attained on a critical word")
    return GapReport(tuple(Fraction(c, big) for c in constants), Fraction(minimum, big),
                     argmin, constants.index(minimum))


def convex_combination(subactions: Sequence[SubAction],
                       coefficients: Sequence[Fraction]) -> SubAction:
    """Rational convex combination; the tight set becomes the
    intersection of the constituents' tight sets."""
    if not subactions or len(subactions) != len(coefficients):
        raise ValueError("need matching, nonempty sub-actions and coefficients")
    depth = subactions[0].depth
    if any(s.depth != depth for s in subactions):
        raise IncompatibleOrder("convex combination requires equal depths")
    n = len(subactions[0].values)
    if any(len(s.values) != n for s in subactions):
        raise IncompatibleOrder("convex combination requires equal value counts")
    coeffs = [Fraction(c) for c in coefficients]
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        raise ValueError("coefficients must be nonnegative rationals summing to 1")
    values = tuple(
        sum(c * s.values[x] for c, s in zip(coeffs, subactions))
        for x in range(n)
    )
    return SubAction(depth, values, "user-supplied")
