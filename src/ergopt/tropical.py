"""Exact min-plus solvers on finite graphs: minimizing value (minimum
cycle mean), Mane potential and Peierls barrier matrices, critical
structure with irreducible components, and calibrated sub-action vectors.

Inputs and outputs are Fractions. The kernels (the policy iteration that
gives abar and a potential certifying it, `_path_minima`, the one
queue-based Bellman-Ford behind every phi row and column that is
searched, and `_relay`, the one min-plus relay of rows behind the dense
phi and h) run on Python ints: the costs are scaled by one common
denominator L, so sums and comparisons are exact integer operations,
and results become Fractions over L only at the public boundary. The
dense barrier matrices stay integer rows over L (`BarrierMatrices`) and
are turned into Fractions only when read.
Determinism comes from ascending index order in every tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InternalError
from .symbolic import strongly_connected_components


@dataclass(frozen=True)
class BarrierMatrices:
    """The dense phi and h as integer rows over one denominator L:
    phi[i][j] is Fraction(phi_ints[i][j], big), and h likewise. The
    Fraction views are built on first read."""

    big: int
    phi_ints: tuple[tuple[int, ...], ...]
    h_ints: tuple[tuple[int, ...], ...]

    @cached_property
    def phi(self) -> tuple[tuple[Fraction, ...], ...]:
        return _unscale(self.phi_ints, self.big)

    @cached_property
    def h(self) -> tuple[tuple[Fraction, ...], ...]:
        return _unscale(self.h_ints, self.big)


@dataclass(frozen=True)
class Component:
    index: int
    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.nodes[0]


@dataclass(frozen=True, eq=False)
class CriticalStructure:
    """The critical partition as the component of every node and edge,
    None off the critical edges (those on a zero-mean cycle of normalized
    weight) and their nodes; the components are their SCCs, numbered by
    smallest node. With the inputs and rows[i] = h(rep_i, .); the rest is
    read off the labels.

    On a critical r, phi(r, r) = 0 gives h(r, .) <= phi(r, .); a relay
    r -> z -> j is itself a path from r, so h(r, .) >= phi(r, .).
    """

    graph: object
    weights: tuple[Fraction, ...]
    abar: Fraction
    node_component: tuple[int | None, ...]
    edge_component: tuple[int | None, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def critical_edges(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.edge_component) if c is not None)

    @cached_property
    def critical_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.node_component) if c is not None)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        # one barrier row per component
        nodes, edges = [[] for _ in self.rows], [[] for _ in self.rows]
        for v in self.critical_nodes:
            nodes[self.node_component[v]].append(v)
        for k in self.critical_edges:
            edges[self.edge_component[k]].append(k)
        return tuple(Component(i, tuple(vs), tuple(ks))
                     for i, (vs, ks) in enumerate(zip(nodes, edges)))

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c.representative for c in self.components)

    @cached_property
    def witness_cycle(self) -> tuple[int, ...]:
        """A zero-cycle witness, edge indices in cycle order: the shortest
        cycle through the representative of the first component, found
        inside that component."""
        graph = self.graph
        start, heads = self.node_component.index(0), graph.heads
        into: dict[int, int] = {}  # node -> the breadth-first tree edge into it
        queue = [start]
        for u in queue:  # the queue grows while it is walked
            ks = [k for k in graph.out_edges[u] if self.edge_component[k] == 0]
            closing = next((k for k in ks if heads[k] == start), None)
            if closing is not None:
                break
            for k in ks:
                if heads[k] not in into:
                    into[heads[k]] = k
                    queue.append(heads[k])
        else:
            raise InternalError("critical component has no cycle through its representative")
        chain = [closing]
        while graph.tails[chain[-1]] != start:
            chain.append(into[graph.tails[chain[-1]]])
        witness = tuple(reversed(chain))
        total = sum(self.weights[k] for k in witness)
        if total != self.abar * len(witness):
            raise InternalError("witness cycle mean disagrees with abar")
        return witness


def _scale(values, shift=0) -> tuple[int, list[int]]:
    """L, the lcm of the denominators of v - shift, and the integers
    (v - shift) * L, so a sum of the values is an exact sum over L.

    The values and the shift are scaled over their joint denominator D
    and subtracted as ints, so no Fraction is made; dividing D and the
    differences by g, their gcd, leaves L exactly (for divisors d_i of
    D, the lcm of the D/d_i is D over the gcd of the d_i).
    """
    # ints and Fractions both give (numerator, denominator)
    ratios = [v.as_integer_ratio() for v in values]
    num, den = shift.as_integer_ratio()
    big = math.lcm(den, *[d for _, d in ratios])
    s = num * (big // den)
    ints = [n * (big // d) - s for n, d in ratios]
    g = math.gcd(big, *ints)
    if g == 1:
        return big, ints
    return big // g, [d // g for d in ints]


def _unscale(rows: Sequence[Sequence[int]], big: int) -> tuple[tuple[Fraction, ...], ...]:
    """Integer rows over big as Fraction rows; each distinct value is
    converted once."""
    frac = {d: Fraction(d, big) for d in set().union(*rows)}
    return tuple(tuple(map(frac.__getitem__, row)) for row in rows)


def _path_minima(costs: Sequence[int], first: Sequence[int], out: Sequence[Sequence[int]],
                 ends: Sequence[int], n: int) -> list:
    """Minimum cost of a nonempty path that begins with one of the arcs
    indexed by `first`, to every node; None where none exists.

    Arc k leaves node v when k is in out[v] and enters ends[k]: with the
    out-edges and heads this is a phi row, with the in-edges and tails a
    phi column. It is the one search: the dense phi runs it from the
    nodes of a feedback set only (`_dense_path_minima`), and the rows of
    the representatives and the sub-action rows and columns run it per
    source. Bellman-Ford over a first-in first-out queue: a node is
    rescanned only after its distance falls. Each fall is strict, so the
    best path to a node repeats a node only around a negative cycle; a
    best path of more than n arcs raises ValueError.

    Dijkstra over the certifying potential of `_policy_iteration` was
    tried and not adopted: for the phi rows of the eight 27-144-node
    benchmark rungs (Python 3.11, 2 vCPU) it took 66 ms a pass, against
    39 ms for this queue and 72 ms for the full sweep it replaced.
    """
    dist: list = [None] * n
    arcs = [0] * n  # arcs on the best path found so far
    queue = []
    for k in first:
        v, c = ends[k], costs[k]
        if dist[v] is None:
            queue.append(v)
        elif c >= dist[v]:
            continue
        dist[v], arcs[v] = c, 1
    queued = [d is not None for d in dist]
    for u in queue:  # the list grows while it is walked
        queued[u] = False
        du, step = dist[u], arcs[u] + 1
        for k in out[u]:
            v = ends[k]
            d = du + costs[k]
            dv = dist[v]
            if dv is None or d < dv:
                if step > n:
                    raise ValueError("a negative cycle is reachable: path minima do not exist")
                dist[v], arcs[v] = d, step
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    return dist


def _reaching(source: int, dist: list) -> list:
    """The path minima `dist` from `source`, once they reach every node;
    otherwise the ValueError of a graph that is not strongly connected,
    naming `source` and the first node it cannot reach."""
    if None in dist:
        raise ValueError(f"graph is not strongly connected: node {source}"
                         f" cannot reach node {dist.index(None)}")
    return dist


def _relay(pairs) -> list:
    """The elementwise minimum of c + row over the (c, row) pairs, the
    earlier pair kept on ties: the one min-plus combination of rows
    behind the dense phi's relayed rows, h (`peierls_matrix`) and the
    calibrated family (`subactions.calibrated_from_boundary`). It only
    adds and compares, so int rows give ints and Fraction rows
    Fractions. At least one pair."""
    pairs = iter(pairs)
    c, row = next(pairs)
    best = [c + v for v in row]
    for c, row in pairs:
        best = [b if b <= c + v else c + v for b, v in zip(best, row)]
    return best


def _feedback_plan(graph) -> tuple[list[int], list[int]]:
    """(F, order): a feedback node set F of the graph, which every cycle
    meets, and the other nodes in an order where each comes after its
    successors outside F.

    A greedy peel removes one node at a time. A node with no remaining
    successor joins the order as it is removed; one with no remaining
    predecessor joins it in reverse removal order, after those. When
    neither is left, the node of largest remaining in-degree times
    out-degree (the lowest index on ties) goes into F. A node with a
    loop keeps both degrees until it is removed, so it ends in F. Each
    pick scans one list of products, so the peel is O(E + n·|F|), below
    the O(n·E) of the row relay it plans.
    """
    n, heads, tails = graph.n_nodes, graph.heads, graph.tails
    outdeg, indeg = list(map(len, graph.out_edges)), list(map(len, graph.in_edges))
    product = [i * o for i, o in zip(indeg, outdeg)]  # -1 once removed
    stack = [v for v in range(n) if not indeg[v] or not outdeg[v]]
    feedback: list[int] = []
    sinks: list[int] = []
    sources: list[int] = []
    left = n
    while left:
        if stack:
            v = stack.pop()
            if product[v] < 0:
                continue
            (sources if outdeg[v] else sinks).append(v)
        else:
            v = product.index(max(product))
            feedback.append(v)
        product[v] = -1
        left -= 1
        for h in map(heads.__getitem__, graph.out_edges[v]):
            if product[h] >= 0:
                indeg[h] -= 1
                product[h] = indeg[h] * outdeg[h]
                if not indeg[h]:
                    stack.append(h)
        for t in map(tails.__getitem__, graph.in_edges[v]):
            if product[t] >= 0:
                outdeg[t] -= 1
                product[t] = indeg[t] * outdeg[t]
                if not outdeg[t]:
                    stack.append(t)
    sources.reverse()
    return feedback, sinks + sources


# One search per node is faster on small graphs, where the plan and the
# fixed cost of each relayed row outweigh the searches they save. On the
# full-2, full-3 and golden-mean graphs of 2-9 nodes the relay took 1.2-3.1
# times as long, at 13 and 16 nodes 0.91 and 0.79 times; on random strongly
# connected graphs of out-degree 2-3 the two met at 15 nodes (Python 3.11,
# 2 vCPU).
_RELAY_MIN_NODES = 16


def _dense_path_minima(costs: Sequence[int], graph) -> list[list[int]]:
    """The path minima from every node of a strongly connected graph,
    rows[v] those of the paths that begin with an arc out of v.

    A nonempty path from v is one arc k out of v, then a path from
    heads[k] that may be empty. So rows[v][j] is the least of
    costs[k] + rows[heads[k]][j] (`_relay`) and, where heads[k] is j,
    costs[k] alone; with no negative cycle rows[j][j] >= 0, so the
    minimum is exact. `_path_minima` gives the rows of a feedback set F
    (`_feedback_plan`), and every other row is relayed from its
    successors' rows, which are built before it.

    A reachable negative cycle, or a graph that is not strongly
    connected, raises the ValueError that searches from nodes 0, 1, ...
    in turn would raise. When every node has an out-arc and every row of
    F reaches every node, the graph is strongly connected (outside F it
    is acyclic, so every node reaches F), and a negative cycle, which
    passes through F, raises in F's searches; otherwise those searches
    run, in turn, until one fails.
    """
    n, out, heads = graph.n_nodes, graph.out_edges, graph.heads
    feedback, order = _feedback_plan(graph)
    rows: list = [None] * n
    connected = all(out)
    try:
        for f in feedback:
            rows[f] = _path_minima(costs, out[f], out, heads, n)
    except ValueError:  # a negative cycle, which node 0 may not reach
        connected = False
    if not connected or any(None in rows[f] for f in feedback):
        for v in range(n):
            _reaching(v, _path_minima(costs, out[v], out, heads, n))
        raise InternalError("a graph that is not strongly connected passed every search")
    for v in order:
        row = _relay((costs[k], rows[heads[k]]) for k in out[v])
        for k in out[v]:
            if costs[k] < row[heads[k]]:
                row[heads[k]] = costs[k]
        rows[v] = row
    return rows


def _policy_iteration(graph, costs: Sequence[int]) -> tuple[int, int, list[int]]:
    """Howard's policy iteration: (S, m, x) with S/m the least cycle mean
    of the integer costs and x[tail] <= m*c - S + x[head] on every edge,
    which certifies it; scaling by the cycle length m keeps values ints.
    A policy is one out-edge per node, at first the cheapest (lowest
    index on ties). A round takes the policy cycle of least mean (the
    first found on ties), sets x by a reverse breadth-first search from
    it, policy edges first, and moves nodes to strictly better edges."""
    n, tails, heads = graph.n_nodes, graph.tails, graph.heads
    if not all(graph.out_edges):
        dead = list(map(bool, graph.out_edges)).index(False)
        raise ValueError(f"graph is not strongly connected: node {dead} has no out-edge")
    policy = [min(ks, key=costs.__getitem__) for ks in graph.out_edges]
    tried = set()  # a round depends only on the policy it starts from
    while (key := tuple(policy)) not in tried:
        tried.add(key)
        mark, best = [-1] * n, None
        for start in range(n):
            v = start
            while mark[v] < 0:
                mark[v], v = start, heads[policy[v]]
            if mark[v] == start:  # this walk closed a cycle at v
                cycle = [policy[v]]
                while heads[cycle[-1]] != v:
                    cycle.append(policy[heads[cycle[-1]]])
                total = sum(map(costs.__getitem__, cycle))
                if best is None or total * best[1] < best[0] * len(cycle):
                    best = (total, len(cycle), v)
        S, m, root = best
        seen, order = [v == root for v in range(n)], [root]
        for any_edge in (False, True):  # the cycle's policy tree, then the rest
            for v in order:  # the list grows while it is walked
                for k in graph.in_edges[v]:
                    t = tails[k]
                    if not seen[t] and (any_edge or policy[t] == k):
                        seen[t], policy[t] = True, k
                        order.append(t)
        if len(order) < n:
            raise ValueError(f"graph is not strongly connected: node {seen.index(False)}"
                             f" cannot reach node {root}")
        reduced, x = [m * c - S for c in costs], [0] * n
        for t in order[1:]:
            x[t] = reduced[policy[t]] + x[heads[policy[t]]]
        switched = False
        for t in range(n):
            for k in graph.out_edges[t]:
                if reduced[k] + x[heads[k]] < x[t]:
                    x[t], policy[t], switched = reduced[k] + x[heads[k]], k, True
        if not switched:
            return S, m, x
    raise InternalError("policy iteration came back to a policy it had left")


def minimizing_value(graph, weights: Sequence[Fraction]) -> CriticalStructure:
    """Minimum cycle mean: `critical_structure`, with its witness cycle
    built and checked, a cycle inside the first component whose mean is
    abar."""
    crit = critical_structure(graph, weights)
    crit.witness_cycle  # cached; raises InternalError if it does not attain abar
    return crit


def mane_matrix(graph, weights: Sequence[Fraction], abar: Fraction,
                sources: Sequence[int], *, scaled: bool = False):
    """The rows phi[i] of the sources i, in order, where phi[i][j] is the
    minimum over nonempty paths i -> j of sum(w - abar).

    When abar is the minimum cycle mean, normalized weights have no
    negative cycle, so walk minima are path minima and each row is found
    on paths of at most n arcs. A larger abar leaves a negative cycle
    and raises ValueError.

    Sources that cover every node of a graph of at least
    `_RELAY_MIN_NODES` nodes get the dense phi of `_dense_path_minima`:
    one search from each node of a feedback set, 144 of the 640 nodes of
    the benchmark's eight ladder graphs, and every other row relayed
    from its successors' rows. Other sources get one `_path_minima`
    search each. A graph that is not strongly connected raises
    ValueError either way.

    Scaled, the result is (L, rows) with L the common denominator of the
    costs w - abar and the rows the integers phi[i] * L, the form the
    dense barrier matrices keep; otherwise the rows are Fractions.
    """
    n, out, heads = graph.n_nodes, graph.out_edges, graph.heads
    big, costs = _scale(weights, abar)
    if n >= _RELAY_MIN_NODES and len(sources) >= n and set(sources) == set(range(n)):
        dense = _dense_path_minima(costs, graph)
        rows = [tuple(dense[i]) for i in sources]
    else:
        rows = [tuple(_reaching(i, _path_minima(costs, out[i], out, heads, n))) for i in sources]
    return (big, tuple(rows)) if scaled else _unscale(rows, big)


def critical_structure(graph, weights: Sequence[Fraction]) -> CriticalStructure:
    """abar, the critical edges and their components from one policy
    iteration. Its negated values -x are a potential: the reduced costs
    m*c - S + x(head) - x(tail) are nonnegative and keep every cycle sum,
    so an edge is on a zero-mean cycle exactly when its reduced cost is
    zero and both ends share an SCC of the zero-cost subgraph. The SCCs
    with a critical edge are the components, numbered by smallest node,
    the representative, and label their nodes and edges. A graph that is
    not strongly connected raises ValueError, here or in the
    representatives' rows. Weights that are all Fractions already are
    kept as they are."""
    n = graph.n_nodes
    weights = tuple(weights)
    if set(map(type, weights)) != {Fraction}:
        weights = tuple(map(Fraction, weights))
    big, costs = _scale(weights)
    S, m, x = _policy_iteration(graph, costs)
    abar = Fraction(S, m * big)
    reduced = [m * c - S + x[h] - x[t] for c, t, h in zip(costs, graph.tails, graph.heads)]
    if any(r < 0 for r in reduced):
        raise InternalError("negative reduced cost: policy iteration did not converge")
    succ: list[list[int]] = [[] for _ in range(n)]
    for t, h, r in zip(graph.tails, graph.heads, reduced):
        if r == 0:
            succ[t].append(h)
    scc_of = [0] * n
    for ci, comp in enumerate(strongly_connected_components(succ)):
        for v in comp:
            scc_of[v] = ci
    # an SCC of the zero-cost subgraph is critical when a zero edge stays in it
    edge_scc = [scc_of[t] if r == 0 and scc_of[t] == scc_of[h] else None
                for t, h, r in zip(graph.tails, graph.heads, reduced)]
    cyclic, label, reps = set(edge_scc), {}, []
    for v, ci in enumerate(scc_of):  # numbered by smallest node
        if ci in cyclic and ci not in label:
            label[ci] = len(reps)
            reps.append(v)
    return CriticalStructure(
        graph=graph,
        weights=weights,
        abar=abar,
        node_component=tuple(map(label.get, scc_of)),
        edge_component=tuple(map(label.get, edge_scc)),
        rows=mane_matrix(graph, weights, abar, reps),
    )


def peierls_matrix(phi: Sequence[Sequence], crit: CriticalStructure) -> tuple[tuple, ...]:
    """h[i][j] = min over critical z of phi[i][z] + phi[z][j].

    Long minimizing paths can idle inside the critical graph at zero
    cost, so the liminf over path lengths relays through some critical
    node; the oracle checks this identity against fixed-length minima.
    One node per critical component suffices: for z and the
    representative r of its component, phi[z][r] + phi[r][z] = 0, so
    phi[i][r] + phi[r][j] <= phi[i][z] + phi[z][j] and relaying through
    z never beats relaying through r. Integer rows over L give h over
    the same L (`_relay`), and Fraction rows give Fractions.
    """
    reps = crit.representatives
    if not reps:
        raise InternalError("no critical node: witness cycle must produce one")
    return tuple(tuple(_relay((row[r], phi[r]) for r in reps)) for row in phi)


def lax_oleinik_step(u: Sequence[Fraction], graph, weights: Sequence[Fraction],
                     abar: Fraction) -> tuple[Fraction, ...]:
    """(Lu)(j) = min over incoming edges (i -> j) of u(i) + w - abar."""
    out = []
    for j in range(graph.n_nodes):
        out.append(min(
            u[graph.tails[k]] + weights[k] - abar
            for k in graph.in_edges[j]
        ))
    return tuple(out)


def calibrated_fixed_point(crit: CriticalStructure) -> tuple[Fraction, ...]:
    """The pointwise minimum of the barrier rows of the component
    representatives: an exact fixed point of lax_oleinik_step."""
    return tuple(min(column) for column in zip(*crit.rows))


@dataclass(frozen=True)
class ConstraintPolytope:
    """Pairwise barrier constraints on boundary data: u_j - u_i <= H[i][j]."""

    representatives: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def violation(self, values: Sequence[Fraction]) -> tuple[int, int] | None:
        """The first pair (i, j), in row order, with u_j - u_i > H[i][j], or
        None; values are made Fractions, then counted (ValueError)."""
        vals = [Fraction(v) for v in values]
        r = len(self.representatives)
        if len(vals) != r:
            raise ValueError(f"expected {r} boundary values, got {len(vals)}")
        return next(((i, j) for i in range(r) for j in range(r)
                     if vals[j] - vals[i] > self.matrix[i][j]), None)

    def contains(self, values: Sequence[Fraction]) -> bool:
        return self.violation(values) is None


def constraint_polytope(crit: CriticalStructure) -> ConstraintPolytope:
    reps = crit.representatives
    matrix = tuple(tuple(row[b] for b in reps) for row in crit.rows)
    return ConstraintPolytope(reps, matrix)
