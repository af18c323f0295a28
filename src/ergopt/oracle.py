"""Brute-force cross-checks, independent of the graph solvers.

They run on `WordGraph`, wired from the admissible words alone, so a
fault in the solver's wiring shows as a mismatch. Cycle enumeration,
fixed-length path minima, the finite-window action sums S^eps with
pinned endpoint cylinders (pasts enumerated explicitly for two-sided
observables), point-level barriers for lasso points, and the
non-wandering test run both exactly and by search.

Everything here is allowed to be exponential at ten nodes and below;
minimizing values are recomputed by simple-cycle enumeration rather than
taken from the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import InternalError, NoPathExists, TooLarge
from .potential import OneSidedPotential, TwoSidedPotential
from .symbolic import (DEFAULT_NODE_BUDGET, LassoPoint, SftSystem, Word, admissible_words,
                       lasso_shift)

BRUTE_NODE_LIMIT = 10
SYMBOL_BUDGET = 24
WALK_CAP = 5000


class Edge(NamedTuple):
    tail: int
    head: int
    word: Word


class WordGraph:
    """The order-r refinement of an SFT, wired from words alone.

    Node i is the i-th admissible r-word and edge k the k-th admissible
    (r+1)-word, both in lexicographic order; an edge runs from its
    prefix's node to its suffix's node, each found by word. Only the
    nodes count against `node_budget`: the edges are their extensions.
    """

    def __init__(self, sft: SftSystem, order: int, node_budget: int = DEFAULT_NODE_BUDGET):
        self.sft, self.order = sft, order
        self.nodes: tuple[Word, ...] = tuple(admissible_words(sft, order, node_budget))
        self.n_nodes = len(self.nodes)
        self._node_index = {w: i for i, w in enumerate(self.nodes)}
        words = [w + (b,) for w in self.nodes for b in sft.successors[w[-1]]]
        self.edges = tuple(Edge(self._node_index[w[:-1]], self._node_index[w[1:]], w)
                           for w in words)
        self._edge_index = {w: k for k, w in enumerate(words)}
        self.out_edges: list[list[int]] = [[] for _ in self.nodes]
        for k, e in enumerate(self.edges):
            self.out_edges[e.tail].append(k)

    def node_index(self, word: Sequence[int]) -> int:
        try:
            return self._node_index[tuple(word)]
        except KeyError:
            raise ValueError(f"not an admissible node word: {tuple(word)}") from None

    def edge_index(self, word: Sequence[int]) -> int:
        try:
            return self._edge_index[tuple(word)]
        except KeyError:
            raise ValueError(f"not an admissible edge word: {tuple(word)}") from None


@dataclass(frozen=True)
class SEpsilonQuery:
    x: LassoPoint
    y: LassoPoint
    k: int
    epsilon: Fraction


@dataclass(frozen=True)
class NonwanderingReport:
    exact: bool
    search: bool
    component: int | None
    found: tuple[tuple[int, int | None], ...]  # (p, smallest k that worked)
    search_budget: int


def brute_cycles(graph, weights: Sequence[Fraction]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every simple cycle with its mean weight, by rooted DFS.

    Cycles are rooted at their smallest node; the search only walks
    nodes above the root, so each cycle appears exactly once.
    """
    n = graph.n_nodes
    if n > BRUTE_NODE_LIMIT:
        raise TooLarge(f"brute cycle enumeration is limited to {BRUTE_NODE_LIMIT} nodes")
    cycles: list[tuple[tuple[int, ...], Fraction]] = []

    def explore(root: int, v: int, path: list[int], on_path: set[int]) -> None:
        for k in graph.out_edges[v]:
            head = graph.edges[k].head
            if head == root:
                cyc = tuple(path + [k])
                total = sum(weights[q] for q in cyc)
                cycles.append((cyc, Fraction(total, len(cyc))))
            elif head > root and head not in on_path:
                on_path.add(head)
                path.append(k)
                explore(root, head, path, on_path)
                path.pop()
                on_path.remove(head)

    for root in range(n):
        explore(root, root, [], {root})
    if not cycles:
        raise ValueError("graph has no cycle")
    return cycles


def path_min_sums(graph, weights: Sequence[Fraction], abar: Fraction,
                  i: int, j: int, k: int) -> Fraction | None:
    """Minimum of sum(w - abar) over walks i -> j of length exactly k.

    None when no such walk exists (length parity or reachability).
    """
    n = graph.n_nodes
    if n > BRUTE_NODE_LIMIT:
        raise TooLarge(f"path enumeration is limited to {BRUTE_NODE_LIMIT} nodes")
    if k > WALK_CAP:
        raise TooLarge(f"path length {k} is past the enumeration cap")
    if k < 1:
        raise ValueError("path length must be >= 1")
    normalized = [Fraction(w) - abar for w in weights]
    dist: list[Fraction | None] = [None] * n
    dist[i] = Fraction(0)
    for _ in range(k):
        nxt: list[Fraction | None] = [None] * n
        for idx, e in enumerate(graph.edges):
            d = dist[e.tail]
            if d is None:
                continue
            cand = d + normalized[idx]
            if nxt[e.head] is None or cand < nxt[e.head]:
                nxt[e.head] = cand
        dist = nxt
    return dist[j]


def _over_lcm(values: Sequence[Fraction], shift: Fraction) -> tuple[int, list[int]]:
    """L, the lcm of all the denominators, and each (v - shift) * L, in ints."""
    scale = math.lcm(shift.denominator, *(v.denominator for v in values))
    s = shift.numerator * (scale // shift.denominator)
    return scale, [v.numerator * (scale // v.denominator) - s for v in values]


def _scaled_arcs(graph, weights: Sequence[Fraction],
                 abar: Fraction) -> tuple[int, list[tuple[int, int, int]]]:
    """The lcm L of the denominators of w and abar, and each edge as
    (tail, head, (w - abar) * L)."""
    if graph.n_nodes > BRUTE_NODE_LIMIT:
        raise TooLarge(f"path enumeration is limited to {BRUTE_NODE_LIMIT} nodes")
    scale, costs = _over_lcm(weights, abar)
    return scale, [(e.tail, e.head, c) for e, c in zip(graph.edges, costs)]


def _walk_step(arcs: Sequence[tuple[int, int, int]], row: Sequence[float]) -> list[float]:
    """The minimal integer sums of the walks one arc longer than those
    `row` holds, by one relaxation sweep; inf where no walk ends."""
    nxt = [math.inf] * len(row)
    for tail, head, c in arcs:
        cand = row[tail] + c
        if cand < nxt[head]:
            nxt[head] = cand
    return nxt


def path_min_table(graph, weights: Sequence[Fraction], abar: Fraction,
                   i: int, k_max: int) -> list[list[Fraction | None]]:
    """Rows D_k(i, .) of minimal normalized walk sums for k = 0..k_max.

    One `_walk_step` per step, on integer sums over the lcm L of the
    denominators of w - abar; row 0 is the degenerate empty walk and is
    only meaningful at the source itself.
    """
    scale, arcs = _scaled_arcs(graph, weights, abar)
    if k_max > WALK_CAP:
        raise TooLarge(f"path table length {k_max} is past the enumeration cap")
    cur = [math.inf] * graph.n_nodes
    cur[i] = 0
    sums = [cur]
    for _ in range(k_max):
        cur = _walk_step(arcs, cur)
        sums.append(cur)
    return _exact(sums, scale)


def _exact(rows, scale: int) -> list[list[Fraction | None]]:
    """Integer sums over L as Fractions, None for inf; each distinct sum
    is converted once."""
    exact: dict[float, Fraction | None] = {math.inf: None}
    return [[exact[v] if v in exact else exact.setdefault(v, Fraction(v, scale)) for v in row]
            for row in rows]


def _recurring_tables(arcs, n: int) -> tuple[list[tuple], int]:
    """Every source's integer walk minima D_0, D_1, ..., each table
    flattened row by row, stepped together until one recurs; and start,
    the first length whose table recurs.

    At the least cycle mean abar the walk minima of a strongly connected
    graph are eventually periodic in the length (the cyclicity theorem),
    so the tables from start on repeat with period len(tables) - start.
    A wrong abar drifts and never recurs; past WALK_CAP steps this
    raises TooLarge.
    """
    rows = [[0 if j == i else math.inf for j in range(n)] for i in range(n)]
    seen: dict[tuple, int] = {}
    for k in range(WALK_CAP + 1):
        table = tuple(v for row in rows for v in row)
        if table in seen:
            return list(seen), seen[table]
        seen[table] = k
        rows = [_walk_step(arcs, row) for row in rows]
    raise TooLarge(f"walk minima do not recur within {WALK_CAP} steps")


def barrier_window(graph, weights: Sequence[Fraction], abar: Fraction) -> tuple[int, int]:
    """Walk lengths [start, stop] whose minimum sum recovers the barrier
    h, the liminf of the walk minima: one period of their recurrence."""
    tables, start = _recurring_tables(_scaled_arcs(graph, weights, abar)[1], graph.n_nodes)
    return start, len(tables) - 1


def walk_minima(graph, weights: Sequence[Fraction], abar: Fraction) -> tuple[tuple, ...]:
    """phi, h and the one-step rows D_1 as n x n tuples (None where no
    walk exists), from one run of the recurring tables: phi over lengths
    1..n, as a minimal walk drops any cycle, and h over the window. A
    length past the last table reads its image in the period."""
    n = graph.n_nodes
    scale, arcs = _scaled_arcs(graph, weights, abar)
    tables, start = _recurring_tables(arcs, n)
    stop, period = len(tables) - 1, len(tables) - start

    def least(lengths):
        flat = list(map(min, zip(*(tables[k if k <= stop else start + (k - start) % period]
                                   for k in lengths))))
        return tuple(map(tuple, _exact([flat[i : i + n] for i in range(0, n * n, n)], scale)))

    return least(range(1, n + 1)), least(range(start, stop + 1)), least([1])


def _step_table(potential) -> tuple[int, Mapping]:
    """Per-step cost window length and table.

    Two-sided observables are collapsed per step by enumerating every
    admissible past chain; this is the oracle-side counterpart of the
    one-sided reduction.
    """
    if isinstance(potential, OneSidedPotential):
        return potential.range, potential.table
    if isinstance(potential, TwoSidedPotential):
        sft, q = potential.sft, potential.future_depth
        pasts = admissible_words(sft, potential.past_depth)
        table = {}
        for w in admissible_words(sft, q):
            table[w] = min(potential.table[y + w] for y in pasts if sft.allows(y[-1], w[0]))
        return q, table
    raise TypeError(f"not a potential: {type(potential).__name__}")


def edge_weights(potential, graph) -> list[Fraction]:
    """The weight of each edge of `graph`, read off the potential's own
    table: the value of the edge word's first window symbols. The
    references run on these, not on the weights the solver compiled."""
    window, table = _step_table(potential)
    return [table[e.word[:window]] for e in graph.edges]


def _brute_abar(potential) -> Fraction:
    graph = WordGraph(potential.sft, max(_step_table(potential)[0] - 1, 1))
    return min(mean for _, mean in brute_cycles(graph, edge_weights(potential, graph)))


def holonomic_value_brute(ahat: TwoSidedPotential) -> Fraction:
    """Minimum mean over simple cycles of the two-sided model, pasts
    chosen freely at every step."""
    return _brute_abar(ahat)


def _epsilon_power(epsilon, lam: Fraction) -> int:
    epsilon = Fraction(epsilon)
    value = lam
    for p in range(1, 65):
        if value == epsilon:
            return p
        value *= lam
    raise ValueError("epsilon must equal lambda^p for some integer p >= 1")


def _pins(x: LassoPoint, y: LassoPoint, k: int, p: int) -> dict[int, int] | None:
    """Pinned positions: x's first p symbols at the start, y's first p
    symbols from position k on. None when the overlap is contradictory."""
    pins = {t: x.symbol(t) for t in range(p)}
    for t in range(k, k + p):
        want = y.symbol(t - k)
        if pins.setdefault(t, want) != want:
            return None
    return pins


def _scaled_costs(table: Mapping, abar: Fraction) -> tuple[int, dict]:
    """The step costs table - abar as integers over one denominator L."""
    scale, costs = _over_lcm(table.values(), abar)
    return scale, dict(zip(table, costs))


def _scan_pinned(sft: SftSystem, window: int, costs: Mapping[tuple, int],
                 pins: dict[int, int], k: int, length: int) -> set[int]:
    """DP over admissible words of `length` respecting pins: the set of
    all sums of the integer step costs of their first k steps (the sums
    live on a small lattice, so the set stays tiny), empty when no word
    fits."""
    keep = max(window - 1, 1)
    dp: dict[tuple, set[int]] = {(): {0}}
    for t in range(length):
        allowed = (pins[t],) if t in pins else tuple(range(sft.alphabet_size))
        counted = 0 <= t - window + 1 < k
        nxt: dict[tuple, set[int]] = {}
        for state, acc in dp.items():
            for b in allowed:
                if state and not sft.allows(state[-1], b):
                    continue
                word = state + (b,)
                delta = costs[word[-window:]] if counted else 0
                nxt.setdefault(word[-keep:], set()).update(s + delta for s in acc)
        if not nxt:
            return set()
        dp = nxt
    return set().union(*dp.values())


def s_epsilon(query: SEpsilonQuery, potential) -> Fraction:
    """Minimum normalized action over the k-step paths that start in x's
    epsilon-cylinder and land in y's.

    epsilon must be a power of lambda so the ball is exactly a cylinder;
    the minimizing value is recomputed here by cycle enumeration.
    """
    x, y, k = query.x, query.y, query.k
    sft = potential.sft
    if k < 1:
        raise ValueError("path length k must be >= 1")
    if not (x.admissible(sft) and y.admissible(sft)):
        raise ValueError("query lassos must be admissible")
    p = _epsilon_power(query.epsilon, sft.lam)
    window, table = _step_table(potential)
    if p + k + window > SYMBOL_BUDGET:
        raise TooLarge(
            f"p + k + window = {p + k + window} exceeds the budget {SYMBOL_BUDGET}"
        )
    scale, costs = _scaled_costs(table, _brute_abar(potential))
    pins = _pins(x, y, k, p)
    if pins is None:
        raise NoPathExists("endpoint cylinders pin contradictory symbols")
    length = max(k + p, k + window - 1)
    sums = _scan_pinned(sft, window, costs, pins, k, length)
    if not sums:
        raise NoPathExists("no admissible word satisfies the endpoint cylinders")
    return Fraction(min(sums), scale)


def point_barrier(x: LassoPoint, y: LassoPoint, kind: str, graph: WordGraph,
                  weights: Sequence[Fraction], abar: Fraction):
    """Mane potential or Peierls barrier between two lasso points.

    Deepening the agreement with x forces any path to ride x's own
    itinerary before breaking away, so the value is prefix cost C(t)
    plus the node-level matrix from the break point, a quantity that is
    nondecreasing in t and exactly periodic past the preperiod: constant
    (the returned value) when x's cycle is critical, +infinity when the
    cycle accumulates positive cost. Landing exactly on y's orbit skips
    the matrix term and survives at every depth, Mane case only.

    On a critical cycle the break point is critical, so its h and phi
    rows agree: `walk_minima`'s phi, over walks of 1..n steps, is the
    minimum, as a longer walk repeats a node after its first step and
    can drop that cycle.
    """
    if kind not in ("mane", "peierls"):
        raise ValueError(f"kind must be 'mane' or 'peierls', got {kind!r}")
    sft = graph.sft
    if not (x.admissible(sft) and y.admissible(sft)):
        raise ValueError("lassos must be admissible")
    x = LassoPoint.make(x.preperiod, x.cycle)
    y = LassoPoint.make(y.preperiod, y.cycle)
    r = graph.order
    pre, cyc = len(x.preperiod), len(x.cycle)
    expand = x.expansion(pre + cyc + r + 1)
    cum = [Fraction(0)]
    for t in range(pre + cyc):
        k = graph.edge_index(expand[t : t + r + 1])
        cum.append(cum[-1] + weights[k] - abar)
    delta = cum[pre + cyc] - cum[pre]
    if delta < 0:
        raise InternalError("negative cycle in normalized weights")

    candidates = []
    if kind == "mane":
        z = x
        for t in range(1, pre + cyc + 1):
            z = lasso_shift(z)
            if z == y:
                candidates.append(cum[t])
    if delta == 0:
        start = graph.node_index(expand[pre : pre + r])
        if start != graph.node_index(expand[pre + cyc : pre + cyc + r]):
            raise InternalError("the lasso's cycle does not return to its break point")
        target = graph.node_index(y.expansion(r))
        candidates.append(cum[pre] + walk_minima(graph, weights, abar)[0][start][target])
    if not candidates:
        return math.inf
    return min(candidates)


def is_nonwandering(x: LassoPoint, crit, potential,
                    search_budget: int = 16) -> NonwanderingReport:
    """Two independent verdicts on x being non-wandering, on the system
    of `potential`: the exact one from `crit`, its solve's critical
    structure, and the search from `potential` itself.

    Exact way: every edge of x's itinerary (preperiod, junction, cycle),
    found by its word, is critical and all lie in one component. Search
    way: for each epsilon = lambda^p, p = 1..P, hunt for a k <=
    search_budget and a path from x's cylinder of length p back to
    itself with |normalized sum| below epsilon, enumerating achievable
    sums exactly. P is the larger of 4 and the symbols x's itinerary
    edges span (preperiod plus cycle plus graph order): a shorter
    cylinder misses an edge of x, and a return along a critical cycle
    through the others passes. A finer cylinder returns only where a
    coarser one does, so every p after the first without a return is
    recorded as None unsearched. The search reads the potential as
    given, enumerating a two-sided table's pasts itself.
    """
    sft = potential.sft
    if not x.admissible(sft):
        raise ValueError("lasso must be admissible")
    x = LassoPoint.make(x.preperiod, x.cycle)
    graph = WordGraph(crit.graph.sft, crit.graph.order)
    r = graph.order
    pre, cyc = len(x.preperiod), len(x.cycle)
    expand = x.expansion(pre + cyc + r + 1)
    comps = {crit.edge_component[graph.edge_index(expand[t : t + r + 1])]
             for t in range(pre + cyc)}
    exact = len(comps) == 1 and None not in comps
    component = next(iter(comps)) if exact else None

    window, table = _step_table(potential)
    scale, costs = _scaled_costs(table, _brute_abar(potential))
    found: list[tuple[int, int | None]] = []
    for p in range(1, max(5, pre + cyc + r + 1)):
        bound = sft.lam**p * scale  # |sum| < eps, in units of 1/L
        hit: int | None = None
        k_cap = min(search_budget, SYMBOL_BUDGET - p - window)
        if found and found[-1][1] is None:
            k_cap = 0  # a finer cylinder returns only where a coarser one does
        for k in range(1, k_cap + 1):
            pins = _pins(x, x, k, p)
            if pins is None:
                continue
            length = max(k + p, k + window - 1)
            sums = _scan_pinned(sft, window, costs, pins, k, length)
            if any(-bound < s < bound for s in sums):
                hit = k
                break
        found.append((p, hit))
    search = all(hit is not None for _, hit in found)
    return NonwanderingReport(exact, search, component, tuple(found), search_budget)
