"""Symbolic dynamics substrate: subshifts of finite type, lasso points,
and the de Bruijn refinement graphs all solvers run on.

Symbols are 0-based integers. Metric values are exact powers of the
rational parameter lambda, so distance comparisons never round.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetExceeded,
    EmptyRowOrColumn,
    InternalError,
    LambdaOutOfRange,
    NotIrreducible,
)

Word = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**6
MAX_ALPHABET = 64
MAX_WORD_LENGTH = 1024


def strongly_connected_components(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Kosaraju's algorithm, iterative: a depth-first search records the
    order in which nodes finish, then, last finished first, a search
    over the reversed arcs collects each unplaced node's component.

    Returns the components in reverse topological order (a component
    comes only after everything reachable from it), each sorted
    ascending. Singletons without a self-loop are included; callers that
    only want cyclic components filter afterwards.
    """
    n = len(successors)
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(successors[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for v, ws in enumerate(successors):
        for w in ws:
            predecessors[w].append(v)
    placed = [False] * n
    components: list[list[int]] = []
    for root in reversed(finished):
        if placed[root]:
            continue
        placed[root] = True
        comp = [root]
        for v in comp:  # the list grows while it is walked
            for t in predecessors[v]:
                if not placed[t]:
                    placed[t] = True
                    comp.append(t)
        comp.sort()
        components.append(comp)
    components.reverse()
    return components


@dataclass(frozen=True)
class SftSystem:
    """A one-sided subshift of finite type with its metric parameter."""

    alphabet_size: int
    transition: tuple[tuple[int, ...], ...]
    lam: Fraction
    successors: tuple[tuple[int, ...], ...]
    predecessors: tuple[tuple[int, ...], ...]

    def allows(self, a: int, b: int) -> bool:
        return self.transition[a][b] == 1

    @functools.cached_property
    def _pairs(self) -> frozenset[tuple[int, int]]:
        """The allowed pairs (a, b), each symbol in range."""
        return frozenset((a, b) for a, row in enumerate(self.successors) for b in row)

    def admissible(self, word: Sequence[int]) -> bool:
        """Whether the word is nonempty, every symbol is in range and
        every consecutive pair is allowed. Both ends of an allowed pair
        are in range, so beyond one symbol the pairs check it all."""
        if len(word) == 1:
            return 0 <= word[0] < self.alphabet_size
        return len(word) > 1 and self._pairs.issuperset(zip(word, word[1:]))


def build_sft(alphabet_size: int, matrix: Sequence[Sequence[int]], lam) -> SftSystem:
    """Validate and freeze a subshift of finite type.

    The transition matrix must be square 0/1, have no empty row or
    column, and be irreducible (single strongly connected component).
    """
    if not 1 <= alphabet_size <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}, got {alphabet_size}")
    if len(matrix) != alphabet_size or any(len(row) != alphabet_size for row in matrix):
        raise ValueError(f"transition matrix must be {alphabet_size}x{alphabet_size}")
    rows = []
    for i, row in enumerate(matrix):
        entries = tuple(int(v) for v in row)
        for j, v in enumerate(entries):
            if v not in (0, 1):
                raise ValueError(f"transition matrix entries must be 0 or 1: "
                                 f"row {i}, column {j} is {row[j]!r}")
        rows.append(entries)
    transition = tuple(rows)
    successors = tuple(
        tuple(b for b in range(alphabet_size) if transition[a][b] == 1)
        for a in range(alphabet_size)
    )
    predecessors = tuple(
        tuple(a for a in range(alphabet_size) if transition[a][b] == 1)
        for b in range(alphabet_size)
    )
    for a in range(alphabet_size):
        if not successors[a]:
            raise EmptyRowOrColumn(f"symbol {a} has no successor (empty row)")
        if not predecessors[a]:
            raise EmptyRowOrColumn(f"symbol {a} has no predecessor (empty column)")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise LambdaOutOfRange(f"lambda must lie strictly between 0 and 1, got {lam}")
    components = strongly_connected_components(successors)
    if len(components) > 1:  # the first is a sink, which reaches no other
        raise NotIrreducible(f"transition matrix is not strongly connected: symbol "
                             f"{components[0][0]} cannot reach symbol {components[-1][0]}")
    return SftSystem(alphabet_size, transition, lam, successors, predecessors)


def count_words(sft: SftSystem, length: int, cap: int) -> int:
    """The number of admissible words of `length`, or some number above
    `cap` once the count passes it. No word is built; every symbol has a
    successor, so the count never falls as the length grows. A length
    past MAX_WORD_LENGTH raises BudgetExceeded whatever the count.
    """
    if length > MAX_WORD_LENGTH:
        raise BudgetExceeded(f"word length {length} exceeds the budget of {MAX_WORD_LENGTH}")
    ending = [1] * sft.alphabet_size
    total = sft.alphabet_size
    for _ in range(length - 1):
        if total > cap:
            break
        ending = [sum(map(ending.__getitem__, preds)) for preds in sft.predecessors]
        total = sum(ending)
    return total


def check_budget(sft: SftSystem, length: int, node_budget: int = DEFAULT_NODE_BUDGET) -> None:
    """Raise BudgetExceeded unless the admissible `length`-words fit the
    node budget and the word-length cap."""
    if count_words(sft, length, node_budget) > node_budget:
        raise BudgetExceeded(f"admissible {length}-words exceed the node budget of {node_budget}")


def admissible_words(sft: SftSystem, length: int,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> list[Word]:
    """The admissible words of `length` in lexicographic order.

    The words are counted first, so a request past `node_budget` raises
    BudgetExceeded before any list is built.
    """
    check_budget(sft, length, node_budget)
    words: list[Word] = [(a,) for a in range(sft.alphabet_size)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in sft.successors[w[-1]]]
    return words


@dataclass(frozen=True)
class LassoPoint:
    """Eventually periodic point, preperiod + repeating cycle.

    Always construct through make(): equality, shifts and distances
    assume the canonical form (primitive cycle, shortest preperiod).
    """

    preperiod: Word
    cycle: Word

    @staticmethod
    def make(preperiod: Sequence[int], cycle: Sequence[int]) -> LassoPoint:
        pre = [int(s) for s in preperiod]
        cyc = tuple(int(s) for s in cycle)
        if not cyc:
            raise ValueError("lasso cycle must be nonempty")
        length = len(cyc)
        for d in range(1, length + 1):
            if length % d == 0 and cyc == cyc[:d] * (length // d):
                cyc = cyc[:d]
                break
        # Absorb preperiod symbols that already continue the cycle:
        # u·c^inf with u ending in c's last symbol equals u'·c'^inf for
        # the right rotation c' of c.
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc = cyc[-1:] + cyc[:-1]
        return LassoPoint(tuple(pre), cyc)

    def symbol(self, i: int) -> int:
        p = len(self.preperiod)
        if i < p:
            return self.preperiod[i]
        return self.cycle[(i - p) % len(self.cycle)]

    def expansion(self, n: int) -> Word:
        return tuple(self.symbol(i) for i in range(n))

    def admissible(self, sft: SftSystem) -> bool:
        return sft.admissible(self.preperiod + self.cycle + self.cycle[:1])


def lasso_shift(x: LassoPoint) -> LassoPoint:
    """The left shift on lasso representations, canonicalized."""
    if x.preperiod:
        return LassoPoint.make(x.preperiod[1:], x.cycle)
    return LassoPoint.make((), x.cycle[1:] + x.cycle[:1])


def lasso_distance(x: LassoPoint, y: LassoPoint, sft: SftSystem) -> Fraction:
    """d(x,y) = lambda^k with k the first index where the expansions differ.

    Two eventually periodic points that agree up to
    max(preperiods) + lcm(cycle lengths) agree everywhere, so the scan
    is bounded.
    """
    x = LassoPoint.make(x.preperiod, x.cycle)
    y = LassoPoint.make(y.preperiod, y.cycle)
    if x == y:
        return Fraction(0)
    bound = max(len(x.preperiod), len(y.preperiod)) + math.lcm(len(x.cycle), len(y.cycle))
    for i in range(bound):
        if x.symbol(i) != y.symbol(i):
            return sft.lam**i
    raise InternalError("distinct canonical lassos agree past the periodicity bound")


class DeBruijnGraph:
    """Order-r refinement of an SFT, held as int arrays.

    Nodes are the admissible r-words and edges the admissible (r+1)-words,
    each from its length-r prefix to its length-r suffix, both in
    lexicographic order. Order 1 is the transition matrix; each order
    above is the line graph of the one below (`line_graph`): node i one
    order up is edge i here. Edge k runs from `tails[k]` to `heads[k]`,
    the out-edges of node v are the index range `out_edges[v]`, and
    `lasts[v]` is the last symbol of v's word. No word is stored, and
    none is looked up: `edge_word` unranks one edge's word from counts
    of admissible words. The oracle's `WordGraph` wires the same graph
    from the words themselves, so the two check each other.
    Irreducibility makes the graph strongly connected at every order.
    """

    def __init__(self, sft: SftSystem, order: int, node_budget: int = DEFAULT_NODE_BUDGET):
        if order < 1:
            raise ValueError(f"graph order must be >= 1, got {order}")
        check_budget(sft, order, node_budget)
        self.sft = sft
        self._wire(1, list(range(sft.alphabet_size)), sft.successors)
        while self.order < order:
            self._wire(*self._line_step())

    def _line_step(self):
        """Node i one order up is edge i here, ending in its head's last
        symbol; its successors are the edges out of that head, so both
        lists stay lexicographic."""
        heads = self.heads
        return (self.order + 1, list(map(self.lasts.__getitem__, heads)),
                list(map(self.out_edges.__getitem__, heads)))

    def _wire(self, order: int, lasts: list[int], successors) -> None:
        """Nodes, and edges to each node's successors in order, numbered
        consecutively by tail."""
        self.order, self.lasts = order, lasts
        degrees = list(map(len, successors))
        starts = list(itertools.accumulate(degrees, initial=0))
        self.heads: list[int] = list(itertools.chain.from_iterable(successors))
        self.tails: list[int] = list(itertools.chain.from_iterable(
            map(itertools.repeat, range(len(lasts)), degrees)))
        self.out_edges: list[range] = list(map(range, starts, starts[1:]))

    def line_graph(self) -> DeBruijnGraph:
        """The graph one order up."""
        up = DeBruijnGraph.__new__(DeBruijnGraph)
        up.sft = self.sft
        up._wire(*self._line_step())
        return up

    @functools.cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        ins: list[list[int]] = [[] for _ in self.lasts]
        for k, head in enumerate(self.heads):
            ins[head].append(k)
        return tuple(map(tuple, ins))

    @functools.cached_property
    def _completions(self) -> list[list[int]]:
        """[j][a]: the admissible (j+1)-words beginning with a, counted."""
        counts = [[1] * self.sft.alphabet_size]
        for _ in range(self.order):
            counts.append([sum(map(counts[-1].__getitem__, s)) for s in self.sft.successors])
        return counts

    def edge_word(self, k: int) -> Word:
        """Edge k's word. Edges are numbered in word order, so k is its
        rank among the admissible (order+1)-words: each symbol in turn is
        the first whose completions, counted, pass what is left of k."""
        word, choices = [], range(self.sft.alphabet_size)
        for counts in reversed(self._completions):
            for a in choices:
                if k < counts[a]:
                    break
                k -= counts[a]
            word.append(a)
            choices = self.sft.successors[a]
        return tuple(word)

    @property
    def n_nodes(self) -> int:
        return len(self.lasts)

    @property
    def n_edges(self) -> int:
        return len(self.heads)


def refine(sft: SftSystem, r: int, node_budget: int = DEFAULT_NODE_BUDGET) -> DeBruijnGraph:
    return DeBruijnGraph(sft, r, node_budget)


def lift_to(graph: DeBruijnGraph, weights: Sequence[Fraction], order: int,
            node_budget: int = DEFAULT_NODE_BUDGET):
    """Refine to `order` by line steps, counting the words first. Each
    lifted edge takes the weight of its tail one order down, and so, step
    by step, that of the base edge its word starts with: path sums, cycle
    means and everything downstream are preserved.
    """
    if order < graph.order:
        raise ValueError(f"cannot lower order {graph.order} to {order}")
    if order > graph.order:
        check_budget(graph.sft, order, node_budget)
    weights = tuple(weights)
    while graph.order < order:
        graph = graph.line_graph()
        weights = tuple(map(weights.__getitem__, graph.tails))
    return graph, weights
