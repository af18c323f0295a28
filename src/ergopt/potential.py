"""Locally constant observables and the operations that massage them:
two-sided to one-sided reduction, range truncation, and compilation to
edge weights.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import IncompatibleOrder
from .symbolic import DeBruijnGraph, SftSystem, Word, admissible_words, count_words


def _values(sft: SftSystem, length: int, entries: Mapping | Iterable[tuple],
            values: Sequence[Fraction] | None) -> tuple[Fraction, ...]:
    """One rational per admissible word of `length`, in lexicographic
    word order: `values` as given, once their count is checked, or else
    read from `entries`, a mapping or (key, value) pairs, which may name
    a word twice.

    Every key is checked, in this order, to be a word (a tuple of ints;
    a string such as "10" is refused, as it spells no word until
    `parse_word` reads it for an alphabet), to have that length, to be
    admissible (its pairs against the system's allowed pairs, or its one
    symbol against the alphabet) and to appear once, so the table is
    complete exactly when its size equals the count of admissible words,
    which is checked last; no word list is built. A value that is already
    a Fraction is kept as it is, any other is converted.
    """
    if values is not None:
        if count_words(sft, length, len(values)) != len(values):
            raise ValueError(f"{len(values)} values do not match the admissible {length}-words")
        return tuple(values)
    table: dict[Word, Fraction] = {}
    pairs, symbols = sft._pairs, range(sft.alphabet_size)
    for word, val in entries.items() if isinstance(entries, Mapping) else entries:
        if type(word) is not tuple:
            raise ValueError(f"table key {word!r} is not a word, a tuple of symbols")
        if len(word) != length:
            raise ValueError(f"table word {word} does not have length {length}")
        if not (pairs.issuperset(zip(word, word[1:])) if length > 1 else word[0] in symbols):
            raise ValueError(f"table word {word} is not admissible")
        if word in table:
            raise ValueError(f"duplicate table word {word}")
        table[word] = val if isinstance(val, Fraction) else Fraction(val)
    if count_words(sft, length, len(table)) != len(table):
        raise ValueError(
            f"table is missing admissible words of length {length}: "
            f"it has only {len(table)}"
        )
    return tuple(map(table.__getitem__, sorted(table)))


def _word_table(sft: SftSystem, length: int, values: tuple) -> Mapping[Word, Fraction]:
    """Word -> value over the admissible words of `length`, read-only."""
    return MappingProxyType(dict(zip(admissible_words(sft, length, len(values)), values)))


@dataclass(frozen=True, eq=False)
class OneSidedPotential:
    """B: Sigma -> Q depending only on the first `range` symbols.

    Range-1 inputs are promoted to range 2 at construction (the value of
    a 2-word is the value of its first symbol); declared_range remembers
    what was asked for. Optional Hoelder metadata rides along for
    reporting only, it never enters the arithmetic.
    """

    sft: SftSystem
    range: int
    values: tuple[Fraction, ...]
    declared_range: int
    holder_theta: Fraction | None = None
    holder_const: Fraction | None = None

    @functools.cached_property
    def table(self) -> Mapping[Word, Fraction]:
        """Word -> value, a view of `values` built on first read."""
        return _word_table(self.sft, self.range, self.values)

    @property
    def working_order(self) -> int:
        """The order of the smallest graph that carries the table."""
        return max(self.range - 1, 1)

    @property
    def potential(self) -> OneSidedPotential:
        """Itself: an instance is its potential, so what reads an
        instance's potential (perfbench's tests do) reads this."""
        return self

    def value(self, word: Sequence[int]) -> Fraction:
        key = tuple(word[: self.range])
        try:
            return self.table[key]
        except KeyError:
            raise ValueError(
                f"word {tuple(word)} does not determine an admissible "
                f"range-{self.range} window"
            ) from None


def build_one_sided(sft: SftSystem, m: int, entries: Mapping | Iterable[tuple] = (), *,
                    values=None, holder_theta=None, holder_const=None) -> OneSidedPotential:
    """Validate a range-m table: exactly the admissible m-words, rational
    values, from `entries` or, in word order, `values` (see `_values`)."""
    if m < 1:
        raise ValueError(f"potential range must be >= 1, got {m}")
    values = _values(sft, m, entries, values)
    declared = m
    if m == 1:  # each 2-word takes its first symbol's value
        values = tuple(v for v, succ in zip(values, sft.successors) for _ in succ)
        m = 2
    theta = None if holder_theta is None else Fraction(holder_theta)
    const = None if holder_const is None else Fraction(holder_const)
    return OneSidedPotential(sft, m, values, declared, theta, const)


@dataclass(frozen=True, eq=False)
class TwoSidedPotential:
    """Observable on the two-sided model, constant on windows of
    past_depth symbols behind and future_depth symbols ahead.

    Table keys are the admissible (p+q)-words y_p...y_1 x_0...x_{q-1};
    admissibility of the key covers the junction pair (y_1, x_0). The
    value is read as the observable composed with the forward step, so
    the one-sided reduction below is a plain minimum over pasts.
    """

    sft: SftSystem
    past_depth: int
    future_depth: int
    values: tuple[Fraction, ...]

    @functools.cached_property
    def table(self) -> Mapping[Word, Fraction]:
        """Word -> value, a view of `values` built on first read."""
        return _word_table(self.sft, self.past_depth + self.future_depth, self.values)

    @property
    def working_order(self) -> int:
        """The working order of the one-sided envelope."""
        return max(self.future_depth - 1, 1)

    @property
    def potential(self) -> TwoSidedPotential:
        """Itself, as `OneSidedPotential.potential`."""
        return self


def build_two_sided(sft: SftSystem, p: int, q: int, entries: Mapping | Iterable[tuple] = (),
                    *, values=None) -> TwoSidedPotential:
    if p < 1 or q < 1:
        raise ValueError("past and future depths must both be >= 1")
    return TwoSidedPotential(sft, p, q, _values(sft, p + q, entries, values))


def reduce_two_sided(ahat: TwoSidedPotential) -> OneSidedPotential:
    """B(w) = min over admissible pasts y of ahat(y + w), range = future_depth.

    The minimizing value of the result equals the holonomic minimizing
    value of ahat: every length-k path of the two-sided model picks its
    pasts freely step by step, so minimizing per step loses nothing.
    The table keys are exactly the admissible words y + w, so one pass
    over them meets every past of every w, and every w has a past, as
    every symbol has a predecessor.
    """
    p, q = ahat.past_depth, ahat.future_depth
    reduced: dict[Word, Fraction] = {}
    for word, val in ahat.table.items():
        w = word[p:]
        if w not in reduced or val < reduced[w]:
            reduced[w] = val
    values = [reduced[w] for w in admissible_words(ahat.sft, q)]
    return build_one_sided(ahat.sft, q, values=values)


def truncate(b: OneSidedPotential, r: int) -> tuple[OneSidedPotential, Fraction]:
    """Coarsen to range r by minimizing over extensions.

    Returns the coarsened potential and the exact sup-error bound
    max over r-words of (max extension - min extension). r equal to the
    working range is allowed and is the identity with bound 0.
    """
    m = b.range
    if not 1 <= r <= m:
        raise ValueError(f"truncation range must be in 1..{m}, got {r}")
    if r == m:
        return b, Fraction(0)
    groups: dict[Word, list[Fraction]] = {}
    for word, val in b.table.items():
        groups.setdefault(word[:r], []).append(val)
    table = {w: min(vals) for w, vals in groups.items()}
    bound = max(max(vals) - min(vals) for vals in groups.values())
    out = build_one_sided(b.sft, r, table,
                          holder_theta=b.holder_theta, holder_const=b.holder_const)
    return out, bound


def compile_weights(b: OneSidedPotential, graph: DeBruijnGraph) -> tuple[Fraction, ...]:
    """Edge weight = b on the edge word, on b's own graph: its working
    order m-1, whose edges are the admissible m-words in lexicographic
    order, so the weights are b's values as they are held, and b's
    transition matrix (lambda never enters the weights). `lift_to`
    carries them to a finer graph, keeping path sums. No word is built.
    """
    m, order = b.range, b.working_order
    if graph.order != order:
        raise IncompatibleOrder(
            f"a range-{m} potential compiles onto order {order}, not {graph.order}"
        )
    if len(b.values) != graph.n_edges:
        raise IncompatibleOrder(
            f"a range-{m} table needs {graph.n_edges} values, it has {len(b.values)}"
        )
    if graph.sft.transition != b.sft.transition:
        raise IncompatibleOrder("the graph's transition matrix is not the potential's")
    return b.values
