"""Instance files (JSON), matrix and vector CSV, seeded random instances.

Rationals travel as strings ("1/2", "3", "0.25") so nothing passes
through binary floats; words are digit strings for alphabets up to ten
symbols and comma-separated integers beyond that.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .errors import ErgoptError, InstanceFormatError
from .potential import OneSidedPotential, TwoSidedPotential, build_one_sided, build_two_sided
from .symbolic import MAX_WORD_LENGTH, SftSystem, Word, admissible_words, build_sft, count_words


# Python's default limit on the digits of an integer string; a larger
# decimal exponent would make Fraction build a power of ten that long.
MAX_EXPONENT = 4300


def _is_digits(text: str) -> bool:
    """Whether text is one or more of the ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


def parse_fraction(value, where: str = "value") -> Fraction:
    """The one path from instance, CSV or command-line text to a rational."""
    if isinstance(value, bool):
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InstanceFormatError(
            f"{where}: write non-integer numbers as strings like \"1/2\" or \"0.25\""
        )
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            if _is_digits(num.removeprefix("-")) and (not slash or _is_digits(den)):
                # the common forms, without Fraction's regular expression
                return Fraction(int(num), int(den) if slash else 1)
            if "_" in value:  # Fraction reads PEP 515 underscores from 3.11 on
                raise ValueError(value)
            _, e, exponent = value.lower().partition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise InstanceFormatError(
                    f"{where}: exponent beyond {MAX_EXPONENT} in magnitude: {value!r}"
                )
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"{where}: not a rational: {value!r}") from exc
    raise InstanceFormatError(f"{where}: expected a rational, got {type(value).__name__}")


def format_fraction(value: Fraction) -> str:
    return str(value)


def format_word(word: Sequence[int], alphabet_size: int) -> str:
    return ("" if alphabet_size <= 10 else ",").join(map(str, word))


def csv_field(text: str) -> str:
    """A word's text as one CSV field, quoted if it holds a comma."""
    return f'"{text}"' if "," in text else text


def parse_word(text: str, alphabet_size: int, where: str = "word") -> Word:
    """The word `format_word` wrote: beyond ten symbols it is always
    comma-separated, even a one-symbol word; up to ten, digits or commas."""
    if not text:
        raise InstanceFormatError(f"{where}: empty word")
    try:
        return tuple(map(int, text.split(",") if "," in text or alphabet_size > 10 else text))
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: malformed word {text!r}") from exc


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise InstanceFormatError(f"{where}: missing key {key!r}")
    return data[key]


def _integer(data: dict, key: str, where: str) -> int:
    """The required entry `key`, a JSON integer and not a boolean."""
    value = _require(data, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{key} must be an integer")
    return value


def word_texts(sft: SftSystem, length: int, cap: int) -> list[str] | None:
    """`format_word`'s text of every admissible word of `length`, in word
    order, or None if there are more than `cap` of them or `length` is
    not in 1..MAX_WORD_LENGTH. The words are counted first, and counts
    never fall as the length grows, so no list grows past `cap`. No word
    tuple is built: the words that start with symbol a grow a symbol a
    step, as a followed by the words of each successor of a in order."""
    if not 1 <= length <= MAX_WORD_LENGTH or count_words(sft, length, cap) > cap:
        return None
    symbols = list(map(str, range(sft.alphabet_size)))
    firsts = [a + ("" if sft.alphabet_size <= 10 else ",") for a in symbols]
    blocks = [[a] for a in symbols]
    for _ in range(length - 1):
        blocks = [[first + w for b in succ for w in blocks[b]]
                  for first, succ in zip(firsts, sft.successors)]
    return list(itertools.chain.from_iterable(blocks))


def parse_instance(data: dict) -> OneSidedPotential | TwoSidedPotential:
    """The validated potential of decoded JSON, which holds its system.

    Structural problems raise InstanceFormatError; domain violations
    (irreducibility, lambda range, empty rows) keep their own types.
    """
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")
    size = _integer(data, "alphabet_size", "instance")
    matrix = _require(data, "transition", "instance")
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InstanceFormatError("transition must be a list of rows")
    lam = parse_fraction(_require(data, "lambda", "instance"), "lambda")
    try:
        sft = build_sft(size, matrix, lam)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"transition: {exc}") from exc

    pot_data = _require(data, "potential", "instance")
    if not isinstance(pot_data, dict):
        raise InstanceFormatError("potential must be a JSON object")
    side = _require(pot_data, "side", "potential")
    raw_entries = _require(pot_data, "entries", "potential")
    if not isinstance(raw_entries, dict):
        raise InstanceFormatError("potential entries must be an object")
    if side == "one":
        sizes = (_integer(pot_data, "range", "potential"),)
    elif side == "two":
        sizes = (_integer(pot_data, "past_depth", "potential"),
                 _integer(pot_data, "future_depth", "potential"))
    else:
        raise InstanceFormatError(f"potential side must be 'one' or 'two', got {side!r}")
    # Keys in word order give the values by lookup and fail no check;
    # else each key is read as a word, so two spellings of one word ("01",
    # "0,1") reach the table's duplicate check. Texts are capped at the
    # keys' count. Each distinct value is parsed at its first entry; only
    # ints and strings are looked up, as 1, 1.0 and true are one dict key
    # and a list is none, and parse_fraction refuses every other JSON type
    keys = word_texts(sft, sum(sizes), len(raw_entries))
    if keys and (len(keys) != len(raw_entries) or not all(map(raw_entries.__contains__, keys))):
        keys = None
    words: list[Word] = []
    parsed: dict[int | str, Fraction] = {}
    for key, val in raw_entries.items():
        if keys is None:
            words.append(parse_word(key, size, f"potential entry {key!r}"))
        if type(val) not in (int, str) or val not in parsed:
            parsed[val] = parse_fraction(val, f"entry {key!r}")
    values = None if keys is None else [parsed[raw_entries[k]] for k in keys]
    entries = zip(words, map(parsed.__getitem__, raw_entries.values()))
    try:
        if side == "two":
            return build_two_sided(sft, *sizes, entries, values=values)
        holder = {} if data.get("holder") is None else data["holder"]
        if not isinstance(holder, dict):
            raise InstanceFormatError("holder must be a JSON object")
        theta = holder.get("theta")
        const = holder.get("const")
        return build_one_sided(
            sft, *sizes, entries, values=values,
            holder_theta=None if theta is None else parse_fraction(theta, "holder.theta"),
            holder_const=None if const is None else parse_fraction(const, "holder.const"),
        )
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"potential: {exc}") from exc


def load_instance(path) -> OneSidedPotential | TwoSidedPotential:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read instance file: {exc}") from exc
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        # ValueError covers JSONDecodeError and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return parse_instance(data)


def dump_instance(pot: OneSidedPotential | TwoSidedPotential) -> dict:
    """JSON-ready dict that parse_instance reads back identically."""
    sft = pot.sft
    data: dict = {
        "alphabet_size": sft.alphabet_size,
        "transition": [list(row) for row in sft.transition],
        "lambda": format_fraction(sft.lam),
    }
    one_sided = isinstance(pot, OneSidedPotential)
    # A range-1 table is kept promoted to range 2, constant across the
    # extensions of each 1-word, so keys are cut back to the declared range.
    width = pot.declared_range if one_sided else pot.past_depth + pot.future_depth
    entries = {
        format_word(w[:width], sft.alphabet_size): format_fraction(v)
        for w, v in pot.table.items()
    }
    if one_sided:
        data["potential"] = {"side": "one", "range": width, "entries": entries}
        if pot.holder_theta is not None or pot.holder_const is not None:
            data["holder"] = {}
            if pot.holder_theta is not None:
                data["holder"]["theta"] = format_fraction(pot.holder_theta)
            if pot.holder_const is not None:
                data["holder"]["const"] = format_fraction(pot.holder_const)
    else:
        data["potential"] = {
            "side": "two",
            "past_depth": pot.past_depth,
            "future_depth": pot.future_depth,
            "entries": entries,
        }
    return data


def matrix_csv_text(texts: Sequence[str], matrix, big: int) -> str:
    """The matrix of integers over `big` as CSV labelled by the node word
    texts (`word_texts`); each distinct integer is formatted once."""
    text = {v: format_fraction(Fraction(v, big)) for v in set().union(*matrix)}
    fields = list(map(csv_field, texts))
    lines = ["word," + ",".join(fields)]
    for field, row in zip(fields, matrix):
        lines.append(field + "," + ",".join(map(text.__getitem__, row)))
    return "\n".join(lines) + "\n"


def subaction_csv_text(texts: Sequence[str], values: Sequence[Fraction]) -> str:
    """word,value rows of word texts (`word_texts`) and their values.
    Each distinct value is formatted once, keyed on its integer ratio:
    hashing a Fraction costs more than formatting it."""
    ratios = [v.as_integer_ratio() for v in values]
    text = {r: format_fraction(v) for r, v in dict(zip(ratios, values)).items()}
    return "word,value\n" + "".join([f"{w},{v}\n" for w, v in
                                     zip(texts, map(text.__getitem__, ratios))])


def read_subaction_csv(path, sft: SftSystem) -> tuple[int, list[Word] | None, list[Fraction]]:
    """`(depth, words, values)` of a word,value CSV, one row per word and
    every word of length `depth`. If the word cells are exactly
    `word_texts` of that length, as `subaction_csv_text` writes them,
    `words` is None and the values are in word order: no cell is read as
    a word. Any other file is read row by row, `words` in file order, so
    it meets every check and its error."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "word,value":
        raise InstanceFormatError("sub-action CSV must start with a 'word,value' header")
    rows = list(filter(None, lines[1:]))
    # a word beyond ten symbols has commas of its own; a value has none. A
    # row with no comma splits to an empty cell here, which no text matches
    split = list(map(str.rpartition, rows, itertools.repeat(",")))
    cells = list(map(itemgetter(0), split))
    first = cells[0] if cells else ""
    depth = len(first) if sft.alphabet_size <= 10 else first.count(",") + 1
    if word_texts(sft, depth, len(cells)) != cells:
        return _subaction_rows(rows, sft.alphabet_size)
    texts = list(map(itemgetter(2), split))
    parsed: dict[str, Fraction] = {}  # each distinct value text, parsed at its first row
    for cell, text in zip(cells, texts):
        if text not in parsed:
            parsed[text] = parse_fraction(text, f"value for {cell}")
    return depth, None, list(map(parsed.__getitem__, texts))


def _subaction_rows(rows: list[str], alphabet_size: int) -> tuple[int, list[Word], list[Fraction]]:
    """`read_subaction_csv` of rows not in word order, read one by one:
    a row's word, then its value, so the first bad cell in the file is
    the one named; then the words must be one or more, of one length,
    with none repeated."""
    words: list[Word] = []
    values: list[Fraction] = []
    parsed: dict[str, Fraction] = {}  # each distinct value text, parsed at its first row
    for line in rows:
        cell, _, text = line.rpartition(",") if "," in line else (line, "", "")
        words.append(parse_word(cell, alphabet_size))
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_fraction(text, f"value for {cell}")
        values.append(value)
    if not words:
        raise InstanceFormatError("sub-action CSV has no rows")
    depth = len(words[0])
    if any(len(w) != depth for w in words):
        raise InstanceFormatError("sub-action words must all share one length")
    if len(set(words)) != len(words):
        word = next(w for w, count in Counter(words).items() if count > 1)
        raise InstanceFormatError(
            f"duplicate word {format_word(word, alphabet_size)!r} in sub-action CSV")
    return depth, words, values


def _random_sft(rng: random.Random) -> SftSystem:
    """Irreducible system on 2 or 3 symbols with lambda 1/2, redrawn
    until the matrix is valid."""
    while True:
        s = rng.choice((2, 3))
        matrix = [[1 if rng.random() < 0.6 else 0 for _ in range(s)] for _ in range(s)]
        try:
            return build_sft(s, matrix, Fraction(1, 2))
        except ErgoptError:
            continue


def random_instance(rng: random.Random) -> OneSidedPotential:
    """Small irreducible system with a one-sided integer table.

    Alphabet 2 or 3, range 1 or 2, weights 0..4, lambda 1/2: the scale
    every brute-force oracle handles comfortably.
    """
    sft = _random_sft(rng)
    m = rng.choice((1, 2))
    values = [Fraction(rng.randint(0, 4)) for _ in admissible_words(sft, m)]
    return build_one_sided(sft, m, values=values)


def random_two_sided(rng: random.Random) -> TwoSidedPotential:
    """Depth-(1,1) two-sided table on a random small system."""
    sft = _random_sft(rng)
    values = [Fraction(rng.randint(0, 4)) for _ in admissible_words(sft, 2)]
    return build_two_sided(sft, 1, 1, values=values)
