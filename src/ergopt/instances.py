"""Instance files (JSON), matrix and vector CSV, seeded random instances.

Rationals travel as strings ("1/2", "3", "0.25") so nothing passes
through binary floats; words are digit strings for alphabets up to ten
symbols and comma-separated integers beyond that.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ErgoptError, InstanceFormatError
from .potential import OneSidedPotential, TwoSidedPotential, build_one_sided, build_two_sided
from .symbolic import MAX_WORD_LENGTH, SftSystem, Word, admissible_words, build_sft


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


def csv_word(word: Sequence[int], alphabet_size: int) -> str:
    """The word as one CSV field, quoted as CSV quotes one with commas."""
    text = format_word(word, alphabet_size)
    return f'"{text}"' if "," in text else text


class WordTemplates(dict):
    """Word length -> the `%` template that fills a word (a tuple of
    ints) of that many symbols as `format_word` writes it or, `quoted`,
    as `csv_word` does, followed by `tail`; each is made on first use,
    so a list of words costs one template per length. Beyond ten symbols
    a word of two or more symbols holds commas, which CSV quotes; a
    one-symbol word is never quoted."""

    def __init__(self, alphabet_size: int, quoted: bool = False, tail: str = ""):
        super().__init__()
        self.sep = "" if alphabet_size <= 10 else ","
        self.quote = '"' if quoted and self.sep else ""
        self.tail = tail

    def __missing__(self, length: int) -> str:
        text = self.sep.join(["%d"] * length)
        if length > 1:
            text = self.quote + text + self.quote
        self[length] = template = text + self.tail
        return template


def csv_words(words: Iterable[Word], alphabet_size: int) -> list[str]:
    """Each word as `csv_word` writes it."""
    templates = WordTemplates(alphabet_size, quoted=True)
    return [templates[len(w)] % w for w in words]


def parse_word(text: str, alphabet_size: int, where: str = "word") -> Word:
    """The word `format_word` wrote: beyond ten symbols it is always
    comma-separated, even a one-symbol word; up to ten, digits or commas."""
    if not text:
        raise InstanceFormatError(f"{where}: empty word")
    try:
        return tuple(map(int, text.split(",") if "," in text or alphabet_size > 10 else text))
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: malformed word {text!r}") from exc


_DIGITS = {str(d): d for d in range(10)}


def _cell_word(cell: str, alphabet_size: int) -> Word:
    """The word of a CSV cell, as `parse_word` reads it. Up to ten
    symbols, a cell of ASCII digits alone is read through one digit
    table; any other cell (commas, a sign, digits that are not ASCII,
    which `int` takes too, or no character at all) goes to `parse_word`,
    so every cell gives the same word or the same error."""
    if alphabet_size <= 10 and cell:
        try:
            return tuple(map(_DIGITS.__getitem__, cell))
        except KeyError:
            pass
    return parse_word(cell, alphabet_size)


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


def _keys_in_word_order(sft: SftSystem, pot_data: dict, side, entries: dict) -> list | None:
    """`format_word`'s text of every admissible word of the table's
    length, in word order, if these are exactly the keys of `entries`,
    else None. Sizes are read only when well-formed and at most
    MAX_WORD_LENGTH, and texts grow only while they are no more than the
    keys, so every other file meets the per-key checks and their errors."""
    sizes = [pot_data.get(k) for k in (("range",) if side == "one" else
                                       ("past_depth", "future_depth") if side == "two" else ())]
    if not sizes or not all(type(k) is int and k >= 1 for k in sizes):
        return None
    length, n = sum(sizes), len(entries)
    if length > MAX_WORD_LENGTH:
        return None
    # the words that start with symbol a, one symbol longer a step: a,
    # then the words of each successor of a in order. Every symbol has a
    # successor, so the count of words never falls as they grow
    symbols = list(map(str, range(sft.alphabet_size)))
    firsts = [a + ("" if sft.alphabet_size <= 10 else ",") for a in symbols]
    blocks = [[a] for a in symbols]
    for _ in range(length - 1):
        if sum(map(len, blocks)) > n:
            return None
        blocks = [[first + w for b in succ for w in blocks[b]]
                  for first, succ in zip(firsts, sft.successors)]
    texts = list(itertools.chain.from_iterable(blocks))
    return texts if len(texts) == n and all(map(entries.__contains__, texts)) else None


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
    # Keys in word order give the values by lookup and fail no check;
    # else each key is read as a word, so two spellings of one word ("01",
    # "0,1") reach the table's duplicate check. Each distinct value is
    # parsed at its first entry; only ints and strings are looked up, as
    # 1, 1.0 and true are one dict key and a list is none, and
    # parse_fraction refuses every other JSON type
    keys = _keys_in_word_order(sft, pot_data, side, raw_entries)
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
        if side == "one":
            m = _integer(pot_data, "range", "potential")
            holder = {} if data.get("holder") is None else data["holder"]
            if not isinstance(holder, dict):
                raise InstanceFormatError("holder must be a JSON object")
            theta = holder.get("theta")
            const = holder.get("const")
            potential = build_one_sided(
                sft, m, entries, values=values,
                holder_theta=None if theta is None else parse_fraction(theta, "holder.theta"),
                holder_const=None if const is None else parse_fraction(const, "holder.const"),
            )
        elif side == "two":
            p = _integer(pot_data, "past_depth", "potential")
            q = _integer(pot_data, "future_depth", "potential")
            potential = build_two_sided(sft, p, q, entries, values=values)
        else:
            raise InstanceFormatError(f"potential side must be 'one' or 'two', got {side!r}")
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"potential: {exc}") from exc
    return potential


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


def matrix_csv_text(node_words: Sequence[Word], matrix, alphabet_size: int,
                    big: int) -> str:
    """The matrix of integers over `big` as word-labelled CSV; each
    distinct integer is formatted once."""
    text = {v: format_fraction(Fraction(v, big)) for v in set().union(*matrix)}
    fields = csv_words(node_words, alphabet_size)
    lines = ["word," + ",".join(fields)]
    for field, row in zip(fields, matrix):
        lines.append(field + "," + ",".join(map(text.__getitem__, row)))
    return "\n".join(lines) + "\n"


def read_matrix_csv(path, alphabet_size: int) -> tuple[list[Word], list[list[Fraction]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("word,"):
        raise InstanceFormatError("matrix CSV must start with a 'word,...' header")
    header, *body = csv.reader(filter(None, lines))
    words = [parse_word(cell, alphabet_size) for cell in header[1:]]
    rows = [[parse_fraction(c, "matrix cell") for c in cells[1:]] for cells in body]
    return words, rows


def subaction_csv_text(node_words: Sequence[Word], values, alphabet_size: int) -> str:
    """word,value rows as `format_word` and `format_fraction` write them;
    each row fills the `WordTemplates` template of its word's length."""
    templates = WordTemplates(alphabet_size, tail=",%s")
    lines = ["word,value"]
    for w, text in zip(node_words, map(format_fraction, values)):
        lines.append(templates[len(w)] % (*w, text))
    return "\n".join(lines) + "\n"


def read_subaction_csv(path, alphabet_size: int) -> tuple[list[Word], list[Fraction]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "word,value":
        raise InstanceFormatError("sub-action CSV must start with a 'word,value' header")
    words: list[Word] = []
    values: list[Fraction] = []
    parsed: dict[str, Fraction] = {}  # each distinct value text, parsed at its first row
    for line in lines[1:]:
        if not line:
            continue
        # a word beyond ten symbols has commas of its own; a value has none
        cell, _, text = line.rpartition(",") if "," in line else (line, "", "")
        words.append(_cell_word(cell, alphabet_size))
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_fraction(text, f"value for {cell}")
        values.append(value)
    return words, values


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
