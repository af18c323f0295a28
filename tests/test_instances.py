import csv
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import INSTANCE_DIR, read_matrix_csv
from ergopt import instances
from ergopt.errors import (
    InstanceFormatError,
    LambdaOutOfRange,
    NotIrreducible,
)
from ergopt.instances import (
    csv_field,
    dump_instance,
    format_fraction,
    format_word,
    load_instance,
    matrix_csv_text,
    parse_fraction,
    parse_instance,
    parse_word,
    random_instance,
    random_two_sided,
    read_subaction_csv,
    subaction_csv_text,
    word_texts,
)
from ergopt.oracle import WordGraph
from ergopt.pipeline import barrier_matrices, solve_instance
from ergopt.subactions import separating_subaction
from ergopt.tropical import calibrated_fixed_point
from ergopt.potential import TwoSidedPotential
from ergopt.symbolic import MAX_WORD_LENGTH, admissible_words, build_sft


def e1_data():
    return {
        "alphabet_size": 2,
        "transition": [[1, 1], [1, 1]],
        "lambda": "1/2",
        "potential": {"side": "one", "range": 1, "entries": {"0": 0, "1": 1}},
    }


def table_data(size: int, matrix, sides: dict, sep: str) -> dict:
    """Instance data with one value per admissible word, each key spelt
    with `sep` between its symbols."""
    sft = build_sft(size, matrix, Fraction(1, 2))
    length = sides.get("range") or sides["past_depth"] + sides["future_depth"]
    entries = {sep.join(map(str, w)): f"{i % 7}/{1 + i % 3}"
               for i, w in enumerate(admissible_words(sft, length))}
    return {"alphabet_size": size, "transition": matrix, "lambda": "1/2",
            "potential": {**sides, "entries": entries}}


FULL2 = [[1, 1], [1, 1]]
ELEVEN = [[1 if (a + b) % 3 else 0 for b in range(11)] for a in range(11)]


class TestParseFraction:
    def test_accepted_forms(self):
        assert parse_fraction(3) == 3
        assert parse_fraction("2/4") == Fraction(1, 2)
        assert parse_fraction("0.25") == Fraction(1, 4)
        assert parse_fraction("-7") == -7

    @pytest.mark.parametrize("bad", [True, False, 0.5, "abc", "1/0", None, [1]])
    def test_rejected_forms(self, bad):
        with pytest.raises(InstanceFormatError):
            parse_fraction(bad)

    def test_exponent_bound(self):
        assert parse_fraction("1e4300") == 10**4300
        assert parse_fraction("1E-4300") == Fraction(1, 10**4300)
        for bad in ("1e4301", "2.5E-4301", "1e999999999"):
            with pytest.raises(InstanceFormatError, match="entry '0'.*exponent"):
                parse_fraction(bad, "entry '0'")

    @given(st.text(alphabet="0123456789-+/._ eE\u0663\u00b2", max_size=10))
    @example("007/035")
    @example("-6/4")
    @example("-1/0")
    @example("1/-2")
    @example("\u0663")
    @example("9" * 4301)
    def test_agrees_with_fraction_text(self, text):
        # ASCII [-]digits[/digits] skips Fraction's parser; every string
        # keeps Fraction(str)'s value or error. Four exponent digits may
        # pass MAX_EXPONENT, which is refused before Fraction sees it.
        assume(len(text.lower().partition("e")[2].lstrip("+-")) < 4)
        try:
            if "_" in text:  # refused on every version, as Python 3.10 refuses it
                raise ValueError(text)
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InstanceFormatError, match="not a rational"):
                parse_fraction(text)
        else:
            assert parse_fraction(text) == want

    @pytest.mark.parametrize("text", ["1_0", "1.5e1_0", "1e9999_99999", "1_0/3", "_1"])
    def test_underscores_are_refused(self, text):
        # Fraction reads PEP 515 underscores from Python 3.11 on, so "1_0"
        # was 10 there and refused on 3.10; it is refused before the
        # exponent bound, so "1e9999_99999" is not a rational either
        with pytest.raises(InstanceFormatError, match=rf"^value: not a rational: {re.escape(repr(text))}$"):
            parse_fraction(text)

    def test_formatting(self):
        assert format_fraction(Fraction(1, 2)) == "1/2"
        assert format_fraction(Fraction(6, 2)) == "3"


class TestWords:
    def test_digit_strings(self):
        assert format_word((0, 1, 2), 3) == "012"
        assert parse_word("012", 3) == (0, 1, 2)

    def test_comma_mode(self):
        assert format_word((0, 11), 12) == "0,11"
        assert parse_word("0,11", 12) == (0, 11)
        assert parse_word("5", 12) == (5,)

    def test_one_symbol_beyond_ten(self):
        assert parse_word(format_word((10,), 11), 11) == (10,)
        assert parse_word("10", 10) == (1, 0)

    def test_csv_field_quotes_only_words_with_commas(self):
        assert csv_field("01") == "01"
        assert csv_field(format_word((10,), 11)) == "10"
        assert csv_field(format_word((0, 10), 11)) == '"0,10"'

    @pytest.mark.parametrize("size, matrix", [
        (2, FULL2), (2, [[1, 1], [1, 0]]), (3, [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
        (11, ELEVEN)])
    @pytest.mark.parametrize("length", range(1, 7))
    def test_word_texts_spell_the_admissible_words(self, size, matrix, length):
        # the full 2-shift, the golden mean, a 3-symbol system with
        # forbidden pairs and an 11-symbol alphabet, whose words hold commas
        sft = build_sft(size, matrix, Fraction(1, 2))
        words = admissible_words(sft, length)
        want = [format_word(w, size) for w in words]
        assert word_texts(sft, length, len(words)) == want
        assert word_texts(sft, length, len(words) - 1) is None

    def test_word_texts_past_the_word_length_cap(self):
        # a single cycle has two words at every length
        sft = build_sft(2, [[0, 1], [1, 0]], Fraction(1, 2))
        assert word_texts(sft, MAX_WORD_LENGTH, 2) == ["01" * 512, "10" * 512]
        assert word_texts(sft, MAX_WORD_LENGTH + 1, 2) is None
        assert word_texts(sft, 0, 2) is None

    def test_malformed(self):
        with pytest.raises(InstanceFormatError):
            parse_word("1a", 10)
        with pytest.raises(InstanceFormatError):
            parse_word("1,,2", 10)
        for size in (2, 11):
            with pytest.raises(InstanceFormatError):
                parse_word("", size)


class TestParseInstance:
    def test_round_trip_normalizes(self):
        first = dump_instance(parse_instance(e1_data()))
        again = dump_instance(parse_instance(first))
        assert first == again
        assert first["potential"]["entries"] == {"0": "0", "1": "1"}
        assert first["potential"]["range"] == 1

    def test_fixture_files_round_trip(self):
        for name in ("e1.json", "e2.json", "golden_mean.json"):
            path = INSTANCE_DIR / name
            inst = load_instance(path)
            data = dump_instance(inst)
            assert dump_instance(parse_instance(data)) == data

    def test_range_one_beyond_ten_symbols_round_trips(self):
        data = {"alphabet_size": 11, "transition": [[1] * 11] * 11, "lambda": "1/2",
                "potential": {"side": "one", "range": 1,
                              "entries": {str(a): str(a % 3) for a in range(11)}}}
        first = dump_instance(parse_instance(data))
        assert first["potential"]["entries"] == data["potential"]["entries"]
        assert dump_instance(parse_instance(first)) == first

    def test_golden_holder_is_kept(self):
        data = dump_instance(load_instance(INSTANCE_DIR / "golden_mean.json"))
        assert data["holder"] == {"theta": "1/2", "const": "2"}

    def test_corpus_round_trip(self, corpus, corpus_bundles):
        for inst, bundle in zip(corpus[:25], corpus_bundles[:25]):
            data = dump_instance(inst)
            reparsed = parse_instance(data)
            assert dump_instance(reparsed) == data
            assert solve_instance(reparsed).abar == bundle.abar

    def test_two_sided_round_trip(self, two_sided_corpus):
        for inst in two_sided_corpus[:10]:
            data = dump_instance(inst)
            assert data["potential"]["side"] == "two"
            reparsed = parse_instance(data)
            assert isinstance(reparsed, TwoSidedPotential)
            assert reparsed.table == inst.table
            assert dump_instance(reparsed) == data

    @pytest.mark.parametrize("drop", ["alphabet_size", "transition", "lambda",
                                      "potential"])
    def test_missing_top_level_key(self, drop):
        data = e1_data()
        del data[drop]
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

    def test_structural_errors(self):
        data = e1_data()
        data["alphabet_size"] = True
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

        data = e1_data()
        data["transition"] = [[1, 1]]
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

        data = e1_data()
        data["potential"]["side"] = "both"
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

        data = e1_data()
        del data["potential"]["range"]
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

        data = e1_data()
        data["potential"]["entries"] = {"0": 0.5, "1": 1}
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

        data = e1_data()
        data["potential"]["entries"] = {"0x": 0, "1": 1}
        with pytest.raises(InstanceFormatError):
            parse_instance(data)

    # each distinct value is parsed once, and 1, 1.0 and true are one dict
    # key while a list is none, so the cache must neither merge nor trip
    # on them: each is refused as parse_fraction refuses it, naming the entry
    @pytest.mark.parametrize("entries, message", [
        ({"0": 1, "1": True}, "entry '1': booleans are not numbers"),
        ({"0": True, "1": 1}, "entry '0': booleans are not numbers"),
        ({"0": 1, "1": 1.0}, "entry '1': write non-integer numbers as strings"),
        ({"0": "1/2", "1": [1]}, "entry '1': expected a rational, got list"),
    ])
    def test_value_cache_keeps_json_values_apart(self, entries, message):
        data = e1_data()
        data["potential"]["entries"] = entries
        with pytest.raises(InstanceFormatError, match="^" + re.escape(message)):
            parse_instance(data)

    def test_shared_values_parse_as_each_alone(self):
        data = e1_data()
        data["potential"] = {"side": "one", "range": 2,
                             "entries": {"00": 1, "01": "1", "10": "2/4", "11": 1}}
        table = parse_instance(data).table
        assert table == {(0, 0): 1, (0, 1): 1, (1, 0): Fraction(1, 2), (1, 1): 1}
        assert all(type(v) is Fraction for v in table.values())

    @pytest.mark.parametrize("key, value", [
        ("range", True), ("range", "2"), ("range", 2.0),
        ("past_depth", True), ("past_depth", "1"), ("future_depth", False),
    ])
    def test_range_and_depths_must_be_integers(self, key, value):
        data = e1_data()
        if key != "range":
            data["potential"] = {"side": "two", "past_depth": 1, "future_depth": 1,
                                 "entries": {"00": 0, "01": 0, "10": 0, "11": 1}}
        data["potential"][key] = value
        with pytest.raises(InstanceFormatError, match=f"^{key} must be an integer$"):
            parse_instance(data)

    # the side and sizes are read before any key, so a shape fault is
    # named ahead of a malformed key beside it
    @pytest.mark.parametrize("shape, message", [
        ({"range": True}, "range must be an integer"),
        ({"side": "two", "past_depth": 1, "future_depth": "1"}, "future_depth must be an integer"),
        ({"side": "two"}, "potential: missing key 'past_depth'"),
        ({"side": "both"}, "potential side must be 'one' or 'two', got 'both'"),
    ])
    def test_shape_faults_come_before_entry_faults(self, shape, message):
        data = e1_data()
        data["potential"]["entries"] = {"0x": 0, "1": 1}
        data["potential"].update(shape)
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            parse_instance(data)

    def test_domain_errors_keep_their_types(self):
        data = e1_data()
        data["transition"] = [[1, 0], [0, 1]]
        with pytest.raises(NotIrreducible):
            parse_instance(data)

        data = e1_data()
        data["lambda"] = "2"
        with pytest.raises(LambdaOutOfRange):
            parse_instance(data)

    def test_two_sided_needs_depths(self):
        data = e1_data()
        data["potential"] = {"side": "two", "entries": {"00": 0}}
        with pytest.raises(InstanceFormatError):
            parse_instance(data)


class TestKeyLookup:
    """When the keys are exactly the admissible words as format_word
    spells them, parse_instance reads the values by lookup; every other
    file goes through the per-key checks. Both give the same outcome."""

    CASES = [(2, FULL2, {"side": "one", "range": 4}, ""),
             (2, FULL2, {"side": "one", "range": 1}, ""),
             (2, FULL2, {"side": "two", "past_depth": 1, "future_depth": 2}, ""),
             (11, ELEVEN, {"side": "one", "range": 2}, ","),
             (11, ELEVEN, {"side": "two", "past_depth": 1, "future_depth": 1}, ",")]

    @pytest.mark.parametrize("case", CASES)
    def test_canonical_keys_are_not_read_as_words(self, monkeypatch, case):
        data = table_data(*case)
        want = parse_instance(data)
        monkeypatch.setattr(instances, "parse_word", None)
        got = parse_instance(data)
        assert got.values == want.values
        assert list(got.table) == admissible_words(got.sft, len(next(iter(got.table))))
        items = list(data["potential"]["entries"].items())
        random.Random(26).shuffle(items)
        data["potential"]["entries"] = dict(items)
        assert parse_instance(data).values == want.values

    def test_keys_spelt_with_commas_load_the_same_values(self, monkeypatch):
        canonical = parse_instance(table_data(*self.CASES[0]))
        commas = table_data(2, FULL2, {"side": "one", "range": 4}, ",")
        assert parse_instance(commas).values == canonical.values
        monkeypatch.setattr(instances, "parse_word", None)
        with pytest.raises(TypeError):  # the per-key path reads each key as a word
            parse_instance(commas)

    @pytest.mark.parametrize("sep", ["", ","])
    def test_bad_value_is_named_in_file_order(self, sep):
        # the last word in word order comes first in the file, then the
        # first word, both with bad values: the error names the file's first
        data = table_data(2, FULL2, {"side": "one", "range": 2}, sep)
        last = "1" + sep + "1"
        entries = {last: None, **data["potential"]["entries"]}
        entries[last], entries["0" + sep + "0"] = "x", "y"
        data["potential"]["entries"] = entries
        with pytest.raises(InstanceFormatError,
                           match=rf"^entry '{re.escape(last)}': not a rational: 'x'$"):
            parse_instance(data)

    @pytest.mark.parametrize("length", [3, 20])
    def test_a_longer_range_names_a_key_and_builds_few_texts(self, length):
        # the texts stop growing once they outnumber the keys: 2**20 texts
        # of the full 2-shift would take tens of MiB
        data = table_data(2, FULL2, {"side": "one", "range": 2}, "")
        data["potential"]["range"] = length
        tracemalloc.start()
        try:
            with pytest.raises(InstanceFormatError, match=r"^potential: table word \(0, 0\) "
                                                          rf"does not have length {length}$"):
                parse_instance(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLoadInstance:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InstanceFormatError):
            load_instance(tmp_path / "nope.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InstanceFormatError):
            load_instance(path)


def full_shift(size: int):
    return build_sft(size, [[1] * size] * size, Fraction(1, 2))


def template_subaction_csv_text(words, values, alphabet_size: int) -> str:
    """The word,value CSV as the earlier writer built it, the reference
    for `subaction_csv_text`: one `%` template per word length, filled
    with the word's symbols and the value's `format_fraction` text."""
    sep = "" if alphabet_size <= 10 else ","
    templates: dict[int, str] = {}
    lines = ["word,value"]
    for w, text in zip(words, map(format_fraction, values)):
        if len(w) not in templates:
            templates[len(w)] = sep.join(["%d"] * len(w)) + ",%s"
        lines.append(templates[len(w)] % (*w, text))
    return "\n".join(lines) + "\n"


def node_texts(bundle) -> list[str]:
    graph = bundle.graph
    return word_texts(graph.sft, graph.order, graph.n_nodes)


class TestCsv:
    def test_e1_matrix_text(self, e1_bundle):
        b = barrier_matrices(e1_bundle)
        text = matrix_csv_text(node_texts(e1_bundle), b.phi_ints, b.big)
        assert text == "word,0,1\n0,0,0\n1,1,1\n"

    def test_integers_over_a_denominator(self):
        text = matrix_csv_text(["0", "1"], [(3, -2), (0, 6)], 6)
        assert text == "word,0,1\n0,1/2,-1/3\n1,0,1\n"

    @pytest.mark.parametrize("size, matrix", [
        (2, FULL2), (2, [[1, 1], [1, 0]]), (3, [[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
        (11, ELEVEN)])
    @pytest.mark.parametrize("length", range(1, 7))
    def test_matrix_header_reads_back_as_the_admissible_words(self, size, matrix, length):
        # the header's fields, read back by csv.reader, are format_word of
        # each admissible word in word order, quoted where they hold commas
        sft = build_sft(size, matrix, Fraction(1, 2))
        words = admissible_words(sft, length)
        text = matrix_csv_text(word_texts(sft, length, len(words)), [], 1)
        [header] = csv.reader(text.splitlines())
        assert header == ["word"] + [format_word(w, size) for w in words]

    def test_matrix_round_trip(self, e2_bundle, tmp_path):
        path, barriers = tmp_path / "h.csv", barrier_matrices(e2_bundle)
        path.write_text(matrix_csv_text(node_texts(e2_bundle), barriers.h_ints, barriers.big),
                        encoding="utf-8")
        words, rows = read_matrix_csv(path, e2_bundle.graph.sft.alphabet_size)
        assert words == list(WordGraph(e2_bundle.graph.sft, e2_bundle.graph.order).nodes)
        assert [tuple(r) for r in rows] == [tuple(r) for r in barriers.h]

    def test_e2_subaction_text(self, e2_bundle):
        text = subaction_csv_text(word_texts(e2_bundle.graph.sft, 1, 3),
                                  calibrated_fixed_point(e2_bundle))
        assert text == "word,value\n0,0\n1,1\n2,0\n"

    def test_subaction_round_trip(self, golden_bundle, tmp_path):
        path, graph = tmp_path / "u.csv", golden_bundle.graph
        values = calibrated_fixed_point(golden_bundle)
        path.write_text(subaction_csv_text(word_texts(graph.sft, graph.order, graph.n_nodes),
                                           values), encoding="utf-8")
        assert read_subaction_csv(path, graph.sft) == (graph.order, None, list(values))

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("node,0,1\n", encoding="utf-8")
        with pytest.raises(InstanceFormatError):
            read_subaction_csv(bad, full_shift(2))

    def test_repeated_values_read_back_equal(self, tmp_path):
        # each distinct value text is parsed once and shared by its rows,
        # in word order and out of it
        path = tmp_path / "u.csv"
        path.write_text("word,value\n00,1/2\n01,-3\n10,1/2\n11,-3\n", encoding="utf-8")
        values = [Fraction(1, 2), Fraction(-3), Fraction(1, 2), Fraction(-3)]
        assert read_subaction_csv(path, full_shift(2)) == (2, None, values)
        path.write_text("word,value\n11,-3\n10,1/2\n01,-3\n00,1/2\n", encoding="utf-8")
        assert read_subaction_csv(path, full_shift(2)) == (
            2, [(1, 1), (1, 0), (0, 1), (0, 0)], values[::-1])

    def test_malformed_value_is_reported_at_its_first_row(self, tmp_path):
        # in word order and out of it
        path = tmp_path / "u.csv"
        for rows in ("00,0\n01,x/2\n10,x/2\n11,x/2\n", "11,0\n01,x/2\n10,x/2\n00,x/2\n"):
            path.write_text("word,value\n" + rows, encoding="utf-8")
            with pytest.raises(InstanceFormatError,
                               match=r"^value for 01: not a rational: 'x/2'$"):
                read_subaction_csv(path, full_shift(2))

    @pytest.mark.parametrize("size, matrix", [(2, FULL2), (11, ELEVEN)])
    def test_rows_in_word_order_are_not_read_as_words(self, monkeypatch, tmp_path, size,
                                                      matrix):
        sft = build_sft(size, matrix, Fraction(1, 2))
        texts = word_texts(sft, 3, 10**4)
        rows = [f"{t},{i % 5}/3\n" for i, t in enumerate(texts)]
        path = tmp_path / "u.csv"
        path.write_text("word,value\n" + "".join(rows), encoding="utf-8")
        want = read_subaction_csv(path, sft)
        monkeypatch.setattr(instances, "parse_word", None)
        assert read_subaction_csv(path, sft) == want
        assert want[:2] == (3, None)
        path.write_text("word,value\n" + "".join(rows[::-1]), encoding="utf-8")
        with pytest.raises(TypeError):  # the row-by-row path reads each cell as a word
            read_subaction_csv(path, sft)

    @given(st.sampled_from((3, 10, 11)), st.text(alphabet="0129,+- a\u0663\uff11", max_size=4))
    @example(3, "")
    @example(3, "\u0663")
    def test_cells_read_as_parse_word_reads_them(self, tmp_path_factory, size, cell):
        # a cell read row by row is read by parse_word, the one word
        # reader: every cell, non-ASCII digits that int() takes included,
        # gives parse_word's word or parse_word's error
        assume("\n" not in cell and "\r" not in cell)
        path = tmp_path_factory.mktemp("cells") / "u.csv"
        path.write_text(f"word,value\n{cell},0\n", encoding="utf-8")
        try:
            want = [parse_word(cell, size)]
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError, match=rf"^{re.escape(str(exc))}$"):
                read_subaction_csv(path, full_shift(size))
        else:
            assert read_subaction_csv(path, full_shift(size))[1] == want

    @pytest.mark.parametrize("size", (2, 10, 11))
    def test_subaction_text_matches_the_row_formats(self, size):
        # words of several lengths, and beyond ten symbols the two-digit
        # symbol 10, with repeated values
        rng = random.Random(size)
        words = [(size - 1, 0)] + [tuple(rng.randrange(size) for _ in range(rng.randint(1, 4)))
                                   for _ in range(40)]
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in words]
        texts = [format_word(w, size) for w in words]
        assert subaction_csv_text(texts, values) == template_subaction_csv_text(words, values,
                                                                                size)

    def test_e2_depth_six_text_is_the_template_writers(self, e2_bundle):
        sub, cert = separating_subaction(e2_bundle, 6)
        assert cert.ok
        sft = e2_bundle.graph.sft
        assert subaction_csv_text(word_texts(sft, 6, len(sub.values)), sub.values) == (
            template_subaction_csv_text(admissible_words(sft, 6), sub.values, 3))

    @pytest.mark.parametrize("matrix", [[[1] * 11] * 11, ELEVEN])
    @pytest.mark.parametrize("length", [1, 2])
    def test_eleven_symbol_round_trip(self, tmp_path, matrix, length):
        # words with commas, one-symbol words such as 10, and values of
        # both signs repeated across rows, some of them ints
        sft = build_sft(11, matrix, Fraction(1, 2))
        words = admissible_words(sft, length)
        values = [Fraction(i % 7 - 3, 1 + i % 4) if i % 3 else i % 5 for i in range(len(words))]
        text = subaction_csv_text(word_texts(sft, length, len(words)), values)
        assert text == template_subaction_csv_text(words, values, 11)
        path = tmp_path / "u.csv"
        path.write_text(text, encoding="utf-8")
        assert read_subaction_csv(path, sft) == (length, None, values)


class TestRandomInstances:
    def test_deterministic_by_seed(self):
        a, b = random.Random(99), random.Random(99)
        for _ in range(5):
            assert dump_instance(random_instance(a)) == dump_instance(random_instance(b))
        a, b = random.Random(7), random.Random(7)
        assert dump_instance(random_two_sided(a)) == dump_instance(random_two_sided(b))

    def test_one_sided_shape(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng)
            assert inst.sft.alphabet_size in (2, 3)
            assert inst.declared_range in (1, 2)
            assert all(0 <= v <= 4 for v in inst.table.values())

    def test_two_sided_shape(self):
        rng = random.Random(4)
        for _ in range(10):
            pot = random_two_sided(rng)
            assert isinstance(pot, TwoSidedPotential)
            assert (pot.past_depth, pot.future_depth) == (1, 1)

    def test_dump_is_json_serializable(self):
        inst = random_instance(random.Random(12))
        text = json.dumps(dump_instance(inst), indent=2, sort_keys=True)
        assert dump_instance(parse_instance(json.loads(text))) == dump_instance(inst)
