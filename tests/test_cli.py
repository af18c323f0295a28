import contextlib
import csv
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INSTANCE_DIR
from ergopt import subactions
from ergopt.cli import main
from ergopt.errors import InternalError, OracleMismatch
from ergopt.instances import (dump_instance, load_instance, parse_word,
                              read_matrix_csv, read_subaction_csv)
from ergopt.oracle import brute_cycles
from ergopt.pipeline import solve_instance
from ergopt.potential import build_one_sided, build_two_sided
from ergopt.subactions import SeparatingCertificate
from ergopt.symbolic import DEFAULT_NODE_BUDGET, admissible_words, lift_to

E1 = str(INSTANCE_DIR / "e1.json")
E2 = str(INSTANCE_DIR / "e2.json")
GOLDEN = str(INSTANCE_DIR / "golden_mean.json")
TWO_SIDED = str(INSTANCE_DIR / "two_sided.json")
HUGE = "1e999999999"  # Fraction would build a billion-digit power of ten

E1_SOLVE = """\
alphabet size: 2
graph order: 1
nodes: 0,1
edges: 00,01,10,11
abar = 0
witness cycle: 0 -> 0
critical edges: 00
components: 1
component 1: representative 0; nodes 0; edges 00
"""

E2_SOLVE = """\
alphabet size: 3
graph order: 1
nodes: 0,1,2
edges: 00,01,02,10,11,12,20,21,22
abar = 0
witness cycle: 0 -> 0
critical edges: 00,22
components: 2
component 1: representative 0; nodes 0; edges 00
component 2: representative 2; nodes 2; edges 22
constraint matrix H:
0,1
1,0
"""

GOLDEN_SOLVE = """\
alphabet size: 2
graph order: 1
nodes: 0,1
edges: 00,01,10
abar = 0
witness cycle: 0 -> 1 -> 0
critical edges: 01,10
components: 1
component 1: representative 0; nodes 0,1; edges 01,10
"""

TWO_SIDED_SOLVE = """\
alphabet size: 2
graph order: 1
nodes: 0,1
edges: 00,01,10
abar = 1/2
witness cycle: 0 -> 0
critical edges: 00
components: 1
component 1: representative 0; nodes 0; edges 00
"""

E2_BARRIER = """\
phi:
word,0,1,2
0,0,1,1
1,1,1,1
2,1,1,0
h:
word,0,1,2
0,0,1,1
1,1,2,1
2,1,1,0
"""

GOLDEN_INFO = """\
alphabet size: 2
lambda: 1/2
potential side: one
declared range: 2
working order: 1
nodes: 2
edges: 3
holder theta: 1/2
holder const: 2
"""


def write_wide_instance(path, order):
    """The full shift on 11 symbols with a range-(order+1) table whose
    only zero-mean cycle is the fixed point 3 3 3 ...; beyond ten symbols
    a word of two or more symbols has commas of its own."""
    n = 11
    entries = {",".join(map(str, w)): str((3 * w[0] + 5 * w[1] + w[0] * w[1]) % 7 + 1)
               for w in itertools.product(range(n), repeat=order + 1)}
    entries[",".join(["3"] * (order + 1))] = "0"
    path.write_text(json.dumps({
        "alphabet_size": n, "transition": [[1] * n] * n, "lambda": "1/2",
        "potential": {"side": "one", "range": order + 1, "entries": entries},
    }), encoding="utf-8")
    return path


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ergopt", *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestSolve:
    def test_e1_report(self):
        res = run_cli("solve", "--instance", E1)
        assert res.returncode == 0
        assert res.stdout == E1_SOLVE

    def test_e2_report_has_constraint_block(self):
        res = run_cli("solve", "--instance", E2)
        assert res.returncode == 0
        assert res.stdout == E2_SOLVE

    def test_golden_mean_report(self):
        res = run_cli("solve", "--instance", GOLDEN)
        assert res.returncode == 0
        assert res.stdout == GOLDEN_SOLVE

    def test_two_sided_report(self):
        res = run_cli("solve", "--instance", TWO_SIDED)
        assert res.returncode == 0
        assert res.stdout == TWO_SIDED_SOLVE

    @pytest.mark.parametrize("order", (1, 2))
    def test_report_beyond_ten_symbols(self, tmp_path, capsys, order):
        # one-symbol words are bare, longer ones quoted as CSV quotes a
        # field with commas; in the witness and the representative no
        # word is quoted
        def field(word):
            text = ",".join(map(str, word))
            return f'"{text}"' if len(word) > 1 else text

        def listed(k):
            return ",".join(map(field, itertools.product(range(11), repeat=k)))

        bare, loop = ",".join(["3"] * order), field((3,) * (order + 1))
        expected = "".join(line + "\n" for line in (
            "alphabet size: 11",
            f"graph order: {order}",
            f"nodes: {listed(order)}",
            f"edges: {listed(order + 1)}",
            "abar = 0",
            f"witness cycle: {bare} -> {bare}",
            f"critical edges: {loop}",
            "components: 1",
            f"component 1: representative {bare}; nodes {field((3,) * order)}; edges {loop}",
        ))
        inst = write_wide_instance(tmp_path / "wide.json", order)
        assert main(["solve", "--instance", str(inst)]) == 0
        assert capsys.readouterr().out == expected

    def test_runs_are_byte_identical(self):
        first = run_cli("solve", "--instance", E2)
        second = run_cli("solve", "--instance", E2)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestBarrier:
    def test_e2_text_report(self):
        res = run_cli("barrier", "--instance", E2)
        assert res.returncode == 0
        assert res.stdout == E2_BARRIER

    def test_out_files_match_the_report(self, tmp_path, e2_bundle):
        res = run_cli("barrier", "--instance", E2, "--out", str(tmp_path))
        assert res.returncode == 0
        assert f"wrote {tmp_path / 'phi.csv'}" in res.stdout
        assert f"wrote {tmp_path / 'h.csv'}" in res.stdout
        words, phi = read_matrix_csv(tmp_path / "phi.csv", 3)
        assert words == list(e2_bundle.graph.node_words)
        assert [tuple(r) for r in phi] == [tuple(r) for r in e2_bundle.barriers.phi]
        _, h = read_matrix_csv(tmp_path / "h.csv", 3)
        assert [tuple(r) for r in h] == [tuple(r) for r in e2_bundle.barriers.h]

    def test_out_files_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run_cli("barrier", "--instance", E2, "--out", str(d)).returncode == 0
        assert (a / "phi.csv").read_bytes() == (b / "phi.csv").read_bytes()
        assert (a / "h.csv").read_bytes() == (b / "h.csv").read_bytes()

    def test_words_beyond_ten_symbols_round_trip(self, tmp_path, capsys):
        # an 11-symbol word carries commas of its own, so the matrix header,
        # its first column and solve's word lists quote it as CSV does
        n = 11
        inst = write_wide_instance(tmp_path / "wide.json", 2)
        bundle = solve_instance(load_instance(inst))
        nodes, edges = list(bundle.graph.node_words), [e.word for e in bundle.graph.edges]
        assert len(nodes) == 121
        assert main(["barrier", "--instance", str(inst), "--out", str(tmp_path)]) == 0
        for name, view in (("phi.csv", bundle.barriers.phi), ("h.csv", bundle.barriers.h)):
            words, rows = read_matrix_csv(tmp_path / name, n)
            assert words == nodes
            assert [tuple(r) for r in rows] == [tuple(r) for r in view]
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst)]) == 0
        listed = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, fields = line.partition(": ")
            if key in ("nodes", "edges", "critical edges"):
                listed[key] = [parse_word(f, n) for f in next(csv.reader([fields]))]
        assert listed["nodes"] == nodes
        assert listed["edges"] == edges
        assert listed["critical edges"] == [(3, 3, 3)]


class TestCalibrate:
    def test_default_fixed_point(self):
        res = run_cli("calibrate", "--instance", E2)
        assert res.returncode == 0
        assert res.stdout == "node values: 0,1,0\n"

    def test_boundary(self):
        res = run_cli("calibrate", "--instance", E2, "--boundary", "0,0")
        assert res.returncode == 0
        assert res.stdout == "node values: 0,1,0\n"

    def test_dominant(self):
        res = run_cli("calibrate", "--instance", E2, "--dominant", "2,0")
        assert res.returncode == 0
        assert res.stdout == "node values: 1,1,0\n"

    def test_out_csv(self, tmp_path):
        out = tmp_path / "u.csv"
        res = run_cli("calibrate", "--instance", E1, "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == f"node values: 0,0\nwrote {out}\n"
        words, values = read_subaction_csv(out, 2)
        assert words == [(0,), (1,)]
        assert values == [0, 0]

    def test_boundary_outside_constraints(self):
        res = run_cli("calibrate", "--instance", E2, "--boundary", "0,2")
        assert res.returncode == 3
        assert res.stderr.startswith("error:")

    def test_component_out_of_range(self):
        res = run_cli("calibrate", "--instance", E2, "--dominant", "5,0")
        assert res.returncode == 3
        assert "1..2" in res.stderr

    def test_boundary_and_dominant_conflict(self):
        res = run_cli("calibrate", "--instance", E2,
                      "--boundary", "0,0", "--dominant", "1,0")
        assert res.returncode == 2

    def test_malformed_dominant(self):
        res = run_cli("calibrate", "--instance", E2, "--dominant", "nope")
        assert res.returncode == 2


class TestSeparate:
    def test_e1_depth_two(self):
        res = run_cli("separate", "--instance", E1, "--depth", "2")
        assert res.returncode == 0
        assert res.stdout == "certificate: OK; tight words: 000\n"

    def test_e2_depth_two(self):
        res = run_cli("separate", "--instance", E2, "--depth", "2")
        assert res.returncode == 0
        assert res.stdout == "certificate: OK; tight words: 000, 222\n"

    def test_out_round_trips_through_verify(self, tmp_path):
        out = tmp_path / "sep.csv"
        res = run_cli("separate", "--instance", E1, "--depth", "2",
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_text(encoding="utf-8") == (
            "word,value\n00,0\n01,-1/4\n10,-3/8\n11,-5/8\n"
        )
        check = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert check.returncode == 0
        assert check.stdout == (
            "sub-action: yes; calibrated: no;"
            " separating certificate: yes; critical containment: yes\n"
        )

    def test_max_nodes_above_the_default_reaches_the_lift(self, tmp_path, monkeypatch,
                                                         capsys):
        # the lift is checked against --max-nodes, not the library default;
        # a spy records the budget, so no graph that large is built
        budget = 2 * DEFAULT_NODE_BUDGET
        seen = []
        check = subactions.check_budget
        monkeypatch.setattr(subactions, "check_budget",
                            lambda *args: seen.append(args[2]) or check(*args))
        out = tmp_path / "sep.csv"
        for argv in (["separate", "--depth", "3", "--out", str(out)],
                     ["verify", "--subaction", str(out)]):
            assert main([*argv, "--instance", E2, "--max-nodes", str(budget)]) == 0
        assert seen == [budget, budget]
        stdout = capsys.readouterr().out
        assert stdout.startswith("certificate: OK; tight words: 0000, 2222\n")
        assert stdout.endswith("separating certificate: yes; critical containment: yes\n")

    def test_failed_certificate_exits_4_without_out(self, tmp_path, monkeypatch,
                                                    capsys):
        # a construction that ends with non-critical tight words left
        def stalled(crit, depth, gamma, node_budget):
            sub, cert = separate(crit, depth, gamma, node_budget)
            return sub, SeparatingCertificate(False, depth, gamma, 1, ((0, 1), (1, 0)),
                                              ((0, 1), (1, 0)))

        separate = subactions.separating_subaction
        monkeypatch.setattr("ergopt.cli.separating_subaction", stalled)
        out = tmp_path / "sep.csv"
        argv = ["separate", "--instance", E1, "--depth", "1", "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().out == "certificate: FAILED; residual words: 01, 10\n"
        assert not out.exists()

    def test_bad_gamma(self):
        res = run_cli("separate", "--instance", E1, "--gamma", "3/2")
        assert res.returncode == 3

    def test_gamma_with_a_fresh_prime_denominator(self, tmp_path, e2_bundle):
        # 13 divides no weight and no abar: the average brings it in, and
        # the slacks are checked here from the oracle's abar, not the solver's
        out = tmp_path / "sep.csv"
        res = run_cli("separate", "--instance", E2, "--depth", "4",
                      "--gamma", "7/13", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout.startswith("certificate: OK; tight words: 00000, 22222\n")
        check = run_cli("verify", "--instance", E2, "--subaction", str(out))
        assert check.returncode == 0
        assert check.stdout == (
            "sub-action: yes; calibrated: no;"
            " separating certificate: yes; critical containment: yes\n"
        )
        words, values = read_subaction_csv(out, 3)
        assert any(v.denominator % 13 == 0 for v in values)
        g = e2_bundle.graph
        abar = min(m for _, m in brute_cycles(g, e2_bundle.weights))
        lifted, lw = lift_to(g, e2_bundle.weights, 4)
        u = dict(zip(words, values))
        slack = {e.word: w - abar - u[e.word[1:]] + u[e.word[:-1]]
                 for e, w in zip(lifted.edges, lw)}
        assert min(slack.values()) == 0
        assert sorted(w for w, s in slack.items() if s == 0) == [(0,) * 5, (2,) * 5]


class TestVerify:
    def test_round_trips_beyond_ten_symbols(self, tmp_path, capsys):
        # words of an 11-symbol alphabet are comma-separated, so a value
        # is after the last comma of a row, and the one-symbol word 10 is
        # not the digits 1, 0
        n = 11
        entries = {f"{a},{b}": str((3 * a + 5 * b + a * b) % 7 + 1)
                   for a in range(n) for b in range(n)}
        entries["3,3"] = "0"
        inst = tmp_path / "wide.json"
        inst.write_text(json.dumps({
            "alphabet_size": n, "transition": [[1] * n] * n, "lambda": "1/2",
            "potential": {"side": "one", "range": 2, "entries": entries},
        }), encoding="utf-8")
        u, sep = str(tmp_path / "u.csv"), str(tmp_path / "sep.csv")
        for make, check in ((["calibrate", "--out", u], "calibrated: yes"),
                            (["separate", "--depth", "2", "--out", sep],
                             "separating certificate: yes")):
            assert main([*make, "--instance", str(inst)]) == 0, make
            assert main(["verify", "--instance", str(inst), "--subaction", make[-1]]) == 0
            assert check in capsys.readouterr().out
        words, _ = read_subaction_csv(sep, n)
        assert words[10] == (0, 10) and words[-1] == (10, 10)

    def test_calibrated_fixed_point(self, tmp_path):
        out = tmp_path / "u.csv"
        run_cli("calibrate", "--instance", E1, "--out", str(out))
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 0
        assert res.stdout == (
            "sub-action: yes; calibrated: yes;"
            " separating certificate: no; critical containment: yes\n"
        )

    def test_row_order_does_not_matter(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("word,value\n1,1\n0,0\n2,0\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E2, "--subaction", str(out))
        assert res.returncode == 0
        assert "calibrated: yes" in res.stdout

    def test_not_a_subaction_still_reports(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("word,value\n0,0\n1,9\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 0
        assert res.stdout.startswith("sub-action: no; calibrated: no;")

    def test_word_set_mismatch(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("word,value\n0,0\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 2

    def test_duplicate_word(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("word,value\n0,0\n0,1\n1,0\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 2
        assert res.stderr == "error: duplicate word '0' in sub-action CSV\n"

    def test_mixed_lengths(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("word,value\n0,0\n11,0\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 2

    def test_depth_below_the_graph_order(self, tmp_path):
        # a range-3 potential works on the order-2 graph; a CSV of 1-words
        # is refused as a domain error whether or not its words match
        path = tmp_path / "r3.json"
        data = {
            "alphabet_size": 2, "transition": [[1, 1], [1, 1]], "lambda": "1/2",
            "potential": {"side": "one", "range": 3,
                          "entries": {f"{k:03b}": k % 3 for k in range(8)}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "u.csv"
        for rows in ("0,0\n1,0\n", "0,0\n"):
            out.write_text("word,value\n" + rows, encoding="utf-8")
            res = run_cli("verify", "--instance", str(path), "--subaction", str(out))
            assert res.returncode == 3
            assert res.stderr == "error: cannot lower order 2 to 1\n"

    def test_depth_past_the_node_budget(self, tmp_path):
        out = tmp_path / "u.csv"
        rows = "".join(f"{k:011b},0\n" for k in range(2**11))
        out.write_text("word,value\n" + rows, encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out),
                      "--max-nodes", "100")
        assert res.returncode == 4
        assert "budget" in res.stderr
        assert res.stdout == ""


class TestOracle:
    def test_fixture_instance(self):
        res = run_cli("oracle", "--instance", E1)
        assert res.returncode == 0
        assert res.stdout == (
            "check abar: ok\ncheck phi: ok\ncheck h: ok\ncheck calibration: ok\n"
        )

    def test_two_sided_adds_holonomic_check(self, tmp_path):
        data = {
            "alphabet_size": 2,
            "transition": [[1, 1], [1, 1]],
            "lambda": "1/2",
            "potential": {
                "side": "two", "past_depth": 1, "future_depth": 1,
                "entries": {"00": 0, "10": 2, "01": 1, "11": 3},
            },
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("oracle", "--instance", str(path))
        assert res.returncode == 0
        assert res.stdout.endswith("check holonomic: ok\n")

    def test_two_sided_instance_file(self):
        res = run_cli("oracle", "--instance", TWO_SIDED)
        assert res.returncode == 0
        assert res.stdout == (
            "check abar: ok\ncheck phi: ok\ncheck h: ok\ncheck calibration: ok\n"
            "check holonomic: ok\n"
        )

    def test_seeded_batch(self):
        res = run_cli("oracle", "--seed", "7")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines.count("instance 1") == 1 and "instance 20" in lines
        assert all(": ok" in l or l.startswith("instance ") for l in lines)

    def test_needs_exactly_one_source(self):
        assert run_cli("oracle").returncode == 2
        assert run_cli("oracle", "--instance", E1, "--seed", "3").returncode == 2

    def test_mismatch_exit_code(self, monkeypatch, capsys):
        import ergopt.cli as cli

        def boom(inst, max_nodes):
            raise OracleMismatch("forced")

        monkeypatch.setattr(cli, "_oracle_checks", boom)
        assert main(["oracle", "--instance", E1]) == 5
        assert "error: forced" in capsys.readouterr().err


class TestDenseMatricesOnDemand:
    def test_only_barrier_builds_h(self, tmp_path, monkeypatch):
        import ergopt.cli as cli
        import ergopt.pipeline as pipeline

        def no_h(*args):
            raise AssertionError("the dense h was built")

        bundles = []

        def solve(*args, **kwargs):
            bundles.append(pipeline.solve_instance(*args, **kwargs))
            return bundles[-1]

        monkeypatch.setattr(pipeline, "peierls_matrix", no_h)
        monkeypatch.setattr(cli, "solve_instance", solve)
        u = tmp_path / "u.csv"
        for argv in (["solve"], ["calibrate", "--out", str(u)],
                     ["calibrate", "--boundary", "0,1"], ["calibrate", "--dominant", "2,0"],
                     ["separate", "--depth", "2"], ["verify", "--subaction", str(u)]):
            assert main([*argv, "--instance", E2]) == 0, argv
        assert len(bundles) == 6
        assert all("barriers" not in vars(b) for b in bundles)
        with pytest.raises(AssertionError, match="dense h"):
            main(["barrier", "--instance", E2])

    def test_only_calibrate_and_oracle_build_the_fixed_point(self, tmp_path, monkeypatch):
        import ergopt.pipeline as pipeline

        fixed_point, calls = pipeline.calibrated_fixed_point, []

        def spy(crit):
            calls.append(crit)
            return fixed_point(crit)

        monkeypatch.setattr(pipeline, "calibrated_fixed_point", spy)
        u = tmp_path / "u.csv"
        for argv, want in ((["separate", "--depth", "2", "--out", str(u)], 0),
                           (["solve"], 0), (["barrier"], 0),
                           (["verify", "--subaction", str(u)], 0),
                           (["calibrate"], 1), (["oracle"], 1)):
            calls.clear()
            assert main([*argv, "--instance", E2]) == 0, argv
            assert len(calls) == want, argv


class TestIntegerKernel:
    def test_relaxation_sees_only_integers(self, tmp_path, monkeypatch):
        import ergopt.subactions as subactions
        import ergopt.tropical as tropical

        minima, calls = tropical._path_minima, []

        def int_only(costs, first, out, ends, n):
            assert all(type(c) is int for c in costs), "a non-integer cost"
            dist = minima(costs, first, out, ends, n)
            assert all(d is None or type(d) is int for d in dist), "a non-integer distance"
            calls.append(n)
            return dist

        # subactions imports the kernel by name, so patch it there too
        monkeypatch.setattr(tropical, "_path_minima", int_only)
        monkeypatch.setattr(subactions, "_path_minima", int_only)
        u = tmp_path / "u.csv"
        for argv in (["solve"], ["barrier"], ["calibrate", "--out", str(u)],
                     ["separate", "--depth", "3"], ["verify", "--subaction", str(u)]):
            before = len(calls)
            assert main([*argv, "--instance", E2]) == 0, argv
            assert len(calls) > before, argv

    def test_no_fraction_is_scaled_at_depth(self, tmp_path, monkeypatch, e2_bundle):
        # lifted edges carry base weights through edge_base: separate scales
        # only base values, weights and abar, and verify adds the 81 lifted
        # node values of depth 4 to those, never the 243 lifted weights
        import ergopt.tropical as tropical

        scale, sizes = tropical._scale, []

        def spy(values, shift=0):
            sizes.append(len(values))
            return scale(values, shift)

        # patch it in every module that imported it by name, as above
        for name, module in list(sys.modules.items()):
            if name.startswith("ergopt") and getattr(module, "_scale", None) is scale:
                monkeypatch.setattr(module, "_scale", spy)
        n0, e0 = e2_bundle.graph.n_nodes, e2_bundle.graph.n_edges
        out = tmp_path / "sep.csv"
        assert main(["separate", "--instance", E2, "--depth", "4", "--out", str(out)]) == 0
        assert sizes and max(sizes) <= n0 + e0 + 1
        sizes.clear()
        assert main(["verify", "--instance", E2, "--subaction", str(out)]) == 0
        assert sizes and max(sizes) <= 81 + n0 + e0 + 1


class TestParserReuse:
    def test_in_process_calls_match_fresh_processes(self, tmp_path, monkeypatch,
                                                    capsys):
        # one parser serves every main() call in a process: flags, defaults,
        # errors and help must not carry over from one call to the next
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
        gamma, plain = str(tmp_path / "gamma.csv"), str(tmp_path / "plain.csv")
        sequence = [
            ("calibrate", "--instance", E2, "--boundary", "0,1"),
            ("calibrate", "--instance", E2),
            ("separate", "--instance", E2, "--depth", "3", "--gamma", "7/13",
             "--out", gamma),
            ("separate", "--instance", E2, "--depth", "3", "--out", plain),
            ("calibrate", "--instance", E2, "--dominant", "nope"),
            ("calibrate", "--instance", E2),
            ("--help",),
        ]

        def written(argv):
            out = argv[-1] if "--out" in argv else None
            return Path(out).read_text(encoding="utf-8") if out else None

        fresh = {}
        for argv in dict.fromkeys(sequence):
            res = run_cli(*argv)
            fresh[argv] = (res.returncode, res.stdout, res.stderr, written(argv))
        # each flag changes its output, so a flag carried over would show
        assert fresh[sequence[0]][1] != fresh[sequence[1]][1]
        assert fresh[sequence[2]][3] != fresh[sequence[3]][3]
        for argv in sequence:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err, written(argv)) == fresh[argv], argv


INSTANCE_FILES = (E1, E2, GOLDEN, TWO_SIDED, str(INSTANCE_DIR / "missing.json"))
# sub-action CSVs the fuzz may pass to verify, written once per module
SUBACTION_CSVS = {
    "flat1.csv": "word,value\n0,0\n1,0\n",
    "e2.csv": "word,value\n0,0\n1,1\n2,0\n",
    "sep2.csv": "word,value\n00,0\n01,-1/4\n10,-3/8\n11,-5/8\n",
    "deep.csv": "word,value\n" + "".join(f"{k:011b},0\n" for k in range(2**11)),
    "bad.csv": "word,value\n0,x\n1,0\n",
    "empty.csv": "",
}
NUMBER = st.builds("{}/{}".format, st.integers(-30, 30), st.integers(-30, 30))
HOSTILE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "-1", "0", "1", "1/0", "-0", "nan", "inf", "1e-3", "0x10",
                     HUGE, "-" + HUGE, "1" * 5000, "1,2", ",", "1/2,", "2,",
                     "1,1/3", "0,0,0", "1_000", "\x00", "--help"]),
    NUMBER,
    st.lists(NUMBER, min_size=1, max_size=3).map(",".join),
)
FLAGS = {
    "solve": {},
    "barrier": {},
    "info": {},
    "calibrate": {
        "--boundary": st.one_of(st.lists(NUMBER, min_size=1, max_size=3).map(",".join),
                                HOSTILE),
        "--dominant": st.one_of(st.builds("{},{}".format, st.integers(-1, 3), NUMBER),
                                HOSTILE),
    },
    "separate": {"--depth": st.one_of(st.integers(-2, 10).map(str), HOSTILE),
                 "--gamma": st.one_of(NUMBER, HOSTILE)},
    "verify": {"--subaction": st.sampled_from(sorted(SUBACTION_CSVS) + ["missing.csv"])},
    "oracle": {"--seed": st.one_of(st.integers(-2, 10**6).map(str), HOSTILE)},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command != "oracle" or draw(st.booleans()):
        argv += ["--instance", draw(st.sampled_from(INSTANCE_FILES))]
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else ():
        argv += [flag, draw(flags[flag])]
    if draw(st.integers(0, 7)) == 0:
        argv += ["--max-nodes", draw(HOSTILE)]
    # the last --max-nodes wins: every run stays far below the default budget
    argv += ["--max-nodes", str(draw(st.integers(-2, 10**4)))]
    return argv


@pytest.fixture(scope="module")
def subaction_dir(tmp_path_factory):
    where = tmp_path_factory.mktemp("subactions")
    for name, text in SUBACTION_CSVS.items():
        (where / name).write_text(text, encoding="utf-8")
    return where


class TestExitCodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_every_command_line_ends_in_a_documented_code(self, subaction_dir, argv):
        if "--subaction" in argv:
            at = argv.index("--subaction") + 1
            argv[at] = str(subaction_dir / argv[at])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code in (2, 3):
            assert err.getvalue(), argv


class TestInfo:
    def test_golden(self):
        res = run_cli("info", "--instance", GOLDEN)
        assert res.returncode == 0
        assert res.stdout == GOLDEN_INFO

    def test_working_order_is_the_solved_graph_order(self, tmp_path, capsys):
        sft = load_instance(GOLDEN).sft
        paths = [E1, E2, GOLDEN, TWO_SIDED]
        for depth in (1, 2, 3):
            one = build_one_sided(sft, depth, dict.fromkeys(admissible_words(sft, depth), 1))
            two_words = admissible_words(sft, 1 + depth)
            two = build_two_sided(sft, 1, depth, dict.fromkeys(two_words, 1))
            for side, pot in (("one", one), ("two", two)):
                path = tmp_path / f"{side}{depth}.json"
                path.write_text(json.dumps(dump_instance(pot)), encoding="utf-8")
                paths.append(str(path))
        for path in paths:
            assert main(["info", "--instance", path]) == 0
            order = re.search(r"^working order: (\d+)$", capsys.readouterr().out, re.M)
            assert int(order.group(1)) == solve_instance(load_instance(path)).graph.order


class TestExitCodes:
    def test_failed_invariant_exits_6(self, monkeypatch, capsys):
        # a potential with one entry lowered leaves a negative reduced cost,
        # which the critical pass checks; that is a bug, not bad input
        import ergopt.tropical as tropical

        policy = tropical._policy_iteration

        def broken(graph, costs):
            S, m, x = policy(graph, costs)
            x[0] -= 100
            return S, m, x

        monkeypatch.setattr(tropical, "_policy_iteration", broken)
        assert main(["solve", "--instance", E1]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: negative reduced cost")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["solve"], ["barrier"], ["calibrate"], ["separate", "--depth", "2"],
        ["verify", "--subaction", "{csv}"], ["oracle"],
    ])
    def test_every_command_checks_the_witness(self, tmp_path, monkeypatch, capsys,
                                              command):
        # every solve builds the witness cycle and checks it against abar,
        # so a witness that fails its check ends each command with exit 6
        import ergopt.tropical as tropical

        csv_path = tmp_path / "u.csv"
        assert main(["calibrate", "--instance", E1, "--out", str(csv_path)]) == 0
        capsys.readouterr()

        def broken(crit):
            raise InternalError("witness cycle mean disagrees with abar")

        monkeypatch.setattr(tropical.CriticalStructure, "witness_cycle", property(broken))
        name, *rest = [arg.format(csv=csv_path) for arg in command]
        assert main([name, "--instance", E1, *rest]) == 6
        assert capsys.readouterr().err == "error: witness cycle mean disagrees with abar\n"

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{oops", encoding="utf-8")
        res = run_cli("solve", "--instance", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("text", [
        "[" * 200_000,  # past the interpreter's recursion limit
        '{"alphabet_size": ' + "7" * 5000 + "}",  # past its integer digit limit
    ], ids=["nested", "long-integer"])
    @pytest.mark.parametrize("command", [
        ["solve"], ["barrier"], ["calibrate"], ["separate", "--depth", "2"],
        ["verify", "--subaction", "u.csv"], ["oracle"], ["info"],
    ])
    def test_json_past_the_parser_limits_exits_2(self, tmp_path, capsys, command, text):
        # a RecursionError had ended in a traceback with exit 1, and the
        # digit limit's ValueError had exited 3
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        name, *rest = command
        assert main([name, "--instance", str(path), *rest]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_nested_json_ends_without_a_traceback(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        res = run_cli("solve", "--instance", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid JSON: ") and res.stderr.count("\n") == 1

    def test_float_entry(self, tmp_path):
        path = tmp_path / "x.json"
        data = {
            "alphabet_size": 2, "transition": [[1, 1], [1, 1]], "lambda": "1/2",
            "potential": {"side": "one", "range": 1,
                          "entries": {"0": 0.5, "1": 1}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli("solve", "--instance", str(path)).returncode == 2

    @pytest.mark.parametrize("entries", [
        {"0": 1, "1": True}, {"0": 1, "1": 1.0}, {"0": "1/2", "1": [1]},
    ])
    def test_values_a_cache_could_merge_exit_2(self, tmp_path, capsys, entries):
        # 1, true and 1.0 are one dict key, and a list is unhashable
        path = tmp_path / "x.json"
        path.write_text(json.dumps({
            "alphabet_size": 2, "transition": [[1, 1], [1, 1]], "lambda": "1/2",
            "potential": {"side": "one", "range": 1, "entries": entries},
        }), encoding="utf-8")
        assert main(["solve", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry '1': ") and err.count("\n") == 1

    def test_reducible_matrix(self, tmp_path):
        path = tmp_path / "x.json"
        data = {
            "alphabet_size": 2, "transition": [[1, 0], [0, 1]], "lambda": "1/2",
            "potential": {"side": "one", "range": 1, "entries": {"0": 0, "1": 1}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("solve", "--instance", str(path))
        assert res.returncode == 3
        assert res.stderr == ("error: transition matrix is not strongly connected: "
                              "symbol 0 cannot reach symbol 1\n")

    def test_lambda_out_of_range(self, tmp_path):
        path = tmp_path / "x.json"
        data = json.loads(Path(E1).read_text(encoding="utf-8"))
        data["lambda"] = "2"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_cli("solve", "--instance", str(path)).returncode == 3

    def test_node_budget(self):
        res = run_cli("solve", "--instance", E2, "--max-nodes", "2")
        assert res.returncode == 4
        assert "budget" in res.stderr

    def test_huge_exponent_entry(self, tmp_path):
        path = tmp_path / "x.json"
        data = json.loads(Path(E1).read_text(encoding="utf-8"))
        data["potential"]["entries"]["1"] = HUGE
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("solve", "--instance", str(path), timeout=30)
        assert res.returncode == 2
        assert "entry '1'" in res.stderr

    def test_huge_exponent_gamma(self):
        res = run_cli("separate", "--instance", E1, "--gamma", HUGE, timeout=30)
        assert res.returncode == 2

    def test_huge_exponent_subaction_cell(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text(f"word,value\n0,0\n1,{HUGE}\n", encoding="utf-8")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out), timeout=30)
        assert res.returncode == 2

    def test_range_far_past_the_table(self, tmp_path, capsys):
        # listing the 4**10 admissible words to check completeness
        # would take about 150 MiB
        path = tmp_path / "x.json"
        data = {
            "alphabet_size": 4, "transition": [[1] * 4] * 4, "lambda": "1/2",
            "potential": {"side": "one", "range": 10, "entries": {"0" * 10: 0}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(["solve", "--instance", str(path)]) == 2
            assert time.perf_counter() - start < 1
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("info", "range", True), ("solve", "range", "2"),
        ("info", "past_depth", True), ("info", "future_depth", "1"),
    ])
    def test_depths_must_be_integers(self, tmp_path, capsys, command, key, value):
        # true had read as 1 and "2" had failed in a comparison
        data = json.loads(Path(TWO_SIDED if "depth" in key else E1).read_text(encoding="utf-8"))
        data["potential"][key] = value
        path = tmp_path / "x.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, "--instance", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {key} must be an integer\n")

    def test_empty_word_in_subaction_csv(self, tmp_path, capsys):
        # an empty word had been read as the word of length 0
        out = tmp_path / "u.csv"
        out.write_text("word,value\n,0\n", encoding="utf-8")
        assert main(["verify", "--instance", E1, "--subaction", str(out)]) == 2
        assert capsys.readouterr().err == "error: word: empty word\n"

    def test_missing_subaction_file(self, tmp_path):
        res = run_cli("verify", "--instance", E1,
                      "--subaction", str(tmp_path / "nope.csv"))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_out_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        res = run_cli("barrier", "--instance", E2, "--out", str(blocker / "dir"))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_separate_depth_past_the_node_budget(self):
        res = run_cli("separate", "--instance", E1, "--depth", "11",
                      "--max-nodes", "100")
        assert res.returncode == 4
        assert "budget" in res.stderr
        assert res.stdout == ""

    def test_separate_depth_past_the_word_length_cap(self, tmp_path):
        # a single cycle has two words at every length, so no node budget
        # stops it; building words of length 10**6 took hours
        path = tmp_path / "cycle.json"
        data = {
            "alphabet_size": 2, "transition": [[0, 1], [1, 0]], "lambda": "1/2",
            "potential": {"side": "one", "range": 1, "entries": {"0": 0, "1": 1}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("separate", "--instance", str(path), "--depth", "1000000",
                      timeout=30)
        assert res.returncode == 4
        assert "word length 1000000" in res.stderr
        assert res.stdout == ""

    def test_holder_not_an_object(self, tmp_path):
        path = tmp_path / "x.json"
        data = json.loads(Path(E1).read_text(encoding="utf-8"))
        data["holder"] = [1]
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("info", "--instance", str(path))
        assert res.returncode == 2
        assert res.stderr == "error: holder must be a JSON object\n"

    @pytest.mark.parametrize("holder", [[], 0, False, ""])
    def test_empty_holder_of_another_type(self, tmp_path, capsys, holder):
        # a falsy holder that is not an object is refused as [1] is
        path = tmp_path / "x.json"
        data = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))
        data["holder"] = holder
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["info", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == "error: holder must be a JSON object\n"

    def test_null_holder_is_no_metadata(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        data = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))
        data["holder"] = None
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["info", "--instance", str(path)]) == 0
        null = capsys.readouterr()
        del data["holder"]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["info", "--instance", str(path)]) == 0
        assert null == capsys.readouterr() and "holder" not in null.out

    @pytest.mark.parametrize("sizes", [{"side": "one", "range": 2000},
                                       {"side": "two", "past_depth": 1000, "future_depth": 1000}])
    def test_range_past_the_word_cap_with_short_keys(self, tmp_path, capsys, sizes):
        # the keys are checked before the words are counted, so the first
        # key's length is what is refused, not the length of the words
        path = tmp_path / "x.json"
        entries = {"00": 1, "01": 2, "10": 3, "11": 4}
        path.write_text(json.dumps({"alphabet_size": 2, "transition": [[1, 1], [1, 1]],
                                    "lambda": "1/2", "potential": {**sizes, "entries": entries}}),
                        encoding="utf-8")
        assert main(["info", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: potential: table word (0, 0) does not have length 2000\n")

    def test_range_past_the_word_cap_on_a_single_cycle(self, tmp_path):
        # a single cycle has two words at every length, so growing texts up
        # to a range of 10**6 would not stop on the count of keys
        path = tmp_path / "cycle.json"
        data = {
            "alphabet_size": 2, "transition": [[0, 1], [1, 0]], "lambda": "1/2",
            "potential": {"side": "one", "range": 10**6, "entries": {"0": 0, "1": 1}},
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        res = run_cli("info", "--instance", str(path), timeout=30)
        assert res.returncode == 2
        assert res.stderr == "error: potential: table word (0,) does not have length 1000000\n"

    def test_transition_entry_that_is_not_0_or_1(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        data = json.loads(Path(E1).read_text(encoding="utf-8"))
        data["transition"] = [[1, 1], [1, 2]]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == ("error: transition: transition matrix entries "
                                           "must be 0 or 1: row 1, column 1 is 2\n")

    def test_undecodable_instance(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b"\xff\xfe{}")
        res = run_cli("solve", "--instance", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_undecodable_subaction_cell(self, tmp_path):
        out = tmp_path / "u.csv"
        out.write_bytes(b"word,value\n0,0\n1,\xff\n")
        res = run_cli("verify", "--instance", E1, "--subaction", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_missing_instance_flag(self):
        assert run_cli("solve").returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    @staticmethod
    def run_into_closed_pipe(args, unbuffered):
        """The CLI with stdout on a pipe whose read end is closed before
        the spawn, so every write to it fails with EPIPE."""
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "ergopt", *args], stdout=write,
                stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_141(self, unbuffered):
        # a reader that went away is not malformed input: the exit is a
        # shell's 128 + SIGPIPE, with no error line, whether the write
        # fails at once or at the final flush
        res = self.run_into_closed_pipe(["solve", "--instance", E2], unbuffered)
        assert (res.returncode, res.stderr) == (141, "")

    def test_closed_stdout_in_process(self, monkeypatch, capsys):
        # captured stdout has no descriptor to point at devnull
        def closed(path):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("ergopt.cli.load_instance", closed)
        assert main(["solve", "--instance", E2]) == 141
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", [["separate", "--depth", "6"], ["calibrate"]])
    def test_closed_stdout_still_writes_out(self, tmp_path, unbuffered, command):
        # the file is written before anything is printed
        out = tmp_path / "u.csv"
        name, *rest = command
        res = self.run_into_closed_pipe(
            [name, "--instance", E2, *rest, "--out", str(out)], unbuffered)
        assert (res.returncode, res.stderr) == (141, "")
        assert main(["verify", "--instance", E2, "--subaction", str(out)]) == 0


class TestReadmeExamples:
    def test_command_blocks_match_the_output(self, capsys, monkeypatch):
        readme = INSTANCE_DIR.parent / "README.md"
        blocks = re.findall(r"```\n\$ ergopt ([^\n]*)\n(.*?)```",
                            readme.read_text(encoding="utf-8"), re.S)
        assert [command for command, _ in blocks] == [
            "solve --instance instances/e2.json",
            "separate --instance instances/e1.json --depth 2",
        ]
        monkeypatch.chdir(readme.parent)
        for command, shown in blocks:
            assert main(shlex.split(command)) == 0
            assert capsys.readouterr().out.splitlines() == shown.splitlines()
