"""Tests of the benchmark's own code (not of ergopt).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ergopt.instances import load_instance  # noqa: E402
from ergopt.oracle import BRUTE_NODE_LIMIT  # noqa: E402
from ergopt.potential import TwoSidedPotential  # noqa: E402
from ergopt.symbolic import refine  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_writes_the_same_bytes(tmp_path, workload):
    first = workloads.build(workload, 7, tmp_path / "a")
    second = workloads.build(workload, 7, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "c") != _files(tmp_path / "a")


def test_ladders_share_instances(tmp_path):
    workloads.build("solve-ladder", 3, tmp_path / "s")
    workloads.build("barrier-ladder", 3, tmp_path / "b")
    assert _files(tmp_path / "s") == _files(tmp_path / "b")


def test_rung_node_counts(tmp_path):
    jobs = workloads.build("solve-ladder", 5, tmp_path)
    assert [j.expect["nodes"] for j in jobs] == [n for _, _, n in workloads.LADDER]
    assert [n for _, _, n in workloads.LADDER] == [32, 64, 128, 27, 81, 55, 89, 144]
    for job, (_, order, nodes) in zip(jobs, workloads.LADDER):
        inst = load_instance(tmp_path / f"{job.id}.json")
        assert refine(inst.sft, order).n_nodes == nodes


def test_planted_cycles_are_node_disjoint():
    rng = random.Random(0)
    for system, order, _ in workloads.LADDER:
        _, expect = workloads.ladder_instance(rng, system, order)
        assert len(expect["critical_nodes"]) == (order + 1) + (order // 2 + 1)


def test_small_batch_stays_under_the_brute_force_limit(tmp_path):
    workloads.build("small-batch", 4, tmp_path)
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == workloads.SMALL_BATCH_INSTANCES
    for path in paths:
        inst = load_instance(path)
        pot = inst.potential
        depth = pot.future_depth if isinstance(pot, TwoSidedPotential) else pot.range
        assert refine(inst.sft, max(depth - 1, 1)).n_nodes <= BRUTE_NODE_LIMIT


def test_tie_heavy_systems_are_relabelings(tmp_path):
    for seed in (1, 2):
        workloads.build("separate-depth", seed, tmp_path / str(seed))
    for k in range(workloads.TIE_HEAVY_SYSTEMS):
        a, b = (json.loads((tmp_path / s / f"tie{k}.json").read_text()) for s in "12")
        assert sum(map(sum, a["transition"])) == sum(map(sum, b["transition"])) == 7
        weights = [sorted(x["potential"]["entries"].values()) for x in (a, b)]
        assert weights[0] == weights[1]
        paths = [tmp_path / s / f"tie{k}.json" for s in "12"]
        sizes = [refine(load_instance(p).sft, 7).n_nodes for p in paths]
        assert sizes[0] == sizes[1]


def test_gate_flags_a_doctored_digest():
    reference = json.loads((HERE / "reference" / "solve-ladder.json").read_text())
    stored = reference[str(run.DEFAULT_SEED)]
    result = {"jobs": list(stored), "digests": list(stored.values()), "failures": {}}
    assert run.gate(result, stored) == {}
    doctored = dict(result, digests=["0" * 16] + result["digests"][1:])
    assert list(run.gate(doctored, stored)) == [result["jobs"][0]]
    assert run.gate(doctored, None) == {}


def test_digest_hides_the_work_directory(tmp_path):
    a = worker.digest(0, f"wrote {tmp_path / 'a'}/out/x.csv\n", {}, tmp_path / "a")
    b = worker.digest(0, f"wrote {tmp_path / 'b'}/out/x.csv\n", {}, tmp_path / "b")
    assert a == b
    assert a != worker.digest(2, f"wrote {tmp_path / 'a'}/out/x.csv\n", {}, tmp_path / "a")


def test_checks_catch_a_wrong_answer(tmp_path):
    jobs = workloads.build("solve-ladder", 1, tmp_path / "inst")
    job = next(j for j in jobs if j.id == "full2-5")
    code, stdout, _, _ = worker.run_job(worker.fill(job.argv, tmp_path))
    assert code == 0
    assert checks.check("solve-ladder", job, stdout, {}, tmp_path / "inst") is None
    wrong = stdout.replace("abar = 1/2", "abar = 1/3")
    assert "abar" in checks.check("solve-ladder", job, wrong, {}, tmp_path / "inst")


def test_brute_force_abar_of_a_two_sided_table():
    instance = {
        "alphabet_size": 2, "transition": [[1, 1], [1, 0]],
        "potential": {"side": "two", "entries": {"00": 3, "01": 1, "10": 2}},
    }
    # B(0) = min(ahat(00), ahat(10)) = 2, B(1) = ahat(01) = 1; cycles 0 and 01
    assert str(checks._min_cycle_mean(instance)) == "3/2"


def test_self_time_subtracts_children():
    fake = [spans.Span("cli.main", "j", None, 0.0, 10.0, child=7.0),
            spans.Span("pipeline.solve_instance", "j", 0, 1.0, 8.0, child=6.0),
            spans.Span("tropical.mane_matrix", "j", 1, 2.0, 8.0,
                       counts={"entries": 4, "maxbits": 3})]
    m = spans.layer_metrics(fake)
    assert m["cli.main.self_s"] == 3.0
    assert m["pipeline.solve_instance_s"] == 7.0
    assert m["pipeline.solve_instance.self_s"] == 1.0
    assert m["tropical.mane_matrix_s"] == 6.0
    assert m["tropical.maxbits"] == 3 and m["tropical.mane_matrix.entries"] == 4


def test_tracer_sees_calls_between_modules(tmp_path):
    import ergopt.cli
    import ergopt.pipeline

    tracer = spans.Tracer()
    original = ergopt.pipeline.mane_matrix
    tracer.install()
    try:
        assert ergopt.pipeline.mane_matrix is not original
        tracer.job = "e1"
        code, _, _, _ = worker.run_job(["solve", "--instance", str(ROOT / "instances/e1.json")])
    finally:
        tracer.uninstall()
    assert code == 0 and ergopt.pipeline.mane_matrix is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "tropical.mane_matrix" in names
    parent = {k: s.parent for k, s in enumerate(tracer.spans)}
    assert parent[0] is None and all(p is not None for p in list(parent.values())[1:])


def test_tracer_closes_spans_of_failing_calls(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, _, _, _ = worker.run_job(["solve", "--instance", str(tmp_path / "missing.json")])
    finally:
        tracer.uninstall()
    assert code == 2
    main, load = tracer.spans
    assert load.name == "instances.load_instance" and load.end >= load.start
    assert main.child >= load.end - load.start and main.self_s >= 0


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"]}
    produced = set(spans.layer_metrics([])) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
        "trace.self_sum_s"}
    assert listed == produced
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
