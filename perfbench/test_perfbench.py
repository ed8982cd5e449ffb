"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_and_follows_the_seed(name):
    w = WORKLOADS[name]
    for c in range(len(w.classes)):
        assert w.make(7, 0, c) == w.make(7, 0, c)
        assert w.make(7, 0, c) != w.make(8, 0, c)
        assert w.make(7, 0, c) != w.make(7, 1, c)
    assert w.warmup(7) == w.warmup(7)


def test_self_time_on_synthetic_nested_spans():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 9]
    times = iter([0, 1, 2, 4, 5, 6, 9, 10])
    tr = tracing.Tracer(clock=lambda: next(times))
    tr.begin_command("c0")
    tr.open("A")
    tr.open("B")
    tr.open("C")
    tr.close()
    tr.close()
    tr.open("B")
    tr.close()
    tr.close()
    tr.end_command()
    assert tr.self_time("A") == 10 - 4 - 3
    assert tr.self_time("B") == (4 - 2) + 3
    assert tr.self_time("C") == 2
    assert tr.agg[("B", "A")][:2] == [2, 7]
    assert tr.agg[("C", "B")] == [1, 2, 2]
    assert sum(tr.shares().values()) == pytest.approx(1.0)
    # full spans in order of closing, each with its parent's id
    assert [(s[3], s[1], s[2]) for s in tr.spans] == [
        ("C", 3, 2), ("B", 2, 1), ("B", 4, 1), ("A", 1, None)]


class WrongReferences(worker.References):
    """Every reference off by more than its tolerance."""

    @staticmethod
    def oracle_probability(path, pattern):
        return worker.oracle_probability(path, pattern) + 1e-3

    @staticmethod
    def oracle_final_marginal(path):
        marg = worker.oracle_final_marginal(path)
        keys = sorted(marg)
        return {**marg, keys[0]: marg[keys[0]] + 0.2, keys[-1]: marg[keys[-1]] - 0.2}

    @staticmethod
    def cli_probability(argv, pattern):
        return worker.References.cli_probability(argv, pattern) + 1e-6

    @staticmethod
    def cli_digest(argv):
        return "not the digest"


def _ops(name, tmp_path, classes):
    runner = worker.Runner(WORKLOADS[name], seed=3, workdir=tmp_path)
    runner.generate_round()
    runner.pending = [op for op in runner.pending if op.cls in classes]
    return runner.run_round(traced=False)


@pytest.mark.parametrize("name, classes, checked", [
    ("prob", {0, 2, 4, 5}, 4),  # oracle at n=8 and n=16, pattern-set sum at n=32
    ("sample-adaptive", {0}, 1),  # sampled marginal and stdout digest
])
def test_wrong_reference_counts_as_failed_command(name, classes, checked, tmp_path):
    pytest.importorskip("matchsim")
    ops = _ops(name, tmp_path, classes)
    assert worker.check_ops(name, ops) == 0, [op.breaches for op in ops]
    for op in ops:
        op.breaches = []
    assert worker.check_ops(name, ops, WrongReferences) == checked


def test_xcheck_breach_counts_as_failed_command(tmp_path):
    pytest.importorskip("matchsim")
    ops = _ops("xcheck-random", tmp_path, {0})
    assert worker.check_ops("xcheck-random", ops) == 0
    ops[0].doc["counters"]["max_abs_deviation"] = 1e-3
    assert worker.check_ops("xcheck-random", ops) == 1


def test_nonzero_exit_counts_as_failed_command(tmp_path):
    pytest.importorskip("matchsim")
    (op,) = _ops("prob", tmp_path, {4})
    op.code = 4
    assert worker.check_ops("prob", [op]) == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = dict(tracing.Tracer().metrics())
    layer.update({k: 0.0 for k in ("trace.ops_per_s_untraced", "trace.ops_per_s_traced",
                                   "trace.overhead_ops_per_s")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.per_layer_unit(k) for k in layer}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prob",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
