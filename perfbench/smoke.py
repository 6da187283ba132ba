"""Smoke tests of the benchmark itself, at a tiny scale.

Run from the root of the repository:

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY_ORDERS = 30


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Runs the benchmark in-process on TINY_ORDERS orders; returns the
    result line as a dict."""
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)

    def bench(workload, *args):
        monkeypatch.setitem(common.ORDERS, workload, TINY_ORDERS)
        capsys.readouterr()
        assert run.main(["--workload", workload, "--seconds", "0", *args]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return bench


def tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        shop = gen.generate(seed, 40)
        gen.write_mapped(shop, tmp_path / name / "source")
        for _, batch in gen.trickle_batches(shop, seed):
            batch.write(tmp_path / name / batch.name)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")


def test_generator_relation_ratios_near_the_shop_run():
    model = gen.generate(5, 400).model
    events = len(model.events)
    assert 2.5 < len(model.e2o) / events < 4.0
    assert 2.5 < len(model.o2o) / events < 4.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload, tiny):
    out = tiny(workload, "--seed", "1", "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    for metric in BENCHMARK["end_to_end"]:
        value = out["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tiny):
    runs = [tiny(workload, "--seed", "2", "--trace", "1") for _ in range(2)]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for out in runs:
        assert out["correct"]
        assert sorted(out["metrics"]) == sorted(names)
    for name in traced.COUNTS:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_corrupted_expectation_raises_failed_ops(monkeypatch, tmp_path):
    true_counts = gen.Model.table_counts

    def corrupted(model):
        counts = true_counts(model)
        counts["events"] += 1
        return counts

    monkeypatch.setattr(gen.Model, "table_counts", corrupted)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    metrics, info, ops, _ = run.run_untraced("bulk", 1, 0, TINY_ORDERS, tmp_path)
    ratio = dict((name, value) for name, value, _ in info)["failed_ops_ratio"]
    assert ops.failed > 0 and ratio > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
