"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
COUNT_UNITS = ("count", "bytes", "fraction")


def _bench(monkeypatch, capsys, workload, trace, keep=None, seed=0):
    """Run the benchmark in-process; ``keep`` trims the inputs to a few."""
    if keep is not None:
        full = workloads.make_items
        monkeypatch.setattr(run, "make_items",
                            lambda w, s: full(w, s)[:keep])
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return info, result["metrics"]


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_emits_every_metric(monkeypatch, capsys, workload):
    for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        info, metrics = _bench(monkeypatch, capsys, workload, trace, keep=3)
        assert sorted(metrics) == sorted(m["name"] for m in names)
        assert info["checks_failed_frac"] == 0
        assert info["nproc"] >= 1 and info["python"]
    assert all(metrics[m["name"]]["value"] >= 0 for m in SPEC["per_layer"]
               if m["name"] != "trace.overhead_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(monkeypatch, capsys, workload):
    runs = [_bench(monkeypatch, capsys, workload, 1, keep=4, seed=7)
            for _ in range(2)]
    counts = [{name: m["value"] for name, m in metrics.items()
               if m["unit"] in COUNT_UNITS} for _, metrics in runs]
    assert counts[0] == counts[1]
    assert runs[0][0]["counts_repeat"] and runs[0][0]["untraced_targets"] == []


def test_graded_paths_bypasses_rewriting_and_descriptors(monkeypatch, capsys):
    _, metrics = _bench(monkeypatch, capsys, "graded_paths", 1)
    assert metrics["presentations.reduce_word_calls"]["value"] == 0
    assert metrics["scalars.order_calls"]["value"] == 0
    assert metrics["graded.multiply_calls"]["value"] > 0
    assert metrics["coalgebra.map_factors_calls"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert workloads.make_items(workload, 3) == workloads.make_items(workload, 3)
    assert any(workloads.make_items(workload, s)
               != workloads.make_items(workload, 3) for s in range(4, 8))


def test_monomial_counts_mirror_the_verifier():
    from hopfpath.verifier import _monomials
    from worker import _descriptor
    import hopfpath
    for workload in ("basis_change", "hopf_antipode"):
        for item in workloads.make_items(workload, 0):
            if "desc" not in item:
                continue
            desc = _descriptor(hopfpath, item["desc"])
            ours = sorted(m for m, _ in workloads.monomials(
                item["desc"], item["bound"]))
            theirs = sorted((m.k, m.j, m.i)
                            for m in _monomials(desc, item["bound"]))
            assert ours == theirs, item


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graded_paths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
