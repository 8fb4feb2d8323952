"""The benchmark's own tests: tiny-size smoke runs of every workload, an
injected checkpoint corruption, and the refusal to run without sources."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_actlm()

import benchspec  # noqa: E402
import benchwork  # noqa: E402
from actlm import checkpoint  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def test_benchmark_json_is_generated_from_benchspec():
    assert BENCHMARK == benchspec.benchmark_json()


@pytest.mark.parametrize("workload", list(benchspec.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    report = run.run_workload(workload, seed=3, seconds=0, trace=1, tiny=True)
    assert report["failed"] == 0, report["errors"]
    assert not report["missing"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line({**report, "trace": trace})
        assert line["correct"] and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    for name, (where, unit, _, _) in benchspec.REPORTED.items():
        if where in ("all", workload):
            assert report["reported"][name]["unit"] == unit
    assert len(report["fingerprint"]) == 64


@pytest.mark.parametrize("workload", ["train16", "search64"])
def test_flipped_checkpoint_byte_is_a_failed_op(workload, monkeypatch):
    save = checkpoint.save_checkpoint

    def save_corrupted(state, path, *args, **kwargs):
        save(state, path, *args, **kwargs)
        with open(path, "r+b") as f:
            f.seek(100)
            byte = f.read(1)
            f.seek(100)
            f.write(bytes([byte[0] ^ 0xFF]))

    monkeypatch.setattr(checkpoint, "save_checkpoint", save_corrupted)
    report = run.run_workload(workload, seed=0, seconds=0, trace=0, tiny=True)
    assert 1 <= report["failed"] < report["attempted"]
    assert any("CheckpointError" in e for e in report["errors"])
    assert not run.result_line(report)["correct"]


@pytest.mark.parametrize("workload", list(benchspec.WORKLOADS))
def test_same_seed_gives_the_same_fingerprint(workload):
    first, second = (run.run_workload(workload, seed=5, seconds=0, trace=0,
                                      tiny=True) for _ in range(2))
    assert first["fingerprint"] == second["fingerprint"]


def test_work_before_the_first_step_counts_in_tokens_per_s(monkeypatch):
    from actlm import training
    pretrain = training.pretrain_base_ar

    def slow_start(*args, **kwargs):
        time.sleep(1.0)
        return pretrain(*args, **kwargs)

    # enough steps that a median over them would leave one slow step out
    monkeypatch.setattr(benchwork, "TINY", benchwork.TINY + ("--steps", "5"))
    plain = run.run_workload("train16", seed=1, seconds=0, trace=0, tiny=True)
    monkeypatch.setattr(training, "pretrain_base_ar", slow_start)
    slowed = run.run_workload("train16", seed=1, seconds=0, trace=0,
                              tiny=True)
    tokens = sum(t for _, t in plain["work"].values())
    rate = plain["raw"]["tokens_per_s"]
    # the 1 s sleep, less a margin for host noise, is in the slowed figure
    assert slowed["raw"]["tokens_per_s"] < tokens / (tokens / rate + 0.5)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train16", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
