"""Smoke test of the benchmark with tiny trial caps.

    python3 -m pytest perfbench -q

Not part of the package's test suite (``testpaths`` is ``tests``); run it
after changing anything under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name):
    return tuple(
        replace(s, trials=min(s.trials, 20)) for s in workloads.build(name, workloads.DEFAULT_SEED)
    )


def _traced_functions():
    return [
        getattr(importlib.import_module(f"csmimo.{module}"), attr)
        for module, attr, _ in spans.TARGETS
    ]


def test_workloads_match_benchmark_json():
    assert list(workloads.NAMES) == [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_round_matches_and_restores(name):
    specs = _tiny(name)
    originals = _traced_functions()
    rounds = measure.alternating_rounds(specs, 0.0)
    traced = rounds[1]

    assert all(now is before for now, before in zip(_traced_functions(), originals))
    assert [r.summary is not None for r in rounds] == [False, True, True]
    assert measure.check(rounds, None) == (3 * len(specs), 0, [])
    self_ns = sum(entry["self_ns"] for entry in traced.summary.values())
    assert 0 < self_ns <= traced.wall_ns
    assert traced.summary[spans.ROOT]["calls"] == len(specs)

    layer = measure.per_layer(rounds, specs)
    assert set(layer) == {m["name"] for m in DECLARED["per_layer"]}
    assert layer["detection.factorizations"] >= 1.0


def test_check_flags_a_changed_csv():
    rnd = measure.run_round(_tiny("ml-fixed"))
    hashes = [s.sha256 for s in rnd.sweeps]
    assert measure.check([rnd, rnd], hashes) == (6, 0, [])
    attempted, failed, problems = measure.check([rnd], ["0" * 64] + hashes[1:])
    assert (attempted, failed) == (3, 1) and "pinned" in problems[0]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_contract_line():
    done = _run(ROOT, "--workload", "shipped-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "ml-fixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
