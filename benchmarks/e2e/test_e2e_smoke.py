"""Smoke test of the end-to-end benchmark at a tiny scale.

    python -m pytest benchmarks/e2e

Checks the contract between BENCHMARK.json and what ``run.py`` prints, that a
seed pins the op list and the exact counts, and that a wrong answer fails
the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, seed: int, trace: int, *extra: str):
    """``(exit code, result line or None, raw side file)`` of one tiny run."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--tiny", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    kind = "trace" if trace else "run"
    raw = json.loads((HERE / "out" / f"{kind}_{workload}_{seed}.json").read_text())
    return done.returncode, result, raw


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


# batch_sharded is run by hand, not by the ledger (see run.py's table).
@pytest.mark.parametrize("workload", [*WORKLOADS, "batch_sharded"])
def test_every_declared_metric_is_reported(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        code, result, _ = run(workload, 1, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_pins_ops_and_exact_counts(workload):
    _, first, raw_first = run(workload, 7, 1)
    _, again, raw_again = run(workload, 7, 1)
    _, _, raw_other = run(workload, 8, 0)
    assert raw_first["ops_sha256"] == raw_again["ops_sha256"]
    assert raw_first["ops_sha256"] != raw_other["ops_sha256"]
    exact = [
        name for name in first["metrics"]
        if name.startswith("core.server.") and not name.endswith("_ms_per_query")
    ] + ["core.postfilter.decryptions_per_query"]
    assert len(exact) == 5
    for name in exact:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name


def test_wrong_expected_ciphertext_fails_the_run():
    code, result, _ = run("batch_single_node", 1, 0, "--corrupt-expected")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
