"""Self-test of the benchmark: tiny runs of every workload, and proof that
a wrong answer is counted as a failure and posts no time.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

PKG = run.load_package()
import checks  # noqa: E402  (needs the package on the path)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--ops", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = _spec()["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _pass(workload, corpus, expected=None):
    ops = run.make_ops(PKG, workload, corpus)
    try:
        return run.run_pass(ops, checks, corpus, count=len(corpus),
                            expected=expected, seen={})
    finally:
        ops.close()


def test_tampered_expected_valuation_fails():
    corpus = workloads.make_corpus("wide-gluing", 3)[:2]
    assert _pass("wide-gluing", corpus).failed == 0
    bad = copy.deepcopy(corpus)
    node = next(iter(bad[0]["expect"]))
    bad[0]["expect"][node]["diag_valuations"][-1] += 1
    res = _pass("wide-gluing", bad)
    assert (res.attempted, res.failed, sum(res.completed)) == (2, 1, 1)


def test_tampered_snf_expectation_fails():
    corpus = workloads.make_corpus("cli-mix", 3)
    item = next(it for it in corpus if it["kind"] == "snf")
    assert _pass("cli-mix", [item]).failed == 0
    bad = copy.deepcopy(item)
    bad["expect"]["diag_valuations"][0] += 1
    res = _pass("cli-mix", [bad])
    assert (res.failed, res.completed) == (1, [False])


def test_tampered_output_digest_fails():
    record = json.loads(run.DIGESTS.read_text())["cli-mix"]
    corpus = workloads.make_corpus("cli-mix", run.DEFAULT_SEED)
    assert record["corpus"] == run.corpus_digest(corpus)
    expected = list(record["outputs"][:3])
    assert _pass("cli-mix", corpus[:3], expected).failed == 0
    expected[1] = "0" * 16
    res = _pass("cli-mix", corpus[:3], expected)
    assert (res.attempted, res.failed, sum(res.completed)) == (3, 1, 2)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
