"""Self-tests of the benchmark, on the ``tiny`` inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that the benchmark is deterministic where it claims to be
(the same seed gives identical simulated-clock metrics and per-layer
counts, traced or not), that the seed reaches the generated inputs, that
the layer wrappers come off cleanly, and that the command keeps its
output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spread  # noqa: E402
from ledger import Ledger, instrument  # noqa: E402
from workloads import WORKLOADS, _fresh_records, _new_disk, _patches, _relation_keys  # noqa: E402

import repro.view.sampleview as sampleview  # noqa: E402
import repro.workloads as repro_workloads  # noqa: E402
from repro.acetree.query import SampleStream  # noqa: E402


def _exact(outcome) -> dict:
    values = dict(outcome.metrics, **outcome.layers)
    return {name: value for name, value in values.items() if spread.is_exact(name)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_exact_metrics(name):
    first = WORKLOADS[name](3, 0.01, "tiny", ledger=Ledger(), passes=1)
    second = WORKLOADS[name](3, 0.01, "tiny", ledger=Ledger(), passes=1)
    assert first.failed == second.failed == 0, first.problems + second.problems
    exact = _exact(first)
    for required in ("sim_records_per_s", "sim_build_s", "tta_p50_sim_s",
                     "tta_p99_sim_s", "space_amp", "storage.disk.page_reads",
                     "storage.disk.seeks", "acetree.query.stabs",
                     "acetree.query.leaves_read", "serve.steps"):
        assert required in exact
    assert exact == _exact(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_do_not_move_the_simulated_clock(name):
    plain = WORKLOADS[name](4, 0.01, "tiny", passes=2)
    traced = WORKLOADS[name](4, 0.01, "tiny", ledger=Ledger(), passes=2)
    assert plain.failed == traced.failed == 0
    for metric in ("sim_records_per_s", "sim_build_s", "tta_p50_sim_s",
                   "tta_p99_sim_s", "space_amp"):
        assert plain.metrics[metric] == traced.metrics[metric], metric


def test_other_seed_changes_the_inputs():
    keys = [_relation_keys(repro_workloads.generate_sale_1d(_new_disk(4096), 500,
                                                            seed=seed))
            for seed in (1, 2)]
    assert not np.array_equal(keys[0], keys[1])
    assert _fresh_records(1, 0, 50) != _fresh_records(2, 0, 50)
    assert _fresh_records(1, 0, 50) != _fresh_records(1, 1, 50)
    assert (repro_workloads.queries_1d(0.025, 5, seed=2)
            != repro_workloads.queries_1d(0.025, 5, seed=3))
    one = WORKLOADS["paper_1d"](1, 0.01, "tiny", passes=1)
    two = WORKLOADS["paper_1d"](2, 0.01, "tiny", passes=1)
    assert one.metrics["sim_build_s"] != two.metrics["sim_build_s"]
    assert one.metrics["sim_records_per_s"] != two.metrics["sim_records_per_s"]


def test_ledger_charges_self_time_to_the_innermost_layer():
    ledger = Ledger()

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_inner = ledger.wrap("inner", inner)
    ledger.wrap("outer", outer)()
    assert ledger.calls == {"inner": 1, "outer": 1}
    assert 0.03 <= ledger.self_s["inner"] < 0.045
    assert 0.02 <= ledger.self_s["outer"] < 0.03


def test_ledger_charges_iterator_steps_but_not_the_consumer():
    ledger = Ledger()

    def slow():
        for i in range(3):
            time.sleep(0.01)
            yield i

    items = []
    for item in ledger.iterate("gen", slow()):
        time.sleep(0.02)  # the consumer's time is not the generator's
        items.append(item)
    assert items == [0, 1, 2]
    assert ledger.calls["gen"] == 4  # three items and the StopIteration step
    assert 0.03 <= ledger.self_s["gen"] < 0.05


def test_instrument_replaces_every_binding_and_restores_it():
    original_build = sampleview.build_ace_tree
    original_next = SampleStream.__next__
    with instrument(_patches(Ledger())):
        assert sampleview.build_ace_tree is not original_build
        import repro.acetree
        assert repro.acetree.build_ace_tree is sampleview.build_ace_tree
        assert SampleStream.__next__ is not original_next
    assert sampleview.build_ace_tree is original_build
    assert SampleStream.__next__ is original_next


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_contract_json(trace):
    proc = _run_cli(ROOT, "--workload", "serve_closed", "--seed", "5",
                    "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["end_to_end"] if trace == "0" else config["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "paper_1d", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
