"""The benchmark's own tests: generator, checks, tracing and the printed result.

    PYTHONPATH=src python -m pytest bench

Every benchmark run here uses ``--size smoke``, so the file takes seconds.
"""

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import datagen
import run
import tracing
from tradenet import WeightKind, build_direct_matrix, load_network
from tradenet.errors import ConsistencyWarning
from tradenet.ingestion import DatasetManifest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
AMOUNT = re.compile(r"\d+\.\d+(e[+-]\d+)?")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_same_seed_gives_identical_files_and_codes_go_past_676(tmp_path):
    first = datagen.generate(tmp_path / "a", 3, 700, partners=4)
    again = datagen.generate(tmp_path / "b", 3, 700, partners=4)
    other = datagen.generate(tmp_path / "c", 4, 700, partners=4)
    for name in ("countries.csv", "flows.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    assert len(set(first.codes)) == 700 and first.codes == other.codes == again.codes
    assert all(re.fullmatch(r"[A-Z0-9]{3}", code) for code in first.codes)


def test_amounts_are_plain_decimals(tmp_path):
    dataset = datagen.generate(tmp_path, 1, 20, zero_share=0.3, coverage=(0.6, 0.95))
    for path in (dataset.countries_path, dataset.flows_path):
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[2:]]
        assert cells and all(AMOUNT.fullmatch(cell) for cell in cells), path


@pytest.mark.parametrize("weight", ["trade", "offer"])
def test_generator_knows_the_direct_matrix_and_its_row_sums(tmp_path, weight):
    dataset = datagen.generate(tmp_path, 5, 25, zero_share=0.1, coverage=(0.6, 0.95))
    network = load_network(DatasetManifest(dataset.countries_path, dataset.flows_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConsistencyWarning)
        direct = build_direct_matrix(network, WeightKind(weight))
    np.testing.assert_allclose(direct.values, dataset.direct(weight, direct.labels), rtol=1e-12)
    ratio = dataset.trade_ratio if weight == "trade" else dataset.offer_ratio
    expected = dict(zip(dataset.codes, ratio))
    np.testing.assert_allclose(
        direct.values.sum(axis=1), [expected[code] for code in direct.labels], rtol=1e-9
    )


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    spans = tracer.take()["spans"]
    assert [s["parent"] for s in spans] == [None, 0]
    times = tracing.self_times(spans)
    outer = spans[0]["end"] - spans[0]["start"]
    assert times["outer"] + times["inner"] == pytest.approx(outer)
    assert tracer.take() == {"spans": [], "counts": {}}


@pytest.mark.parametrize("checker,command", [
    (run.check_rankings, "ingest-rank"),
    (run.check_matrices, "export-matrix"),
])
def test_output_checks_accept_real_outputs_and_reject_a_changed_cell(tmp_path, checker, command):
    dataset = datagen.generate(tmp_path / "data", 2, **run.SIZES["smoke"][command])
    workload = run.CliWorkload(command, dataset, tmp_path)
    assert workload.op().work > 0
    reference = tmp_path / "reference"
    assert checker(dataset, reference) == []

    path = reference / workload.outputs[1]
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * 1.001 + 1e-6)
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    assert checker(dataset, reference)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_listed_workloads_are_known():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "9", "--seconds", "0.5",
                          "--trace", str(trace), "--size", "smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if workload == "operator-sweep":  # pwp at lambda=800 overflows on both weights
        assert result["attempted"] % 16 == 0
        assert result["failed"] * 16 == result["attempted"] * 2
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ingest-rank", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
