"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric named in BENCHMARK.json with its
unit, untraced and traced, and a corrupted reference must show up as a
failed op rather than pass unnoticed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, *extra, trace=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    code, details, result = run(workload)
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert result["attempted"] == details["ops_per_pass"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert details["provenance"]["src_proxikit_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_with_units(workload):
    code, details, result = run(workload, trace=1)
    assert (code, result["correct"], details["absent_layers"]) == (0, True, [])
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_flipped_golden_byte_is_a_failed_op(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(ROOT / "fixtures", fixtures)
    golden = fixtures / "golden" / "census_n2.txt"
    data = bytearray(golden.read_bytes())
    data[0] ^= 1
    golden.write_bytes(bytes(data))
    code, details, result = run("cli-golden", "--fixtures", str(fixtures))
    assert (code, result["correct"], result["failed"]) == (1, False, 1)
    assert details["fail_ratio"]["value"] == 1 / result["attempted"]


def test_wrong_digest_is_a_failed_op(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    entry = reference["witness-search"]
    packed = entry["digests"]["1"]
    # the first digest belongs to the first sorted op id, a size-6 table
    assert entry["op_ids"][0].startswith("n6/")
    entry["digests"]["1"] = ("0" if packed[0] != "0" else "1") + packed[1:]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, details, result = run("witness-search", "--reference", str(path))
    assert (code, result["correct"], result["failed"]) == (1, False, 1)
    assert details["digests_checked"] and details["fail_ratio"]["value"] > 0


def test_speed_sampler_scaling():
    sys.path.insert(0, str(BENCH))
    from speed import BOUNDARY_SCANS, CALIBRATION_REF_S, SpeedSampler

    ref = CALIBRATION_REF_S
    sampler = SpeedSampler()
    # boundary scans end at 0.00x, 1.00x and 1.10x; a short interval
    # [1.01, 1.02] and a long one [1.11, 2.11] with ten samples in it
    for t0, scan in ((0.0, ref), (1.0, 3 * ref), (1.1, ref)):
        sampler.ends += [t0 + 0.001 * i for i in range(BOUNDARY_SCANS)]
        sampler.scans += [scan] * BOUNDARY_SCANS
    sampler.ends += [1.15 + 0.1 * i for i in range(10)]
    sampler.scans += [2 * ref] * 10
    sampler.ends += [2.2 + 0.001 * i for i in range(BOUNDARY_SCANS)]
    sampler.scans += [2 * ref] * BOUNDARY_SCANS
    sampler.spent = [0.001] * len(sampler.ends)
    # no samples inside: scaled by the boundary scans around it only
    scaled, raw = sampler.time(1.01, 1.02)
    assert raw == pytest.approx(0.01)
    assert scaled == pytest.approx(0.01 / 2)
    # the samples inside are taken out of the raw time and join the mean
    scaled, raw = sampler.time(1.11, 2.11)
    assert raw == pytest.approx(1.0 - 10 * 0.001)
    n = BOUNDARY_SCANS
    assert scaled == pytest.approx(raw * (2 * n + 10) / (n * 1 + 10 * 2 + n * 2))
