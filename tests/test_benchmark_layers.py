"""The benchmark still runs on this code.

``perfbench/spans.py`` wraps each (module, function) pair of ``LAYERS``
and the fuzzer's verification site ``VERIFY_SITE``; a pair that no longer
resolves is reported there as an absent layer.  These tests load those
tables and fail as soon as a rename leaves one of them behind.  They also
run every op of ``perfbench/workloads.py`` once at the tiny size, in
process, so a signature or report-field change that breaks an op fails
here and not only in the slower ``perfbench/test_smoke.py``.
"""
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import proxikit

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_module("perfbench_spans", SPANS)


def test_every_traced_layer_resolves_to_a_proxikit_function():
    spans = load_spans()
    sites = [site for pairs in spans.LAYERS.values() for site in pairs]
    sites.append(spans.VERIFY_SITE)
    assert len(sites) > 20
    missing = [
        f"{module}.{name}"
        for module, name in sites
        if not inspect.isfunction(getattr(getattr(proxikit, module, None), name, None))
    ]
    assert missing == []


# The checkers perfbench/workloads.py calls with ``max_size=``.
BENCHMARK_MAX_SIZE_CALLS = (
    "check_proximal_group",
    "check_translations",
    "check_cech",
    "check_lodato",
    "check_efremovic",
    "check_kuratowski",
    "check_transitivity_property",
)


def test_benchmark_checkers_still_take_max_size():
    missing = [
        name
        for name in BENCHMARK_MAX_SIZE_CALLS
        if "max_size" not in inspect.signature(getattr(proxikit, name)).parameters
    ]
    assert missing == []


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_tiny_benchmark_op_passes_its_own_check(workload):
    workloads = load_module("perfbench_workloads", WORKLOADS)
    seed = 1
    ops = workloads.BUILDERS[workload](seed, True, ROOT / "fixtures")
    reference = REFERENCE.get(workload, {})
    packed = reference.get("digests", {}).get(str(seed), reference.get("digests", {}).get("*"))
    width = workloads.DIGEST_CHARS
    digests = {} if packed is None else dict(
        zip(reference["op_ids"], (packed[i:i + width] for i in range(0, len(packed), width)))
    )
    assert ops
    for op in ops:
        out = op.call()
        problems, record = op.check(out)
        assert problems == [], op.id
        if op.summary is not None:
            assert op.summary(out) == reference["expected"][op.id], op.id
        if op.id in digests:
            assert workloads.digest(record) == digests[op.id], op.id
