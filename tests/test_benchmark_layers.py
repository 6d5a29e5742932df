"""The benchmark's traced layers name functions that exist.

``perfbench/spans.py`` wraps each (module, function) pair of ``LAYERS``
and the fuzzer's verification site ``VERIFY_SITE``; a pair that no longer
resolves is reported there as an absent layer.  This test loads those
tables and fails as soon as a rename leaves one of them behind.
"""
import importlib.util
import inspect
from pathlib import Path

import proxikit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
