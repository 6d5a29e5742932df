"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each traced proxikit function with a wrapper
that records a span around the call.  The wrapper is put in place of the
function object wherever a proxikit module holds it -- as a module
attribute, or as a value of a module-level dict such as
``groups.AXIOM_CHECKS`` -- so calls between proxikit modules are seen too.
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

A layer's self time is its span time minus the time of the spans opened
inside it.  A function that no longer exists is reported as an absent
layer, never as a layer with zero calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable

# layer name -> (module, function) pairs timed as that layer
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "relations.point_table": (("relations", "relation_from_point_pairs"),),
    "relations.subspace": (("relations", "subspace_proximity"),),
    "relations.quotient": (("relations", "quotient_proximity"),),
    "axioms.cech": (("axioms", "check_cech"),),
    "axioms.lodato": (("axioms", "check_lodato"),),
    "axioms.efremovic": (("axioms", "check_efremovic"),),
    "axioms.kuratowski": (("axioms", "check_kuratowski"),),
    "axioms.closure_table": (("axioms", "closure_table"),),
    "groups.proximal_group": (("groups", "check_proximal_group"),),
    "groups.mu1": (("groups", "_mu1_check"),),
    "groups.mu2": (("groups", "_mu2_check"),),
    "groups.subset_product_table": (("groups", "subset_product_table"),),
    "groups.translations": (("groups", "check_translations"),),
    "groups.transitivity": (("groups", "check_transitivity_property"),),
    "maps.pcont": (("maps", "check_pcont"),),
    "harnesses.iso": (
        ("harnesses", "first_iso_harness"),
        ("harnesses", "second_iso_harness"),
        ("harnesses", "third_iso_harness"),
    ),
    "enumeration.enumerate": (("enumeration", "enumerate_relations"),),
    "enumeration.fuzz": (("enumeration", "fuzz_theorem"),),
    "descriptive.lodato": (("descriptive", "check_descriptive_lodato"),),
    "descriptive.ef": (("descriptive", "check_descriptive_ef"),),
    "workspace.parse": (("workspace", "parse_workspace"),),
    "cli.run_command": (("cli", "run_command"),),
}

# ratio name -> layers whose calls form its base.  A hit is a failing
# verdict for the axiom checkers and an ok report everywhere else.
AXIOM_CHECKERS = ("axioms.cech", "axioms.lodato", "axioms.efremovic", "axioms.kuratowski")
RATIOS = {
    "axioms.fail_ratio": AXIOM_CHECKERS,
    "groups.proximal_group.ok_ratio": ("groups.proximal_group",),
    "enumeration.verified_ratio": ("enumeration.verify",),
}

# The fuzzer's structure verification: check_proximal_group as called from
# the enumeration module.  Its ok share is enumeration.verified_ratio.
VERIFY_SITE = ("enumeration", "check_proximal_group")


class Tracer:
    """Span stack, per-layer counters and the patch table."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hits: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [start, child time]
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.calls = {layer: 0 for layer in self.layers()}
        self.self_s = {layer: 0.0 for layer in self.layers()}
        self.hits = {layer: 0 for layer in self.layers()}

    def layers(self) -> list[str]:
        return [layer for layer in [*LAYERS, "enumeration.verify"] if layer not in self.absent]

    # -- spans --------------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, layer: str) -> None:
        start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _count(self, layer: str, result: Any) -> None:
        self.calls[layer] += 1
        if layer in AXIOM_CHECKERS:
            self.hits[layer] += not result.ok
        elif layer == "groups.proximal_group":
            self.hits[layer] += result.ok

    def span(self, layer: str, f: Callable) -> Callable:
        if inspect.isgeneratorfunction(f):
            # time each resumption of the generator, not the gaps between them
            @functools.wraps(f)
            def gen_wrapper(*args, **kwargs):
                self.calls[layer] += 1
                it = f(*args, **kwargs)
                while True:
                    self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer)
                    yield item

            return gen_wrapper

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                result = f(*args, **kwargs)
            finally:
                self._exit(layer)
            self._count(layer, result)
            return result

        return wrapper

    def verify_counter(self, f: Callable) -> Callable:
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            self.calls["enumeration.verify"] += 1
            self.hits["enumeration.verify"] += result.ok
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _replace(self, original: Any, replacement: Any) -> None:
        """Put ``replacement`` wherever a proxikit module holds ``original``."""
        for name, module in list(sys.modules.items()):
            if name != "proxikit" and not name.startswith("proxikit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, item))
                            value[key] = replacement

    def install(self) -> None:
        import proxikit

        self.absent = []
        for layer, sites in LAYERS.items():
            originals = [getattr(getattr(proxikit, mod, None), fn, None) for mod, fn in sites]
            if any(f is None for f in originals):
                self.absent.append(layer)
        verify_module = getattr(proxikit, VERIFY_SITE[0], None)
        if getattr(verify_module, VERIFY_SITE[1], None) is None or "groups.proximal_group" in self.absent:
            self.absent.append("enumeration.verify")
        self.reset()
        for layer, sites in LAYERS.items():
            if layer in self.absent:
                continue
            for mod, fn in sites:
                original = getattr(getattr(proxikit, mod), fn)
                self._replace(original, self.span(layer, original))
        if "enumeration.verify" not in self.absent:
            verify_module = getattr(proxikit, VERIFY_SITE[0])
            traced = getattr(verify_module, VERIFY_SITE[1])
            self._patches.append((verify_module, VERIFY_SITE[1], traced))
            setattr(verify_module, VERIFY_SITE[1], self.verify_counter(traced))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Counters of the pass since the last reset, flattened by name."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer in self.absent:
                continue
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for ratio, base_layers in RATIOS.items():
            if any(layer in self.absent for layer in base_layers):
                continue
            base = sum(self.calls[layer] for layer in base_layers)
            hits = sum(self.hits[layer] for layer in base_layers)
            out[f"{ratio}.base"] = base
            out[ratio] = hits / base if base else 0.0
        return out
