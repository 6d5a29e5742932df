"""proxikit benchmark: one workload per run, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a proxikit checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics and
the tracing overhead.  The line before it holds the details: provenance,
op sample count and tail percentile, fail_ratio and, traced, the absent
layers and the reference timings.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Seconds one untraced pass took on the 2-CPU machine the benchmark was
# defined on.  A run makes round(--seconds / nominal) passes, a number fixed
# by --seconds alone, so every run of a workload pools the same number of op
# samples and reads op_tail_ms at the same rank.  group-verify makes at
# least four, so that its tail rank (the 11th largest sample) lies among
# the Z7 proximal-group checks, where mu1 dominates.
NOMINAL_PASS_S = {"group-verify": 5.0, "theorem-sweep": 7.5, "witness-search": 3.75, "cli-golden": 1.25}
MIN_PASSES = {"group-verify": 4}
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import proxikit from this checkout's src/, never an installed copy."""
    if not (SRC / "proxikit" / "__init__.py").is_file():
        fail(f"no proxikit package under {SRC}; run from a proxikit checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import proxikit

    if Path(proxikit.__file__).resolve().parent != (SRC / "proxikit").resolve():
        fail(f"imported proxikit from {proxikit.__file__}, not from {SRC}")
    import workloads

    return workloads


def build_inputs(args):
    """Import proxikit and generate the workload's ops: the timed set-up."""
    workloads = import_workloads()
    if not (args.fixtures / "manifest.json").is_file():
        fail(f"no fixtures manifest under {args.fixtures}")
    return workloads, workloads.BUILDERS[args.workload](args.seed, args.tiny, args.fixtures)


def setup_probe(args) -> None:
    """Scaled and raw set-up time of this fresh process."""
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        build_inputs(args)
        end = time.perf_counter()
        sampler.mark()
    scaled, raw = sampler.time(start, end)
    print(json.dumps({"setup_s": scaled, "raw_s": raw}))


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of SETUP_SAMPLES fresh processes, each
    timed from inside."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--fixtures", str(args.fixtures)]
    if args.tiny:
        cmd.append("--tiny")
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("set-up probe failed")
        result = json.loads(proc.stdout.splitlines()[-1])
        samples.append(result["setup_s"])
        raw.append(result["raw_s"])
    return samples, raw


def load_reference(path: Path, workload: str, seed: int) -> tuple[dict, dict | None]:
    """Expected summaries, and the op digests stored for this seed (None if
    the seed has none).  Digests are stored per seed as one string, DIGEST_CHARS
    hex digits per op in sorted op-id order; seed "*" serves every seed."""
    try:
        entry = json.loads(path.read_text()).get(workload, {})
    except (OSError, ValueError) as e:
        fail(f"cannot read reference {path}: {e}")
    stored = entry.get("digests", {})
    packed = stored.get(str(seed), stored.get("*"))
    if packed is None:
        return entry.get("expected", {}), None
    from workloads import DIGEST_CHARS

    chunks = [packed[i:i + DIGEST_CHARS] for i in range(0, len(packed), DIGEST_CHARS)]
    return entry.get("expected", {}), dict(zip(entry["op_ids"], chunks))


def call_samples(passes: list[list[float]]) -> list[float]:
    """One sample per call of every pass, each set to the mean latency of
    that call over the run's passes.

    A median or tail rank over single readings jumps between calls of
    different cost when one reading is disturbed; a per-call mean moves only
    by that reading's share.  The sample count (passes x calls) and the rank
    stay those of the single readings."""
    means = [statistics.fmean(call) for call in zip(*passes)]
    return [m for m in means for _ in passes]


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "proxikit").glob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_proxikit_lines": lines,
    }


class Raised:
    def __init__(self) -> None:
        self.text = traceback.format_exc()


class Runner:
    """Runs passes over the ops and checks every output against the reference."""

    def __init__(self, workloads, ops, expected: dict, digests: dict | None):
        self.workloads = workloads
        self.ops = ops
        self.expected = expected
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> tuple[list[float], list[float], float, int]:
        """Scaled and raw per-op latencies, the time spent in the ops with
        the sampler's share, and the items completed by one pass.

        The machine's speed is sampled throughout (speed.py); outputs are
        checked after the pass."""
        gc.collect()
        spans, outputs = [], []
        with SpeedSampler() as sampler:
            for op in self.ops:
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception:  # an unexpected raise is a failed op; keep going
                    out = Raised()
                spans.append((start, time.perf_counter()))
                sampler.mark()
                outputs.append(out)
        latencies, raw = zip(*(sampler.time(start, end) for start, end in spans))
        items = 0
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            problems = self.check(op, out)
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.id}: {p}" for p in problems)
            else:
                items += op.items(out)
        return list(latencies), list(raw), sum(end - start for start, end in spans), items

    def check(self, op, out) -> list[str]:
        if isinstance(out, Raised):
            return [f"raised\n{out.text}"]
        try:
            problems, record = op.check(out)
            if op.summary is not None and op.summary(out) != self.expected.get(op.id):
                problems.append(f"summary {op.summary(out)} != reference {self.expected.get(op.id)}")
        except Exception:
            return [f"check raised\n{traceback.format_exc()}"]
        if self.digests is not None and record is not None:
            got = self.workloads.digest(record)
            if got != self.digests.get(op.id):
                problems.append(f"digest {got} != reference {self.digests.get(op.id)}")
        return problems


def passes_for(args) -> int:
    if args.tiny:
        return 2 if args.trace else 1
    nominal = round(args.seconds / NOMINAL_PASS_S[args.workload])
    return max(nominal, MIN_PASSES.get(args.workload, 1), 2 if args.trace else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a subset of the items, one pass")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json",
                        help="stored expectations and digests")
    parser.add_argument("--fixtures", type=Path, default=ROOT / "fixtures",
                        help="golden fixtures of the cli-golden workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.reference = args.reference.resolve()
    args.fixtures = args.fixtures.resolve()
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup, setup_raw = measure_setup(args)
    workloads, ops = build_inputs(args)
    expected, digests = load_reference(args.reference, args.workload, args.seed)
    runner = Runner(workloads, ops, expected, digests)

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    # a pass's wall time is the sum of its scaled op latencies
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: dict[bool, list[float]] = {False: [], True: []}
    latencies: dict[bool, list[list[float]]] = {False: [], True: []}
    items = 0
    layer_passes: list[dict[str, float]] = []
    for index in range(passes_for(args)):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            lat, raw, elapsed, done = runner.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(lat))
        raw_walls[traced].append(sum(raw))
        latencies[traced].append(lat)
        if traced:
            # span times are raw and hold the sampler's time; scale them by
            # the pass's scaled time over its elapsed time
            scale = sum(lat) / elapsed
            layer_passes.append({
                name: value * scale if name.endswith("_s") else value
                for name, value in tracer.pass_metrics().items()
            })
        else:
            items += done
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for problem in runner.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    samples = call_samples(latencies[False])
    tail_s, tail_pct = tail(samples)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": len(walls[False]) + len(walls[True]),
        "ops_per_pass": len(ops),
        "op_samples": len(samples),
        "op_tail_percentile": tail_pct,
        "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "digests_checked": digests is not None,
        "setup_samples_s": setup,
        "raw_setup_samples_s": setup_raw,
        "raw_pass_walls_s": raw_walls[False],
        "speed": sum(walls[False]) / sum(raw_walls[False]),
        "provenance": provenance(),
    }
    if tracer is not None:
        metrics = {}
        for name in layer_passes[0]:
            unit = "s" if name.endswith("_s") else "count" if name.endswith((".calls", ".base")) else "ratio"
            metrics[name] = {"value": statistics.median(p[name] for p in layer_passes), "unit": unit}
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        details["absent_layers"] = tracer.absent
        details["reference_timings_ms"] = {
            op.id: {
                "traced": 1000 * statistics.median(lat[i] for lat in latencies[True]),
                "untraced": 1000 * statistics.median(lat[i] for lat in latencies[False]),
            }
            for i, op in enumerate(ops)
            if op.reference
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls[False]),
            "items_per_s": items / sum(walls[False]),
            "op_p50_ms": 1000 * statistics.median(samples),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
