"""Regenerate perfbench/reference.json from the proxikit in this checkout.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: every output
is first checked by the workload's own checks (witness_violates, replay of
counterexamples, family verdicts, golden files), and the digests then pin
the exact verdicts and witnesses for later commits.  witness-search inputs
depend on the seed, so its digests are stored for seeds 0..SEEDS-1; the
other workloads give the same outputs for every seed and are stored once.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SEEDS = 64
PER_SEED = ("witness-search",)
SEED_FREE = ("group-verify", "theorem-sweep")


def outputs(workloads, name: str, seed: int) -> tuple[list[str], dict, dict]:
    """Sorted op ids, digests and summaries of one untimed pass."""
    ops = workloads.BUILDERS[name](seed, False, run.ROOT / "fixtures")
    digests, summaries = {}, {}
    for op in ops:
        out = op.call()
        problems, record = op.check(out)
        if problems:
            sys.exit(f"{name} seed {seed} {op.id}: {problems}")
        digests[op.id] = workloads.digest(record)
        if op.summary is not None:
            summaries[op.id] = op.summary(out)
    ids = sorted(digests)
    return ids, digests, summaries


def main() -> None:
    workloads = run.import_workloads()
    reference = {}
    for name in SEED_FREE:
        ids, digests, summaries = outputs(workloads, name, 0)
        if outputs(workloads, name, 1)[1] != digests:
            sys.exit(f"{name} outputs depend on the seed")
        reference[name] = {"op_ids": ids, "digests": {"*": "".join(digests[i] for i in ids)}}
        if summaries:
            reference[name]["expected"] = summaries
    for name in PER_SEED:
        entry = reference[name] = {"op_ids": None, "digests": {}}
        for seed in range(SEEDS):
            ids, digests, _ = outputs(workloads, name, seed)
            entry["op_ids"] = entry["op_ids"] or ids
            entry["digests"][str(seed)] = "".join(digests[i] for i in ids)
            print(f"{name} seed {seed}", file=sys.stderr)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
