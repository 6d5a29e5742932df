"""Workload definitions: seeded inputs, the timed public calls, and the
correctness check of every call's output.

A workload is a list of :class:`Op`.  One pass runs every op once, in list
order, in one thread; each op is one public proxikit call and the next call
starts only after the previous one returned (a closed loop with one caller).
Calls look proxikit functions up as module attributes at call time, so the
traced run sees them through the wrappers that ``spans.py`` installs.

Inputs are derived from ``random.Random(f"{seed}/{item}")``, one generator
per item, so the tiny size used by the smoke test builds exactly the same
inputs for the items it keeps.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import proxikit as pk
from proxikit import enumeration

DIGEST_CHARS = 8


@dataclass
class Op:
    """One timed public call plus the checks applied to its output.

    ``check(out)`` returns a list of problems (empty when the output is
    right) and the record whose digest is compared with the stored
    reference.  ``summary(out)``, where given, must equal the summary stored
    in the reference.  ``items(out)`` is the number of workload items the
    call completed.  ``reference`` marks the calls whose traced time is
    printed beside the figures in ROADMAP.md.
    """

    id: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], Any]]
    items: Callable[[Any], int] = lambda out: 1
    summary: Callable[[Any], Any] | None = None
    reference: bool = False


def digest(record: Any) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def _rng(seed: int, item: str) -> random.Random:
    return random.Random(f"{seed}/{item}")


def report_record(report: pk.AxiomReport) -> dict:
    return {
        "verdicts": dict(report.verdicts),
        "witnesses": {k: list(w) for k, w in report.witnesses.items()},
    }


def witness_problems(rel: pk.ProximityRelation, report: pk.AxiomReport) -> list[str]:
    """Every failed axiom carries a witness that really violates it, and no
    passed axiom carries one."""
    problems = []
    for axiom, ok in report.verdicts.items():
        w = report.witnesses.get(axiom)
        if ok and w is not None:
            problems.append(f"{axiom} passed but has witness {w}")
        if not ok and w is None:
            problems.append(f"{axiom} failed without a witness")
    for axiom, w in report.witnesses.items():
        if axiom in ("bijective", "pcont", "inverse_pcont"):
            continue
        if not pk.witness_violates(rel, axiom, tuple(w)):
            problems.append(f"{axiom} witness {tuple(w)} is not a violation")
    return problems


# ---------------------------------------------------------------------------
# group-verify


def relabel_group(g: pk.FiniteGroup, perm: list[int]) -> pk.FiniteGroup:
    """The same group with element i renamed perm[i] (an isomorphic copy)."""
    n = g.order
    cayley = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cayley[perm[i]][perm[j]] = perm[g.cayley[i][j]]
    return pk.FiniteGroup.from_table(g.space, cayley)


def partition_metric(g: pk.FiniteGroup, rng: random.Random) -> pk.ProximityRelation:
    """Pseudometric proximity whose zero-distance classes are the cosets of a
    seeded normal subgroup; distances between cosets are seeded in {1, 2},
    which keeps the triangle inequality.  A congruence, so (G, rel) is a
    proximal group."""
    blocks = pk.groups.coset_partition(g, rng.choice(pk.normal_subgroups(g)))
    gap = {}
    for x in range(len(blocks)):
        for y in range(x + 1, len(blocks)):
            gap[x, y] = gap[y, x] = rng.choice((1, 2))
    block_of = {i: k for k, b in enumerate(blocks) for i in pk.bits(b)}
    d = [
        [0 if block_of[i] == block_of[j] else gap[block_of[i], block_of[j]] for j in range(g.order)]
        for i in range(g.order)
    ]
    return pk.make_metric_proximity(g.space, d)


def group_verify(seed: int, tiny: bool, fixtures: Path) -> list[Op]:
    """check_proximal_group and check_translations on every catalog group of
    order <= 7 (<= 4 when tiny), each paired with the discrete, coarse and a
    seeded partition-metric relation on a seeded relabelling of the group."""
    ops = []
    for gname, base in pk.all_groups_up_to(4 if tiny else 7):
        rng = _rng(seed, gname)
        perm = list(range(base.order))
        rng.shuffle(perm)
        g = relabel_group(base, perm)
        relations = (
            ("discrete", pk.make_discrete_proximity(g.space)),
            ("coarse", pk.make_coarse_proximity(g.space)),
            ("partition", partition_metric(g, rng)),
        )
        cap = max(6, g.order)
        for rname, rel in relations:
            pair = f"{gname}/{rname}"

            def check_group(out, rel=rel):
                record = {
                    "axioms": report_record(out.is_proximity),
                    "mu1": [out.mu1_pcont.ok, out.mu1_pcont.witness],
                    "mu2": [out.mu2_pcont.ok, out.mu2_pcont.witness],
                }
                problems = witness_problems(rel, out.is_proximity)
                if not out.ok:
                    problems.append("expected a proximal group")
                return problems, record

            def check_translations(out):
                record = [[x, report_record(l), report_record(r)] for x, l, r in out.entries]
                return ([] if out.ok else ["expected every translation to pass"]), record

            ops.append(Op(
                f"{pair}/group",
                lambda g=g, rel=rel, cap=cap: pk.check_proximal_group(g, rel, max_size=cap),
                check_group,
                reference=gname in ("Z6", "Z7") and rname == "discrete",
            ))
            ops.append(Op(
                f"{pair}/translations",
                lambda g=g, rel=rel, cap=cap: pk.check_translations(g, rel, max_size=cap),
                check_translations,
                items=lambda out: 0,
            ))
    return ops


# ---------------------------------------------------------------------------
# theorem-sweep

TINY_THEOREMS = (
    "first-isomorphism-theorem",
    "multiplication-continuity-gives-inversion",
    "every-cech-is-lodato",
)


def theorem_sweep(seed: int, tiny: bool, fixtures: Path) -> list[Op]:
    """fuzz_theorem on every theorem at its default scope, the n=3 census and
    enumerate_relations(4, cls) for each class, in a seeded order.  Every
    instance count, counterexample count and counterexample payload is fixed
    by the default scopes, so the reference is the same for every seed."""
    ops = []
    theorems = TINY_THEOREMS if tiny else tuple(enumeration.THEOREMS)
    for theorem in theorems:

        def check_fuzz(out, theorem=theorem):
            problems = [
                "a counterexample does not replay"
                for instance in out.counterexamples
                if not pk.replay_counterexample(theorem, instance)
            ]
            return problems, list(out.counterexamples)

        ops.append(Op(
            f"fuzz/{theorem}",
            lambda theorem=theorem: pk.fuzz_theorem(theorem),
            check_fuzz,
            items=lambda out: out.instances,
            summary=lambda out: {"instances": out.instances, "counterexamples": len(out.counterexamples)},
        ))
    ops.append(Op(
        "census/3",
        lambda: pk.mine_separating_examples(3),
        lambda out: ([], out.to_payload()),
        summary=lambda out: out.counts,
    ))
    for cls in enumeration.RELATION_CLASSES:
        ops.append(Op(
            f"enumerate/4/{cls}",
            lambda cls=cls: list(pk.enumerate_relations(4, cls)),
            lambda out: ([], [list(rel.rows) for rel in out]),
            summary=len,
        ))
    _rng(seed, "order").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# witness-search

# tables per carrier size and family
WITNESS_TABLES = {
    6: {"pointgraph": 3, "flipped": 3, "arbitrary": 0},
    7: {"pointgraph": 2, "flipped": 3, "arbitrary": 1},
}


def _point_graph(rng: random.Random, n: int) -> list[int]:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _transitive(rows: list[int]) -> bool:
    return all(rows[j] & ~rows[i] == 0 for i in range(len(rows)) for j in pk.bits(rows[i]))


def witness_table(seed: int, n: int, family: str, index: int) -> pk.ProximityRelation:
    rng = _rng(seed, f"n{n}/{family}/{index}")
    space = pk.default_space(n)
    m = space.n_subsets
    if family == "pointgraph":
        rows = _point_graph(rng, n)
        while _transitive(rows):
            rows = _point_graph(rng, n)
        return pk.relation_from_point_pairs(space, rows, "explicit")
    if family == "flipped":
        rows = list(pk.relation_from_point_pairs(space, _point_graph(rng, n), "explicit").rows)
        # b is one of the 3 masks just below half - 1 and a = top element
        # plus a part of b's complement, so both have two or more members
        # and they are disjoint.  Only rows a and b change, so the first row
        # L4 finds broken is min(a, b) = b, 44% to 47% of the way through
        # the scan at n=6 (a narrow band keeps the cost alike across seeds).
        half = m // 2
        b = rng.choice(range(half - 4, half - 1))
        rest = (half - 1) & ~b
        a = half | rng.choice([s for s in range(1, rest + 1) if s & ~rest == 0])
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        return pk.ProximityRelation(space, tuple(rows), "explicit")
    if family == "arbitrary":
        rows = [0] * m
        for a in range(m):
            for b in range(a, m):
                if rng.random() < 0.5:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        return pk.ProximityRelation(space, tuple(rows), "explicit")
    raise ValueError(family)


# The set of failed axioms each checker must report on every table of a
# family.  A non-transitive reflexive symmetric point graph gives a Cech
# relation whose closure is not idempotent; a flipped entry pair breaks L4
# alone.  A checker left out has no expectation beyond valid witnesses.
FAMILY_FAILURES = {
    "pointgraph": {
        "cech": set(),
        "lodato": {"L5"},
        "efremovic": {"EF"},
        "kuratowski": {"K4"},
        "transitivity": {"transitivity"},
    },
    "flipped": {"cech": {"L4"}},
    "arbitrary": {},
}

CHECKERS = ("cech", "lodato", "efremovic", "kuratowski", "transitivity")


def _checker(name: str) -> Callable:
    if name == "transitivity":
        return pk.check_transitivity_property
    return getattr(pk, f"check_{name}")


def witness_search(seed: int, tiny: bool, fixtures: Path) -> list[Op]:
    """The five table checkers on seeded tables over carriers of size 6 and
    7: Cech-not-Lodato point graphs, Cech tables with one high symmetric
    entry pair flipped, and arbitrary symmetric tables.  Tiny keeps the
    size-6 tables and the arbitrary ones.

    The table counts put the median op among the size-6 flipped checks,
    below the size-7 full scans and above the checks that fail at once, so
    op_p50_ms reads a full-table scan that stops about halfway."""
    ops = []
    for n, families in WITNESS_TABLES.items():
        for family, count in families.items():
            if tiny and n != 6 and family != "arbitrary":
                continue
            for index in range(count):
                rel = witness_table(seed, n, family, index)
                for name in CHECKERS:
                    expect = FAMILY_FAILURES[family].get(name)

                    def check(out, rel=rel, expect=expect):
                        problems = witness_problems(rel, out)
                        if expect is not None and set(out.failed()) != expect:
                            problems.append(f"failed {out.failed()}, expected {sorted(expect)}")
                        return problems, report_record(out)

                    ops.append(Op(
                        f"n{n}/{family}/{index}/{name}",
                        lambda name=name, rel=rel, n=n: _checker(name)(rel, max_size=n),
                        check,
                        reference=family == "pointgraph" and index == 0 and name == "lodato",
                    ))
    return ops


# ---------------------------------------------------------------------------
# cli-golden

CLI_OPTION = {"axiom_class": "--class", "max_n": "--max-n", "max_order": "--max-order"}


def manifest_argv(entry: dict, fixtures: Path) -> list[str]:
    argv = [entry["verb"]]
    if entry["document"]:
        argv.append(str(fixtures / entry["document"]))
    for key, value in entry["flags"].items():
        option = CLI_OPTION.get(key, "--" + key.replace("_", "-"))
        if value is True:
            argv.append(option)
        else:
            argv += [option, str(value)]
    argv += ["--format", entry["format"]]
    return argv


def run_main(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pk.cli.main(argv)
    return code, out.getvalue().encode()


def cli_golden(seed: int, tiny: bool, fixtures: Path) -> list[Op]:
    """proxikit.cli.main in-process once per manifest entry, in a seeded
    order; stdout bytes and exit code must equal the golden file and the
    manifest's exit code.  Tiny drops the one-second descriptive entry."""
    manifest = json.loads((fixtures / "manifest.json").read_text())
    ops = []
    for entry in manifest:
        if tiny and entry["name"] == "descriptive_samples":
            continue
        if entry["document"]:
            pk.parse_workspace((fixtures / entry["document"]).read_text())
        golden = (fixtures / entry["golden"]).read_bytes()
        argv = manifest_argv(entry, fixtures)

        def check(out, golden=golden, want=entry["exit"]):
            code, stdout = out
            problems = []
            if stdout != golden:
                problems.append("stdout differs from the golden file")
            if code != want:
                problems.append(f"exit code {code}, expected {want}")
            return problems, None

        ops.append(Op(entry["name"], lambda argv=argv: run_main(argv), check))
    _rng(seed, "order").shuffle(ops)
    return ops


BUILDERS = {
    "group-verify": group_verify,
    "theorem-sweep": theorem_sweep,
    "witness-search": witness_search,
    "cli-golden": cli_golden,
}
