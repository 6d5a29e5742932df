"""Command-line surface: every checker and harness reachable from a
workspace document, with deterministic text or JSON reports.

Exit codes: 0 all requested verdicts pass, 1 a verdict failed (the report
carries at least one witness), 2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping, Sequence

from .axioms import (
    SCAN_CAP,
    AxiomReport,
    check_cech,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    induced_topology,
)
from .descriptive import (
    check_descriptive_ef,
    check_descriptive_lodato,
    mapping_space_relation,
)
from .enumeration import (
    RELATION_CLASSES,
    FuzzScope,
    THEOREMS,
    enumerate_relations,
    fuzz_theorem,
    lookup_theorem,
    mine_separating_examples,
)
from .groups import (
    check_proximal_group,
    check_proximal_homomorphism,
    check_translations,
    product_proximal_group,
    quotient_proximal_group,
    subgroup_proximal_group,
)
from .harnesses import (
    check_descriptive_proximal_group,
    first_iso_harness,
    hom_criterion_check,
    second_iso_harness,
    third_iso_harness,
)
from .maps import check_pcont, check_proximal_isomorphism, identity_map
from .relations import quotient_proximity
from .spaces import FiniteSpace
from .workspace import WorkspaceDocument, WorkspaceError, parse_workspace

AXIOM_CHECKERS = {  # the --class choices of check-axioms
    "cech": check_cech,
    "lodato": check_lodato,
    "efremovic": check_efremovic,
    "kuratowski": check_kuratowski,
}
Report = tuple[dict, list[str], dict, bool]  # what a verb handler returns (see Verb)


@dataclass(frozen=True)
class CommandResult:
    payload: dict
    text: str
    exit_code: int


def _scan_size(flags: Mapping[str, Any]) -> int:
    """Scan cap for a verb: ``SCAN_CAP`` unless --max-n raises it."""
    max_n = flags.get("max_n")
    return max(SCAN_CAP, max_n) if max_n is not None else SCAN_CAP


def _witness_payload(space: FiniteSpace, witness: Sequence[int]) -> dict:
    return {
        "masks": list(witness),
        "labels": [list(space.label_set(w)) for w in witness],
    }


def _witness_text(space: FiniteSpace, witness: Sequence[int]) -> str:
    sets = ", ".join(space.format_mask(w) for w in witness)
    masks = ", ".join(str(w) for w in witness)
    return f"witness sets=({sets}) masks=({masks})"


def _report_lines(
    report: AxiomReport, spaces: Mapping[str, FiniteSpace] | FiniteSpace
) -> tuple[list[str], dict, dict]:
    lines = []
    witnesses = {}
    for key, ok in report.verdicts.items():
        if ok:
            lines.append(f"{key} PASS")
        else:  # every failed verdict has a witness (AxiomReport)
            space = spaces if isinstance(spaces, FiniteSpace) else spaces[key]
            witness = report.witnesses[key]
            witnesses[key] = _witness_payload(space, witness)
            lines.append(f"{key} FAIL {_witness_text(space, witness)}")
    return lines, dict(report.verdicts), witnesses


def _continuity(report) -> AxiomReport:
    """The mu1/mu2 verdicts of a proximal-group report, as one report."""
    return AxiomReport.from_witnesses(
        {"mu1": report.mu1_pcont.witness, "mu2": report.mu2_pcont.witness}
    )


def _map_spaces(domain: FiniteSpace, codomain: FiniteSpace) -> dict:
    """Witness carrier of each verdict of a map report: the codomain for
    inverse_pcont, the domain for the rest."""
    return {
        "group_homomorphism": domain,
        "pcont": domain,
        "bijective": domain,
        "inverse_pcont": codomain,
    }


NAMED = {  # flag: (the document section it names an entry of, entry noun, plural)
    "rel": ("relations", "relation", "relations"),
    "rel2": ("relations", "relation", "relations"),
    "map": ("maps", "map", "maps"),
    "probes": ("probes", "probe table", "probe tables"),
    "probes2": ("probes", "probe table", "probe tables"),
}


def _lookup(ws: WorkspaceDocument, key: str, name: str):
    section, noun, _ = NAMED[key]
    entries = getattr(ws, section)
    if name not in entries:
        raise WorkspaceError(section, f"unknown {noun} {name!r}")
    return entries[name]


def _pick(ws: WorkspaceDocument, flags: Mapping[str, Any], key: str, default: str | None = None):
    """The entry --key names (an empty name too), else ``default``, else the only one."""
    name = default if flags.get(key) is None else flags[key]
    if name is None:
        section, _, plural = NAMED[key]
        entries = getattr(ws, section)
        if len(entries) != 1:
            raise WorkspaceError(section, f"document has {len(entries)} {plural}; pass --{key} NAME")
        name = next(iter(entries))
    return name, _lookup(ws, key, name)


def _pick_on_carrier(
    ws: WorkspaceDocument, flags: Mapping[str, Any], key: str, default: str | None = None
):
    """:func:`_pick` for a relation read with the document's group, partition,
    masks or maps, which live on the document carrier; a subspace does not."""
    name, rel = _pick(ws, flags, key, default)
    if rel.space != ws.space:
        raise WorkspaceError(
            f"relations.{name}",
            f"relation is on a carrier of size {rel.space.size}, but this verb reads it"
            f" with the document carrier of size {ws.space.size}",
        )
    return name, rel


def _pick_map(ws: WorkspaceDocument, flags: Mapping[str, Any]):
    if flags.get("map") is None and not ws.maps:
        return "id", identity_map(ws.space)
    return _pick(ws, flags, "map")


def _need_group(ws: WorkspaceDocument):
    if ws.group is None:
        raise WorkspaceError("group", "this verb needs a group section")
    return ws.group


def _need_mask(flags: Mapping[str, Any], key: str, space: FiniteSpace) -> int:
    value = flags.get(key)
    if value is None:
        raise WorkspaceError("flags", f"this verb needs --{key.replace('_', '-')} MASK")
    try:
        return space.check_mask(int(value))
    except ValueError as e:
        raise WorkspaceError("flags", str(e)) from None


def _proximal_group_result(extra: dict, report, space: FiniteSpace) -> Report:
    lines, verdicts, witnesses = _report_lines(report.is_proximity, space)
    mu_lines, mu, mu_witnesses = _report_lines(_continuity(report), space)
    return (
        {**extra, "axioms": verdicts, **mu},
        [f"axioms {line}" for line in lines] + mu_lines,
        {**{f"axioms.{k}": v for k, v in witnesses.items()}, **mu_witnesses},
        report.ok,
    )


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_check_axioms(ws, flags):
    name, rel = _pick(ws, flags, "rel")
    klass = flags["axiom_class"]
    report = AXIOM_CHECKERS[klass](rel, max_size=_scan_size(flags))
    lines, verdicts, witnesses = _report_lines(report, rel.space)
    payload = {
        "relation": name,
        "class": klass,
        "verdicts": verdicts,
    }
    return payload, lines, witnesses, report.ok


def _cmd_topology(ws, flags):
    name, rel = _pick(ws, flags, "rel")
    snapshot = induced_topology(rel, max_size=_scan_size(flags))
    space = rel.space
    lines = [
        "closed sets: " + " ".join(space.format_mask(c) for c in snapshot.closed_sets),
        "open sets: " + " ".join(space.format_mask(o) for o in snapshot.open_sets),
        f"kuratowski {'PASS' if snapshot.kuratowski_ok else 'FAIL'}",
        f"topology {'PASS' if snapshot.is_topology else 'FAIL'}",
    ]
    payload = {
        "relation": name,
        "closed_masks": list(snapshot.closed_sets),
        "open_masks": list(snapshot.open_sets),
        "kuratowski_ok": snapshot.kuratowski_ok,
        "is_topology": snapshot.is_topology,
    }
    witnesses = {}
    for k, w in snapshot.kuratowski.witnesses.items():
        witnesses[k] = _witness_payload(space, w)
        lines.append(f"{k} FAIL {_witness_text(space, w)}")
    return payload, lines, witnesses, snapshot.kuratowski_ok


def _cmd_pcont(ws, flags):
    name1, rel1 = _pick_on_carrier(ws, flags, "rel")
    name2, rel2 = _pick_on_carrier(ws, flags, "rel2", default=name1)
    map_name, f = _pick_map(ws, flags)
    scan = _scan_size(flags)
    if flags.get("iso"):
        report = check_proximal_isomorphism(f, rel1, rel2, max_size=scan)
    else:
        report = check_pcont(f, rel1, rel2, max_size=scan)
    lines, verdicts, witnesses = _report_lines(report, _map_spaces(rel1.space, rel2.space))
    payload = {
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
    }
    return payload, lines, witnesses, report.ok


def _cmd_group_check(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_on_carrier(ws, flags, "rel")
    report = check_proximal_group(group, rel, max_size=_scan_size(flags))
    return _proximal_group_result({"relation": name}, report, rel.space)


def _cmd_translations(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_on_carrier(ws, flags, "rel")
    report = check_translations(group, rel, max_size=_scan_size(flags))
    lines = []
    entries = {}
    witnesses = {}
    for x, left, right in report.entries:
        label = group.space.labels[x]
        entries[label] = {"left": left.ok, "right": right.ok}
        lines.append(
            f"translation {label}: left {'PASS' if left.ok else 'FAIL'},"
            f" right {'PASS' if right.ok else 'FAIL'}"
        )
        for side, rep in (("left", left), ("right", right)):
            for k, w in rep.witnesses.items():
                witnesses[f"{label}.{side}.{k}"] = _witness_payload(rel.space, w)
    payload = {
        "relation": name,
        "entries": entries,
    }
    return payload, lines, witnesses, report.ok


def _cmd_subgroup(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_on_carrier(ws, flags, "rel")
    h = _need_mask(flags, "subset", ws.space)
    report = subgroup_proximal_group(group, rel, h, max_size=_scan_size(flags))
    sub_space = ws.space.subspace(h)
    return _proximal_group_result(
        {"relation": name, "subgroup_mask": h, "subgroup": list(sub_space.labels)},
        report,
        sub_space,
    )


def _cmd_product(ws, flags):
    group = _need_group(ws)
    name1, rel1 = _pick_on_carrier(ws, flags, "rel")
    name2, rel2 = _pick_on_carrier(ws, flags, "rel2", default=name1)
    report = product_proximal_group(group, rel1, group, rel2)
    # a product of verified factors passes, so the report holds no witness
    return _proximal_group_result(
        {"relation": name1, "relation2": name2}, report, rel1.space
    )


def _cmd_hom_check(ws, flags):
    group = _need_group(ws)
    name1, rel1 = _pick_on_carrier(ws, flags, "rel")
    name2, rel2 = _pick_on_carrier(ws, flags, "rel2", default=name1)
    map_name, eta = _pick_map(ws, flags)
    scan = _scan_size(flags)
    report = check_proximal_homomorphism(
        eta, group, rel1, group, rel2,
        isomorphism=bool(flags.get("iso")), max_size=scan,
    )
    lines, verdicts, witnesses = _report_lines(report, _map_spaces(rel1.space, rel2.space))
    payload = {
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
    }
    if flags.get("criterion"):
        # implication_ok always holds: the hypothesis is the conclusion
        # (tests/test_groups.py::test_hom_criterion_hypothesis_is_its_conclusion)
        crit = hom_criterion_check(eta, group, rel1, group, rel2)
        payload["criterion"] = {
            "hypothesis": crit.hypotheses_ok,
            "conclusion": crit.conclusion.ok,
            "implication_ok": crit.implication_ok,
        }
        lines.append(f"criterion hypothesis {'PASS' if crit.hypotheses_ok else 'FAIL'}")
        lines.append(f"criterion conclusion {'PASS' if crit.conclusion.ok else 'FAIL'}")
        lines.append(f"criterion implication {'PASS' if crit.implication_ok else 'FAIL'}")
    return payload, lines, witnesses, report.ok


def _cmd_quotient(ws, flags):
    name, rel = _pick_on_carrier(ws, flags, "rel")
    payload: dict = {"relation": name}
    cayley = []
    if flags.get("normal") is not None:
        group = _need_group(ws)
        n_mask = _need_mask(flags, "normal", ws.space)
        quot_group, quot_rel = quotient_proximal_group(
            group, rel, n_mask, max_size=_scan_size(flags)
        )
        payload.update(normal_mask=n_mask, cayley=[list(row) for row in quot_group.cayley])
        cayley = ["cayley: " + " ".join(",".join(map(str, row)) for row in quot_group.cayley)]
    elif ws.partition is None:
        raise WorkspaceError("partition", "quotient needs a partition section or --normal MASK")
    else:
        quot_rel = quotient_proximity(rel, ws.partition, max_size=_scan_size(flags))
    payload.update(carrier=list(quot_rel.space.labels), rows=list(quot_rel.rows))
    lines = [
        "carrier: " + " ".join(quot_rel.space.labels),
        *cayley,
        "rows: " + " ".join(str(r) for r in quot_rel.rows),
    ]
    return payload, lines, {}, True


def _cmd_iso_theorems(ws, flags):
    group = _need_group(ws)
    which = flags.get("which") or "first"
    name1, rel1 = _pick_on_carrier(ws, flags, "rel")
    if which == "first":
        name2, rel2 = _pick_on_carrier(ws, flags, "rel2", default=name1)
        map_name, eta = _pick_map(ws, flags)
        report = first_iso_harness(eta, group, rel1, group, rel2)
        extra = {"relation": name1, "relation2": name2, "map": map_name}
    elif which == "second":
        h = _need_mask(flags, "subset", ws.space)
        n = _need_mask(flags, "normal", ws.space)
        report = second_iso_harness(group, rel1, h, n)
        extra = {"relation": name1, "subgroup_mask": h, "normal_mask": n}
    elif which == "third":
        n = _need_mask(flags, "normal", ws.space)
        k = _need_mask(flags, "normal2", ws.space)
        report = third_iso_harness(group, rel1, n, k)
        extra = {"relation": name1, "normal_mask": n, "containing_mask": k}
    else:
        raise WorkspaceError("flags", "--which must be first, second, or third")
    lines = [
        f"surjective {'PASS' if report.surjective else 'FAIL'}",
        f"group-isomorphism {'PASS' if report.group_isomorphism else 'FAIL'}",
    ]
    f = report.canonical
    # no canonical map: the bijective witness is a point G misses
    spaces = _map_spaces(f.domain, f.codomain) if f else ws.space
    plines, verdicts, witnesses = _report_lines(report.proximal, spaces)
    if report.missing_image is not None:
        witnesses["surjective"] = _witness_payload(ws.space, (report.missing_image,))
        lines[0] += " " + _witness_text(ws.space, (report.missing_image,))
    lines += [f"proximal {line}" for line in plines]
    payload = {
        "which": which,
        **extra,
        "surjective": report.surjective,
        "group_isomorphism": report.group_isomorphism,
        "proximal": verdicts,
    }
    return payload, lines, witnesses, report.ok


def _cmd_descriptive_check(ws, flags):
    name, probes = _pick(ws, flags, "probes")
    lodato = check_descriptive_lodato(probes)
    ef = check_descriptive_ef(probes)
    # both read DL1-DL4 off one relation with one checker: DL1-DL5, then DEF
    axioms = AxiomReport(
        {**lodato.verdicts, **ef.verdicts}, {**lodato.witnesses, **ef.witnesses}
    )
    lines, verdicts, witnesses = _report_lines(axioms, probes.space)
    ok = lodato.ok and ef.ok
    payload = {
        "probes": name,
        "verdicts": verdicts,
    }
    if flags.get("group"):
        group = _need_group(ws)
        report = check_descriptive_proximal_group(group, probes)
        mu_lines, mu, mu_witnesses = _report_lines(_continuity(report), probes.space)
        lines += mu_lines
        witnesses.update(mu_witnesses)
        ok = ok and report.ok
        payload.update(mu, group_ok=report.ok)
    return payload, lines, witnesses, ok


def _cmd_mapping_space(ws, flags):
    name1, probes1 = _pick(ws, flags, "probes")
    name2, probes2 = _pick(ws, flags, "probes2", default=name1)
    maps = []
    for key in ("set1", "set2"):
        raw = flags.get(key)
        if not raw:
            raise WorkspaceError("flags", f"mapping-space needs --{key} NAME[,NAME...]")
        maps.append([_lookup(ws, "map", name) for name in raw.split(",")])
    verdict = mapping_space_relation(*maps, probes1, probes2)
    payload = {
        "probes": name1,
        "probes2": name2,
        "near": verdict.near,
    }
    if verdict.near:
        return payload, ["near PASS"], {}, True
    a, b, f_name, g_name = verdict.witness
    witness = {**_witness_payload(ws.space, (a, b)), "maps": [f_name, g_name]}
    line = f"near FAIL {_witness_text(ws.space, (a, b))} maps=({f_name}, {g_name})"
    return payload, [line], {"mapping_space": witness}, False


def _cmd_enumerate(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "enumerate needs --n SIZE")
    klass = flags["axiom_class"]
    rels = list(enumerate_relations(n, klass))
    payload = {
        "n": n,
        "class": klass,
        "count": len(rels),
        "relations": [{"rows": list(r.rows)} for r in rels],
    }
    lines = [f"count {len(rels)}"]
    lines += ["rows: " + " ".join(str(v) for v in r.rows) for r in rels]
    return payload, lines, {}, True


def _cmd_fuzz(ws, flags):
    theorem = flags.get("theorem")
    if theorem is None:
        known = ", ".join(sorted(THEOREMS))
        raise WorkspaceError("flags", f"fuzz needs --theorem ID; known ids: {known}")
    entry = lookup_theorem(theorem)
    max_order, classes = flags.get("max_order"), flags.get("classes")
    if max_order is not None and max_order < 1:
        raise WorkspaceError("flags", f"--max-order must be at least 1, got {max_order}")
    if classes is not None and not all(classes.split(",")):
        raise WorkspaceError(
            "flags", f"--classes needs comma-separated relation sources, got {classes!r}"
        )
    scope = FuzzScope(
        entry.scope.max_order if max_order is None else max_order,
        entry.scope.relation_classes if classes is None else tuple(classes.split(",")),
    )
    outcome = fuzz_theorem(theorem, scope)
    payload = {
        "theorem": outcome.theorem,
        "instances": outcome.instances,
        "counterexamples": [dict(sorted(c.items())) for c in outcome.counterexamples],
    }
    lines = [f"instances {outcome.instances}", f"counterexamples {len(outcome.counterexamples)}"]
    for c in outcome.counterexamples:
        lines.append(json.dumps(c, sort_keys=True))
    return payload, lines, {}, not outcome.counterexamples


def _cmd_census(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "census needs --n SIZE")
    census = mine_separating_examples(n)
    lines = [f"{k} {v}" for k, v in sorted(census.counts.items())]
    for tag in ("cech_not_lodato", "cech_not_ef"):
        rel = getattr(census, tag)
        if rel is None:
            lines.append(f"{tag}: none")
        else:
            lines.append(f"{tag}: rows " + " ".join(str(v) for v in rel.rows))
    return census.to_payload(), lines, {}, True


# Flag specs by name; a verb lists the ones it takes, in --help order.
FLAGS: dict[str, dict] = {
    "--rel": {},
    "--rel2": {},
    "--map": {},
    "--iso": {"action": "store_true"},
    "--criterion": {"action": "store_true"},
    "--subset": {"type": int},
    "--normal": {"type": int},
    "--normal2": {"type": int},
    "--which": {"choices": ("first", "second", "third"), "default": "first"},
    "--probes": {},
    "--probes2": {},
    "--set1": {},
    "--set2": {},
    "--group": {"action": "store_true"},
    "--n": {"type": int},
    "--theorem": {},
    "--max-order": {"type": int},
    "--classes": {},
}


@dataclass(frozen=True)
class Verb:
    """A verb: its handler (payload entries, lines, witnesses, verdict), its
    :data:`FLAGS` in --help order (``required`` ones too), whether it reads a
    document and takes --max-n, and its --class choices, added last, and default."""

    handler: Callable[[WorkspaceDocument | None, dict], Report]
    flags: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    document: bool = True
    max_n: bool = True
    classes: Collection[str] = ()
    default_class: str | None = None


# The single list of verbs, in the order --help and the unknown-verb error show.
VERBS: dict[str, Verb] = {
    "check-axioms": Verb(
        _cmd_check_axioms, ("--rel",), classes=AXIOM_CHECKERS, default_class="lodato"
    ),
    "topology": Verb(_cmd_topology, ("--rel",)),
    "pcont": Verb(_cmd_pcont, ("--rel", "--rel2", "--map", "--iso")),
    "group-check": Verb(_cmd_group_check, ("--rel",)),
    "translations": Verb(_cmd_translations, ("--rel",)),
    "subgroup": Verb(_cmd_subgroup, ("--rel", "--subset"), required=("--subset",)),
    # verified factors are Cech, so the product reads no table
    "product": Verb(_cmd_product, ("--rel", "--rel2"), max_n=False),
    "hom-check": Verb(_cmd_hom_check, ("--rel", "--rel2", "--map", "--iso", "--criterion")),
    "quotient": Verb(_cmd_quotient, ("--rel", "--normal")),
    # the isomorphism harnesses take verified proximal groups, which are Cech
    "iso-theorems": Verb(
        _cmd_iso_theorems,
        ("--which", "--rel", "--rel2", "--map", "--subset", "--normal", "--normal2"),
        max_n=False,
    ),
    "descriptive-check": Verb(_cmd_descriptive_check, ("--probes", "--group")),
    # descriptive relations are Cech, so the map-set test runs on points alone
    "mapping-space": Verb(
        _cmd_mapping_space, ("--probes", "--probes2", "--set1", "--set2"), max_n=False
    ),
    "enumerate": Verb(
        _cmd_enumerate, ("--n",), required=("--n",), document=False, max_n=False,
        classes=RELATION_CLASSES, default_class="cech",
    ),
    "fuzz": Verb(
        _cmd_fuzz, ("--theorem", "--max-order", "--classes"), required=("--theorem",),
        document=False, max_n=False,
    ),
    "census": Verb(_cmd_census, ("--n",), required=("--n",), document=False, max_n=False),
}


def run_command(verb: str, ws: WorkspaceDocument | None, flags: Mapping[str, Any] | None = None) -> CommandResult:
    """Run one verb against a parsed workspace; reports are deterministic.
    Every payload carries ``verb`` and ``ok``, and ``witnesses`` when the
    handler found any; the exit code is 0 on a pass and 1 on a failure.
    ``flags`` holds only the verb's own flags, keyed as ``main`` parses them."""
    if verb not in VERBS:
        raise WorkspaceError("verb", f"unknown verb {verb!r}; known: {', '.join(VERBS)}")
    spec = VERBS[verb]
    flags = dict(flags or {})
    declared = {flag[2:].replace("-", "_") for flag in spec.flags}
    declared |= {"max_n"} if spec.max_n else set()
    declared |= {"axiom_class"} if spec.classes else set()
    undeclared = sorted(set(flags) - declared)
    if undeclared:
        raise WorkspaceError("flags", f"{verb} takes no flag {undeclared[0]!r}")
    if flags.get("max_n") is not None and flags["max_n"] < 1:
        raise WorkspaceError("flags", f"--max-n must be at least 1, got {flags['max_n']}")
    if spec.document and ws is None:
        raise WorkspaceError("document", "this verb needs a workspace document")
    if spec.classes:
        flags["axiom_class"] = flags.get("axiom_class") or spec.default_class
        if flags["axiom_class"] not in spec.classes:
            raise WorkspaceError("flags", f"--class must be one of {sorted(spec.classes)}")
    payload, lines, witnesses, ok = spec.handler(ws, flags)
    payload = {"verb": verb, **payload, "ok": ok}
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if ok else 1)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, holding every verb's subparser, or only the one named.

    A parser built for one verb prints the same help, errors and exit codes
    for that verb: its subparser reads the ``Verb`` record alone, and the
    pinned metavar keeps every verb in the top-level usage line.  The full
    parser leaves the metavar unset, so its unknown- and missing-verb errors
    name the argument ``verb``.
    """
    parser = argparse.ArgumentParser(
        prog="proxikit",
        description="Finite proximity-space and proximal-group verification toolkit.",
    )
    metavar = None if only is None else "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    verbs = VERBS if only is None else {only: VERBS[only]}
    for verb, spec in verbs.items():
        p = sub.add_parser(verb)
        if spec.document:
            p.add_argument("document", help="workspace JSON file, or - for stdin")
        if spec.max_n:
            p.add_argument("--max-n", type=int, default=None, dest="max_n",
                           help="raise the exhaustive-scan size cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in spec.flags:
            p.add_argument(flag, required=flag in spec.required, **FLAGS[flag])
        if spec.classes:
            p.add_argument("--class", dest="axiom_class",
                           choices=spec.classes, default=spec.default_class)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse a command line with the parser of its verb, or the full parser
    when it does not start with one."""
    only = argv[0] if argv and argv[0] in VERBS else None
    return build_parser(only).parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("verb", "document", "format")
    }
    ws = None
    try:
        if VERBS[args.verb].document:
            if args.document == "-":
                text = sys.stdin.read()
            else:
                try:
                    with open(args.document, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as e:
                    print(f"error: cannot read {args.document}: {e}", file=sys.stderr)
                    return 2
            ws = parse_workspace(text)
            for warning in ws.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        result = run_command(args.verb, ws, flags)
    except (WorkspaceError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(result.payload, sort_keys=True, indent=2))
        else:
            print(result.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
