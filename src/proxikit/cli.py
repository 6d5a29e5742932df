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

from .axioms import SCAN_CAP, AxiomReport, check_kuratowski, induced_topology
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
    AXIOM_CHECKS,
    check_proximal_group,
    check_proximal_homomorphism,
    check_translations,
    hom_criterion_check,
    product_proximal_group,
    quotient_proximal_group,
    subgroup_group,
    subgroup_proximal_group,
)
from .harnesses import (
    check_descriptive_proximal_group,
    first_iso_harness,
    second_iso_harness,
    third_iso_harness,
)
from .maps import check_pcont, check_proximal_isomorphism, identity_map
from .relations import ProximityRelation, quotient_proximity
from .spaces import FiniteSpace
from .workspace import WorkspaceDocument, WorkspaceError, parse_workspace

AXIOM_CHECKERS = {**AXIOM_CHECKS, "kuratowski": check_kuratowski}


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
    verdicts = {}
    witnesses = {}
    for key, ok in report.verdicts.items():
        verdicts[key] = ok
        if ok:
            lines.append(f"{key} PASS")
        elif key in report.witnesses:
            space = spaces if isinstance(spaces, FiniteSpace) else spaces[key]
            witness = report.witnesses[key]
            witnesses[key] = _witness_payload(space, witness)
            lines.append(f"{key} FAIL {_witness_text(space, witness)}")
        else:
            lines.append(f"{key} FAIL")
    return lines, verdicts, witnesses


def _continuity(report) -> AxiomReport:
    """The mu1/mu2 verdicts of a proximal-group report, as one report."""
    checks = {"mu1": report.mu1_pcont, "mu2": report.mu2_pcont}
    return AxiomReport(
        {tag: check.ok for tag, check in checks.items()},
        {tag: check.witness for tag, check in checks.items() if not check.ok},
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


def _result(payload: dict, lines: list[str], witnesses: dict, ok: bool) -> CommandResult:
    """A verdict's result: witnesses attached when there are any, exit 0 or 1."""
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if ok else 1)


def _pick_relation(
    ws: WorkspaceDocument, flags: Mapping[str, Any], key: str = "rel", default: str | None = None
) -> tuple[str, ProximityRelation]:
    name = flags.get(key) or default
    if name is None:
        plain = [k for k, v in ws.relations.items() if isinstance(v, ProximityRelation)]
        if len(plain) != 1:
            raise WorkspaceError(
                "relations",
                f"document has {len(plain)} plain relations; pass --{key.replace('_', '-')} NAME",
            )
        name = plain[0]
    if name not in ws.relations:
        raise WorkspaceError("relations", f"unknown relation {name!r}")
    rel = ws.relations[name]
    if not isinstance(rel, ProximityRelation):
        raise WorkspaceError(
            "relations", f"relation {name!r} is a product relation; this verb needs a plain table"
        )
    return name, rel


def _pick_map(ws: WorkspaceDocument, flags: Mapping[str, Any]):
    name = flags.get("map")
    if name is None:
        if not ws.maps:
            return "id", identity_map(ws.space)
        if len(ws.maps) != 1:
            raise WorkspaceError(
                "maps", f"document has {len(ws.maps)} maps; pass --map NAME"
            )
        name = next(iter(ws.maps))
    if name not in ws.maps:
        raise WorkspaceError("maps", f"unknown map {name!r}")
    return name, ws.maps[name]


def _pick_probes(ws: WorkspaceDocument, flags: Mapping[str, Any], key: str = "probes"):
    name = flags.get(key)
    if name is None:
        if len(ws.probes) != 1:
            raise WorkspaceError(
                "probes", f"document has {len(ws.probes)} probe tables; pass --{key} NAME"
            )
        name = next(iter(ws.probes))
    if name not in ws.probes:
        raise WorkspaceError("probes", f"unknown probe table {name!r}")
    return name, ws.probes[name]


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


def _proximal_group_result(verb: str, extra: dict, report, space: FiniteSpace) -> CommandResult:
    lines, verdicts, witnesses = _report_lines(report.is_proximity, space)
    mu_lines, mu, mu_witnesses = _report_lines(_continuity(report), space)
    payload = {"verb": verb, **extra, "axioms": verdicts, "ok": report.ok, **mu}
    return _result(
        payload,
        [f"axioms {line}" for line in lines] + mu_lines,
        {**{f"axioms.{k}": v for k, v in witnesses.items()}, **mu_witnesses},
        report.ok,
    )


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_check_axioms(ws, flags):
    name, rel = _pick_relation(ws, flags)
    klass = flags["axiom_class"]
    report = AXIOM_CHECKERS[klass](rel, max_size=_scan_size(flags))
    lines, verdicts, witnesses = _report_lines(report, rel.space)
    payload = {
        "verb": "check-axioms",
        "relation": name,
        "class": klass,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    return _result(payload, lines, witnesses, report.ok)


def _cmd_topology(ws, flags):
    name, rel = _pick_relation(ws, flags)
    snapshot = induced_topology(rel, max_size=_scan_size(flags))
    space = rel.space
    lines = [
        "closed sets: " + " ".join(space.format_mask(c) for c in snapshot.closed_sets),
        "open sets: " + " ".join(space.format_mask(o) for o in snapshot.open_sets),
        f"kuratowski {'PASS' if snapshot.kuratowski_ok else 'FAIL'}",
        f"topology {'PASS' if snapshot.is_topology else 'FAIL'}",
    ]
    payload = {
        "verb": "topology",
        "relation": name,
        "closed_masks": list(snapshot.closed_sets),
        "open_masks": list(snapshot.open_sets),
        "kuratowski_ok": snapshot.kuratowski_ok,
        "is_topology": snapshot.is_topology,
        "ok": snapshot.kuratowski_ok,
    }
    witnesses = {}
    for k, w in snapshot.kuratowski.witnesses.items():
        witnesses[k] = _witness_payload(space, w)
        lines.append(f"{k} FAIL {_witness_text(space, w)}")
    return _result(payload, lines, witnesses, snapshot.kuratowski_ok)


def _cmd_pcont(ws, flags):
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    map_name, f = _pick_map(ws, flags)
    scan = _scan_size(flags)
    if flags.get("iso"):
        report = check_proximal_isomorphism(f, rel1, rel2, max_size=scan)
    else:
        report = check_pcont(f, rel1, rel2, max_size=scan)
    lines, verdicts, witnesses = _report_lines(report, _map_spaces(rel1.space, rel2.space))
    payload = {
        "verb": "pcont",
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    return _result(payload, lines, witnesses, report.ok)


def _cmd_group_check(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
    klass = flags["axiom_class"]
    report = check_proximal_group(group, rel, axiom_class=klass, max_size=_scan_size(flags))
    return _proximal_group_result(
        "group-check", {"relation": name, "class": klass}, report, rel.space
    )


def _cmd_translations(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
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
        "verb": "translations",
        "relation": name,
        "entries": entries,
        "ok": report.ok,
    }
    return _result(payload, lines, witnesses, report.ok)


def _cmd_subgroup(ws, flags):
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
    h = _need_mask(flags, "subset", ws.space)
    report = subgroup_proximal_group(
        group, rel, h, axiom_class=flags["axiom_class"],
        max_size=_scan_size(flags),
    )
    sub_space = subgroup_group(group, h).space
    return _proximal_group_result(
        "subgroup",
        {"relation": name, "subgroup_mask": h, "subgroup": list(sub_space.labels)},
        report,
        sub_space,
    )


def _cmd_product(ws, flags):
    group = _need_group(ws)
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    report = product_proximal_group(
        group, rel1, group, rel2, axiom_class=flags["axiom_class"],
        max_size=_scan_size(flags),
    )
    # a product of verified factors passes, so the report holds no witness
    return _proximal_group_result(
        "product", {"relation": name1, "relation2": name2}, report, rel1.space
    )


def _cmd_hom_check(ws, flags):
    group = _need_group(ws)
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    map_name, eta = _pick_map(ws, flags)
    scan = _scan_size(flags)
    report = check_proximal_homomorphism(
        eta, group, rel1, group, rel2,
        isomorphism=bool(flags.get("iso")), max_size=scan,
    )
    lines, verdicts, witnesses = _report_lines(report, _map_spaces(rel1.space, rel2.space))
    payload = {
        "verb": "hom-check",
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    ok = report.ok
    if flags.get("criterion"):
        crit = hom_criterion_check(eta, group, rel1, group, rel2, max_size=scan)
        payload["criterion"] = {
            "hypothesis": crit.hypothesis.ok,
            "conclusion": crit.conclusion.ok,
            "implication_ok": crit.implication_ok,
        }
        lines.append(f"criterion hypothesis {'PASS' if crit.hypothesis.ok else 'FAIL'}")
        lines.append(f"criterion conclusion {'PASS' if crit.conclusion.ok else 'FAIL'}")
        lines.append(f"criterion implication {'PASS' if crit.implication_ok else 'FAIL'}")
        if not crit.implication_ok:
            ok = False
            if crit.conclusion.witness:
                witnesses["criterion"] = _witness_payload(rel1.space, crit.conclusion.witness)
    return _result(payload, lines, witnesses, ok)


def _cmd_quotient(ws, flags):
    name, rel = _pick_relation(ws, flags)
    payload: dict = {"verb": "quotient", "relation": name}
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
    payload.update(carrier=list(quot_rel.space.labels), rows=list(quot_rel.rows), ok=True)
    lines = [
        "carrier: " + " ".join(quot_rel.space.labels),
        *cayley,
        "rows: " + " ".join(str(r) for r in quot_rel.rows),
    ]
    return _result(payload, lines, {}, True)


def _cmd_iso_theorems(ws, flags):
    group = _need_group(ws)
    which = flags.get("which") or "first"
    name1, rel1 = _pick_relation(ws, flags, "rel")
    scan = _scan_size(flags)
    if which == "first":
        name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
        map_name, eta = _pick_map(ws, flags)
        report = first_iso_harness(eta, group, rel1, group, rel2, max_size=scan)
        extra = {"relation": name1, "relation2": name2, "map": map_name}
    elif which == "second":
        h = _need_mask(flags, "subset", ws.space)
        n = _need_mask(flags, "normal", ws.space)
        report = second_iso_harness(group, rel1, h, n, max_size=scan)
        extra = {"relation": name1, "subgroup_mask": h, "normal_mask": n}
    elif which == "third":
        n = _need_mask(flags, "normal", ws.space)
        k = _need_mask(flags, "normal2", ws.space)
        report = third_iso_harness(group, rel1, n, k, max_size=scan)
        extra = {"relation": name1, "normal_mask": n, "containing_mask": k}
    else:
        raise WorkspaceError("flags", "--which must be first, second, or third")
    lines = [
        f"surjective {'PASS' if report.surjective else 'FAIL'}",
        f"group-isomorphism {'PASS' if report.group_isomorphism else 'FAIL'}",
    ]
    f = report.canonical
    # no canonical map, no proximal witness: the spaces are never read
    spaces = _map_spaces(f.domain, f.codomain) if f else {}
    plines, verdicts, witnesses = _report_lines(report.proximal, spaces)
    if report.missing_image is not None:
        witnesses["surjective"] = _witness_payload(ws.space, (report.missing_image,))
        lines[0] += " " + _witness_text(ws.space, (report.missing_image,))
    lines += [f"proximal {line}" for line in plines]
    payload = {
        "verb": "iso-theorems",
        "which": which,
        **extra,
        "surjective": report.surjective,
        "group_isomorphism": report.group_isomorphism,
        "proximal": verdicts,
        "ok": report.ok,
    }
    return _result(payload, lines, witnesses, report.ok)


def _cmd_descriptive_check(ws, flags):
    name, probes = _pick_probes(ws, flags)
    lodato = check_descriptive_lodato(probes)
    ef = check_descriptive_ef(probes)
    # DL1-DL4 from the Lodato report, then DEF from the EF one
    axioms = AxiomReport(
        {**lodato.verdicts, "DEF": ef.verdicts["DEF"]},
        {**lodato.witnesses, **{k: w for k, w in ef.witnesses.items() if k == "DEF"}},
    )
    lines, verdicts, witnesses = _report_lines(axioms, probes.space)
    ok = lodato.ok and ef.ok
    payload = {
        "verb": "descriptive-check",
        "probes": name,
        "verdicts": verdicts,
        "ok": ok,
    }
    if flags.get("group"):
        group = _need_group(ws)
        report = check_descriptive_proximal_group(group, probes)
        mu_lines, mu, mu_witnesses = _report_lines(_continuity(report), probes.space)
        lines += mu_lines
        witnesses.update(mu_witnesses)
        ok = ok and report.ok
        payload.update(mu, group_ok=report.ok, ok=ok)
    return _result(payload, lines, witnesses, ok)


def _cmd_mapping_space(ws, flags):
    name1, probes1 = _pick_probes(ws, flags, "probes")
    name2, probes2 = (
        _pick_probes(ws, flags, "probes2") if flags.get("probes2") else (name1, probes1)
    )

    def pick_set(key):
        raw = flags.get(key)
        if not raw:
            raise WorkspaceError("flags", f"mapping-space needs --{key} NAME[,NAME...]")
        out = []
        for map_name in raw.split(","):
            if map_name not in ws.maps:
                raise WorkspaceError("maps", f"unknown map {map_name!r}")
            out.append(ws.maps[map_name])
        return out

    maps1 = pick_set("set1")
    maps2 = pick_set("set2")
    verdict = mapping_space_relation(maps1, maps2, probes1, probes2)
    payload = {
        "verb": "mapping-space",
        "probes": name1,
        "probes2": name2,
        "near": verdict.near,
        "ok": verdict.near,
    }
    if verdict.near:
        return _result(payload, ["near PASS"], {}, True)
    a, b, f_name, g_name = verdict.witness
    witness = {**_witness_payload(ws.space, (a, b)), "maps": [f_name, g_name]}
    line = f"near FAIL {_witness_text(ws.space, (a, b))} maps=({f_name}, {g_name})"
    return _result(payload, [line], {"mapping_space": witness}, False)


def _cmd_enumerate(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "enumerate needs --n SIZE")
    klass = flags["axiom_class"]
    rels = list(enumerate_relations(n, klass))
    payload = {
        "verb": "enumerate",
        "n": n,
        "class": klass,
        "count": len(rels),
        "relations": [{"rows": list(r.rows)} for r in rels],
        "ok": True,
    }
    lines = [f"count {len(rels)}"]
    lines += ["rows: " + " ".join(str(v) for v in r.rows) for r in rels]
    return _result(payload, lines, {}, True)


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
    ok = not outcome.counterexamples
    payload = {
        "verb": "fuzz",
        "theorem": outcome.theorem,
        "instances": outcome.instances,
        "counterexamples": [dict(sorted(c.items())) for c in outcome.counterexamples],
        "ok": ok,
    }
    lines = [f"instances {outcome.instances}", f"counterexamples {len(outcome.counterexamples)}"]
    for c in outcome.counterexamples:
        lines.append(json.dumps(c, sort_keys=True))
    return _result(payload, lines, {}, ok)


def _cmd_census(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "census needs --n SIZE")
    census = mine_separating_examples(n)
    payload = {"verb": "census", **census.to_payload(), "ok": True}
    lines = [f"{k} {v}" for k, v in sorted(census.counts.items())]
    for tag in ("cech_not_lodato", "cech_not_ef"):
        rel = getattr(census, tag)
        if rel is None:
            lines.append(f"{tag}: none")
        else:
            lines.append(f"{tag}: rows " + " ".join(str(v) for v in rel.rows))
    return _result(payload, lines, {}, True)


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
    """A verb: its handler, its :data:`FLAGS` in --help order (``required``
    ones too), whether it reads a document and takes --max-n, and the
    --class choices, added last, with their default."""

    handler: Callable[[WorkspaceDocument | None, dict], CommandResult]
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
    "group-check": Verb(
        _cmd_group_check, ("--rel",), classes=AXIOM_CHECKS, default_class="efremovic"
    ),
    "translations": Verb(_cmd_translations, ("--rel",)),
    "subgroup": Verb(
        _cmd_subgroup, ("--rel", "--subset"), required=("--subset",),
        classes=AXIOM_CHECKS, default_class="efremovic",
    ),
    "product": Verb(
        _cmd_product, ("--rel", "--rel2"), classes=AXIOM_CHECKS, default_class="efremovic"
    ),
    "hom-check": Verb(_cmd_hom_check, ("--rel", "--rel2", "--map", "--iso", "--criterion")),
    "quotient": Verb(_cmd_quotient, ("--rel", "--normal")),
    "iso-theorems": Verb(
        _cmd_iso_theorems,
        ("--which", "--rel", "--rel2", "--map", "--subset", "--normal", "--normal2"),
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
    """Run one verb against a parsed workspace; reports are deterministic."""
    if verb not in VERBS:
        raise WorkspaceError("verb", f"unknown verb {verb!r}; known: {', '.join(VERBS)}")
    spec = VERBS[verb]
    flags = dict(flags or {})
    if flags.get("max_n") is not None and flags["max_n"] < 1:
        raise WorkspaceError("flags", f"--max-n must be at least 1, got {flags['max_n']}")
    if spec.document and ws is None:
        raise WorkspaceError("document", "this verb needs a workspace document")
    if spec.classes:
        flags["axiom_class"] = flags.get("axiom_class") or spec.default_class
        if flags["axiom_class"] not in spec.classes:
            raise WorkspaceError("flags", f"--class must be one of {sorted(spec.classes)}")
    return spec.handler(ws, flags)


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
