"""Command-line surface: every checker and harness reachable from a
workspace document, with deterministic text or JSON reports.

Exit codes: 0 all requested verdicts pass, 1 a verdict failed (the report
carries at least one witness), 2 input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .axioms import DEFAULT_SCAN_CAP, AxiomReport, check_kuratowski, induced_topology
from .descriptive import (
    check_descriptive_ef,
    check_descriptive_lodato,
    mapping_space_relation,
)
from .enumeration import (
    FuzzScope,
    THEOREMS,
    enumerate_relations,
    fuzz_theorem,
    lookup_theorem,
    mine_separating_examples,
)
from .groups import (
    AXIOM_CHECKS,
    GROUP_SCAN_CAP,
    check_proximal_group,
    check_proximal_homomorphism,
    check_translations,
    hom_criterion_check,
    product_proximal_group,
    quotient_proximal_group,
    subgroup_proximal_group,
)
from .harnesses import (
    check_descriptive_proximal_group,
    first_iso_harness,
    second_iso_harness,
    third_iso_harness,
)
from .maps import PCONT_SCAN_CAP, check_pcont, check_proximal_isomorphism, identity_map
from .relations import ProximityRelation, quotient_proximity
from .spaces import FiniteSpace
from .workspace import WorkspaceDocument, WorkspaceError, parse_workspace

VERBS = (
    "check-axioms",
    "topology",
    "pcont",
    "group-check",
    "translations",
    "subgroup",
    "product",
    "hom-check",
    "quotient",
    "iso-theorems",
    "descriptive-check",
    "mapping-space",
    "enumerate",
    "fuzz",
    "census",
)

DOCUMENT_FREE_VERBS = ("enumerate", "fuzz", "census")

AXIOM_CHECKERS = {**AXIOM_CHECKS, "kuratowski": check_kuratowski}


@dataclass(frozen=True)
class CommandResult:
    payload: dict
    text: str
    exit_code: int


def _scan_size(default: int, flags: Mapping[str, Any]) -> int:
    """Scan cap for a verb: the documented default unless --max-n raises it."""
    max_n = flags.get("max_n")
    return max(default, max_n) if max_n is not None else default


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
        space = spaces if isinstance(spaces, FiniteSpace) else spaces[key]
        verdicts[key] = ok
        if ok:
            lines.append(f"{key} PASS")
        elif key in report.witnesses:
            witness = report.witnesses[key]
            witnesses[key] = _witness_payload(space, witness)
            lines.append(f"{key} FAIL {_witness_text(space, witness)}")
        else:
            lines.append(f"{key} FAIL")
    return lines, verdicts, witnesses


def _require(ws: WorkspaceDocument | None) -> WorkspaceDocument:
    if ws is None:
        raise WorkspaceError("document", "this verb needs a workspace document")
    return ws


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
        if len(ws.maps) == 1:
            name = next(iter(ws.maps))
        else:
            return "id", identity_map(ws.space)
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
    lines = [f"axioms {line}" for line in lines]
    payload: dict = {"verb": verb, **extra, "axioms": verdicts, "ok": report.ok}
    wits = {f"axioms.{k}": v for k, v in witnesses.items()}
    for tag, check in (("mu1", report.mu1_pcont), ("mu2", report.mu2_pcont)):
        payload[tag] = check.ok
        if check.ok:
            lines.append(f"{tag} PASS")
        else:
            wits[tag] = _witness_payload(space, check.witness)
            lines.append(f"{tag} FAIL {_witness_text(space, check.witness)}")
    if wits:
        payload["witnesses"] = wits
    return CommandResult(payload, "\n".join(lines), 0 if report.ok else 1)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_check_axioms(ws, flags):
    ws = _require(ws)
    name, rel = _pick_relation(ws, flags)
    klass = flags.get("axiom_class") or "lodato"
    if klass not in AXIOM_CHECKERS:
        raise WorkspaceError("flags", f"--class must be one of {sorted(AXIOM_CHECKERS)}")
    checker = AXIOM_CHECKERS[klass]
    report = checker(rel, max_size=_scan_size(DEFAULT_SCAN_CAP, flags))
    lines, verdicts, witnesses = _report_lines(report, rel.space)
    payload = {
        "verb": "check-axioms",
        "relation": name,
        "class": klass,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if report.ok else 1)


def _cmd_topology(ws, flags):
    ws = _require(ws)
    name, rel = _pick_relation(ws, flags)
    snapshot = induced_topology(rel, max_size=_scan_size(DEFAULT_SCAN_CAP, flags))
    kreport = check_kuratowski(rel, max_size=_scan_size(DEFAULT_SCAN_CAP, flags))
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
    if not snapshot.kuratowski_ok:
        witnesses = {
            k: _witness_payload(space, w) for k, w in kreport.witnesses.items()
        }
        payload["witnesses"] = witnesses
        for k, w in kreport.witnesses.items():
            lines.append(f"{k} FAIL {_witness_text(space, w)}")
    return CommandResult(payload, "\n".join(lines), 0 if snapshot.kuratowski_ok else 1)


def _cmd_pcont(ws, flags):
    ws = _require(ws)
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    map_name, f = _pick_map(ws, flags)
    scan = _scan_size(PCONT_SCAN_CAP, flags)
    if flags.get("iso"):
        report = check_proximal_isomorphism(f, rel1, rel2, max_size=scan)
        spaces = {"bijective": rel1.space, "pcont": rel1.space, "inverse_pcont": rel2.space}
    else:
        report = check_pcont(f, rel1, rel2, max_size=scan)
        spaces = {"pcont": rel1.space}
    lines, verdicts, witnesses = _report_lines(report, spaces)
    payload = {
        "verb": "pcont",
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if report.ok else 1)


def _cmd_group_check(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
    klass = flags.get("axiom_class") or "efremovic"
    report = check_proximal_group(
        group, rel, axiom_class=klass, max_size=_scan_size(GROUP_SCAN_CAP, flags)
    )
    return _proximal_group_result(
        "group-check", {"relation": name, "class": klass}, report, rel.space
    )


def _cmd_translations(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
    report = check_translations(group, rel, max_size=_scan_size(GROUP_SCAN_CAP, flags))
    lines = []
    entries = {}
    for x, left, right in report.entries:
        label = group.space.labels[x]
        entries[label] = {"left": left.ok, "right": right.ok}
        lines.append(
            f"translation {label}: left {'PASS' if left.ok else 'FAIL'},"
            f" right {'PASS' if right.ok else 'FAIL'}"
        )
    payload = {
        "verb": "translations",
        "relation": name,
        "entries": entries,
        "ok": report.ok,
    }
    if not report.ok:
        witnesses = {}
        for x, left, right in report.entries:
            label = group.space.labels[x]
            for side, rep in (("left", left), ("right", right)):
                for k, w in rep.witnesses.items():
                    witnesses[f"{label}.{side}.{k}"] = _witness_payload(rel.space, w)
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if report.ok else 1)


def _cmd_subgroup(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    name, rel = _pick_relation(ws, flags)
    h = _need_mask(flags, "subset", ws.space)
    klass = flags.get("axiom_class") or "efremovic"
    report = subgroup_proximal_group(
        group, rel, h, axiom_class=klass, max_size=_scan_size(GROUP_SCAN_CAP, flags)
    )
    sub_space = FiniteSpace(tuple(ws.space.label_set(h)))
    return _proximal_group_result(
        "subgroup",
        {"relation": name, "subgroup_mask": h, "subgroup": list(sub_space.labels)},
        report,
        sub_space,
    )


def _cmd_product(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    klass = flags.get("axiom_class") or "efremovic"
    report = product_proximal_group(
        group, rel1, group, rel2, axiom_class=klass,
        max_size=_scan_size(GROUP_SCAN_CAP, flags),
    )
    # a product of verified factors passes, so the report holds no witness
    return _proximal_group_result(
        "product", {"relation": name1, "relation2": name2}, report, rel1.space
    )


def _cmd_hom_check(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    name1, rel1 = _pick_relation(ws, flags, "rel")
    name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
    map_name, eta = _pick_map(ws, flags)
    scan = _scan_size(GROUP_SCAN_CAP, flags)
    report = check_proximal_homomorphism(
        eta, group, rel1, group, rel2,
        isomorphism=bool(flags.get("iso")), max_size=scan,
    )
    spaces = {
        "group_homomorphism": rel1.space,
        "pcont": rel1.space,
        "bijective": rel1.space,
        "inverse_pcont": rel2.space,
    }
    lines, verdicts, witnesses = _report_lines(report, spaces)
    payload = {
        "verb": "hom-check",
        "map": map_name,
        "relation": name1,
        "relation2": name2,
        "verdicts": verdicts,
        "ok": report.ok,
    }
    exit_code = 0 if report.ok else 1
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
            exit_code = 1
            if crit.conclusion.witness:
                witnesses["criterion"] = _witness_payload(rel1.space, crit.conclusion.witness)
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), exit_code)


def _cmd_quotient(ws, flags):
    ws = _require(ws)
    name, rel = _pick_relation(ws, flags)
    if flags.get("normal") is not None:
        group = _need_group(ws)
        n_mask = _need_mask(flags, "normal", ws.space)
        quot_group, quot_rel = quotient_proximal_group(group, rel, n_mask)
        payload = {
            "verb": "quotient",
            "relation": name,
            "normal_mask": n_mask,
            "carrier": list(quot_rel.space.labels),
            "cayley": [list(row) for row in quot_group.cayley],
            "rows": list(quot_rel.rows),
            "ok": True,
        }
        lines = [
            "carrier: " + " ".join(quot_rel.space.labels),
            "cayley: " + " ".join(",".join(str(v) for v in row) for row in quot_group.cayley),
            "rows: " + " ".join(str(r) for r in quot_rel.rows),
        ]
        return CommandResult(payload, "\n".join(lines), 0)
    if ws.partition is None:
        raise WorkspaceError("partition", "quotient needs a partition section or --normal MASK")
    quot_rel = quotient_proximity(rel, ws.partition)
    payload = {
        "verb": "quotient",
        "relation": name,
        "carrier": list(quot_rel.space.labels),
        "rows": list(quot_rel.rows),
        "ok": True,
    }
    lines = [
        "carrier: " + " ".join(quot_rel.space.labels),
        "rows: " + " ".join(str(r) for r in quot_rel.rows),
    ]
    return CommandResult(payload, "\n".join(lines), 0)


def _cmd_iso_theorems(ws, flags):
    ws = _require(ws)
    group = _need_group(ws)
    which = flags.get("which") or "first"
    name1, rel1 = _pick_relation(ws, flags, "rel")
    scan = _scan_size(GROUP_SCAN_CAP, flags)
    if which == "first":
        name2, rel2 = _pick_relation(ws, flags, "rel2", default=name1)
        map_name, eta = _pick_map(ws, flags)
        report = first_iso_harness(eta, group, rel1, group, rel2, max_size=scan)
        extra = {"relation": name1, "relation2": name2, "map": map_name}
        proximal_space = {"bijective": rel2.space, "pcont": rel2.space, "inverse_pcont": rel2.space}
    elif which == "second":
        h = _need_mask(flags, "subset", ws.space)
        n = _need_mask(flags, "normal", ws.space)
        report = second_iso_harness(group, rel1, h, n, max_size=scan)
        extra = {"relation": name1, "subgroup_mask": h, "normal_mask": n}
        proximal_space = rel1.space
    elif which == "third":
        n = _need_mask(flags, "normal", ws.space)
        k = _need_mask(flags, "normal2", ws.space)
        report = third_iso_harness(group, rel1, n, k, max_size=scan)
        extra = {"relation": name1, "normal_mask": n, "containing_mask": k}
        proximal_space = rel1.space
    else:
        raise WorkspaceError("flags", "--which must be first, second, or third")
    lines = [
        f"surjective {'PASS' if report.surjective else 'FAIL'}",
        f"group-isomorphism {'PASS' if report.group_isomorphism else 'FAIL'}",
    ]
    plines, verdicts, witnesses = _report_lines(report.proximal, proximal_space)
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
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), 0 if report.ok else 1)


def _cmd_descriptive_check(ws, flags):
    ws = _require(ws)
    name, probes = _pick_probes(ws, flags)
    scan = _scan_size(DEFAULT_SCAN_CAP, flags)
    lodato = check_descriptive_lodato(probes, max_size=scan)
    ef = check_descriptive_ef(probes, max_size=scan)
    lines, verdicts, witnesses = _report_lines(lodato, probes.space)
    ef_lines, ef_verdicts, ef_witnesses = _report_lines(ef, probes.space)
    lines.append(ef_lines[-1])  # DEF line; DL1-DL4 already reported
    verdicts["DEF"] = ef_verdicts["DEF"]
    witnesses.update({k: v for k, v in ef_witnesses.items() if k == "DEF"})
    ok = lodato.ok and ef.ok
    payload = {
        "verb": "descriptive-check",
        "probes": name,
        "verdicts": verdicts,
        "ok": ok,
    }
    exit_code = 0 if ok else 1
    if flags.get("group"):
        group = _need_group(ws)
        report = check_descriptive_proximal_group(
            group, probes, max_size=_scan_size(GROUP_SCAN_CAP, flags)
        )
        payload["mu1"] = report.mu1_pcont.ok
        payload["mu2"] = report.mu2_pcont.ok
        payload["group_ok"] = report.ok
        for tag, check in (("mu1", report.mu1_pcont), ("mu2", report.mu2_pcont)):
            if check.ok:
                lines.append(f"{tag} PASS")
            else:
                witnesses[tag] = _witness_payload(probes.space, check.witness)
                lines.append(f"{tag} FAIL {_witness_text(probes.space, check.witness)}")
        if not report.ok:
            exit_code = 1
        payload["ok"] = ok and report.ok
    if witnesses:
        payload["witnesses"] = witnesses
    return CommandResult(payload, "\n".join(lines), exit_code)


def _cmd_mapping_space(ws, flags):
    ws = _require(ws)
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
    verdict = mapping_space_relation(
        maps1, maps2, probes1, probes2, max_size=_scan_size(DEFAULT_SCAN_CAP, flags)
    )
    payload = {
        "verb": "mapping-space",
        "probes": name1,
        "probes2": name2,
        "near": verdict.near,
        "ok": verdict.near,
    }
    if verdict.near:
        return CommandResult(payload, "near PASS", 0)
    a, b, f_name, g_name = verdict.witness
    payload["witnesses"] = {
        "mapping_space": {
            **_witness_payload(ws.space, (a, b)),
            "maps": [f_name, g_name],
        }
    }
    text = (
        f"near FAIL {_witness_text(ws.space, (a, b))} maps=({f_name}, {g_name})"
    )
    return CommandResult(payload, text, 1)


def _cmd_enumerate(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "enumerate needs --n SIZE")
    klass = flags.get("axiom_class") or "cech"
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
    return CommandResult(payload, "\n".join(lines), 0)


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
    scope = None
    if max_order is not None or classes is not None:
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
    return CommandResult(payload, "\n".join(lines), 0 if ok else 1)


def _cmd_census(ws, flags):
    n = flags.get("n")
    if n is None:
        raise WorkspaceError("flags", "census needs --n SIZE")
    census = mine_separating_examples(n)
    payload = {"verb": "census", **census.to_payload(), "ok": True}
    lines = [f"{k} {v}" for k, v in sorted(census.counts.items())]
    for tag, rel in (
        ("cech_not_lodato", census.cech_not_lodato),
        ("cech_not_ef", census.cech_not_ef),
    ):
        if rel is None:
            lines.append(f"{tag}: none")
        else:
            lines.append(f"{tag}: rows " + " ".join(str(v) for v in rel.rows))
    return CommandResult(payload, "\n".join(lines), 0)


HANDLERS = {
    "check-axioms": _cmd_check_axioms,
    "topology": _cmd_topology,
    "pcont": _cmd_pcont,
    "group-check": _cmd_group_check,
    "translations": _cmd_translations,
    "subgroup": _cmd_subgroup,
    "product": _cmd_product,
    "hom-check": _cmd_hom_check,
    "quotient": _cmd_quotient,
    "iso-theorems": _cmd_iso_theorems,
    "descriptive-check": _cmd_descriptive_check,
    "mapping-space": _cmd_mapping_space,
    "enumerate": _cmd_enumerate,
    "fuzz": _cmd_fuzz,
    "census": _cmd_census,
}


def run_command(verb: str, ws: WorkspaceDocument | None, flags: Mapping[str, Any] | None = None) -> CommandResult:
    """Run one verb against a parsed workspace; reports are deterministic."""
    if verb not in HANDLERS:
        raise WorkspaceError("verb", f"unknown verb {verb!r}; known: {', '.join(VERBS)}")
    flags = dict(flags or {})
    if flags.get("max_n") is not None and flags["max_n"] < 1:
        raise WorkspaceError("flags", f"--max-n must be at least 1, got {flags['max_n']}")
    return HANDLERS[verb](ws, flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxikit",
        description="Finite proximity-space and proximal-group verification toolkit.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, needs_doc=True, capped=True):
        # only verbs with a size-capped scan take --max-n
        p = sub.add_parser(verb)
        if needs_doc:
            p.add_argument("document", help="workspace JSON file, or - for stdin")
        if needs_doc and capped:
            p.add_argument("--max-n", type=int, default=None, dest="max_n",
                           help="raise the exhaustive-scan size cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("check-axioms")
    p.add_argument("--rel", default=None)
    p.add_argument("--class", dest="axiom_class",
                   choices=("cech", "lodato", "efremovic", "kuratowski"), default="lodato")

    p = add("topology")
    p.add_argument("--rel", default=None)

    p = add("pcont")
    p.add_argument("--rel", default=None)
    p.add_argument("--rel2", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--iso", action="store_true")

    p = add("group-check")
    p.add_argument("--rel", default=None)
    p.add_argument("--class", dest="axiom_class",
                   choices=("cech", "lodato", "efremovic"), default="efremovic")

    p = add("translations")
    p.add_argument("--rel", default=None)

    p = add("subgroup")
    p.add_argument("--rel", default=None)
    p.add_argument("--subset", type=int, required=True)
    p.add_argument("--class", dest="axiom_class",
                   choices=("cech", "lodato", "efremovic"), default="efremovic")

    p = add("product")
    p.add_argument("--rel", default=None)
    p.add_argument("--rel2", default=None)
    p.add_argument("--class", dest="axiom_class",
                   choices=("cech", "lodato", "efremovic"), default="efremovic")

    p = add("hom-check")
    p.add_argument("--rel", default=None)
    p.add_argument("--rel2", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--iso", action="store_true")
    p.add_argument("--criterion", action="store_true")

    p = add("quotient", capped=False)
    p.add_argument("--rel", default=None)
    p.add_argument("--normal", type=int, default=None)

    p = add("iso-theorems")
    p.add_argument("--which", choices=("first", "second", "third"), default="first")
    p.add_argument("--rel", default=None)
    p.add_argument("--rel2", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--subset", type=int, default=None)
    p.add_argument("--normal", type=int, default=None)
    p.add_argument("--normal2", type=int, default=None)

    p = add("descriptive-check")
    p.add_argument("--probes", default=None)
    p.add_argument("--group", action="store_true")

    p = add("mapping-space")
    p.add_argument("--probes", default=None)
    p.add_argument("--probes2", default=None)
    p.add_argument("--set1", default=None)
    p.add_argument("--set2", default=None)

    p = add("enumerate", needs_doc=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="axiom_class",
                   choices=("cech", "lodato", "efremovic"), default="cech")

    p = add("fuzz", needs_doc=False)
    p.add_argument("--theorem", required=True)
    p.add_argument("--max-order", type=int, default=None, dest="max_order")
    p.add_argument("--classes", default=None)

    p = add("census", needs_doc=False)
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("verb", "document", "format")
    }
    ws = None
    try:
        if args.verb not in DOCUMENT_FREE_VERBS:
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
    if args.format == "json":
        print(json.dumps(result.payload, sort_keys=True, indent=2))
    else:
        print(result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
