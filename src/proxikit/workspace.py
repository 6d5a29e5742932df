"""Workspace documents: one JSON file describing a carrier plus relations,
a group, probe tables, maps, and a partition over it.

Documents are the CLI's input format.  Exactly one carrier per document;
every other section references it.  Subset masks are unsigned ints with
bit i meaning element i (carrier order).  Parsing validates every field and
cross-reference, and closes explicit near-pair lists symmetrically with a
warning.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .descriptive import ProbeTable
from .groups import FiniteGroup
from .maps import SpaceMap
from .relations import (
    ProximityRelation,
    RectangleRelation,
    make_coarse_proximity,
    make_discrete_proximity,
    make_metric_proximity,
    product_proximity,
    relation_from_near_pairs,
    subspace_proximity,
    validate_partition,
)
from .descriptive import descriptive_proximity
from .spaces import MAX_CARRIER, FiniteSpace


class WorkspaceError(ValueError):
    """Invalid document; the message carries the offending field location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class WorkspaceDocument:
    """Parsed, validated workspace."""

    space: FiniteSpace
    relations: dict[str, ProximityRelation | RectangleRelation]
    group: FiniteGroup | None
    probes: dict[str, ProbeTable]
    maps: dict[str, SpaceMap]
    partition: tuple[int, ...] | None
    warnings: tuple[str, ...] = field(compare=False, default=())


def _expect(condition: bool, location: str, message: str) -> None:
    if not condition:
        raise WorkspaceError(location, message)


def _parse_space(raw: Any) -> FiniteSpace:
    _expect(isinstance(raw, dict), "space", "must be an object")
    labels = raw.get("labels")
    _expect(isinstance(labels, list) and labels, "space.labels", "must be a nonempty list")
    _expect(
        all(isinstance(l, str) for l in labels), "space.labels", "labels must be strings"
    )
    try:
        return FiniteSpace(tuple(labels))
    except ValueError as e:
        raise WorkspaceError("space.labels", str(e)) from None


def _parse_mask(raw: Any, space: FiniteSpace, location: str) -> int:
    _expect(isinstance(raw, int) and not isinstance(raw, bool), location, "must be an int mask")
    _expect(0 <= raw <= space.full_mask, location, f"mask {raw} out of range for size {space.size}")
    return raw


def _parse_probe_table(name: str, raw: Any, space: FiniteSpace) -> ProbeTable:
    loc = f"probes.{name}"
    _expect(isinstance(raw, dict), loc, "must be an object")
    arity = raw.get("arity")
    values = raw.get("values")
    _expect(isinstance(arity, int) and arity >= 0, f"{loc}.arity", "must be a nonnegative int")
    _expect(isinstance(values, list), f"{loc}.values", "must be a list of feature vectors")
    _expect(
        len(values) == space.size,
        f"{loc}.values",
        f"needs {space.size} vectors, got {len(values)}",
    )
    vecs = []
    for i, vec in enumerate(values):
        _expect(
            isinstance(vec, list) and len(vec) == arity,
            f"{loc}.values[{i}]",
            f"needs {arity} feature values",
        )
        _expect(
            all(isinstance(v, int) and not isinstance(v, bool) for v in vec),
            f"{loc}.values[{i}]",
            "feature values must be ints",
        )
        vecs.append(tuple(vec))
    return ProbeTable(space, arity, tuple(vecs))


def _parse_relations(
    raw: Any,
    space: FiniteSpace,
    probes: dict[str, ProbeTable],
    warnings: list[str],
) -> dict[str, ProximityRelation | RectangleRelation]:
    _expect(isinstance(raw, dict), "relations", "must be an object of named relations")
    pending = dict(raw)
    built: dict[str, ProximityRelation | RectangleRelation] = {}
    progress = True
    while pending and progress:
        progress = False
        for name in sorted(pending):
            spec = pending[name]
            loc = f"relations.{name}"
            _expect(isinstance(spec, dict), loc, "must be an object")
            encoding = spec.get("encoding")
            _expect(isinstance(encoding, str), f"{loc}.encoding", "missing encoding")
            if encoding == "discrete":
                built[name] = make_discrete_proximity(space)
            elif encoding == "coarse":
                built[name] = make_coarse_proximity(space)
            elif encoding == "metric":
                matrix = spec.get("matrix")
                _expect(isinstance(matrix, list), f"{loc}.matrix", "missing distance matrix")
                for i, row in enumerate(matrix):
                    _expect(
                        isinstance(row, list), f"{loc}.matrix[{i}]", "must be a list of distances"
                    )
                    for j, v in enumerate(row):
                        _expect(
                            isinstance(v, (int, float)) and not isinstance(v, bool),
                            f"{loc}.matrix[{i}][{j}]",
                            "distances must be numbers",
                        )
                try:
                    built[name] = make_metric_proximity(space, matrix)
                except ValueError as e:
                    raise WorkspaceError(f"{loc}.matrix", str(e)) from None
            elif encoding == "explicit":
                near = spec.get("near")
                _expect(isinstance(near, list), f"{loc}.near", "missing near-pair list")
                pairs = []
                for k, pair in enumerate(near):
                    _expect(
                        isinstance(pair, list) and len(pair) == 2,
                        f"{loc}.near[{k}]",
                        "each entry must be a [mask, mask] pair",
                    )
                    pairs.append(
                        (
                            _parse_mask(pair[0], space, f"{loc}.near[{k}][0]"),
                            _parse_mask(pair[1], space, f"{loc}.near[{k}][1]"),
                        )
                    )
                rel, closed = relation_from_near_pairs(space, pairs)
                if closed:
                    warnings.append(
                        f"{loc}: asymmetric near-pair list; symmetric closure applied"
                    )
                built[name] = rel
            elif encoding == "descriptive":
                ref = spec.get("probes")
                _expect(isinstance(ref, str), f"{loc}.probes", "missing probes reference")
                _expect(ref in probes, f"{loc}.probes", f"unknown probe table {ref!r}")
                built[name] = descriptive_proximity(probes[ref])
            elif encoding == "subspace":
                parent = spec.get("parent")
                _expect(isinstance(parent, str), f"{loc}.parent", "missing parent reference")
                if parent not in built:
                    if parent not in raw:
                        raise WorkspaceError(f"{loc}.parent", f"unknown relation {parent!r}")
                    continue  # parent not resolved yet
                base = built[parent]
                _expect(
                    isinstance(base, ProximityRelation),
                    f"{loc}.parent",
                    "cannot take a subspace of a product relation",
                )
                subset = _parse_mask(spec.get("subset"), base.space, f"{loc}.subset")
                try:
                    # part of the document's own data, like an explicit
                    # table: pulled back at any carrier size, with no scan cap
                    built[name] = subspace_proximity(base, subset, max_size=MAX_CARRIER)
                except ValueError as e:
                    raise WorkspaceError(f"{loc}.subset", str(e)) from None
            elif encoding == "product":
                factors = spec.get("factors")
                _expect(
                    isinstance(factors, list)
                    and len(factors) == 2
                    and all(isinstance(f, str) for f in factors),
                    f"{loc}.factors",
                    "needs exactly two factor names",
                )
                if not all(f in built for f in factors):
                    if not all(f in raw for f in factors):
                        missing = next(f for f in factors if f not in raw)
                        raise WorkspaceError(
                            f"{loc}.factors", f"unknown relation {missing!r}"
                        )
                    continue
                f1, f2 = (built[f] for f in factors)
                _expect(
                    isinstance(f1, ProximityRelation) and isinstance(f2, ProximityRelation),
                    f"{loc}.factors",
                    "factors must be plain relations",
                )
                try:
                    built[name] = product_proximity(f1, f2)
                except ValueError as e:
                    raise WorkspaceError(f"{loc}.factors", str(e)) from None
            else:
                raise WorkspaceError(f"{loc}.encoding", f"unknown encoding {encoding!r}")
            del pending[name]
            progress = True
    if pending:
        name = sorted(pending)[0]
        raise WorkspaceError(
            f"relations.{name}", "unresolvable reference cycle among relations"
        )
    return built


def _parse_group(raw: Any, space: FiniteSpace) -> FiniteGroup:
    _expect(isinstance(raw, dict), "group", "must be an object")
    cayley = raw.get("cayley")
    _expect(isinstance(cayley, list), "group.cayley", "missing cayley table")
    _expect(
        len(cayley) == space.size,
        "group.cayley",
        f"needs {space.size} rows, got {len(cayley)}",
    )
    for i, row in enumerate(cayley):
        _expect(
            isinstance(row, list) and len(row) == space.size,
            f"group.cayley[{i}]",
            f"row {i} needs {space.size} entries, got"
            f" {len(row) if isinstance(row, list) else 'non-list'}",
        )
        for j, v in enumerate(row):
            _expect(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < space.size,
                f"group.cayley[{i}][{j}]",
                f"entry at row {i}, position {j} must be an element index",
            )
    try:
        group = FiniteGroup.from_table(space, cayley)
    except ValueError as e:
        raise WorkspaceError("group.cayley", str(e)) from None
    identity = raw.get("identity")
    if identity is not None:
        _expect(
            identity == group.identity,
            "group.identity",
            f"declared identity {identity} but the table's identity is {group.identity}",
        )
    return group


def _parse_maps(raw: Any, space: FiniteSpace) -> dict[str, SpaceMap]:
    _expect(isinstance(raw, dict), "maps", "must be an object of named maps")
    out = {}
    for name in sorted(raw):
        spec = raw[name]
        loc = f"maps.{name}"
        _expect(isinstance(spec, dict), loc, "must be an object")
        images = spec.get("images")
        _expect(isinstance(images, list), f"{loc}.images", "missing image list")
        _expect(
            all(isinstance(v, int) and not isinstance(v, bool) for v in images),
            f"{loc}.images",
            "images must be element indices",
        )
        try:
            out[name] = SpaceMap(space, space, tuple(images), name)
        except ValueError as e:
            raise WorkspaceError(f"{loc}.images", str(e)) from None
    return out


def _parse_partition(raw: Any, space: FiniteSpace) -> tuple[int, ...]:
    _expect(isinstance(raw, dict), "partition", "must be an object")
    blocks_raw = raw.get("blocks")
    _expect(isinstance(blocks_raw, list), "partition.blocks", "missing block list")
    blocks = []
    for k, block in enumerate(blocks_raw):
        loc = f"partition.blocks[{k}]"
        _expect(isinstance(block, list), loc, "each block is a list of element indices")
        mask = 0
        for v in block:
            _expect(
                isinstance(v, int) and not isinstance(v, bool) and 0 <= v < space.size,
                loc,
                f"element index {v} out of range",
            )
            mask |= 1 << v
        blocks.append(mask)
    try:
        validate_partition(space, blocks)
    except ValueError as e:
        raise WorkspaceError("partition.blocks", str(e)) from None
    return tuple(blocks)


def parse_workspace(text: str) -> WorkspaceDocument:
    """Parse and validate a workspace document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceError(
            f"line {e.lineno}, column {e.colno}", f"syntax error: {e.msg}"
        ) from None
    _expect(isinstance(raw, dict), "document", "top level must be an object")
    known = {"space", "relations", "group", "probes", "maps", "partition"}
    for key in raw:
        _expect(key in known, key, "unknown section")
    _expect("space" in raw, "space", "missing carrier section")
    space = _parse_space(raw["space"])
    warnings: list[str] = []

    probes = {}
    if "probes" in raw:
        _expect(isinstance(raw["probes"], dict), "probes", "must be an object")
        for name in sorted(raw["probes"]):
            probes[name] = _parse_probe_table(name, raw["probes"][name], space)

    relations = (
        _parse_relations(raw["relations"], space, probes, warnings) if "relations" in raw else {}
    )
    group = _parse_group(raw["group"], space) if "group" in raw else None
    maps = _parse_maps(raw["maps"], space) if "maps" in raw else {}
    partition = _parse_partition(raw["partition"], space) if "partition" in raw else None

    return WorkspaceDocument(
        space, relations, group, probes, maps, partition, tuple(warnings)
    )

