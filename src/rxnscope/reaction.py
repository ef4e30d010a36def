"""Reaction records, condition-role classification, tables, JSON codec."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources
from typing import Iterable, Optional

from .jsonshape import Closed, Required, read_json
from .molgraph import MolecularGraph, RxnscopeError, is_placeholder_label
from .smiles import SmilesParseError, parse_smiles

log = logging.getLogger(__name__)

ROLES = ("reagent", "solvent", "temperature", "time", "yield", "add_info")


class CodecError(RxnscopeError, ValueError):
    pass


class TableParseError(RxnscopeError, ValueError):
    pass


@dataclass(frozen=True)
class ConditionItem:
    """A reaction condition. ``decode_records`` checks that ``smiles`` parses;
    a run's is a packaged solvent's or a recognized molecule's text."""

    role: str
    text: str
    smiles: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise CodecError(f"unknown condition role {self.role!r}")
        if not self.text:
            raise CodecError("condition text must be non-empty")

    def identity(self) -> tuple[str, str, Optional[str]]:
        return (self.role, self.text, self.label)


@dataclass(frozen=True)
class MoleculeEntry:
    """A molecule: its SMILES text, label and the graph the text reads as.

    The text is parsed when the entry is made, so an entry is made where
    its text is first met and handed on from there. A molecule built from
    a graph is the entry of its written text. The graph stays out of
    equality, hashing and repr, which the text already decides.
    """

    smiles: str
    label: Optional[str] = None
    graph: MolecularGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.__dict__["graph"] = parse_smiles(self.smiles)

    def with_label(self, label: Optional[str]) -> "MoleculeEntry":
        """This entry under ``label``; the graph is kept, not built again."""
        if label == self.label:
            return self
        entry = object.__new__(type(self))
        entry.__dict__.update(vars(self), label=label)
        return entry


@dataclass(frozen=True)
class ReactionRecord:
    reaction_id: str
    reactants: tuple[MoleculeEntry, ...] = ()
    conditions: tuple[ConditionItem, ...] = ()
    products: tuple[MoleculeEntry, ...] = ()
    additional_info: tuple[str, ...] = ()

    def is_template_record(self) -> bool:
        return any(e.graph.placeholder_indices() for e in self.reactants + self.products)

    def product_labels(self) -> list[str]:
        return [e.label for e in self.products if e.label is not None]


def validate_record(record: ReactionRecord) -> list[str]:
    problems: list[str] = []
    if not record.reaction_id:
        problems.append("empty reaction_id")
    if not record.is_template_record():
        if not record.reactants:
            problems.append("concrete record has no reactants")
        if not record.products:
            problems.append("concrete record has no products")
    return problems


@dataclass(frozen=True)
class RGroupTableRow:
    entry: int
    values: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.entry < 1:
            raise TableParseError(f"table entry must be >= 1, got {self.entry}")


# ---------------------------------------------------------------------------
# Condition classification
# ---------------------------------------------------------------------------


class ConditionLexicon:
    def __init__(self, solvents: dict[str, str], reagents: Iterable[str]):
        self._solvents = {name.lower(): (name, smi) for name, smi in solvents.items()}
        self._reagents = {name.lower() for name in reagents}

    @classmethod
    @cache
    def default(cls) -> "ConditionLexicon":
        """The packaged lexicon, built on first use and shared by every caller."""
        text = (
            resources.files("rxnscope.data")
            .joinpath("condition_lexicon.json")
            .read_text()
        )
        shape = {"solvents": {str: str}, "reagents": [str]}
        raw = read_json(text, shape, "condition_lexicon.json", CodecError)
        return cls(raw.get("solvents", {}), raw.get("reagents", []))

    def solvent_smiles(self, name: str) -> Optional[str]:
        hit = self._solvents.get(name.lower())
        return hit[1] if hit else None

    def is_reagent(self, name: str) -> bool:
        return name.lower() in self._reagents


_LABEL_TOKEN = re.compile(r"^[A-Z][a-z]?\d+$")
# Tokens shaped like labels that are really element formulas.
_FORMULA_TOKENS = {"H2", "O2", "N2", "F2", "Cl2", "Br2", "I2", "S8", "P4"}

# One blank run holds the degree sign: two optional blank runs around an
# optional sign would split n blanks about n²/2 ways before failing.
_TEMP_VALUE = re.compile(r"(^|[\s(])-?\d+(\.\d+)?\s*(?:°\s*)?[CK]\b")
_TIME_VALUE = re.compile(r"\b\d+(\.\d+)?\s*(h|hr|hrs|min|mins|s|d|day|days)\b", re.I)
_RATIO = re.compile(r"\b\d+(\.\d+)?\s*:\s*\d+(\.\d+)?\b")
_MOL_PERCENT = re.compile(r"\bmol\s*%", re.I)
_PERCENT_VALUE = re.compile(r"\d\s*%")
_EE_DR = re.compile(r"\b(ee|dr|er|ratio)\b")
_LABEL_SPLIT = re.compile(r"[\s,;/]+")
_PART_SPLIT = re.compile(r"[,;]")


def _extract_labels(text: str) -> list[str]:
    labels = []
    for token in _LABEL_SPLIT.split(text):
        token = token.strip("().")
        if _LABEL_TOKEN.match(token) and token not in _FORMULA_TOKENS:
            labels.append(token)
    return labels


def _classify_part(part: str, lexicon: ConditionLexicon) -> list[ConditionItem]:
    text = part.strip()
    low = text.lower()
    has_mol_percent = bool(_MOL_PERCENT.search(text))
    has_ee_dr = bool(_EE_DR.search(low))

    if _PERCENT_VALUE.search(text) and not has_ee_dr and not has_mol_percent:
        return [ConditionItem(role="yield", text=text)]
    if low in ("rt", "r.t.", "room temperature") or _TEMP_VALUE.search(text):
        return [ConditionItem(role="temperature", text=text)]
    if _TIME_VALUE.search(text):
        return [ConditionItem(role="time", text=text)]
    if has_ee_dr or _RATIO.search(text):
        return [ConditionItem(role="add_info", text=text)]

    tokens = [t.strip("().,") for t in text.split()]
    if has_mol_percent or any(lexicon.is_reagent(t) for t in tokens if t):
        labels = _extract_labels(text)
        if labels:
            return [ConditionItem(role="reagent", text=text, label=lab) for lab in labels]
        return [ConditionItem(role="reagent", text=text)]
    solvent = lexicon.solvent_smiles(text)
    if solvent is not None:
        return [ConditionItem(role="solvent", text=text, smiles=solvent)]
    return [ConditionItem(role="add_info", text=text)]


def classify_condition(text: str) -> list[ConditionItem]:
    """Split a condition string and assign a role to every piece.

    Total: unrecognized pieces land in add_info rather than being
    dropped. A piece naming several labeled reagents ("10 mol% B17 or
    B27") yields one item per label, sharing the verbatim text.
    """
    lexicon = ConditionLexicon.default()
    items: list[ConditionItem] = []
    for part in _PART_SPLIT.split(text):
        if part.strip():
            items.extend(_classify_part(part, lexicon))
    return items


def align_conditions(
    shared: list[ConditionItem],
    per_variant: dict[str, list[ConditionItem]],
    records: list[ReactionRecord],
) -> list[ReactionRecord]:
    """Attach the scope's conditions to each of its variant records.

    A record gets the shared items, less the shared yield, then the items of
    each variant label among its product labels; a label's ``add_info``
    items become the record's ``additional_info`` instead. The shared yield
    summarizes the whole scope (a range), and a per-variant yield supersedes
    it. A variant label that matches no record's product labels is logged.
    """
    shared = [item for item in shared if item.role != "yield"]
    out: list[ReactionRecord] = []
    matched_labels: set[str] = set()
    for record in records:
        labels = record.product_labels()
        items = list(shared)
        for label in sorted(per_variant.keys() & set(labels)):
            matched_labels.add(label)
            items.extend(item for item in per_variant[label] if item.role != "add_info")
        info = [
            item.text for label in labels for item in per_variant.get(label, ()) if item.role == "add_info"
        ]
        seen: set[tuple] = set()
        deduped = []
        for item in items:
            if item.identity() in seen:
                continue
            seen.add(item.identity())
            deduped.append(item)
        out.append(replace(record, conditions=tuple(deduped), additional_info=tuple(info)))
    for label in sorted(set(per_variant) - matched_labels):
        log.warning("condition annotation for %r matches no reaction record", label)
    return out


# ---------------------------------------------------------------------------
# Text tables
# ---------------------------------------------------------------------------

_CELL_SPLIT = re.compile(r"\t+|\s{2,}")
_ABSENT_CELLS = {"", "-", "—", "–"}


def parse_rgroup_table(text: str) -> list[RGroupTableRow]:
    """Parse a whitespace-or-tab table whose header names R-group columns.

    Header cells matching the placeholder grammar ("R1", "Ar2") become
    value columns; an "entry" column supplies row numbers; everything
    else is metadata. Dash or empty cells mean absent.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TableParseError("table has no header row")
    headers = _CELL_SPLIT.split(lines[0].strip())
    rows: list[RGroupTableRow] = []
    for row_no, line in enumerate(lines[1:], start=1):
        cells = _CELL_SPLIT.split(line.strip())
        if len(cells) > len(headers):
            raise TableParseError(
                f"row {row_no} has {len(cells)} cells for {len(headers)} headers"
            )
        cells += [""] * (len(headers) - len(cells))
        entry: Optional[int] = None
        values: dict[str, str] = {}
        metadata: dict[str, str] = {}
        for header, cell in zip(headers, cells):
            cell = cell.strip()
            if cell in _ABSENT_CELLS:
                continue
            if header.lower() == "entry":
                try:
                    entry = int(cell)
                except ValueError:
                    raise TableParseError(
                        f"row {row_no}: entry cell {cell!r} is not an integer"
                    ) from None
            elif is_placeholder_label(header):
                values[header] = cell
            else:
                metadata[header] = cell
        rows.append(
            RGroupTableRow(entry=entry if entry is not None else row_no, values=values, metadata=metadata)
        )
    return rows



def table_row_to_json(row: RGroupTableRow) -> dict:
    return {"entry": row.entry, "values": dict(row.values), "metadata": dict(row.metadata)}

# ---------------------------------------------------------------------------
# Record JSON codec
# ---------------------------------------------------------------------------


def _molecule_to_json(entry: MoleculeEntry) -> dict:
    out: dict = {"smiles": entry.smiles}
    if entry.label is not None:
        out["label"] = entry.label
    return out


def condition_to_json(item: ConditionItem) -> dict:
    out: dict = {"role": item.role, "text": item.text}
    if item.smiles is not None:
        out["smiles"] = item.smiles
    if item.label is not None:
        out["label"] = item.label
    return out


def record_to_json(record: ReactionRecord) -> dict:
    return {
        "reaction_id": record.reaction_id,
        "reactants": [_molecule_to_json(e) for e in record.reactants],
        "conditions": [condition_to_json(c) for c in record.conditions],
        "products": [_molecule_to_json(e) for e in record.products],
        "additional_info": list(record.additional_info),
    }


def encode_records(
    records: Iterable[ReactionRecord],
    text_description: str,
    molecules: Optional[list[dict]],
) -> str:
    """The output document.

    ``molecules`` is the run's recognized molecule list, or ``None`` when
    the run did no recognition. With no records the document lists it
    instead, each text as written, since a failed recognition step can
    leave texts that do not parse; an empty label is not written.
    """
    doc: dict = {
        "Text description": text_description,
        "reactions": [record_to_json(r) for r in records],
    }
    if not doc["reactions"] and molecules is not None:
        doc["molecules"] = [
            {"smiles": m["smiles"], "label": m["label"]} if m.get("label") else {"smiles": m["smiles"]}
            for m in molecules
        ]
    return json.dumps(doc, indent=2, ensure_ascii=False)


# A record document in ``jsonshape`` terms; a missing list reads as empty,
# a missing description as "", and a key no shape lists is a ``CodecError``.
# ``molecules`` is the list a document with no records holds instead; its
# texts are not read. A SMILES that does not parse, an unknown role, an
# empty condition text and a repeated id are ``CodecError``s too.
_MOLECULE = Closed({Required("smiles"): str, "label": (str, None)})
_CONDITION = Closed(
    {Required("role"): str, Required("text"): str, "smiles": (str, None), "label": (str, None)}
)
_RECORD = Closed({
    Required("reaction_id"): str, "reactants": [_MOLECULE], "conditions": [_CONDITION],
    "products": [_MOLECULE], "additional_info": [str],
})
DOCUMENT = Closed({"Text description": str, "reactions": [_RECORD], "molecules": [_MOLECULE]})


def decode_records(text: str) -> tuple[list[ReactionRecord], str]:
    """Records and text description of a ``DOCUMENT``.

    Each distinct molecule text of the document is parsed once, and its
    entries share the graph.
    """
    doc = read_json(text, DOCUMENT, "document", CodecError)
    parsed: dict[str, MoleculeEntry] = {}

    def molecule(obj: dict, path: str) -> MoleculeEntry:
        smiles, label = obj["smiles"], obj.get("label")
        if smiles not in parsed:
            try:
                parsed[smiles] = MoleculeEntry(smiles, label)
            except SmilesParseError as exc:
                raise CodecError(f"{path}.smiles: {exc}") from None
        return parsed[smiles].with_label(label)

    def condition(obj: dict, path: str) -> ConditionItem:
        if obj["role"] not in ROLES:
            raise CodecError(f"{path}.role: unknown role {obj['role']!r}")
        if obj.get("smiles") is not None:
            molecule(obj, path)
        try:
            return ConditionItem(
                role=obj["role"], text=obj["text"], smiles=obj.get("smiles"), label=obj.get("label")
            )
        except CodecError as exc:
            raise CodecError(f"{path}: {exc}") from None

    def record(obj: dict, path: str) -> ReactionRecord:
        def entries(key: str, read) -> tuple:
            return tuple(read(e, f"{path}.{key}[{i}]") for i, e in enumerate(obj.get(key, [])))

        return ReactionRecord(
            reaction_id=obj["reaction_id"],
            reactants=entries("reactants", molecule),
            conditions=entries("conditions", condition),
            products=entries("products", molecule),
            additional_info=tuple(obj.get("additional_info", [])),
        )

    records = [record(obj, f"document.reactions[{i}]") for i, obj in enumerate(doc.get("reactions", []))]
    seen_ids: set[str] = set()
    for i, r in enumerate(records):
        if r.reaction_id in seen_ids:
            raise CodecError(
                f"document.reactions[{i}].reaction_id: duplicate id {r.reaction_id!r}"
            )
        seen_ids.add(r.reaction_id)
    return records, doc.get("Text description", "")
