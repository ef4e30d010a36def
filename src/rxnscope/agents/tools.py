"""Tool registry: fixture-backed recognition stubs plus real converters.

Tools run in-process and answer with values. Recognition tools (image
parsers, OCR) read bundle sidecar files through ``Bundle.read``,
which checks each file against ``bundle.SIDECARS``, and decode the graphs
they hold into ``MolecularGraph`` values; a faulty sidecar or graph fails
the step that read it with an error naming the file and field. Conversion
tools (graph-to-SMILES, reactant reconstruction, table parsing, condition
interpretation) run the real implementations from the chemistry modules.
Graph-to-SMILES and reconstruction answer with the SMILES texts they
write, which the run parses once each into ``MoleculeEntry``s: the
reconstructor answers each variant's label, reactant texts and product
entry, and names the variants it skipped. The others answer with
``RGroupTableRow``s and ``ConditionItem``s. A run hands
molecules to the tools as ``MoleculeEntry``s. JSON stays at the file
edges: the sidecars, the CLI and the document.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..chemops import AliasRegistry
from ..jsonshape import Required, check_shape
from ..molgraph import GraphError, MolecularGraph, RxnscopeError, graph_from_json
from ..reaction import ConditionItem, MoleculeEntry, TableParseError, classify_condition, parse_rgroup_table
from ..rgroup import ReactionTemplate, expand_abbreviations, extract_rgroup_fragments, reconstruct_reactants
from ..smiles import write_smiles
from .bundle import Bundle


class ToolError(RxnscopeError, RuntimeError):
    pass


@dataclass
class RunContext:
    """What one run owns: its bundle and the aliases of its unknown tokens.

    The packaged abbreviation table and condition lexicon are shared by
    every run (``AbbreviationTable.default()``, ``ConditionLexicon.default()``).
    """

    bundle: Optional[Bundle]
    aliases: AliasRegistry = field(default_factory=AliasRegistry)

    def require_bundle(self) -> Bundle:
        if self.bundle is None:
            raise ToolError("this tool needs a fixture bundle")
        return self.bundle


ToolFn = Callable[[RunContext, dict], dict]


class ToolRegistry:
    def __init__(self) -> None:
        self._tools: dict[str, ToolFn] = {}

    def register(self, name: str, fn: ToolFn) -> None:
        self._tools[name] = fn

    def invoke(self, name: str, ctx: RunContext, request: dict) -> dict:
        fn = self._tools.get(name)
        if fn is None:
            raise ToolError(f"unknown tool {name!r}")
        return fn(ctx, request)


# ---------------------------------------------------------------------------
# Fixture-backed recognition stubs
# ---------------------------------------------------------------------------


def _decode_graph(data: dict, where: str) -> MolecularGraph:
    """The sidecar graph ``data`` at ``where`` as a value."""
    try:
        return graph_from_json(data)
    except GraphError as exc:
        raise ToolError(f"{where}: {exc}") from None


def _tool_image2graph(ctx: RunContext, request: dict) -> dict:
    molecules = ctx.require_bundle().read("molecules.json")
    for i, entry in enumerate(molecules):
        if "graph" in entry:
            entry["graph"] = _decode_graph(entry["graph"], f"molecules.json[{i}].graph")
        elif "smiles" not in entry:
            raise ToolError(f'molecules.json[{i}]: expected a "graph" or a "smiles"')
    return {"molecules": molecules}


def _tool_rxn_img_parser(ctx: RunContext, request: dict) -> dict:
    template = ctx.require_bundle().read("template.json")
    for key in ("reactant_templates", "product_templates"):
        for i, data in enumerate(template.get(key, [])):
            template[key][i] = _decode_graph(data, f"template.json.{key}[{i}]")
    return template


def _tool_ocr(ctx: RunContext, request: dict) -> dict:
    return {"text": ctx.require_bundle().read("text.txt").strip()}


# ---------------------------------------------------------------------------
# Real converters
# ---------------------------------------------------------------------------


def _tool_graph2smiles(ctx: RunContext, request: dict) -> dict:
    g = request.get("graph")
    if not isinstance(g, MolecularGraph):
        raise ToolError(f"bad graph payload: expected a MolecularGraph, got {type(g).__name__}")
    try:
        return {"smiles": write_smiles(expand_abbreviations(g, registry=ctx.aliases))}
    except RxnscopeError as exc:
        raise ToolError(f"cannot write graph: {exc}") from None


def _tool_table_parser(ctx: RunContext, request: dict) -> dict:
    try:
        rows = parse_rgroup_table(ctx.require_bundle().read("table.txt"))
    except TableParseError as exc:
        raise ToolError(f"table.txt: {exc}") from None
    return {"rows": rows}


# The reconstructor's request: the template's entries and the variants'.
_TEMPLATE_ENTRIES = {Required("reactants"): [MoleculeEntry], Required("products"): [MoleculeEntry]}
_VARIANTS = [{Required("smiles"): MoleculeEntry, "label": (str, None)}]


def _tool_smiles_reconstructor(ctx: RunContext, request: dict) -> dict:
    spec = request.get("template")
    try:
        check_shape(spec, _TEMPLATE_ENTRIES, "template spec", GraphError)
        sides = (tuple(e.graph for e in spec[k]) for k in ("reactants", "products"))
        template = ReactionTemplate(*sides)
        template.product_pattern  # prepared once, and both sides are there
    except RxnscopeError as exc:
        raise ToolError(f"bad template payload: {exc}") from None
    variants = request.get("variants", [])
    check_shape(variants, _VARIANTS, "variants", ToolError)
    variant_reactions: list[dict] = []
    skipped: list[str] = []
    for variant in variants:
        label = variant.get("label")
        try:
            fragments = extract_rgroup_fragments(template.product_pattern, variant["smiles"].graph)
            reactants = reconstruct_reactants(template, fragments, ctx.aliases)
        except RxnscopeError:
            skipped.append(label if label is not None else variant["smiles"].smiles)
            continue
        variant_reactions.append({"label": label, "reactants": reactants, "product": variant["smiles"]})
    return {"variant_reactions": variant_reactions, "skipped": skipped}


def _tool_condition_interpreter(ctx: RunContext, request: dict) -> dict:
    text = request.get("text", "")
    molecule_smiles: dict[str, str] = request.get("molecule_smiles", {})

    def attach(items):
        out = []
        for item in items:
            if item.role == "reagent" and item.label in molecule_smiles and item.smiles is None:
                item = replace(item, smiles=molecule_smiles[item.label])
            out.append(item)
        return out

    shared = attach(classify_condition(text)) if text else []
    per_variant: dict[str, list[ConditionItem]] = {}
    for label, notes in sorted(request.get("variant_annotations", {}).items()):
        items = []
        for note in notes:
            items.extend(attach(classify_condition(note)))
        if items:
            per_variant[label] = items
    for label, items in sorted(request.get("direct_items", {}).items()):
        per_variant.setdefault(label, []).extend(items)
    return {"shared": shared, "per_variant": per_variant}


def default_registry() -> ToolRegistry:
    registry = ToolRegistry()
    registry.register("image2graph", _tool_image2graph)
    registry.register("rxn_img_parser", _tool_rxn_img_parser)
    registry.register("ocr", _tool_ocr)
    registry.register("graph2smiles", _tool_graph2smiles)
    registry.register("table_parser", _tool_table_parser)
    registry.register("smiles_reconstructor", _tool_smiles_reconstructor)
    registry.register("condition_interpreter", _tool_condition_interpreter)
    return registry
