"""Stepwise plan execution: tools, observation, assembly.

Each agent kind is a step function that calls its tools through the run
and stores its results in the run's memory, a dict that holds exactly the
plan's data flow: a step writes only the outputs ``planner.AGENT_IO``
declares for it, and every key it writes is read by a later step or by
``execute_plan``. Molecules travel as ``MoleculeEntry`` values: a run
parses each distinct text it meets once, whether read from outside
(sidecar ``smiles`` fields) or written by a tool from a graph. Each step
runs once, and the observer checks its output. A step whose check
fails, or whose tool fails, marks its declared outputs failed; every
later step that consumes one of them is skipped (degraded), and no
record is built from them. The run fails only when it wrote no document.
"""

from __future__ import annotations

import logging
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Callable, Optional, Union

from ..jsonshape import check_shape
from ..molgraph import MolecularGraph, RxnscopeError
from ..reaction import (
    ConditionItem,
    MoleculeEntry,
    ReactionRecord,
    RGroupTableRow,
    align_conditions,
    condition_to_json,
    encode_records,
    table_row_to_json,
    validate_record,
)
from ..rgroup import Binding, ReactionTemplate, bind_placeholders
from ..smiles import SmilesParseError
from ..chemops import AbbreviationTable
from .backend import BackendError, ScriptedBackend
from .bundle import Bundle, DescriptorError, InputDescriptor
from .planner import TOKEN_CORRECTION_ANSWER, Plan, review_plan
from .tools import RunContext, ToolError, ToolRegistry, default_registry


log = logging.getLogger(__name__)


class ExecutionError(RxnscopeError, RuntimeError):
    def __init__(self, message: str, trace: tuple):
        self.trace = trace
        super().__init__(message)


class _StepFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class ExtractionResult:
    records: tuple[ReactionRecord, ...]
    trace: tuple[dict, ...]
    document: str


# The trace of the run in progress in this context (thread or task).
_run_trace: ContextVar[Optional[list]] = ContextVar("_run_trace", default=None)


class _TraceLogHandler(logging.Handler):
    """Appends each warning under ``rxnscope`` to the current run's trace.

    Outside a run, with no handler configured, a warning goes where it
    would go without this handler: to ``logging.lastResort`` (stderr).
    """

    def emit(self, record: logging.LogRecord) -> None:
        trace = _run_trace.get()
        if trace is not None:
            trace.append(
                {
                    "type": "log",
                    "level": record.levelname,
                    "message": record.getMessage(),
                }
            )
        elif logging.lastResort is not None and not logging.root.handlers:
            logging.lastResort.handle(record)


logging.getLogger("rxnscope").addHandler(_TraceLogHandler(logging.WARNING))


# How a run writes each of its value types as JSON.
_JSON_OF: dict[type, Callable[[Any], Any]] = {
    MolecularGraph: lambda g: {"atoms": len(g.atoms), "bonds": len(g.bonds)},
    MoleculeEntry: lambda e: e.smiles,
    ConditionItem: condition_to_json,
    RGroupTableRow: table_row_to_json,
}


def _summary(value: Any) -> Any:
    """``value`` as JSON, a graph as its atom and bond counts: the one place
    a run turns its values into JSON (the trace, a document's molecules)."""
    json_of = _JSON_OF.get(type(value))
    if json_of is not None:
        return json_of(value)
    if isinstance(value, dict):
        return {key: _summary(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_summary(v) for v in value]
    return value


class _Run:
    def __init__(
        self,
        bundle: Optional[Bundle],
        registry: ToolRegistry,
        backend,
    ):
        self.ctx = RunContext(bundle=bundle)
        self.registry = registry
        self.backend = backend
        self.memory: dict[str, Any] = {}
        self.failed: set[str] = set()
        self.trace: list[dict] = []
        self.current_step: Optional[str] = None
        # The entry of each text the run met, so that a text met twice (a
        # template's starting material is drawn too; the reconstructor hands
        # every variant the placeholder-free reactant) is parsed once.
        self.entries: dict[str, MoleculeEntry] = {}

    def invoke(self, tool: str, request: dict) -> dict:
        """Call ``tool`` once and trace it, each graph as its atom and bond counts.

        A ``ToolError``, or a ``DescriptorError`` from a faulty sidecar,
        fails the step.
        """
        entry = {"type": "tool", "step": self.current_step, "tool": tool, "request": _summary(request)}
        try:
            response = self.registry.invoke(tool, self.ctx, request)
        except (ToolError, DescriptorError) as exc:
            entry.update(response=None, status="error", error=str(exc))
            self.trace.append(entry)
            raise _StepFailure(f"tool {tool!r} failed: {exc}") from None
        entry.update(response=_summary(response), status="ok")
        self.trace.append(entry)
        return response

    def entry(self, text: str, label: Optional[str] = None) -> Union[MoleculeEntry, str]:
        """The entry of a molecule text this run met, under ``label``.

        The first time the run meets a text it parses it; after that, the
        entry held for the text is handed on. A text that does not parse
        comes back as it is, for the observer to name.
        """
        held = self.entries.get(text)
        if held is None:
            try:
                held = self.entries[text] = MoleculeEntry(text)
            except SmilesParseError:
                return text
        return held.with_label(label)

    def write(self, graph: MolecularGraph, label: Optional[str] = None):
        """The entry of ``graph`` as the ``graph2smiles`` tool writes it."""
        return self.entry(self.invoke("graph2smiles", {"graph": graph})["smiles"], label)


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------


def _step_reaction_template_parsing(run: _Run) -> dict:
    resp = run.invoke("rxn_img_parser", {})
    formulas = resp.get("rgroup_formulas", {})
    # Each formula is read once. One that reads as nothing stays a string,
    # which ``bind_placeholders`` turns into an alias wildcard.
    table = AbbreviationTable.default()
    bindings = {label: table.read(text) or text for label, text in formulas.items()}

    def entries(side: str) -> list:
        labels = resp.get(f"{side}_labels", [])
        out = []
        for i, g in enumerate(resp.get(f"{side}_templates", [])):
            g = bind_placeholders(g, bindings, run.ctx.aliases)
            out.append(run.write(g, labels[i] if i < len(labels) else None))
        return out

    reactants = entries("reactant")
    products = entries("product")
    for label, formula in sorted(formulas.items()):
        if formula in run.ctx.aliases.items():
            log.warning(
                "template formula %s = %r is no known token or formula; it became a wildcard",
                label, formula,
            )
    template = {"reactants": reactants, "products": products}
    run.memory.update(template=template, condition_text=resp.get("condition_text", ""))
    return {"smiles": reactants + products}


def _step_molecular_recognition(run: _Run) -> dict:
    molecules: list[dict] = []
    for drawn in run.invoke("image2graph", {})["molecules"]:
        if "graph" in drawn:
            smiles = run.invoke("graph2smiles", {"graph": drawn["graph"]})["smiles"]
        else:
            smiles = drawn["smiles"]
        molecules.append(
            {"label": drawn.get("label"), "smiles": smiles, "annotations": list(drawn.get("annotations", []))}
        )
    # The texts, written or read from the sidecar, are parsed once the
    # drawn graphs are dropped: parsing while they were held ran the
    # collector a fifth more often, 4 % of the time of a structure_scope op.
    for m in molecules:
        m["smiles"] = run.entry(m["smiles"], m["label"])
    run.memory["molecules"] = molecules
    return {"smiles": [m["smiles"] for m in molecules]}


def _step_structure_rgroup(run: _Run) -> dict:
    variants = [
        {"smiles": m["smiles"], "label": m["label"]}
        for m in run.memory["molecules"]
        if not m["smiles"].graph.placeholder_indices()
    ]
    resp = run.invoke(
        "smiles_reconstructor", {"template": run.memory["template"], "variants": variants}
    )
    variant_reactions = [
        {**vr, "reactants": [run.entry(e) for e in vr["reactants"]]}
        for vr in resp["variant_reactions"]
    ]
    run.memory["variant_reactions"] = variant_reactions
    return {"smiles": [e for vr in variant_reactions for e in vr["reactants"]]}


def _step_text_rgroup(run: _Run) -> dict:
    template = run.memory["template"]
    if not template["products"]:
        raise _StepFailure("the template has no product")
    rows = run.invoke("table_parser", {})["rows"]
    table = AbbreviationTable.default()
    vocabulary = table.tokens()

    @cache
    def read_cell(token: str) -> Binding:
        """The cell's fragment, or the token itself if nothing reads it.

        Each distinct token is read once per step. A token that reads as
        nothing goes to the backend once; an answer other than the token is
        read the same way. A token left as a string becomes an alias
        wildcard when ``bind_placeholders`` splices it.
        """
        fragment = table.read(token)
        if fragment is not None:
            return fragment
        try:
            answer = run.backend.respond(
                "token_correction", {"token": token, "vocabulary": vocabulary}
            )
        except BackendError as exc:
            raise _StepFailure(str(exc)) from None
        check_shape(answer, TOKEN_CORRECTION_ANSWER, "token_correction answer", _StepFailure)
        fragment = table.read(answer["token"]) if answer["token"] != token else None
        if fragment is not None:
            return fragment
        log.warning(
            "table cell %r: token_correction answer %r is no known token or formula;"
            " the cell is kept and becomes a wildcard",
            token, answer["token"],
        )
        return token

    # Every row instantiates the same templates; a template with no
    # placeholder is written once.
    sides = (tuple(e.graph for e in template[k]) for k in ("reactants", "products"))
    templates = ReactionTemplate(*sides)

    variant_reactions: list[dict] = []
    variant_conditions: dict[str, list[ConditionItem]] = {}
    emitted: list = []
    for row in rows:
        values = {label: read_cell(cell) for label, cell in sorted(row.values.items())}
        metadata = row.metadata
        label = metadata.get("product")
        reactants = [run.entry(t) for t in templates.instantiate("reactants", values, run.ctx.aliases)]
        products = [run.entry(t, label) for t in templates.instantiate("products", values, run.ctx.aliases)]
        emitted.extend(reactants + products)
        variant_reactions.append(
            {
                "label": label,
                "reactants": reactants,
                "product": products[0],
            }
        )
        if label:
            items = []
            for key, role in (("time", "time"), ("temp", "temperature"), ("temperature", "temperature"), ("yield", "yield")):
                if key in metadata:
                    items.append(ConditionItem(role=role, text=metadata[key]))
            if items:
                variant_conditions[label] = items
    run.memory.update(variant_reactions=variant_reactions, variant_conditions=variant_conditions)
    return {"smiles": emitted}


def _step_condition_interpretation(run: _Run) -> dict:
    variant_annotations: dict[str, list[str]] = {}
    molecule_smiles: dict[str, str] = {}
    for m in run.memory.get("molecules", []):
        label = m["label"]
        if not label:
            continue
        if m["annotations"]:
            variant_annotations[label] = list(m["annotations"])
        if not m["smiles"].graph.placeholder_indices():
            molecule_smiles[label] = m["smiles"].smiles
    request: dict = {
        "text": run.memory["condition_text"],
        "variant_annotations": variant_annotations,
        "molecule_smiles": molecule_smiles,
    }
    if "variant_conditions" in run.memory:
        request["direct_items"] = run.memory["variant_conditions"]
    # A condition's SMILES is a recognized molecule's, checked when it was
    # recognized, or a packaged solvent's: there is nothing to check here.
    run.memory["conditions"] = run.invoke("condition_interpreter", request)
    return {"smiles": []}


def _step_text_extraction(run: _Run) -> dict:
    run.memory["text_description"] = run.invoke("ocr", {})["text"]
    return {"smiles": []}


def _step_data_structure(run: _Run) -> dict:
    # No record is built from a failed step's outputs. The recognized
    # molecules are listed even when recognition failed (``encode_records``).
    m = {key: v for key, v in run.memory.items() if key not in run.failed or key == "molecules"}
    if not m.keys() & {"template", "molecules", "text_description"}:
        raise _StepFailure("nothing to structure")
    template = m.get("template", {})
    conditions = m.get("conditions", {})
    variant_reactions = m.get("variant_reactions", [])

    shared_items = conditions.get("shared", [])
    per_variant_items = dict(sorted(conditions.get("per_variant", {}).items()))

    records: list[ReactionRecord] = []
    if template.get("products"):
        records.append(
            ReactionRecord(
                reaction_id="0_1",
                reactants=tuple(template["reactants"]),
                conditions=tuple(shared_items),
                products=tuple(template["products"]),
            )
        )

    if variant_reactions:
        base: list[ReactionRecord] = []
        for i, vr in enumerate(variant_reactions, start=1):
            base.append(
                ReactionRecord(
                    reaction_id=f"{i}_1",
                    reactants=tuple(vr["reactants"]),
                    products=(vr["product"],),
                )
            )
        pv_conditions = {
            label: [it for it in items if it.role != "add_info"]
            for label, items in per_variant_items.items()
        }
        info_map = {
            label: [it.text for it in items if it.role == "add_info"]
            for label, items in per_variant_items.items()
        }
        # The shared yield entry summarizes the whole scope (a range); the
        # per-variant yield supersedes it on concrete records.
        shared_for_variants = [it for it in shared_items if it.role != "yield"]
        aligned = align_conditions(shared_for_variants, pv_conditions, base)
        for rec in aligned:
            info: list[str] = []
            for label in rec.product_labels():
                info.extend(info_map.get(label, []))
            records.append(replace(rec, additional_info=tuple(info)))

    problems: list[str] = []
    for rec in records:
        for issue in validate_record(rec):
            problems.append(f"{rec.reaction_id}: {issue}")

    # Only a document with no records lists the molecules.
    molecules = None if records else _summary(m.get("molecules"))
    document = encode_records(records, m.get("text_description", ""), molecules)
    run.memory.update(records=records, document=document)
    return {"smiles": [], "record_problems": problems}


STEP_FUNCS: dict[str, Callable[[_Run], dict]] = {
    "reaction_template_parsing": _step_reaction_template_parsing,
    "molecular_recognition": _step_molecular_recognition,
    "structure_rgroup": _step_structure_rgroup,
    "text_rgroup": _step_text_rgroup,
    "condition_interpretation": _step_condition_interpretation,
    "text_extraction": _step_text_extraction,
    "data_structure": _step_data_structure,
}


def observe_step(kind: str, output: dict) -> tuple[bool, list[str]]:
    """Check a step's output; returns (passed, reasons).

    A step hands on its molecules as entries, already parsed; a text among
    them (one that did not parse, or a direct caller's) is parsed here,
    and named with the parse's error. An R-group step's molecules must hold
    no placeholder.
    """
    reasons = []
    for item in output.get("smiles", []):
        try:
            entry = item if isinstance(item, MoleculeEntry) else MoleculeEntry(item)
        except SmilesParseError as exc:
            reasons.append(f"unparseable SMILES {item!r}: {exc}")
            continue
        if kind in ("structure_rgroup", "text_rgroup") and entry.graph.placeholder_indices():
            reasons.append(f"placeholder residue in reconstruction {entry.smiles!r}")
    if kind == "data_structure":
        reasons.extend(output.get("record_problems", []))
    return (not reasons, reasons)


def execute_plan(
    plan: Plan,
    descriptor: InputDescriptor,
    registry: Optional[ToolRegistry] = None,
    backend=None,
) -> ExtractionResult:
    """Run an approved plan over the descriptor's bundle.

    Each molecule gets its graph once, when the run first meets its text,
    a sidecar's or one written from a graph (``graph2smiles``, a
    reconstructed or instantiated reactant): the text is parsed. Steps,
    checks and tools then read the entry's graph.
    """
    registry = registry if registry is not None else default_registry()
    backend = backend if backend is not None else ScriptedBackend()
    issues = review_plan(plan, descriptor)
    if issues:
        raise ExecutionError(
            "plan not approved: "
            + "; ".join(f"{i.kind}: {i.detail}" for i in issues),
            trace=(),
        )
    bundle = (
        Bundle(descriptor.bundle_path, descriptor)
        if descriptor.bundle_path is not None
        else None
    )
    run = _Run(bundle, registry, backend)
    token = _run_trace.set(run.trace)
    try:
        for step in plan.steps:
            missing = [i for i in step.inputs if i in run.failed]
            if missing:
                run.trace.append(
                    {"type": "degraded", "step": step.agent, "missing": missing}
                )
                run.failed.update(step.outputs)
                continue
            run.current_step = step.agent
            try:
                ok, reasons = observe_step(step.agent, STEP_FUNCS[step.agent](run))
            except _StepFailure as exc:
                ok, reasons = False, [str(exc)]
            run.trace.append(
                {"type": "observer", "step": step.agent, "passed": ok, "reasons": reasons}
            )
            if not ok:
                run.trace.append({"type": "step_failed", "step": step.agent})
                run.failed.update(step.outputs)
    finally:
        _run_trace.reset(token)

    m = run.memory
    if "document" not in m:
        failed = [e["step"] for e in run.trace if e["type"] == "step_failed"]
        raise ExecutionError(
            f"the run wrote no document; failed steps: {', '.join(failed)}",
            tuple(run.trace),
        )
    return ExtractionResult(
        records=tuple(m.get("records", ())),
        trace=tuple(run.trace),
        document=m["document"],
    )
