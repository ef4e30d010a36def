"""Stepwise plan execution: tools, observation, assembly.

Each agent kind is a step function that calls its tools through the run
and stores its results in the run's memory, a dict that holds exactly the
plan's data flow: a step writes only the outputs ``planner.AGENT_IO``
declares for it, and every key it writes is read by a later step or by
``execute_plan``. Each step runs once, and the observer checks its
output. A step whose check fails, or whose tool fails, marks its
declared outputs failed; every later step that consumes one of them is
skipped (degraded), and no record is built from them. The run fails only
when it wrote no document.
"""

from __future__ import annotations

import logging
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Callable, Optional

from ..jsonshape import check_shape
from ..molgraph import MolecularGraph, RxnscopeError, main_component
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
from ..rgroup import Binding, substitute_placeholders
from ..smiles import SmilesParseError, parse_scope, parse_smiles
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
    text_annotations: tuple[str, ...]
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


def _summary(value: Any) -> Any:
    """``value`` as trace JSON: a graph as its atom and bond counts.

    The one place a run turns tool values into JSON.
    """
    if isinstance(value, MolecularGraph):
        return {"atoms": len(value.atoms), "bonds": len(value.bonds)}
    if isinstance(value, ConditionItem):
        return condition_to_json(value)
    if isinstance(value, RGroupTableRow):
        return table_row_to_json(value)
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


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------


def _step_reaction_template_parsing(run: _Run) -> dict:
    resp = run.invoke("rxn_img_parser", {})
    formulas = resp.get("rgroup_formulas", {})
    # Each formula is read once. One that reads as nothing stays a string,
    # which ``substitute_placeholders`` turns into an alias wildcard.
    table = AbbreviationTable.default()
    bindings = {label: table.read(text) or text for label, text in formulas.items()}

    def to_smiles(graphs: list[MolecularGraph]) -> list[str]:
        out = []
        for g in graphs:
            if bindings:
                g = substitute_placeholders(g, bindings, registry=run.ctx.aliases)
            smi = run.invoke("graph2smiles", {"graph": g})["smiles"]
            out.append(smi)
        return out

    reactants = to_smiles(resp.get("reactant_templates", []))
    products = to_smiles(resp.get("product_templates", []))
    for label, formula in sorted(formulas.items()):
        if formula in run.ctx.aliases.items():
            log.warning(
                "template formula %s = %r is no known token or formula; it became a wildcard",
                label, formula,
            )
    template = {
        "reactants": reactants,
        "products": products,
        "reactant_labels": list(resp.get("reactant_labels", [])),
        "product_labels": list(resp.get("product_labels", [])),
    }
    run.memory.update(template=template, condition_text=resp.get("condition_text", ""))
    return {"smiles": reactants + products}


def _step_molecular_recognition(run: _Run) -> dict:
    boxes = run.invoke("mol_detector", {})["boxes"]
    raw = run.invoke("image2graph", {})["molecules"]
    molecules: list[dict] = []
    emitted: list[str] = []
    for entry in raw:
        if "graph" in entry:
            smi = run.invoke("graph2smiles", {"graph": entry["graph"]})["smiles"]
        else:
            smi = entry["smiles"]
        molecules.append(
            {
                "label": entry.get("label"),
                "smiles": smi,
                "annotations": list(entry.get("annotations", [])),
            }
        )
        emitted.append(smi)
    run.memory["molecules"] = molecules
    return {
        "smiles": emitted,
        "molecule_count": len(molecules),
        "box_count": len(boxes),
    }


def _is_concrete(smiles: str) -> bool:
    """Whether ``smiles`` parses to a molecule with no placeholder atom."""
    try:
        return not parse_smiles(smiles).placeholder_indices()
    except SmilesParseError:
        return False


def _step_structure_rgroup(run: _Run) -> dict:
    template = run.memory["template"]
    variants = [
        {"smiles": m["smiles"], "label": m.get("label")}
        for m in run.memory["molecules"]
        if _is_concrete(m["smiles"])
    ]
    resp = run.invoke(
        "smiles_reconstructor",
        {
            "template": {
                "reactants": template["reactants"],
                "products": template["products"],
            },
            "variants": variants,
        },
    )
    run.memory["variant_reactions"] = resp["variant_reactions"]
    return {"smiles": [s for vr in resp["variant_reactions"] for s in vr["reactants"]]}


def _step_text_rgroup(run: _Run) -> dict:
    template = run.memory["template"]
    rows = run.invoke("table_parser", {})["rows"]
    table = AbbreviationTable.default()
    vocabulary = table.tokens()
    reactant_graphs = [parse_smiles(s) for s in template["reactants"]]
    product_graphs = [parse_smiles(s) for s in template["products"]]

    @cache
    def read_cell(token: str) -> Binding:
        """The cell's fragment, or the token itself if nothing reads it.

        Each distinct token is read once per step. A token that reads as
        nothing goes to the backend once; its answer is read the same way.
        A token left as a string becomes an alias wildcard when
        ``substitute_placeholders`` splices it.
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
        fragment = table.read(answer["token"])
        if fragment is not None:
            return fragment
        log.warning(
            "table cell %r: token_correction answer %r is no known token or formula;"
            " the cell is kept and becomes a wildcard",
            token, answer["token"],
        )
        return token

    variant_reactions: list[dict] = []
    variant_conditions: dict[str, list[ConditionItem]] = {}
    emitted: list[str] = []
    for row in rows:
        values = {label: read_cell(cell) for label, cell in sorted(row.values.items())}
        metadata = row.metadata
        label = metadata.get("product")

        def instantiate(graphs: list) -> list[str]:
            out = []
            for g in graphs:
                spliced = substitute_placeholders(g, values, table, run.ctx.aliases)
                out.append(run.invoke("graph2smiles", {"graph": main_component(spliced)})["smiles"])
            return out

        reactants = instantiate(reactant_graphs)
        products = instantiate(product_graphs)
        emitted.extend(reactants + products)
        variant_reactions.append(
            {
                "label": label,
                "reactants": reactants,
                "product": products[0] if products else None,
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
        label = m.get("label")
        if not label:
            continue
        if m.get("annotations"):
            variant_annotations[label] = list(m["annotations"])
        if _is_concrete(m["smiles"]):
            molecule_smiles[label] = m["smiles"]
    request: dict = {
        "text": run.memory["condition_text"],
        "variant_annotations": variant_annotations,
        "molecule_smiles": molecule_smiles,
    }
    if "variant_conditions" in run.memory:
        request["direct_items"] = run.memory["variant_conditions"]
    resp = run.invoke("condition_interpreter", request)
    run.memory["conditions"] = resp
    emitted = [item.smiles for item in resp.get("shared", []) if item.smiles is not None]
    for items in resp.get("per_variant", {}).values():
        emitted.extend(item.smiles for item in items if item.smiles is not None)
    return {"smiles": emitted}


def _step_text_extraction(run: _Run) -> dict:
    text = run.invoke("ocr", {})["text"]
    run.invoke("ner", {})
    annotations = run.invoke("rxn_extractor", {}).get("annotations", [])
    run.memory.update(text_description=text, text_annotations=list(annotations))
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
        r_labels = template.get("reactant_labels", [])
        p_labels = template.get("product_labels", [])
        reactants = tuple(
            MoleculeEntry(smiles=s, label=r_labels[i] if i < len(r_labels) else None)
            for i, s in enumerate(template["reactants"])
        )
        products = tuple(
            MoleculeEntry(smiles=s, label=p_labels[i] if i < len(p_labels) else None)
            for i, s in enumerate(template["products"])
        )
        records.append(
            ReactionRecord(
                reaction_id="0_1",
                reactants=reactants,
                conditions=tuple(shared_items),
                products=products,
            )
        )

    if variant_reactions:
        base: list[ReactionRecord] = []
        for i, vr in enumerate(variant_reactions, start=1):
            base.append(
                ReactionRecord(
                    reaction_id=f"{i}_1",
                    reactants=tuple(MoleculeEntry(smiles=s) for s in vr["reactants"]),
                    products=(
                        MoleculeEntry(smiles=vr["product"], label=vr.get("label")),
                    ),
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

    document = encode_records(records, m.get("text_description", ""), m.get("molecules"))
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

    Texts are parsed through ``parse_smiles``, so inside ``execute_plan``'s
    parse scope a text the step already parsed is not parsed again. An
    R-group step's texts must hold no placeholder.
    """
    reasons = []
    for smi in output.get("smiles", []):
        try:
            g = parse_smiles(smi)
        except SmilesParseError as exc:
            reasons.append(f"unparseable SMILES {smi!r}: {exc}")
            continue
        if kind in ("structure_rgroup", "text_rgroup") and g.placeholder_indices():
            reasons.append(f"placeholder residue in reconstruction {smi!r}")
    if kind == "molecular_recognition":
        expected = output.get("box_count")
        got = output.get("molecule_count")
        if expected is not None and got != expected:
            reasons.append(f"{got} molecules for {expected} detected regions")
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

    The whole run is one parse scope: a SMILES text that parses is parsed
    once, however many steps, checks and tools read it again.
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
    with parse_scope():
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
            text_annotations=tuple(m.get("text_annotations", ())),
            trace=tuple(run.trace),
            document=m["document"],
        )
