"""Plan construction and review.

A plan is an ordered list of agent steps with declared data flow. The
backend picks the step sequence; this module wires inputs/outputs and
checks the result for omissions, redundancies and inconsistencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..molgraph import RxnscopeError
from .bundle import InputDescriptor


class PlanningError(RxnscopeError, ValueError):
    pass


@dataclass(frozen=True)
class PlanStep:
    agent: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]
    revision: int = 0


@dataclass(frozen=True)
class Issue:
    kind: str  # omission | redundancy | inconsistency
    detail: str


AGENT_KINDS = (
    "reaction_template_parsing",
    "molecular_recognition",
    "structure_rgroup",
    "text_rgroup",
    "condition_interpretation",
    "text_extraction",
    "data_structure",
)

# Which agent must appear for each input modality to be consumed.
MODALITY_CONSUMER = {
    "reaction_template_image": "reaction_template_parsing",
    "structure_table": "structure_rgroup",
    "text_table": "text_rgroup",
    "text_description": "text_extraction",
    "molecule_image_only": "molecular_recognition",
    "plain_text_only": "text_extraction",
}


def bundle_inputs(descriptor: InputDescriptor) -> set[str]:
    """Data the bundle itself provides, keyed by modality."""
    available: set[str] = set()
    m = descriptor.modalities
    if "reaction_template_image" in m:
        available.add("bundle:template_image")
    if "structure_table" in m or "molecule_image_only" in m:
        available.add("bundle:page_image")
    if "text_table" in m:
        available.add("bundle:table_text")
    if "text_description" in m or "plain_text_only" in m:
        available.add("bundle:text")
    return available


def build_steps(kinds: list[str]) -> tuple[PlanStep, ...]:
    steps: list[PlanStep] = []
    for kind in kinds:
        if kind == "reaction_template_parsing":
            inputs: tuple[str, ...] = ("bundle:template_image",)
            outputs: tuple[str, ...] = (
                "template",
                "condition_text",
                "rgroup_formulas",
            )
        elif kind == "molecular_recognition":
            inputs = ("bundle:page_image",)
            outputs = ("molecules", "boxes")
        elif kind == "structure_rgroup":
            inputs = ("template", "molecules")
            outputs = ("assignments", "variant_reactions")
        elif kind == "text_rgroup":
            inputs = ("template", "bundle:table_text")
            outputs = ("assignments", "variant_reactions", "variant_conditions")
        elif kind == "condition_interpretation":
            inputs = ("condition_text",)
            if "molecular_recognition" in kinds:
                inputs = ("condition_text", "molecules")
            outputs = ("conditions",)
        elif kind == "text_extraction":
            inputs = ("bundle:text",)
            outputs = ("text_description", "text_annotations")
        elif kind == "data_structure":
            inputs = ()
            outputs = ("document",)
        else:
            inputs = ()
            outputs = ()
        steps.append(PlanStep(agent=kind, inputs=inputs, outputs=outputs))
    return tuple(steps)


def plan_extraction(descriptor: InputDescriptor, backend) -> Plan:
    """Ask the backend for a step sequence and wire it into a plan."""
    response = backend.respond(
        "planner", {"modalities": sorted(descriptor.modalities)}
    )
    if response.get("action") == "error":
        raise PlanningError(response.get("message", "planner refused"))
    if response.get("action") != "plan" or "steps" not in response:
        raise PlanningError(f"unusable planner response: {response!r}")
    plan = Plan(steps=build_steps(list(response["steps"])), revision=0)
    issues = review_plan(plan, descriptor)
    if issues:
        raise PlanningError(
            "backend produced a defective plan: "
            + "; ".join(f"{i.kind}: {i.detail}" for i in issues)
        )
    return plan


def review_plan(plan: Plan, descriptor: InputDescriptor) -> list[Issue]:
    """Static plan checks; an empty list means approved."""
    issues: list[Issue] = []
    kinds = [s.agent for s in plan.steps]

    for step in plan.steps:
        if step.agent not in AGENT_KINDS:
            issues.append(Issue("inconsistency", f"unknown agent kind {step.agent!r}"))

    for modality in sorted(descriptor.modalities):
        consumer = MODALITY_CONSUMER[modality]
        if consumer not in kinds:
            issues.append(
                Issue(
                    "omission",
                    f"modality {modality!r} has no consuming step ({consumer})",
                )
            )
    if not kinds or kinds[-1] != "data_structure":
        issues.append(Issue("omission", "plan must end with a data_structure step"))

    if "structure_rgroup" in kinds and "text_rgroup" in kinds:
        issues.append(
            Issue("redundancy", "both structure_rgroup and text_rgroup present")
        )
    seen: set[str] = set()
    for kind in kinds:
        if kind in seen:
            issues.append(Issue("redundancy", f"agent {kind!r} appears twice"))
        seen.add(kind)

    available = bundle_inputs(descriptor)
    for step in plan.steps:
        for needed in step.inputs:
            if needed not in available:
                issues.append(
                    Issue(
                        "inconsistency",
                        f"step {step.agent!r} consumes unproduced input {needed!r}",
                    )
                )
        available.update(step.outputs)
    return issues
