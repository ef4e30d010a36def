"""Plan construction and review.

A plan is an ordered list of agent steps with declared data flow. The
backend picks the step sequence; this module wires inputs/outputs and
checks the result for omissions, redundancies and inconsistencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jsonshape import Required, check_shape
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


@dataclass(frozen=True)
class Issue:
    kind: str  # omission | redundancy | inconsistency
    detail: str


# Each agent kind's inputs and outputs. A ``bundle:`` input is read from
# the bundle; every other input is an earlier step's output.
AGENT_IO: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "reaction_template_parsing": (
        ("bundle:template_image",),
        ("template", "condition_text"),
    ),
    "molecular_recognition": (("bundle:page_image",), ("molecules",)),
    "structure_rgroup": (("template", "molecules"), ("variant_reactions",)),
    "text_rgroup": (("template", "bundle:table_text"), ("variant_reactions", "variant_conditions")),
    "condition_interpretation": (("condition_text",), ("conditions",)),
    "text_extraction": (("bundle:text",), ("text_description",)),
    "data_structure": ((), ("document",)),
}

AGENT_KINDS = tuple(AGENT_IO)

# Inputs a kind also consumes when an earlier step of the plan produces them.
OPTIONAL_INPUTS: dict[str, tuple[str, ...]] = {
    "condition_interpretation": ("molecules", "variant_conditions"),
}

# Each modality's bundle input, and the agent that must appear to consume it.
MODALITY_IO = {
    "reaction_template_image": ("bundle:template_image", "reaction_template_parsing"),
    "structure_table": ("bundle:page_image", "structure_rgroup"),
    "text_table": ("bundle:table_text", "text_rgroup"),
    "text_description": ("bundle:text", "text_extraction"),
    "molecule_image_only": ("bundle:page_image", "molecular_recognition"),
    "plain_text_only": ("bundle:text", "text_extraction"),
}


# The backend's answers, in ``jsonshape`` terms.
PLANNER_ANSWER = {"action": str, "steps": [str], "message": str}
TOKEN_CORRECTION_ANSWER = {"action": str, Required("token"): str}


def build_steps(kinds: list[str]) -> tuple[PlanStep, ...]:
    steps: list[PlanStep] = []
    produced: set[str] = set()
    for kind in kinds:
        inputs, outputs = AGENT_IO.get(kind, ((), ()))
        inputs += tuple(i for i in OPTIONAL_INPUTS.get(kind, ()) if i in produced)
        steps.append(PlanStep(agent=kind, inputs=inputs, outputs=outputs))
        produced.update(outputs)
    return tuple(steps)


def plan_extraction(descriptor: InputDescriptor, backend) -> Plan:
    """Ask the backend for a step sequence and wire it into a plan."""
    response = backend.respond(
        "planner", {"modalities": sorted(descriptor.modalities)}
    )
    check_shape(response, PLANNER_ANSWER, "planner answer", PlanningError)
    if response.get("action") == "error":
        raise PlanningError(response.get("message", "planner refused"))
    if response.get("action") != "plan" or "steps" not in response:
        raise PlanningError(f"unusable planner response: {response!r}")
    plan = Plan(steps=build_steps(list(response["steps"])))
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
        _, consumer = MODALITY_IO[modality]
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

    available = {MODALITY_IO[m][0] for m in descriptor.modalities}
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
