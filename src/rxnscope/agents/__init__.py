"""Plan/execute orchestration over the extraction tool set."""

from .backend import BackendError, RemoteBackend, ScriptedBackend
from .bundle import Bundle, DescriptorError, InputDescriptor, MODALITIES
from .executor import ExecutionError, ExtractionResult, execute_plan, observe_step
from .planner import Issue, Plan, PlanStep, PlanningError, plan_extraction, review_plan
from .tools import RunContext, ToolError, ToolRegistry, default_registry

__all__ = [
    "BackendError",
    "Bundle",
    "DescriptorError",
    "ExecutionError",
    "ExtractionResult",
    "InputDescriptor",
    "Issue",
    "MODALITIES",
    "Plan",
    "PlanStep",
    "PlanningError",
    "RemoteBackend",
    "RunContext",
    "ScriptedBackend",
    "ToolError",
    "ToolRegistry",
    "default_registry",
    "execute_plan",
    "observe_step",
    "plan_extraction",
    "review_plan",
]
