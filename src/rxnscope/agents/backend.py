"""Reasoning backends: a deterministic rule table and a remote HTTP client.

Two decision points in the pipeline go through ``respond(role,
context)``: the ``planner`` role picks the plan, and ``token_correction``
mends a table token nothing can read. The scripted backend answers from
fixed rules so runs are reproducible; the remote backend forwards the
same payload to a configured HTTP endpoint and is never used in tests.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..jsonshape import Required, read_json
from ..molgraph import RxnscopeError

# What the remote backend sends with every request.
TEMPERATURE = 0.1
TIMEOUT_S = 60.0
# What every remote answer holds; each role's reader checks the rest.
REMOTE_ANSWER = {Required("action"): str}


class BackendError(RxnscopeError, RuntimeError):
    pass


# Canonical plans per modality set. Combinations outside this table are
# a planning error, not a guess.
PLAN_TABLE: dict[frozenset, tuple[str, ...]] = {
    frozenset({"reaction_template_image", "structure_table", "text_description"}): (
        "reaction_template_parsing",
        "molecular_recognition",
        "structure_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ),
    frozenset({"reaction_template_image", "structure_table"}): (
        "reaction_template_parsing",
        "molecular_recognition",
        "structure_rgroup",
        "condition_interpretation",
        "data_structure",
    ),
    frozenset({"reaction_template_image", "text_table", "text_description"}): (
        "reaction_template_parsing",
        "text_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ),
    frozenset({"reaction_template_image", "text_table"}): (
        "reaction_template_parsing",
        "text_rgroup",
        "condition_interpretation",
        "data_structure",
    ),
    frozenset({"molecule_image_only"}): (
        "molecular_recognition",
        "data_structure",
    ),
    frozenset({"molecule_image_only", "text_description"}): (
        "molecular_recognition",
        "text_extraction",
        "data_structure",
    ),
    frozenset({"plain_text_only"}): (
        "text_extraction",
        "data_structure",
    ),
}


def edit_distance(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


class ScriptedBackend:
    """Rule-table reasoning; same inputs always give the same answer."""

    def respond(self, role: str, context: dict) -> dict:
        if role == "planner":
            modalities = frozenset(context.get("modalities", []))
            steps = PLAN_TABLE.get(modalities)
            if steps is None:
                return {
                    "action": "error",
                    "message": f"no plan for modality set {sorted(modalities)}",
                }
            return {"action": "plan", "steps": list(steps)}
        if role == "token_correction":
            token = context.get("token", "")
            vocabulary = context.get("vocabulary", [])
            if token in vocabulary:
                return {"action": "keep", "token": token}
            # Lengths that differ by more than one are more than one edit apart.
            candidates = sorted(
                v
                for v in vocabulary
                if abs(len(v) - len(token)) <= 1 and edit_distance(token, v) == 1
            )
            if candidates:
                return {"action": "correct", "token": candidates[0]}
            return {"action": "keep", "token": token}
        raise BackendError(f"no rule for role {role!r}")


class RemoteBackend:
    """HTTP JSON client for a hosted reasoning model.

    Configured through arguments or the RXNSCOPE_REMOTE_URL /
    RXNSCOPE_REMOTE_TOKEN / RXNSCOPE_REMOTE_MODEL environment variables.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        token: Optional[str] = None,
        model: Optional[str] = None,
    ):
        self.url = url or os.environ.get("RXNSCOPE_REMOTE_URL")
        self.token = token or os.environ.get("RXNSCOPE_REMOTE_TOKEN")
        self.model = model or os.environ.get("RXNSCOPE_REMOTE_MODEL", "")
        if not self.url:
            raise BackendError(
                "remote backend needs a URL (RXNSCOPE_REMOTE_URL or --url)"
            )

    def respond(self, role: str, context: dict) -> dict:
        # Imported here, not with the module: urllib.request loads http.client,
        # email, ssl and socket, which only a remote request uses, and every
        # run would otherwise pay for them at start-up.
        import http.client
        import urllib.request

        payload = {
            "role": role,
            "context": context,
            "model": self.model,
            "temperature": TEMPERATURE,
        }
        data = json.dumps(payload).encode()
        try:
            req = urllib.request.Request(
                self.url, data=data, headers={"Content-Type": "application/json"}
            )
            if self.token:
                req.add_header("Authorization", f"Bearer {self.token}")
            with urllib.request.urlopen(req, timeout=TIMEOUT_S) as resp:
                text = resp.read().decode("utf-8")
        # UnicodeDecodeError is a ValueError: it goes first to keep its message.
        except UnicodeDecodeError as exc:
            raise BackendError(f"remote backend answer is not UTF-8 text: {exc}") from None
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise BackendError(f"remote backend request to {self.url!r} failed: {exc}") from None
        return read_json(text, REMOTE_ANSWER, "remote backend answer", BackendError)
