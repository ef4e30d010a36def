"""Run memory: an append-only archive of puts and a live digest of the latest values."""

from __future__ import annotations

from typing import Any


class _Missing:
    """Absent-key marker so stored None values stay distinguishable."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<absent>"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


class Memory:
    def __init__(self) -> None:
        self._long_term: list[dict[str, Any]] = []
        self._dynamic: dict[str, Any] = {}
        self._current_step: str = ""

    def begin_step(self, step: str) -> None:
        self._current_step = step

    def put(self, key: str, value: Any) -> None:
        self._long_term.append(
            {"step": self._current_step, "key": key, "value": value}
        )
        self._dynamic[key] = value

    def get(self, key: str) -> Any:
        return self._dynamic.get(key, MISSING)

    def digest(self) -> dict[str, Any]:
        return dict(self._dynamic)

    @property
    def long_term(self) -> tuple[dict[str, Any], ...]:
        return tuple(self._long_term)

    def __len__(self) -> int:
        return len(self._long_term)
