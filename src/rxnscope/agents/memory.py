"""Run memory: the latest value put under each key, and a digest of them."""

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
        self._dynamic: dict[str, Any] = {}

    def put(self, key: str, value: Any) -> None:
        self._dynamic[key] = value

    def get(self, key: str) -> Any:
        return self._dynamic.get(key, MISSING)

    def digest(self) -> dict[str, Any]:
        return dict(self._dynamic)
