"""Input descriptors and the on-disk fixture bundle."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..molgraph import RxnscopeError

MODALITIES = frozenset(
    {
        "reaction_template_image",
        "structure_table",
        "text_table",
        "text_description",
        "molecule_image_only",
        "plain_text_only",
    }
)

_TABLE_LIKE = frozenset(
    {"reaction_template_image", "structure_table", "text_table"}
)


class DescriptorError(RxnscopeError, ValueError):
    pass


@dataclass(frozen=True)
class InputDescriptor:
    modalities: frozenset[str]
    bundle_path: Optional[Path] = None

    def __post_init__(self) -> None:
        if not self.modalities:
            raise DescriptorError("descriptor needs at least one modality")
        unknown = self.modalities - MODALITIES
        if unknown:
            raise DescriptorError(f"unknown modalities: {sorted(unknown)}")
        if "molecule_image_only" in self.modalities and (
            self.modalities & _TABLE_LIKE
        ):
            raise DescriptorError(
                "molecule_image_only cannot combine with table or template modalities"
            )
        if "plain_text_only" in self.modalities and len(self.modalities) > 1:
            raise DescriptorError("plain_text_only must be the sole modality")


class Bundle:
    """Directory of pre-extracted tool outputs driving an offline run."""

    def __init__(self, root: Path, descriptor: InputDescriptor):
        self.root = Path(root)
        self.descriptor = descriptor

    @classmethod
    def load(cls, path: str | Path) -> "Bundle":
        root = Path(path)
        desc_path = root / "descriptor.json"
        if not desc_path.is_file():
            raise DescriptorError(f"no descriptor.json in {root}")
        raw = _load_json(desc_path)
        modalities = raw.get("modalities", []) if isinstance(raw, dict) else None
        if not isinstance(modalities, list) or not all(
            isinstance(m, str) for m in modalities
        ):
            raise DescriptorError(
                f"{desc_path} must be an object whose modalities are a list of strings"
            )
        descriptor = InputDescriptor(modalities=frozenset(modalities), bundle_path=root)
        return cls(root, descriptor)

    def has(self, name: str) -> bool:
        return (self.root / name).is_file()

    def read_json(self, name: str) -> Any:
        return _load_json(self.root / name)

    def read_text(self, name: str) -> str:
        return _read_text(self.root / name)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DescriptorError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json(path: Path) -> Any:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"{path} is not valid JSON: {exc}") from None
