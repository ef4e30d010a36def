"""Input descriptors and the on-disk fixture bundle.

A bundle is a directory of sidecar files standing in for the perception
tools. ``SIDECARS`` states each file's shape and what an absent file reads
as, and ``Bundle.read`` is the one reader that checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..jsonshape import read_json
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


# Each sidecar's shape (``jsonshape`` terms) and the text an absent file
# reads as (None: the file is required); a missing key reads as the
# default its reader gives. A graph is a plain ``dict`` here: the tool
# that reads it decodes it with ``molgraph.graph_from_json``.
SIDECARS: dict[str, tuple[Any, Optional[str]]] = {
    "descriptor.json": ({"modalities": [str]}, None),
    "template.json": (
        {
            "reactant_templates": [dict],
            "product_templates": [dict],
            "reactant_labels": [(str, None)],
            "product_labels": [(str, None)],
            "rgroup_formulas": {str: str},
            "condition_text": str,
        },
        None,
    ),
    "molecules.json": (
        [{"graph": dict, "smiles": str, "label": (str, None), "annotations": [str]}],
        None,
    ),
    "text.txt": (str, ""),
    "table.txt": (str, None),
}


class Bundle:
    """Directory of sidecar files standing in for the perception tools."""

    def __init__(self, root: Path, descriptor: Optional[InputDescriptor]):
        self.root = Path(root)
        self.descriptor = descriptor

    @classmethod
    def load(cls, path: str | Path) -> "Bundle":
        root = Path(path)
        modalities = cls(root, None).read("descriptor.json").get("modalities", [])
        return cls(root, InputDescriptor(frozenset(modalities), bundle_path=root))

    def read(self, name: str) -> Any:
        """Sidecar ``name`` as ``SIDECARS`` states it: JSON decoded, text as is.

        Raises ``DescriptorError`` naming the file when it is not a sidecar,
        required and absent, unreadable, not UTF-8, not JSON or not of its
        shape.
        """
        if name not in SIDECARS:
            raise DescriptorError(f"{name}: no such bundle sidecar")
        shape, absent = SIDECARS[name]
        try:
            text = (self.root / name).read_text(encoding="utf-8")
        except FileNotFoundError:
            if absent is None:
                raise DescriptorError(f"{name} is missing") from None
            text = absent
        except UnicodeDecodeError as exc:
            raise DescriptorError(f"{name} is not UTF-8 text: {exc}") from None
        except OSError as exc:
            raise DescriptorError(f"{name} cannot be read: {exc.strerror}") from None
        if name.endswith(".json"):
            return read_json(text, shape, name, DescriptorError)
        return text
