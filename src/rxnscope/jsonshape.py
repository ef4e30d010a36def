"""How JSON from outside is read: ``read_json`` decodes a text and checks
its shape; ``check_shape`` checks a value that arrived already decoded.

A shape is a type (str, int, dict, list) or None (JSON null), matched by
type, or a tuple of them, matching any one. ``[s]`` is a list whose items
match ``s``. ``{key: s, ...}`` is an object whose listed keys, where
present, match their shapes; a key written ``Required("key")`` must be
present, or the check fails with ``<where>.key: missing``.
``Closed({key: s, ...})`` is such an object that holds no other key: an
unlisted key fails with ``<where>.key: unexpected``. ``{str: s}`` is an
object whose every value matches ``s``. A type that JSON has no name for
(a value handed between tools) is named by its class.
"""

from __future__ import annotations

import json
from typing import Any


class Required(str):
    """An object key that must be present."""


class Closed(dict):
    """An object shape whose unlisted keys fail the check."""


_KIND_NAMES = {str: "a string", int: "an integer", dict: "an object", list: "a list", None: "null"}


def check_shape(value: Any, shape: Any, where: str, error: type[Exception]) -> None:
    """Raise ``error`` naming the first place where ``value`` leaves ``shape``."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise error(f"{where}: expected a list")
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]", error)
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise error(f"{where}: expected an object")
        for key, sub in shape.items():
            if key is str:
                for name, item in value.items():
                    check_shape(item, sub, f"{where}.{name}", error)
            elif key in value:
                check_shape(value[key], sub, f"{where}.{key}", error)
            elif isinstance(key, Required):
                raise error(f"{where}.{key}: missing")
        if isinstance(shape, Closed):
            for key in value:
                if key not in shape:
                    raise error(f"{where}.{key}: unexpected")
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        matched = any(value is None if k is None else isinstance(value, k) for k in kinds)
        # No shape holds a bool, which would otherwise pass as an int.
        if isinstance(value, bool) or not matched:
            names = (_KIND_NAMES.get(k) or f"a {k.__name__}" for k in kinds)
            raise error(f"{where}: expected " + " or ".join(names))


def read_json(text: str, shape: Any, where: str, error: type[Exception]) -> Any:
    """The JSON value of ``text``; ``error`` names ``where`` if the text does
    not decode (not JSON, too deep, a too long integer) or leaves ``shape``."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None
    check_shape(value, shape, where, error)
    return value
