"""The public surface of ``src/`` is what the package and its scripts run.

A public module-level function, or a public method of a public class,
that nothing in ``src/`` or ``scripts/`` names outside its own
definition is code only tests call. It must go, or be listed in an
``__all__``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "rxnscope").rglob("*.py"))
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))

# Public but not yet called, each for a stated reason.
UNCALLED = {
    # ROADMAP item 9 wires stereo perception into the pipeline.
    ("chemops", "perceive_stereo"),
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(REPO / "src" / "rxnscope").with_suffix("")
    return ".".join(rel.parts)


def _definitions(tree: ast.Module):
    """(name, node) of each public function and public class method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield item.name, item


def _references(tree: ast.Module):
    """(name, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unreferenced_names() -> set[tuple[str, str]]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + SCRIPTS}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    exported = set().union(*(_exported(trees[path]) for path in SOURCES))
    out = set()
    for path in SOURCES:
        for name, node in _definitions(trees[path]):
            if name in exported:
                continue
            used = any(
                ref == name
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, found in refs.items()
                for ref, line in found
            )
            if not used:
                out.add((_module_name(path), name))
    return out


def test_every_public_name_has_a_caller():
    assert unreferenced_names() - UNCALLED == set()


def test_named_exceptions_are_still_uncalled():
    assert UNCALLED <= unreferenced_names()


def test_outside_json_is_decoded_in_one_place():
    # ``jsonshape.read_json`` decodes every JSON text from outside and
    # checks its shape; a second decoder would skip one or both.
    calls = [
        (_module_name(path), node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load", "loads")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
    ]
    assert [module for module, _ in calls] == ["jsonshape"]


def test_tokens_become_wildcards_in_one_module():
    # ``rgroup`` turns each token that nothing reads into its aliased
    # wildcard (``bind_placeholders``, ``expand_abbreviations``), so the
    # wildcards a run makes are counted in one place.
    calls = [
        (_module_name(path), node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wildcard"
    ]
    assert calls and {module for module, _ in calls} == {"rgroup"}


# Loaded only by ``RemoteBackend.respond``: a run that sends no request
# must not pay for the HTTP stack at start-up.
HTTP_STACK = ("urllib.request", "http.client", "ssl", "socket", "email.parser")


def test_start_up_leaves_the_http_stack_unloaded():
    # Compare before and after the import, so modules that ``site``
    # preloads do not count.
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import rxnscope.cli, rxnscope.agents\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(json.loads(out))
    assert "rxnscope.cli" in added
    assert added.isdisjoint(HTTP_STACK), sorted(added & set(HTTP_STACK))


def test_every_pattern_is_compiled_at_module_level():
    # A pattern bound at module level is compiled once, and the linear-time
    # harness (``tests/test_linear_time.py``) finds it there; a pattern
    # passed to ``re.search`` and the like is neither.
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        bound = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)}
        calls += [
            (_module_name(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and not (node.func.attr == "compile" and id(node) in bound)
        ]
    assert calls == []
