import copy
import json
import time
from functools import reduce

import pytest

from rxnscope.agents.bundle import SIDECARS
from rxnscope.cli import main
from rxnscope.jsonshape import Required
from rxnscope.reaction import DOCUMENT
from rxnscope.smiles import canonicalize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCanonicalize:
    def test_round_trip(self, capsys):
        code, out = run(capsys, "canonicalize", "OCC")
        assert code == 0
        assert out["canonical"] == out["input"] or out["input"] == "OCC"
        code2, out2 = run(capsys, "canonicalize", "CCO")
        assert out2["canonical"] == out["canonical"]

    def test_bad_smiles_is_domain_error(self, capsys):
        code, out = run(capsys, "canonicalize", "C1CC")
        assert code == 1
        assert "error" in out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canonicalize"])
        assert exc.value.code == 2


class TestValidate:
    def test_mixed_batch(self, capsys):
        code, out = run(capsys, "validate", "CCO", "C(C)(C)(C)(C)C", "not smiles")
        assert code == 0
        verdicts = {r["smiles"]: r["valid"] for r in out["results"]}
        assert verdicts == {
            "CCO": True,
            "C(C)(C)(C)(C)C": False,
            "not smiles": False,
        }


class TestSubstitute:
    def test_two_placeholders(self, capsys):
        code, out = run(
            capsys,
            "substitute",
            "--template", "[R1]C#CC(=O)C[R2]",
            "--assign", "R1=Ph,R2=H",
        )
        assert code == 0
        assert out["result"] == canonicalize("[H]CC(=O)C#Cc1ccccc1")
        assert out["assignment"] == {"R1": "Ph", "R2": "H"}

    def test_repeated_flag(self, capsys):
        code, out = run(
            capsys,
            "substitute",
            "--template", "[R1]C(=O)O",
            "--assign", "R1=Me",
        )
        assert code == 0
        assert out["result"] == canonicalize("CC(=O)O")

    def test_malformed_pair(self, capsys):
        code, out = run(
            capsys,
            "substitute",
            "--template", "[R1]C", "--assign", "R1:Ph",
        )
        assert code == 1
        assert "LABEL=GROUP" in out["error"]

    @pytest.mark.parametrize(
        "assign,result",
        [("R1=Zzq,R2=Qqz", "[101*]CC[100*]"), ("R1=Zzq,R2=Zzq", "[100*]CC[100*]")],
    )
    def test_unknown_tokens_alias_apart(self, capsys, assign, result):
        # Distinct unknown tokens get distinct isotopes; a repeated one keeps its own.
        code, out = run(capsys, "substitute", "--template", "[R1]CC[R2]", "--assign", assign)
        assert code == 0
        assert out["result"] == canonicalize(result)


class TestReconstruct:
    def test_acyl_template(self, capsys, tmp_path):
        spec = {
            "reactants": ["[Ar]C([R])=O"],
            "products": ["[Ar]C([R])=O"],
        }
        path = tmp_path / "template.json"
        path.write_text(json.dumps(spec))
        code, out = run(
            capsys,
            "reconstruct",
            "--template", str(path),
            "--variant", "CCC(=O)c1ccccc1",
        )
        assert code == 0
        got = [canonicalize(s) for s in out["reactants"]]
        assert got == [canonicalize("CCC(=O)c1ccccc1")]
        assert set(out["bindings"]) == {"Ar", "R"}

    def test_unmatched_variant(self, capsys, tmp_path):
        spec = {"reactants": ["[Ar]C([R])=O"], "products": ["[Ar]C([R])=O"]}
        path = tmp_path / "template.json"
        path.write_text(json.dumps(spec))
        code, out = run(
            capsys,
            "reconstruct",
            "--template", str(path),
            "--variant", "CCCC",
        )
        assert code == 1
        assert "error" in out


class TestTable:
    TEXT = "entry\tR1\tyield\n1\tPh\t78\n2\tMe\t67\n"

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(self.TEXT)
        code, out = run(capsys, "table", "--input", str(path))
        assert code == 0
        assert [r["entry"] for r in out["rows"]] == [1, 2]
        assert out["rows"][0]["values"] == {"R1": "Ph"}
        assert out["rows"][0]["metadata"] == {"yield": "78"}

    def test_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.TEXT))
        code, out = run(capsys, "table")
        assert code == 0
        assert len(out["rows"]) == 2

    def test_garbage_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("")
        code, out = run(capsys, "table", "--input", str(path))
        assert code == 1


class TestConditions:
    def test_reagent_with_loading(self, capsys):
        code, out = run(capsys, "conditions", "--text", "10 mol% Cs2CO3")
        assert code == 0
        assert [i["role"] for i in out["items"]] == ["reagent"]
        assert out["items"][0]["text"] == "10 mol% Cs2CO3"

    def test_compound_string(self, capsys):
        code, out = run(capsys, "conditions", "--text", "PhMe, rt, 24 h")
        assert code == 0
        roles = [i["role"] for i in out["items"]]
        assert roles == ["solvent", "temperature", "time"]


class TestExtract:
    def test_document_to_stdout(self, capsys, fig2_bundle):
        code = main(["extract", "--bundle", str(fig2_bundle)])
        got = capsys.readouterr().out
        assert code == 0
        golden = (fig2_bundle / "golden.json").read_text()
        assert got == golden

    def test_out_and_trace_files(self, capsys, fig2_bundle, tmp_path):
        out_path = tmp_path / "doc.json"
        trace_path = tmp_path / "trace.json"
        code, out = run(
            capsys,
            "extract",
            "--bundle", str(fig2_bundle),
            "--out", str(out_path),
            "--trace", str(trace_path),
        )
        assert code == 0
        assert out == {"written": str(out_path), "records": 7}
        assert out_path.read_text() == (fig2_bundle / "golden.json").read_text()
        trace = json.loads(trace_path.read_text())
        assert any(t.get("type") == "tool" for t in trace)

    def test_missing_bundle_is_domain_error(self, capsys, tmp_path):
        code, out = run(capsys, "extract", "--bundle", str(tmp_path / "nope"))
        assert code == 1
        assert "error" in out

    def test_bad_remote_url_is_domain_error(self, capsys, monkeypatch, fig2_bundle):
        monkeypatch.setenv("RXNSCOPE_REMOTE_URL", "not a url")
        code, out = run(capsys, "extract", "--bundle", str(fig2_bundle), "--backend", "remote")
        assert code == 1
        assert out == {
            "error": "BackendError: remote backend request to 'not a url' failed: "
            "unknown url type: 'not a url'"
        }


class TestEvaluate:
    def test_self_comparison(self, capsys, fig2_bundle):
        golden = str(fig2_bundle / "golden.json")
        code, out = run(capsys, "evaluate", "--pred", golden, "--gold", golden)
        assert code == 0
        assert out["soft"]["f1"] == 1.0
        assert out["hard"]["f1"] == 1.0
        assert out["avg_tanimoto"] == 1.0

    def test_self_comparison_output_is_pinned(self, capsys, fig2_bundle):
        golden = str(fig2_bundle / "golden.json")
        assert main(["evaluate", "--pred", golden, "--gold", golden]) == 0
        perfect = {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        counts = {"correct": 7, "predicted": 7, "gold": 7}
        share = 0.9047619047619048  # 19 of 21 molecule entries are valid
        expected = {
            "soft": {**perfect, **counts},
            "hard": {**perfect, **counts},
            "avg_tanimoto": 1.0,
            "tani_at_1": 1.0,
            "valid_rate": {"precision": share, "recall": share, "f1": share},
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_bad_role_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "pred.json"
        bad.write_text(json.dumps({
            "Text description": "",
            "reactions": [{
                "reaction_id": "1",
                "reactants": [],
                "conditions": [{"role": "banana", "text": "x"}],
                "products": [],
            }],
        }))
        golden = tmp_path / "gold.json"
        golden.write_text(json.dumps({"Text description": "", "reactions": []}))
        code, out = run(capsys, "evaluate", "--pred", str(bad), "--gold", str(golden))
        assert code == 1
        assert "conditions[0].role" in out["error"]


def _write(path, content) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _reconstruct(spec, variant="CCO"):
    return lambda tmp, fig2: [
        "reconstruct", "--template", _write(tmp / "t.json", spec), "--variant", variant,
    ]


def _evaluate(pred):
    return lambda tmp, fig2: [
        "evaluate", "--pred", _write(tmp / "p.json", pred), "--gold", str(fig2 / "golden.json"),
    ]


def _descriptor(raw):
    def argv(tmp, fig2):
        _write(tmp / "bundle" / "descriptor.json", raw)
        return ["extract", "--bundle", str(tmp / "bundle")]

    return argv


def _table(content):
    return lambda tmp, fig2: ["table", "--input", _write(tmp / "table.txt", content)]


def _fig2_with(sidecar, edit):
    """Extract from a copy of fig2 whose ``sidecar`` JSON is ``edit(original)``."""

    def argv(tmp, fig2):
        clone = tmp / "bundle"
        clone.mkdir()
        for path in fig2.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        _write(clone / sidecar, edit(json.loads((fig2 / sidecar).read_text())))
        return ["extract", "--bundle", str(clone)]

    return argv


HOSTILE = {
    "reconstruct-empty-object": (_reconstruct({}), "GraphError"),
    "reconstruct-list": (_reconstruct([]), "GraphError"),
    "reconstruct-string-side": (_reconstruct({"reactants": "C", "products": ["C"]}), "GraphError"),
    "reconstruct-not-json": (_reconstruct("{"), "GraphError"),
    "reconstruct-unlisted-key": (
        _reconstruct({"reactants": ["C"], "products": ["C"], "product": ["C"]}), "GraphError"
    ),
    "descriptor-list": (_descriptor([]), "DescriptorError"),
    "descriptor-nested-modality": (_descriptor({"modalities": [["x"]]}), "DescriptorError"),
    "descriptor-not-json": (_descriptor("{"), "DescriptorError"),
    "table-entry-zero": (_table("entry\tR1\n0\tPh\n"), "TableParseError"),
    "table-not-utf8": (_table(b"entry\tR1\n1\t\xff\n"), "RxnscopeError"),
    "reconstruct-deeply-nested": (_reconstruct("[" * 100_000), "GraphError"),
    "evaluate-not-utf8": (_evaluate(b"\xff"), "RxnscopeError"),
    "evaluate-non-list-reactants": (
        _evaluate({"reactions": [{"reaction_id": "1", "reactants": 5}]}), "CodecError"
    ),
    "evaluate-deeply-nested": (_evaluate("[" * 100_000), "CodecError"),
    "evaluate-huge-integer": (_evaluate('{"reactions": [' + "1" * 5000 + "]}"), "CodecError"),
    "evaluate-huge-charge": (
        _evaluate({"reactions": [{"reaction_id": "1", "products": [{"smiles": "[C+" + "9" * 5000 + "]"}]}]}),
        "CodecError",
    ),
    "evaluate-integer-condition-text": (
        _evaluate({"reactions": [{"reaction_id": "1", "conditions": [{"role": "reagent", "text": 5}]}]}),
        "CodecError",
    ),
    "evaluate-null-reaction-id": (_evaluate({"reactions": [{"reaction_id": None}]}), "CodecError"),
    "evaluate-object-text-description": (
        _evaluate({"Text description": {"text": "x"}, "reactions": []}), "CodecError"
    ),
    "assign-without-equals": (
        lambda tmp, fig2: ["substitute", "--template", "[R1]C", "--assign", "R1:Ph"],
        "RxnscopeError",
    ),
}


# A formula nested deeper than ``chemops.MAX_FORMULA_NESTING`` reads as
# nothing; each one read once ran out of stack.
DEEP_FORMULA = "C(" * 400 + "C" + ")" * 400


def _text_table_fig2(table):
    """Extract from a copy of fig2 read as a text table holding ``table``."""

    def argv(tmp, fig2):
        argv = _fig2_with("descriptor.json", lambda d: {"modalities": [
            "reaction_template_image", "text_table", "text_description"
        ]})(tmp, fig2)
        _write(tmp / "bundle" / "table.txt", table)
        return argv

    return argv


# A token that nothing reads: the command succeeds in bounded time, and
# the token is an aliased wildcard (isotope 100).
HOSTILE_TOKENS = {
    "substitute-formula-nested-too-deep": lambda tmp, fig2: [
        "substitute", "--template", "[R1]C", "--assign", f"R1={DEEP_FORMULA}",
    ],
    "extract-table-cell-nested-too-deep": _text_table_fig2(
        f"entry\tR\tAr\tproduct\n1\tMe\t{DEEP_FORMULA}\t3a\n"
    ),
    # Counts too long for ``int``, and one no backbone atom can carry.
    "substitute-formula-count-too-long": lambda tmp, fig2: [
        "substitute", "--template", "[R1]C", "--assign", "R1=C" + "1" * 5000,
    ],
    "substitute-phenyl-count-too-long": lambda tmp, fig2: [
        "substitute", "--template", "[R1]C", "--assign", "R1=2-Me" + "1" * 5000 + "C6H4",
    ],
    "substitute-formula-count-too-large": lambda tmp, fig2: [
        "substitute", "--template", "[R1]C", "--assign", "R1=CMe1000000000",
    ],
}


# A long run of blanks or digits that a backtracking pattern could split
# many ways: each command succeeds within a CPU-time bound that a
# quadratic reading of 100,000 characters exceeds many times over.
HOSTILE_RUNS = {
    "conditions-blank-run": ["conditions", "--text", "1" + " " * 100_000 + "x"],
    "substitute-phenyl-digit-run": [
        "substitute", "--template", "[R1]C", "--assign", "R1=1-A" + "1" * 100_000 + "C6Hx",
    ],
}


def _far_first_atom(graph: dict) -> dict:
    """``graph`` with its first atom at an x coordinate no float holds."""
    return {**graph, "atoms": [{**graph["atoms"][0], "x": 10**400, "y": 0}] + graph["atoms"][1:]}


# A mistyped sidecar fails the step that reads it: the run degrades and
# still writes a document.
HOSTILE_TEMPLATES = {
    "template-null-reactants": (
        _fig2_with("template.json", lambda t: {**t, "reactant_templates": None}),
        "reaction_template_parsing",
    ),
    "template-list-formulas": (
        _fig2_with("template.json", lambda t: {**t, "rgroup_formulas": ["Ar2"]}),
        "reaction_template_parsing",
    ),
    "template-integer-condition-text": (
        _fig2_with("template.json", lambda t: {**t, "condition_text": 7}),
        "reaction_template_parsing",
    ),
    "template-integer-graph": (
        _fig2_with("template.json", lambda t: {**t, "reactant_templates": [5]}),
        "reaction_template_parsing",
    ),
    "template-mistyped-graph-object": (
        _fig2_with("template.json", lambda t: {**t, "reactant_templates": [{"atoms": 5}]}),
        "reaction_template_parsing",
    ),
    "template-coordinate-past-float": (
        _fig2_with(
            "template.json",
            lambda t: {**t, "reactant_templates": [_far_first_atom(t["reactant_templates"][0])]},
        ),
        "reaction_template_parsing",
    ),
    # A graph that decodes but writes a text that does not parse: the step
    # fails its check, and no record is built from the template it wrote.
    "template-aromatic-atom-outside-ring": (
        _fig2_with(
            "template.json",
            lambda t: {**t, "reactant_templates": [{"atoms": [{"symbol": "c"}], "bonds": []}]},
        ),
        "reaction_template_parsing",
    ),
}
# The complete graph on 21 atoms: its SMILES needs 100 ring-bond numbers
# open at once, one more than the notation has.
K21 = {
    "atoms": [{"symbol": "C"}] * 21,
    "bonds": [{"a": i, "b": j} for i in range(21) for j in range(i + 1, 21)],
}
# Drawn graphs that write but do not read back, and the reason the
# observer gives for the text each writes.
AROMATIC_CHAIN = {
    "atoms": [{"symbol": "c"}, {"symbol": "c"}, {"symbol": "O"}],
    "bonds": [{"a": 0, "b": 1, "order": "aromatic"}, {"a": 1, "b": 2}],
}
AGREEING_MARKS = {
    "atoms": [{"symbol": "C"}] * 6,
    "bonds": [
        {"a": 0, "b": 1, "dir": "up"},
        {"a": 1, "b": 2, "order": "double"},
        {"a": 1, "b": 3, "dir": "down"},
        {"a": 2, "b": 4, "dir": "up"},
    ],
}
UNREADABLE_WRITES = {
    "molecules-aromatic-chain": (
        "unparseable SMILES 'ccO': aromatic atom 0 is not part of an aromatic ring (offset 0)"
    ),
    "molecules-agreeing-direction-marks": (
        "unparseable SMILES 'C/C(=C/C)\\\\C.C': conflicting direction marks at atom 1 (offset 2)"
    ),
}
HOSTILE_MOLECULES = {
    "molecules-aromatic-chain": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "graph": AROMATIC_CHAIN}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-agreeing-direction-marks": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "graph": AGREEING_MARKS}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-non-object-entry": (
        _fig2_with("molecules.json", lambda m: [5] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-string-annotations": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "annotations": "71%"}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-mistyped-graph-object": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "graph": {"atoms": 5}}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-ring-numbers-past-99": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "graph": K21}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-unparseable-smiles": (
        _fig2_with("molecules.json", lambda m: m[:2] + [{"label": "3", "smiles": "C1CC"}] + m[3:]),
        "molecular_recognition",
    ),
    "molecules-coordinate-past-float": (
        _fig2_with("molecules.json", lambda m: [{**m[0], "graph": _far_first_atom(m[0]["graph"])}] + m[1:]),
        "molecular_recognition",
    ),
    "molecules-integer": (_fig2_with("molecules.json", lambda m: 5), "molecular_recognition"),
    # A sidecar that is not JSON, or not UTF-8, fails its step the same way.
    "molecules-not-json": (_fig2_with("molecules.json", lambda m: b"\xff["), "molecular_recognition"),
}

# Fixture files that no step reads (None: absent). Whatever they hold, a
# fig2 copy writes its golden document, text description included.
DIRECTORY = object()
UNREAD_SIDECARS = {
    "rxn-list": ("rxn.json", []),
    "rxn-string": ("rxn.json", json.dumps("x")),
    "rxn-integer-annotations": ("rxn.json", {"annotations": 5}),
    "rxn-not-json": ("rxn.json", "{"),
    "rxn-not-utf8": ("rxn.json", b"\xff"),
    "rxn-absent": ("rxn.json", None),
    "ner-directory": ("ner.json", DIRECTORY),
    "ner-null": ("ner.json", "null"),
    "ner-empty-object": ("ner.json", {}),
    "ner-not-json": ("ner.json", "{"),
    "ner-not-utf8": ("ner.json", b"\xff"),
    "ner-absent": ("ner.json", None),
    "boxes-not-json": ("boxes.json", "{"),
    "boxes-integer": ("boxes.json", 5),
    "boxes-not-utf8": ("boxes.json", b"\xff"),
    "boxes-directory": ("boxes.json", DIRECTORY),
    "boxes-absent": ("boxes.json", None),
    # Ten well-formed boxes for fig2's 11 molecules.
    "boxes-one-short": ("boxes.json", [10, 10, 110, 110, "MOL"] * 10),
}


# The hostile-sidecar sweep: every file in ``SIDECARS`` is made absent,
# not UTF-8, not JSON, of the wrong top-level type, or of the wrong type
# at its first nested leaf, in a copy of fig2 that also holds a table.
# ``descriptor.json`` is read by ``Bundle.load``; every other file by the
# step named here.
SIDECAR_READERS = {
    "descriptor.json": None,
    "template.json": "reaction_template_parsing",
    "molecules.json": "molecular_recognition",
    "text.txt": "text_extraction",
    "table.txt": "text_rgroup",
}
SWEEP_TABLE = "entry\tR\tAr\ttime\tproduct\tyield\n1\tMe\tPh\t12 h\t3a\t71%\n"
TEXT_TABLE = {"modalities": ["reaction_template_image", "text_table", "text_description"]}


def _nested_fault(shape):
    """A value of ``shape`` down to its first leaf, which is a float."""
    if isinstance(shape, list):
        return [_nested_fault(shape[0])]
    if isinstance(shape, dict):
        key, sub = next(iter(shape.items()))
        return {"k" if key is str else key: _nested_fault(sub)}
    return 0.5


def _sidecar_faults(name, shape):
    faults = {"absent": None, "not-utf8": b"\xff"}
    if name.endswith(".json"):
        faults.update(
            {"not-json": "{", "top-level-type": "0.5", "nested-type": json.dumps(_nested_fault(shape))}
        )
    return faults


SIDECAR_SWEEP = {
    f"{name}-{fault}": (name, content)
    for name, (shape, absent) in SIDECARS.items()
    for fault, content in _sidecar_faults(name, shape).items()
    if content is not None or absent is None
}
OPTIONAL_SIDECARS = sorted(name for name, (_, absent) in SIDECARS.items() if absent is not None)


# The hostile-document sweep: a document of ``DOCUMENT``'s shape with
# every listed key once holding a fault at its first nested leaf, every
# required key once removed, and every ``products`` key renamed.
SWEEP_DOCUMENT = {
    "Text description": "scheme 1",
    "reactions": [
        {
            "reaction_id": "1_1",
            "reactants": [{"smiles": "CC(=O)c1ccccc1", "label": "1a"}],
            "conditions": [{"role": "solvent", "text": "EtOH", "smiles": "CCO", "label": "B1"}],
            "products": [{"smiles": "CC(O)c1ccccc1", "label": "2a"}],
            "additional_info": ["5:1 dr"],
        }
    ],
    "molecules": [{"smiles": "CCO", "label": "B1"}],
}


def _document_keys(shape, path=()):
    """(path, shape, required) of every listed key of ``shape``, outermost first."""
    if isinstance(shape, list):
        yield from _document_keys(shape[0], path + (0,))
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            yield path + (key,), sub, isinstance(key, Required)
            yield from _document_keys(sub, path + (key,))


def _document_path(path) -> str:
    return "document" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _document_with(path, content):
    """``SWEEP_DOCUMENT`` with ``content`` at ``path``, or without the key if None."""
    doc = copy.deepcopy(SWEEP_DOCUMENT)
    parent = reduce(lambda value, key: value[key], path[:-1], doc)
    if content is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = content
    return doc


DOCUMENT_SWEEP = {
    f"{_document_path(path)}-{fault}": (_document_path(path), _document_with(path, content))
    for path, shape, required in _document_keys(DOCUMENT)
    for fault, content in (("nested-type", _nested_fault(shape)), ("missing", None))
    if content is not None or required
}
DOCUMENT_SWEEP["document.reactions[0].products-renamed"] = (
    "document.reactions[0].product",
    {
        **SWEEP_DOCUMENT,
        "reactions": [
            {"product" if key == "products" else key: value for key, value in r.items()}
            for r in SWEEP_DOCUMENT["reactions"]
        ],
    },
)


def _sweep_copy(name, content):
    """Extract from a fig2 copy plus a table whose ``name`` holds ``content``.

    The copy is a text-table bundle when ``name`` is the table, so that a
    step reads it; ``content`` None removes the file.
    """

    def argv(tmp, fig2):
        clone = tmp / "bundle"
        clone.mkdir()
        for path in fig2.iterdir():
            (clone / path.name).write_bytes(path.read_bytes())
        _write(clone / "table.txt", SWEEP_TABLE)
        if name == "table.txt":
            _write(clone / "descriptor.json", TEXT_TABLE)
        if content is None:
            (clone / name).unlink()
        else:
            _write(clone / name, content)
        return ["extract", "--bundle", str(clone)]

    return argv


def _unread_copy(clone, fig2, faults):
    """``clone``, a copy of ``fig2`` whose every file named in ``faults``
    holds its content there (``DIRECTORY``: a directory; None: absent)."""
    clone.mkdir()
    for path in fig2.iterdir():
        if path.name not in faults:
            (clone / path.name).write_bytes(path.read_bytes())
    for name, content in faults.items():
        if content is DIRECTORY:
            (clone / name).mkdir()
        elif content is not None:
            _write(clone / name, content)
    return clone


def _extract_traced(make_argv, capsys, tmp_path, fig2) -> tuple[int, list[dict]]:
    """The exit code and the written trace of ``extract`` on ``make_argv``'s bundle."""
    trace_path = tmp_path / "trace.json"
    argv = make_argv(tmp_path, fig2) + [
        "--out", str(tmp_path / "doc.json"), "--trace", str(trace_path),
    ]
    code, _ = run(capsys, *argv)
    return code, json.loads(trace_path.read_text())


def _failed_reasons(trace) -> list[str]:
    """The reasons of every failed observer verdict in a trace."""
    return [
        reason
        for e in trace
        if e["type"] == "observer" and not e["passed"]
        for reason in e["reasons"]
    ]


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_domain_error_exit_1(self, case, capsys, tmp_path, fig2_bundle):
        make_argv, error_type = HOSTILE[case]
        code, out = run(capsys, *make_argv(tmp_path, fig2_bundle))
        assert code == 1
        assert out["error"].startswith(f"{error_type}: ")

    def test_template_longer_than_the_recursion_limit(self, capsys, tmp_path):
        # The matcher places one atom per search level; its rare root (N)
        # keeps this search linear, so it finishes well inside the bound.
        chain = "C" * 1100
        spec = {"reactants": ["[R]N" + chain + "Br"], "products": ["[R]N" + chain]}
        start = time.perf_counter()
        code, out = run(capsys, *_reconstruct(spec, "CN" + chain)(tmp_path, None))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out["bindings"] == {"R": "C"}
        assert [canonicalize(s) for s in out["reactants"]] == [canonicalize("CN" + chain + "Br")]

    @pytest.mark.parametrize("case", sorted(HOSTILE_TOKENS))
    def test_unread_token_becomes_a_wildcard(self, case, capsys, tmp_path, fig2_bundle):
        start = time.perf_counter()
        code, out = run(capsys, *HOSTILE_TOKENS[case](tmp_path, fig2_bundle))
        assert time.perf_counter() - start < 10
        assert code == 0
        assert "[100*]" in json.dumps(out)

    @pytest.mark.parametrize("case", sorted(HOSTILE_RUNS))
    def test_long_run_is_read_in_linear_time(self, case, capsys):
        start = time.process_time()
        code, _ = run(capsys, *HOSTILE_RUNS[case])
        assert time.process_time() - start < 1.0
        assert code == 0

    @pytest.mark.parametrize("case", sorted(HOSTILE_MOLECULES))
    def test_mistyped_molecules_fail_recognition(self, case, capsys, tmp_path, fig2_bundle):
        make_argv, step = HOSTILE_MOLECULES[case]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        assert {"type": "step_failed", "step": step} in trace

    @pytest.mark.parametrize("case", sorted(HOSTILE_TEMPLATES))
    def test_mistyped_template_fails_parsing(self, case, capsys, tmp_path, fig2_bundle):
        make_argv, step = HOSTILE_TEMPLATES[case]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        assert {"type": "step_failed", "step": step} in trace

    def test_faulty_molecule_graph_is_named(self, capsys, tmp_path, fig2_bundle):
        make_argv, _ = HOSTILE_MOLECULES["molecules-mistyped-graph-object"]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        reasons = _failed_reasons(trace)
        prefix = "tool 'image2graph' failed: molecules.json[0].graph: "
        assert reasons and all(r.startswith(prefix) for r in reasons)

    def test_unwritable_molecule_graph_fails_at_the_writer(self, capsys, tmp_path, fig2_bundle):
        make_argv, _ = HOSTILE_MOLECULES["molecules-ring-numbers-past-99"]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        reasons = _failed_reasons(trace)
        prefix = "tool 'graph2smiles' failed: cannot write graph: "
        assert reasons and all(r.startswith(prefix) for r in reasons)

    @pytest.mark.parametrize("case", sorted(UNREADABLE_WRITES))
    def test_unreadable_written_graph_is_named(self, case, capsys, tmp_path, fig2_bundle):
        # The written text is named with the reason its parse gives.
        make_argv, _ = HOSTILE_MOLECULES[case]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        verdicts = [e for e in trace if e["type"] == "observer" and e["step"] == "molecular_recognition"]
        assert verdicts == [
            {"type": "observer", "step": "molecular_recognition", "passed": False, "reasons": [UNREADABLE_WRITES[case]]}
        ]

    def test_unparseable_molecule_text_is_named_and_listed(self, capsys, tmp_path, fig2_bundle):
        # The observer names the text, and a run that makes no records
        # still lists it as it was read.
        make_argv, _ = HOSTILE_MOLECULES["molecules-unparseable-smiles"]
        doc_path, trace_path = tmp_path / "doc.json", tmp_path / "trace.json"
        argv = make_argv(tmp_path, fig2_bundle) + ["--out", str(doc_path), "--trace", str(trace_path)]
        _write(tmp_path / "bundle" / "descriptor.json", {"modalities": ["molecule_image_only"]})
        code, _ = run(capsys, *argv)
        assert code == 0
        reasons = _failed_reasons(json.loads(trace_path.read_text()))
        assert len(reasons) == 1
        assert reasons[0].startswith("unparseable SMILES 'C1CC': ")
        listed = json.loads(doc_path.read_text())["molecules"]
        assert listed[2] == {"smiles": "C1CC", "label": "3"}
        assert len(listed) == 11

    def test_faulty_template_graph_is_named(self, capsys, tmp_path, fig2_bundle):
        make_argv, _ = HOSTILE_TEMPLATES["template-mistyped-graph-object"]
        code, trace = _extract_traced(make_argv, capsys, tmp_path, fig2_bundle)
        assert code == 0
        reasons = _failed_reasons(trace)
        prefix = "tool 'rxn_img_parser' failed: template.json.reactant_templates[0]: "
        assert reasons and all(r.startswith(prefix) for r in reasons)

    def test_failed_run_writes_its_trace(self, capsys, tmp_path, fig2_bundle):
        # Recognition feeds the only document of a molecule_image_only run.
        trace_path = tmp_path / "trace.json"
        argv = _fig2_with("molecules.json", lambda m: b"\xff")(tmp_path, fig2_bundle)
        _write(tmp_path / "bundle" / "descriptor.json", {"modalities": ["molecule_image_only"]})
        code, out = run(capsys, *argv, "--trace", str(trace_path))
        assert code == 1
        assert out["error"].startswith("ExecutionError: the run wrote no document")
        trace = json.loads(trace_path.read_text())
        errors = [e["error"] for e in trace if e["type"] == "tool" and e["status"] == "error"]
        assert errors and all(e.startswith("molecules.json") for e in errors)

    def test_sweep_covers_every_sidecar(self):
        assert set(SIDECAR_READERS) == set(SIDECARS)
        assert OPTIONAL_SIDECARS == ["text.txt"]

    @pytest.mark.parametrize("name", ["text.txt", "table.txt"])
    def test_sweep_bundles_run_clean(self, name, capsys, tmp_path, fig2_bundle):
        # Unfaulted, the fig2 copy and its text-table variant pass every step.
        content = SWEEP_TABLE if name == "table.txt" else (fig2_bundle / name).read_bytes()
        trace_path = tmp_path / "trace.json"
        argv = _sweep_copy(name, content)(tmp_path, fig2_bundle)
        code, _ = run(capsys, *argv, "--out", str(tmp_path / "doc.json"), "--trace", str(trace_path))
        assert code == 0
        trace = json.loads(trace_path.read_text())
        verdicts = {e["step"]: e["passed"] for e in trace if e["type"] == "observer"}
        assert SIDECAR_READERS[name] in verdicts
        assert all(verdicts.values())

    @pytest.mark.parametrize("case", sorted(SIDECAR_SWEEP))
    def test_faulty_sidecar_fails_its_reader(self, case, capsys, tmp_path, fig2_bundle):
        name, content = SIDECAR_SWEEP[case]
        trace_path = tmp_path / "trace.json"
        argv = _sweep_copy(name, content)(tmp_path, fig2_bundle)
        code, out = run(capsys, *argv, "--out", str(tmp_path / "doc.json"), "--trace", str(trace_path))
        step = SIDECAR_READERS[name]
        if step is None:
            assert code == 1
            assert out["error"].startswith(f"DescriptorError: {name}")
        else:
            assert code == 0
            trace = json.loads(trace_path.read_text())
            assert [e["step"] for e in trace if e["type"] == "step_failed"] == [step]
            errors = [e["error"] for e in trace if e["type"] == "tool" and e["status"] == "error"]
            assert errors and all(e.startswith(name) for e in errors), errors

    def test_document_sweep_base_scores_clean(self, capsys, tmp_path):
        doc = _write(tmp_path / "doc.json", SWEEP_DOCUMENT)
        code, out = run(capsys, "evaluate", "--pred", doc, "--gold", doc)
        assert code == 0
        assert out["hard"]["f1"] == 1.0

    def test_document_sweep_covers_every_key(self):
        assert len(DOCUMENT_SWEEP) == 25
        assert sum(case.endswith("-missing") for case in DOCUMENT_SWEEP) == 6

    @pytest.mark.parametrize("case", sorted(DOCUMENT_SWEEP))
    def test_faulty_document_is_a_codec_error(self, case, capsys, tmp_path, fig2_bundle):
        where, doc = DOCUMENT_SWEEP[case]
        code, out = run(capsys, *_evaluate(doc)(tmp_path, fig2_bundle))
        assert code == 1
        assert out["error"].startswith(f"CodecError: {where}")
        if case.endswith("-missing"):
            assert out["error"] == f"CodecError: {where}: missing"
        if case.endswith("-renamed"):
            assert out["error"] == f"CodecError: {where}: unexpected"

    @pytest.mark.parametrize("name", OPTIONAL_SIDECARS)
    def test_absent_optional_sidecar_keeps_output(self, name, capsys, tmp_path, fig2_bundle):
        doc_path, trace_path = tmp_path / "doc.json", tmp_path / "trace.json"
        argv = _sweep_copy(name, None)(tmp_path, fig2_bundle)
        code, _ = run(capsys, *argv, "--out", str(doc_path), "--trace", str(trace_path))
        assert code == 0
        assert all(e["passed"] for e in json.loads(trace_path.read_text()) if e["type"] == "observer")
        expected = json.loads((fig2_bundle / "golden.json").read_text())
        if name == "text.txt":
            expected["Text description"] = ""
        assert json.loads(doc_path.read_text()) == expected

    def test_unreadable_sidecar_traced_like_tool_error(self, capsys, tmp_path, fig2_bundle):
        trace_path = tmp_path / "trace.json"
        argv = _fig2_with("molecules.json", lambda m: "{")(tmp_path, fig2_bundle)
        code, _ = run(capsys, *argv, "--out", str(tmp_path / "doc.json"), "--trace", str(trace_path))
        assert code == 0
        calls = [
            e for e in json.loads(trace_path.read_text())
            if e["type"] == "tool" and e["tool"] == "image2graph"
        ]
        assert [(e["status"], e["response"]) for e in calls] == [("error", None)]
        assert all("molecules.json is not valid JSON" in e["error"] for e in calls)

    @pytest.mark.parametrize("case", sorted(UNREAD_SIDECARS))
    def test_unread_sidecar_keeps_the_golden_document(self, case, capsys, tmp_path, fig2_bundle):
        clone = _unread_copy(tmp_path / "bundle", fig2_bundle, dict([UNREAD_SIDECARS[case]]))
        doc_path, trace_path = tmp_path / "doc.json", tmp_path / "trace.json"
        code, _ = run(
            capsys, "extract", "--bundle", str(clone), "--out", str(doc_path), "--trace", str(trace_path)
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert not [e for e in trace if e["type"] in ("step_failed", "degraded")]
        doc = json.loads(doc_path.read_text())
        assert doc["Text description"]
        assert doc == json.loads((fig2_bundle / "golden.json").read_text())

    @pytest.mark.parametrize("case", sorted(c for c in UNREAD_SIDECARS if c.startswith("boxes-")))
    def test_unread_boxes_keep_the_molecule_list(self, case, capsys, tmp_path, fig2_bundle):
        # In a molecule_image_only run recognition is the first step, so a
        # failure there would leave no document at all.
        modalities = {"descriptor.json": {"modalities": ["molecule_image_only"]}}
        docs = []
        for faults in (dict([UNREAD_SIDECARS[case]], **modalities), modalities):
            clone = _unread_copy(tmp_path / f"bundle{len(docs)}", fig2_bundle, faults)
            doc_path = tmp_path / f"doc{len(docs)}.json"
            code, _ = run(capsys, "extract", "--bundle", str(clone), "--out", str(doc_path))
            assert code == 0
            docs.append(json.loads(doc_path.read_text()))
        faulted, clean = docs
        assert len(clean["molecules"]) == 11
        assert faulted == clean

    def test_empty_graph_fails_one_step(self, capsys, tmp_path, fig2_bundle):
        # An unwritable molecule graph fails recognition; the run goes on.
        doc_path, trace_path = tmp_path / "doc.json", tmp_path / "trace.json"
        argv = _fig2_with(
            "molecules.json", lambda m: [{"graph": {"atoms": [], "bonds": []}}]
        )(tmp_path, fig2_bundle)
        code, _ = run(capsys, *argv, "--out", str(doc_path), "--trace", str(trace_path))
        assert code == 0
        trace = json.loads(trace_path.read_text())
        verdicts = [
            e["passed"] for e in trace if e["type"] == "observer" and e["step"] == "molecular_recognition"
        ]
        assert verdicts == [False]
        assert {"type": "step_failed", "step": "molecular_recognition"} in trace
        assert [e for e in trace if e["type"] == "degraded"] == [
            {"type": "degraded", "step": "structure_rgroup", "missing": ["molecules"]},
            {"type": "degraded", "step": "condition_interpretation", "missing": ["molecules"]},
        ]
        doc = json.loads(doc_path.read_text())
        assert [r["reaction_id"] for r in doc["reactions"]] == ["0_1"]

    def test_plain_value_error_is_not_caught(self, capsys, monkeypatch):
        def bug(smiles):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr("rxnscope.cli.canonicalize", bug)
        with pytest.raises(ValueError, match="a bug"):
            main(["canonicalize", "CCO"])

    def test_warning_outside_a_run_reaches_stderr(self, tmp_path):
        # The run-trace handler on the rxnscope logger leaves a warning
        # logged outside any run to Python's last-resort handler.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        spec = _write(tmp_path / "t.json", {"reactants": ["[R]C(=O)OC[R]"], "products": ["[R]C(=O)OC[R]"]})
        proc = subprocess.run(
            [sys.executable, "-m", "rxnscope.cli", "reconstruct",
             "--template", spec, "--variant", "c1ccccc1C(=O)OCC1CCCCC1"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == b"placeholder R extracted twice with different fragments; keeping first\n"

    def test_closed_stdout_exits_without_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rxnscope.cli", "canonicalize", "CCO"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
