import ast
import hashlib
import http.client
import inspect
import io
import json
import logging
import random
import re
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rxnscope.agents import InputDescriptor, DescriptorError
from rxnscope.agents.backend import (
    PLAN_TABLE,
    BackendError,
    RemoteBackend,
    ScriptedBackend,
    edit_distance,
)
from rxnscope.agents.bundle import MODALITIES, Bundle
from rxnscope.agents.executor import (
    STEP_FUNCS,
    _step_data_structure,
    ExecutionError,
    execute_plan,
    observe_step,
)
from rxnscope.agents.planner import (
    AGENT_IO,
    AGENT_KINDS,
    MODALITY_IO,
    OPTIONAL_INPUTS,
    Plan,
    PlanningError,
    build_steps,
    plan_extraction,
    review_plan,
)
from rxnscope.agents.tools import RunContext, ToolError, default_registry
from rxnscope import chemops, rgroup, smiles
from rxnscope.agents import tools
from rxnscope.jsonshape import check_shape
from rxnscope.chemops import AbbreviationTable, AliasRegistry
from rxnscope.molgraph import atom_token_from_symbol, graph_from_json, graph_to_json, main_component
from rxnscope.reaction import MoleculeEntry, decode_records, parse_rgroup_table
from rxnscope.rgroup import expand_abbreviations, substitute_placeholders
from rxnscope.smiles import parse_smiles, write_smiles

from corpus import MOLECULES

BACKEND = ScriptedBackend()

AGENT_TOOLS = {
    "reaction_template_parsing": {"rxn_img_parser", "image2graph", "graph2smiles"},
    "molecular_recognition": {"image2graph", "graph2smiles"},
    "structure_rgroup": {"smiles_reconstructor"},
    "text_rgroup": {"table_parser", "graph2smiles"},
    "condition_interpretation": {"condition_interpreter"},
    "text_extraction": {"ocr"},
    "data_structure": set(),
}


def _text_table_copy(fig2_bundle, tmp_path, table: str) -> InputDescriptor:
    """fig2 read as a text table holding ``table``."""
    for path in fig2_bundle.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    modalities = ["reaction_template_image", "text_table", "text_description"]
    (tmp_path / "descriptor.json").write_text(json.dumps({"modalities": modalities}))
    (tmp_path / "table.txt").write_text(table)
    return Bundle.load(tmp_path).descriptor


def _own_returns(fn: ast.FunctionDef):
    """The return statements of ``fn`` itself, not of a function it defines."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def descriptor(*modalities: str, path=None) -> InputDescriptor:
    return InputDescriptor(modalities=frozenset(modalities), bundle_path=path)


class TestAgentKinds:
    """The executor, the backend and the planner name the same agent kinds."""

    def test_step_funcs_are_the_agent_kinds(self):
        assert tuple(STEP_FUNCS) == AGENT_KINDS

    def test_plan_table_uses_known_kinds(self):
        for modalities, steps in PLAN_TABLE.items():
            assert set(steps) <= set(AGENT_KINDS), sorted(modalities)

    def test_every_modality_has_a_planner_row(self):
        assert set(MODALITY_IO) == MODALITIES

    def test_every_output_is_read(self):
        # An output is read when a step takes it as an input, or when the
        # document step reads it from memory: a key of its ``m.get`` calls
        # or of its key set.
        read = {i for inputs, _ in AGENT_IO.values() for i in inputs}
        read.update(i for inputs in OPTIONAL_INPUTS.values() for i in inputs)
        for node in ast.walk(ast.parse(inspect.getsource(_step_data_structure))):
            if isinstance(node, ast.Set):
                read.update(key.value for key in node.elts)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and ast.unparse(node.func.value) == "m"
            ):
                read.add(node.args[0].value)
        outputs = {o for _, outs in AGENT_IO.values() for o in outs} - {"document"}
        assert sorted(outputs - read) == []

    def test_steps_tell_the_observer_only_what_it_checks(self):
        # A step's answer goes to ``observe_step`` alone, which checks the
        # molecules and the document step's record problems: any other key
        # would carry a tool answer that nothing uses.
        for kind, fn in STEP_FUNCS.items():
            allowed = {"smiles", "record_problems"} if kind == "data_structure" else {"smiles"}
            returns = list(_own_returns(ast.parse(inspect.getsource(fn)).body[0]))
            assert returns, kind
            for node in returns:
                assert isinstance(node.value, ast.Dict), (kind, ast.unparse(node))
                keys = [key.value if isinstance(key, ast.Constant) else None for key in node.value.keys]
                assert set(keys) <= allowed, (kind, ast.unparse(node))


class TestInputDescriptor:
    def test_known_modalities(self):
        assert len(MODALITIES) == 6

    def test_unknown_modality_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor("hologram")

    def test_empty_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor()

    def test_molecule_image_only_excludes_tables(self):
        with pytest.raises(DescriptorError):
            descriptor("molecule_image_only", "structure_table")
        descriptor("molecule_image_only", "text_description")  # allowed

    def test_bundle_load_round_trip(self, fig2_bundle):
        bundle = Bundle.load(fig2_bundle)
        assert "reaction_template_image" in bundle.descriptor.modalities
        assert bundle.read("template.json")["product_templates"]
        assert bundle.read("text.txt").strip()


class TestBundleRead:
    """``Bundle.read`` is total: a faulty sidecar is a ``DescriptorError``."""

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("molecules.json", None, "molecules.json cannot be read"),  # a directory
            ("template.json", "[" * 100_000, "template.json is not valid JSON"),
            ("molecules.json", "[" + "1" * 5000 + "]", "molecules.json is not valid JSON"),
            ("molecules.json", "null", "molecules.json: expected a list"),
            ("molecules.json", "{}", "molecules.json: expected a list"),
            ("template.json", '{"rgroup_formulas": {"Ar2": 5}}', "template.json.rgroup_formulas.Ar2"),
            ("molecules.json", '[{"label": 3}]', "molecules.json[0].label: expected a string or null"),
            # fig2 holds boxes.json, ner.json and rxn.json, but no tool reads them.
            ("foo.json", "{}", "foo.json: no such bundle sidecar"),
            ("boxes.json", "[]", "boxes.json: no such bundle sidecar"),
            ("ner.json", "[]", "ner.json: no such bundle sidecar"),
            ("rxn.json", '{"annotations": []}', "rxn.json: no such bundle sidecar"),
        ],
    )
    def test_faulty_sidecar(self, tmp_path, name, content, message):
        if content is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(content)
        with pytest.raises(DescriptorError) as err:
            Bundle(tmp_path, None).read(name)
        assert str(err.value).startswith(message)

    def test_absent_optional_sidecar_reads_as_its_default(self, tmp_path):
        bundle = Bundle(tmp_path, None)
        assert bundle.read("text.txt") == ""
        with pytest.raises(DescriptorError, match="table.txt is missing"):
            bundle.read("table.txt")

    def test_a_bool_is_no_integer(self):
        # bool subclasses int, but a JSON true is no integer.
        check_shape(5, int, "n", DescriptorError)
        for value in (True, False):
            with pytest.raises(DescriptorError, match="^n: expected an integer$"):
                check_shape(value, int, "n", DescriptorError)

    def test_a_bool_is_no_integer_in_a_union(self):
        # A shape that takes an integer or a string still refuses a bool,
        # and names every kind it takes.
        for value in (5, "MOL"):
            check_shape(value, (int, str), "n", DescriptorError)
        with pytest.raises(DescriptorError, match="^n: expected an integer or a string$"):
            check_shape(True, (int, str), "n", DescriptorError)


class TestRegistry:
    def test_default_tools(self):
        names = set(default_registry()._tools)
        for agent, tools in AGENT_TOOLS.items():
            assert tools <= names, agent

    def test_unknown_tool(self):
        with pytest.raises(ToolError):
            default_registry().invoke("teleport", RunContext(bundle=None), {})

    @pytest.mark.parametrize(
        "request_",
        [
            {"graph": graph_to_json(parse_smiles("CCO"))},
            {"graph": None},
            {"graph": "CCO"},
            {},
        ],
        ids=["graph-json", "none", "smiles-text", "missing"],
    )
    def test_graph2smiles_takes_only_graph_values(self, request_):
        with pytest.raises(ToolError, match="bad graph payload: expected a MolecularGraph"):
            default_registry().invoke("graph2smiles", RunContext(bundle=None), request_)

    @pytest.mark.parametrize(
        "template,message",
        [
            (None, "template spec: expected an object"),
            ({"reactants": [MoleculeEntry("C")]}, "template spec.products: missing"),
            (
                {"reactants": [MoleculeEntry("C")], "products": [5]},
                "template spec.products[0]: expected a MoleculeEntry",
            ),
        ],
    )
    def test_smiles_reconstructor_checks_its_template_spec(self, template, message):
        request = {"template": template, "variants": []}
        with pytest.raises(ToolError) as err:
            default_registry().invoke("smiles_reconstructor", RunContext(bundle=None), request)
        assert str(err.value) == f"bad template payload: {message}"

    def test_smiles_reconstructor_checks_its_variants(self):
        template = {"reactants": [MoleculeEntry("[R]C")], "products": [MoleculeEntry("[R]CO")]}
        request = {"template": template, "variants": [{"smiles": "CCO"}]}
        with pytest.raises(ToolError, match=r"^variants\[0\]\.smiles: expected a MoleculeEntry$"):
            default_registry().invoke("smiles_reconstructor", RunContext(bundle=None), request)


def _written(g) -> str:
    """What ``graph2smiles`` writes for ``g`` in a run of its own."""
    return default_registry().invoke("graph2smiles", RunContext(bundle=None), {"graph": g})["smiles"]


def _round_tripped(g) -> str:
    """What ``graph2smiles`` wrote when graphs crossed it as graph JSON."""
    g = graph_from_json(graph_to_json(g))
    return write_smiles(expand_abbreviations(g, registry=AliasRegistry()))


class TestGraphValueOracle:
    """Passing a graph value writes what the old graph JSON round trip wrote."""

    def test_fig2_sidecar_graphs(self, fig2_bundle):
        template = json.loads((fig2_bundle / "template.json").read_text())
        molecules = json.loads((fig2_bundle / "molecules.json").read_text())
        graphs = [graph_from_json(m["graph"]) for m in molecules if "graph" in m]
        for payload in template["reactant_templates"] + template["product_templates"]:
            g = graph_from_json(payload)
            graphs += [g, substitute_placeholders(g, template["rgroup_formulas"], registry=AliasRegistry())]
        assert len(graphs) == 11 + 2 * 3
        for g in graphs:
            assert _written(g) == _round_tripped(g)

    def test_fig2_templates_spliced_with_table_tokens(self, fig2_bundle):
        template = json.loads((fig2_bundle / "template.json").read_text())
        graphs = [
            graph_from_json(p)
            for p in template["reactant_templates"] + template["product_templates"]
        ]
        table = AbbreviationTable.default()
        tokens = table.tokens() + ["Pj", "Zz9", "2-ClC6H4"]
        rng = random.Random(17)
        assignments = [(t, t) for t in tokens]
        assignments += [(rng.choice(tokens), rng.choice(tokens)) for _ in range(300)]
        for first, second in assignments:
            for g in graphs:
                labels = sorted({g.atoms[i].label for i in g.placeholder_indices()})
                values = {label: (first, second)[k % 2] for k, label in enumerate(labels)}
                spliced = main_component(substitute_placeholders(g, values, table, AliasRegistry()))
                # As a drawing's graph JSON has it: each placeholder drawn as its token.
                drawn = replace(g, atoms=tuple(
                    atom_token_from_symbol(values[a.label]) if a.kind == "placeholder" else a
                    for a in g.atoms
                ))
                for h in (spliced, drawn):
                    assert _written(h) == _round_tripped(h), values

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_corpus(self, smiles):
        g = parse_smiles(smiles)
        assert _written(g) == _round_tripped(g)


class TestScriptedBackend:
    VOCAB = ["Ph", "Me", "Et", "iPr", "nPr", "OMe"]

    def test_token_correction_table_hit(self):
        ctx = {"token": "Ph", "vocabulary": self.VOCAB}
        out = BACKEND.respond("token_correction", ctx)
        assert out == {"action": "keep", "token": "Ph"}

    def test_token_correction_edit_distance_one(self):
        ctx = {"token": "iP1", "vocabulary": self.VOCAB}
        out = BACKEND.respond("token_correction", ctx)
        assert out == {"action": "correct", "token": "iPr"}

    def test_token_correction_gives_up_cleanly(self):
        ctx = {"token": "Qqqq", "vocabulary": self.VOCAB}
        out = BACKEND.respond("token_correction", ctx)
        assert out == {"action": "keep", "token": "Qqqq"}

    def test_token_correction_time_is_bounded(self):
        # A cell far longer than every vocabulary entry is no single edit
        # from any of them, and is not compared with them.
        token = "Q" * 50_000
        start = time.process_time()
        out = BACKEND.respond(
            "token_correction", {"token": token, "vocabulary": AbbreviationTable.default().tokens()}
        )
        assert time.process_time() - start < 0.25
        assert out == {"action": "keep", "token": token}

    @given(st.text("abc", max_size=6), st.lists(st.text("abc", max_size=6), max_size=8))
    def test_token_correction_equals_the_unfiltered_rule(self, token, vocabulary):
        candidates = sorted(v for v in vocabulary if edit_distance(token, v) == 1)
        if token in vocabulary or not candidates:
            expected = {"action": "keep", "token": token}
        else:
            expected = {"action": "correct", "token": candidates[0]}
        ctx = {"token": token, "vocabulary": vocabulary}
        assert BACKEND.respond("token_correction", ctx) == expected

    def test_edit_distance(self):
        assert edit_distance("iP1", "iPr") == 1
        assert edit_distance("", "ab") == 2
        assert edit_distance("same", "same") == 0

    def test_planner_unknown_set_reports_error_action(self):
        out = BACKEND.respond("planner", {"modalities": ["structure_table"]})
        assert out["action"] == "error"

    @pytest.mark.parametrize("role", ["review", "proceed", ""])
    def test_unknown_role_is_a_backend_error(self, role):
        with pytest.raises(BackendError):
            ScriptedBackend().respond(role, {})


class TestRemoteBackend:
    """The HTTP client, with ``urlopen`` replaced so no request leaves."""

    def respond(self, monkeypatch, body: bytes):
        sent = {}

        def urlopen(req, timeout):
            sent.update(
                payload=json.loads(req.data),
                timeout=timeout,
                auth=req.get_header("Authorization"),
            )
            return io.BytesIO(body)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        backend = RemoteBackend(url="http://localhost/rxnscope", token="t0k", model="m1")
        return backend.respond("token_correction", {"token": "Pj"}), sent

    def test_request_sends_fixed_temperature_and_timeout(self, monkeypatch):
        out, sent = self.respond(monkeypatch, b'{"action": "correct", "token": "Ph"}')
        assert out == {"action": "correct", "token": "Ph"}
        assert sent == {
            "payload": {
                "role": "token_correction",
                "context": {"token": "Pj"},
                "model": "m1",
                "temperature": 0.1,
            },
            "timeout": 60.0,
            "auth": "Bearer t0k",
        }

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"[1]", b'{"token": "Ph"}', b"[" * 100_000, b"\xff", b"1" * 5000],
    )
    def test_unusable_response_is_a_backend_error(self, monkeypatch, body):
        with pytest.raises(BackendError):
            self.respond(monkeypatch, body)

    @pytest.mark.parametrize(
        "url, error",
        [
            # Refused before a request is built: ``urlopen`` is not reached.
            ("not a url", None),
            ("http://[::1", None),
            ("http://local host/x", http.client.InvalidURL("URL can't contain control characters")),
            ("http://localhost/rxnscope", http.client.BadStatusLine("HTTP/9.9 200")),
            ("http://localhost/rxnscope", http.client.IncompleteRead(b'{"act')),
            ("http://localhost/rxnscope", urllib.error.URLError("connection refused")),
            ("http://localhost/rxnscope", TimeoutError("timed out")),
        ],
        ids=["no-scheme", "open-bracket", "space", "bad-status", "cut-short", "url-error", "timeout"],
    )
    def test_request_failure_is_a_backend_error_naming_the_url(self, monkeypatch, url, error):
        def urlopen(req, timeout):
            if error is None:
                pytest.fail(f"a request to {url!r} was sent")
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(BackendError, match=re.escape(f"request to {url!r} failed")):
            RemoteBackend(url=url).respond("planner", {})


CANONICAL_PLANS = {
    frozenset({"reaction_template_image", "structure_table", "text_description"}): [
        "reaction_template_parsing",
        "molecular_recognition",
        "structure_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ],
    frozenset({"reaction_template_image", "text_table", "text_description"}): [
        "reaction_template_parsing",
        "text_rgroup",
        "condition_interpretation",
        "text_extraction",
        "data_structure",
    ],
    frozenset({"molecule_image_only"}): [
        "molecular_recognition",
        "data_structure",
    ],
}


class TestPlanner:
    @pytest.mark.parametrize("modalities", sorted(CANONICAL_PLANS, key=sorted))
    def test_canonical_plans(self, modalities):
        plan = plan_extraction(descriptor(*modalities), BACKEND)
        assert [s.agent for s in plan.steps] == CANONICAL_PLANS[modalities]
        assert review_plan(plan, descriptor(*modalities)) == []

    def test_all_table_variants_approved(self):
        for modalities in [
            {"reaction_template_image", "structure_table"},
            {"reaction_template_image", "text_table"},
            {"molecule_image_only", "text_description"},
            {"plain_text_only"},
        ]:
            plan = plan_extraction(descriptor(*modalities), BACKEND)
            assert review_plan(plan, descriptor(*modalities)) == []

    def test_unknown_combination_is_an_error(self):
        with pytest.raises(PlanningError) as err:
            plan_extraction(descriptor("structure_table"), BACKEND)
        assert "structure_table" in str(err.value)

    def test_missing_final_step_flagged(self):
        d = descriptor("reaction_template_image", "structure_table", "text_description")
        plan = plan_extraction(d, BACKEND)
        truncated = Plan(steps=plan.steps[:-1])
        issues = review_plan(truncated, d)
        assert any(i.kind == "omission" for i in issues)

    def test_both_rgroup_agents_flagged(self):
        d = descriptor("reaction_template_image", "structure_table", "text_description")
        kinds = [
            "reaction_template_parsing",
            "molecular_recognition",
            "structure_rgroup",
            "text_rgroup",
            "condition_interpretation",
            "text_extraction",
            "data_structure",
        ]
        issues = review_plan(Plan(steps=build_steps(kinds)), d)
        assert any(i.kind == "redundancy" for i in issues)

    def test_unproduced_input_flagged(self):
        d = descriptor("reaction_template_image", "structure_table", "text_description")
        plan = plan_extraction(d, BACKEND)
        # Condition interpretation before the template parse that feeds it.
        steps = list(plan.steps)
        ci = next(s for s in steps if s.agent == "condition_interpretation")
        steps.remove(ci)
        shuffled = Plan(steps=tuple([ci] + steps))
        issues = review_plan(shuffled, d)
        assert any(i.kind == "inconsistency" for i in issues)

    def test_unknown_agent_kind_flagged(self):
        assert len(AGENT_KINDS) == 7
        plan = Plan(steps=build_steps(["juggling", "data_structure"]))
        issues = review_plan(plan, descriptor("plain_text_only"))
        assert any(
            i.kind == "inconsistency" and "juggling" in i.detail for i in issues
        )



class _Answering:
    """A backend whose planner answers with ``answer``."""

    def __init__(self, answer):
        self.answer = answer

    def respond(self, role, context):
        return self.answer


# Malformed planner answers end in PlanningError, never a TypeError or
# AttributeError.
HOSTILE_PLANNER_ANSWERS = {
    "none": (None, "planner answer: expected an object"),
    "bare-string": ("plan", "planner answer: expected an object"),
    "list": ([1], "planner answer: expected an object"),
    "integer-steps": ({"action": "plan", "steps": 5}, "planner answer.steps: expected a list"),
    "nested-steps": (
        {"action": "plan", "steps": [["x"]]},
        "planner answer.steps[0]: expected a string",
    ),
    "integer-action": ({"action": 1}, "planner answer.action: expected a string"),
    "integer-message": (
        {"action": "error", "message": 5},
        "planner answer.message: expected a string",
    ),
    "no-steps": ({"action": "plan"}, "unusable planner response"),
}


class TestPlannerAnswers:
    @pytest.mark.parametrize("case", sorted(HOSTILE_PLANNER_ANSWERS))
    def test_malformed_answer_is_planning_error(self, case):
        answer, message = HOSTILE_PLANNER_ANSWERS[case]
        with pytest.raises(PlanningError) as err:
            plan_extraction(descriptor("plain_text_only"), _Answering(answer))
        assert str(err.value).startswith(message)

    def test_well_formed_answer_is_planned(self):
        answer = {"action": "plan", "steps": ["text_extraction", "data_structure"], "message": ""}
        plan = plan_extraction(descriptor("plain_text_only"), _Answering(answer))
        assert [s.agent for s in plan.steps] == answer["steps"]


class _CorrectingWith(ScriptedBackend):
    """The scripted backend, except that a token correction answers ``answer``.

    An ``answer`` that is an exception is raised instead.
    """

    def __init__(self, answer):
        self.answer = answer

    def respond(self, role, context):
        if role == "token_correction":
            if isinstance(self.answer, Exception):
                raise self.answer
            return self.answer
        return super().respond(role, context)


# Malformed token_correction answers, and a backend that fails to answer,
# fail the text_rgroup step with the backend error in the trace, never an
# AttributeError or an error that escapes the run.
HOSTILE_TOKEN_ANSWERS = {
    "backend-error": (
        BackendError("remote backend request failed: timed out"),
        "remote backend request failed: timed out",
    ),
    "none": (None, "token_correction answer: expected an object"),
    "integer": (5, "token_correction answer: expected an object"),
    "list": ([], "token_correction answer: expected an object"),
    "integer-token": ({"token": 5}, "token_correction answer.token: expected a string"),
    "null-token": ({"token": None}, "token_correction answer.token: expected a string"),
    "empty": ({}, "token_correction answer.token: missing"),
    "no-token": ({"action": "correct"}, "token_correction answer.token: missing"),
}


class TestTokenCorrectionAnswers:
    @pytest.fixture
    def table_bundle(self, fig2_bundle, tmp_path):
        """fig2 read as a text table whose Ar cell "Pj" is a misspelt "Ph"."""
        return _text_table_copy(fig2_bundle, tmp_path, "entry\tR\tAr\tproduct\n1\tMe\tPj\t3a\n")

    def run(self, d, answer):
        return execute_plan(plan_extraction(d, BACKEND), d, backend=_CorrectingWith(answer))

    @pytest.mark.parametrize("case", sorted(HOSTILE_TOKEN_ANSWERS))
    def test_malformed_answer_fails_the_step(self, case, table_bundle):
        answer, message = HOSTILE_TOKEN_ANSWERS[case]
        trace = self.run(table_bundle, answer).trace
        verdicts = [e for e in trace if e["type"] == "observer" and e["step"] == "text_rgroup"]
        assert [v["reasons"] for v in verdicts] == [[message]]
        assert {"type": "step_failed", "step": "text_rgroup"} in trace

    def test_well_formed_answer_is_used(self, table_bundle):
        # The corrected bundle reads as if the right token had been written.
        result = self.run(table_bundle, {"action": "correct", "token": "Ph"})
        (table_bundle.bundle_path / "table.txt").write_text("entry\tR\tAr\tproduct\n1\tMe\tPh\t3a\n")
        written = execute_plan(plan_extraction(table_bundle, BACKEND), table_bundle)
        assert result.document == written.document
        assert [r.reaction_id for r in result.records] == ["0_1", "1_1"]

    def test_made_up_answer_keeps_the_cell_and_is_logged(self, table_bundle):
        result = self.run(table_bundle, {"action": "correct", "token": "Zz9"})
        verdicts = [
            e["passed"] for e in result.trace if e["type"] == "observer" and e["step"] == "text_rgroup"
        ]
        assert verdicts == [True]
        assert result.records[1].reactants[0].smiles == "C(=O)(C)[100*]"
        logs = [e for e in result.trace if e["type"] == "log" and "Zz9" in e["message"]]
        assert logs == [
            {
                "type": "log",
                "level": "WARNING",
                "message": "table cell 'Pj': token_correction answer 'Zz9' is no known"
                " token or formula; the cell is kept and becomes a wildcard",
            }
        ]


class TestObserveStep:
    def test_smiles_must_parse(self):
        ok, reasons = observe_step("molecular_recognition", {"smiles": ["CCO"]})
        assert ok and reasons == []
        bad, reasons = observe_step("molecular_recognition", {"smiles": ["C1CC"]})
        assert not bad
        assert any("C1CC" in r for r in reasons)

    def test_unhashable_smiles_payload_is_a_reason(self):
        ok, reasons = observe_step("molecular_recognition", {"smiles": [["C"]]})
        assert not ok
        assert any("not a string" in r for r in reasons)

    def test_placeholder_residue_fails_reconstruction(self):
        for kind in ("structure_rgroup", "text_rgroup"):
            ok, reasons = observe_step(kind, {"smiles": ["CC", "[R]CC"]})
            assert not ok
            assert reasons == ["placeholder residue in reconstruction '[R]CC'"]
        assert observe_step("reaction_template_parsing", {"smiles": ["[R]CC"]}) == (True, [])

    def test_entries_are_checked_without_a_parse(self, monkeypatch):
        entries = [MoleculeEntry("CC"), MoleculeEntry("[R]CC")]
        parsed = []
        monkeypatch.setattr(smiles, "_parse", parsed.append)
        ok, reasons = observe_step("text_rgroup", {"smiles": entries})
        assert (ok, reasons) == (False, ["placeholder residue in reconstruction '[R]CC'"])
        assert parsed == []


def _with_detector_call(trace, bundle_path) -> list[dict]:
    """``trace`` with the ``mol_detector`` entry that once came before the
    recognition step's ``image2graph`` entry, its boxes read from the
    bundle's ``boxes.json`` (five tokens a box: x1, y1, x2, y2, kind)."""
    tokens = json.loads((Path(bundle_path) / "boxes.json").read_text())
    boxes = [
        {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "kind": str(kind)}
        for x1, y1, x2, y2, kind in zip(*[iter(tokens)] * 5)
    ]
    out = []
    for entry in trace:
        if entry.get("tool") == "image2graph":
            out.append(
                {"type": "tool", "step": entry["step"], "tool": "mol_detector", "request": {},
                 "response": {"boxes": boxes}, "status": "ok"}
            )
        out.append(entry)
    return out


def _with_text_tool_calls(trace, bundle_path) -> list[dict]:
    """``trace`` with the ``ner`` and ``rxn_extractor`` entries that once
    followed the text step's ``ocr`` entry, answered from the bundle's
    ``ner.json`` and ``rxn.json``."""
    root = Path(bundle_path)
    answers = {
        "ner": {"entities": json.loads((root / "ner.json").read_text())},
        "rxn_extractor": json.loads((root / "rxn.json").read_text()),
    }
    out = []
    for entry in trace:
        out.append(entry)
        if entry.get("tool") == "ocr":
            out += [
                {"type": "tool", "step": entry["step"], "tool": tool, "request": {},
                 "response": response, "status": "ok"}
                for tool, response in answers.items()
            ]
    return out


def _with_conditions_ocr(trace) -> list[dict]:
    """``trace`` with the ``ocr`` entry that once read the condition text
    before each ``condition_interpreter`` call, and ``ocr``'s old source key."""
    out = []
    for entry in trace:
        if entry.get("tool") == "condition_interpreter":
            out.append(
                {
                    "type": "tool",
                    "step": entry["step"],
                    "tool": "ocr",
                    "request": {"source": "conditions"},
                    "response": {"text": entry["request"]["text"]},
                    "status": "ok",
                }
            )
        elif entry.get("tool") == "ocr":
            entry = {**entry, "request": {"source": "description"}}
        out.append(entry)
    return out


@pytest.fixture(scope="module")
def fig2_setup(fig2_bundle):
    d = descriptor(
        "reaction_template_image",
        "structure_table",
        "text_description",
        path=str(fig2_bundle),
    )
    plan = plan_extraction(d, BACKEND)
    return d, plan


class TestExecutor:
    def test_full_run_matches_golden(self, fig2_bundle, fig2_setup):
        d, plan = fig2_setup
        result = execute_plan(plan, d)
        golden_records, golden_text = decode_records(
            (fig2_bundle / "golden.json").read_text()
        )
        got_records, got_text = decode_records(result.document)
        assert got_records == golden_records
        assert got_text == golden_text
        assert len(result.records) == 7

    def test_deterministic_across_runs(self, fig2_setup):
        d, plan = fig2_setup
        a = execute_plan(plan, d)
        b = execute_plan(plan, d)
        assert a.document == b.document
        assert a.trace == b.trace

    def test_fig2_trace_summarises_graphs(self, fig2_setup):
        d, plan = fig2_setup
        trace = execute_plan(plan, d).trace
        json.dumps(list(trace))
        requests = [e["request"] for e in trace if e.get("tool") == "graph2smiles"]
        assert len(requests) == 14
        for request in requests:
            assert list(request) == ["graph"]
            assert sorted(request["graph"]) == ["atoms", "bonds"]
            assert all(type(n) is int and n > 0 for n in request["graph"].values())

        def graphs(value) -> int:
            # No entry holds graph JSON: an "atoms" key holds a count.
            if isinstance(value, dict):
                if "atoms" in value:
                    assert type(value["atoms"]) is int, value
                return ("atoms" in value) + sum(graphs(v) for v in value.values())
            if isinstance(value, list):
                return sum(graphs(v) for v in value)
            return 0

        counts = {e.get("tool"): graphs(e) for e in trace}
        assert counts["image2graph"] == 11
        assert counts["rxn_img_parser"] == 3

    def test_fig2_trace_is_pinned(self, fig2_setup):
        # Serialized as ``rxnscope extract --trace`` writes it.
        d, plan = fig2_setup
        result = execute_plan(plan, d)
        written = json.dumps(list(result.trace), indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "ceaa441953129f309e66faef05c4bd39d42cc7d5804767aecfe678fde78b370a"
        )

    def test_fig2_trace_lost_only_its_detector_call(self, fig2_setup):
        # Recognition once also called ``mol_detector``, whose box count the
        # observer only compared with the molecule count; put back, it gives
        # the trace pinned before, byte for byte.
        d, plan = fig2_setup
        trace = _with_detector_call(execute_plan(plan, d).trace, d.bundle_path)
        written = json.dumps(trace, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "39bce86f5fe4203cfc0fc0b63178846aada5a1119750a91239010975b39ba32d"
        )

    def test_fig2_trace_lost_only_its_text_tool_calls(self, fig2_setup):
        # The text step once also called ``ner`` and ``rxn_extractor``, whose
        # answers reached no document; put back, they give the trace pinned
        # before, byte for byte.
        d, plan = fig2_setup
        trace = _with_detector_call(execute_plan(plan, d).trace, d.bundle_path)
        trace = _with_text_tool_calls(trace, d.bundle_path)
        written = json.dumps(trace, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "f3e0e6f80b297c2ec62ba81bb2148b87fcf274fca3c35918f766fcf8b578f5bf"
        )

    def test_fig2_trace_lost_only_its_conditions_ocr(self, fig2_setup):
        # The condition step once read its text again through an ``ocr``
        # call, and ``ocr`` took a source; put back, they give the trace
        # pinned before, byte for byte.
        d, plan = fig2_setup
        trace = _with_detector_call(execute_plan(plan, d).trace, d.bundle_path)
        trace = _with_text_tool_calls(trace, d.bundle_path)
        trace = _with_conditions_ocr(trace)
        written = json.dumps(trace, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "b135982a312cb2b9f54f1f0bfe7cdc6ebd8b1c2ff512c0d5e034053bb72d33c2"
        )

    def test_fig2_trace_lost_only_its_attempt_keys(self, fig2_setup):
        # Tool and observer entries once held an attempt number, 1 on every
        # fig2 entry; put back, it gives the trace pinned before, byte for byte.
        d, plan = fig2_setup
        after = {"tool": "status", "observer": "step"}

        def with_attempt(entry):
            out = {}
            for key, value in entry.items():
                out[key] = value
                if key == after.get(entry["type"]):
                    out["attempt"] = 1
            return out

        trace = _with_detector_call(execute_plan(plan, d).trace, d.bundle_path)
        trace = _with_text_tool_calls(trace, d.bundle_path)
        trace = _with_conditions_ocr(trace)
        trace = [with_attempt(e) for e in trace]
        written = json.dumps(trace, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "fa29892b9f34188bee4aaa1f91b576ba387c317100dd29b528d13f17c6911e2d"
        )

    def test_fig2_run_reads_each_sidecar_once(self, fig2_setup, monkeypatch):
        d, plan = fig2_setup
        reads = []
        real_read = Bundle.read

        def spy(bundle, name):
            reads.append(name)
            return real_read(bundle, name)

        monkeypatch.setattr(Bundle, "read", spy)
        execute_plan(plan, d)
        assert sorted(reads) == [
            "molecules.json", "template.json", "text.txt",
        ]

    def test_failed_step_outputs_make_no_records(self, fig2_bundle, tmp_path):
        # Row 2 leaves R unfilled, so text_rgroup fails its check; only the
        # template record is written, not one holding the residue.
        table = "entry\tR\tAr\tproduct\n1\tMe\tPh\t3a\n2\t-\tPh\t3b\n"
        d = _text_table_copy(fig2_bundle, tmp_path, table)
        result = execute_plan(plan_extraction(d, BACKEND), d)
        assert {"type": "step_failed", "step": "text_rgroup"} in result.trace
        # The per-row conditions are an output of the failed step too.
        degraded = {
            "type": "degraded", "step": "condition_interpretation", "missing": ["variant_conditions"],
        }
        assert degraded in result.trace
        assert [r.reaction_id for r in result.records] == ["0_1"]
        assert [r["reaction_id"] for r in json.loads(result.document)["reactions"]] == ["0_1"]

    def test_template_without_products_fails_text_rgroup(self, fig2_bundle, tmp_path):
        d = _text_table_copy(fig2_bundle, tmp_path, "entry\tR\tAr\tproduct\n1\tMe\tPh\t3a\n")
        template = json.loads((tmp_path / "template.json").read_text())
        (tmp_path / "template.json").write_text(json.dumps({**template, "product_templates": []}))
        result = execute_plan(plan_extraction(d, BACKEND), d)
        verdicts = [(e["step"], e["reasons"]) for e in result.trace if e["type"] == "observer"]
        assert ("text_rgroup", ["the template has no product"]) in verdicts
        assert json.loads(result.document)["reactions"] == []

    def test_tools_match_their_step(self, fig2_setup):
        d, plan = fig2_setup
        result = execute_plan(plan, d)
        for entry in result.trace:
            if entry.get("type") == "tool":
                assert entry["tool"] in AGENT_TOOLS[entry["step"]], entry

    def test_observer_verdicts_per_step(self, fig2_setup):
        d, plan = fig2_setup
        result = execute_plan(plan, d)
        verdicts = [t for t in result.trace if t.get("type") == "observer"]
        assert [v["step"] for v in verdicts] == [s.agent for s in plan.steps]
        assert all(v["passed"] for v in verdicts)

    def test_records_cover_pipeline_products(self, fig2_setup):
        # The template record, then one per reconstructed variant, each with
        # the shared conditions and its own.
        d, plan = fig2_setup
        records = execute_plan(plan, d).records
        assert [r.reaction_id for r in records] == ["0_1"] + [f"{i}_1" for i in range(1, 7)]
        assert records[0].reactants[0].smiles == "[Ar]C([R])=O"
        assert all(r.conditions for r in records)
        assert all(r.additional_info for r in records[1:])

    def test_unapproved_plan_rejected(self, fig2_setup):
        d, plan = fig2_setup
        truncated = Plan(steps=plan.steps[:-1])
        with pytest.raises(ExecutionError):
            execute_plan(truncated, d)

    def test_missing_text_degrades_gracefully(self, fig2_bundle, tmp_path):
        # Same bundle minus the text sidecars: text_extraction comes up
        # empty but the run must still produce the reaction records.
        clone = tmp_path / "bundle"
        clone.mkdir()
        for name in fig2_bundle.iterdir():
            if name.name in ("text.txt", "ner.json", "rxn.json", "golden.json"):
                continue
            (clone / name.name).write_bytes(name.read_bytes())
        d = descriptor(
            "reaction_template_image",
            "structure_table",
            "text_description",
            path=str(clone),
        )
        plan = plan_extraction(d, BACKEND)
        result = execute_plan(plan, d)
        assert len(result.records) == 7
        doc = json.loads(result.document)
        assert doc["Text description"] == ""

    def test_wildcard_template_formula_is_logged(self, fig2_bundle, tmp_path):
        # A template formula that is neither a table token nor a condensed
        # formula becomes an alias wildcard, and the trace says so.
        clone = tmp_path / "bundle"
        clone.mkdir()
        for name in fig2_bundle.iterdir():
            (clone / name.name).write_bytes(name.read_bytes())
        template = json.loads((fig2_bundle / "template.json").read_text())
        template["rgroup_formulas"] = {"Ar2": "(((("}
        (clone / "template.json").write_text(json.dumps(template))
        bundle = Bundle.load(clone)
        result = execute_plan(plan_extraction(bundle.descriptor, BACKEND), bundle.descriptor)
        logs = [e for e in result.trace if e.get("type") == "log"]
        assert logs == [
            {
                "type": "log",
                "level": "WARNING",
                "message": "template formula Ar2 = '((((' is no known token or formula;"
                " it became a wildcard",
            }
        ]
        assert "[100*]" in result.records[0].products[0].smiles

    def test_failing_tool_called_once_per_step_attempt(self, fig2_setup):
        d, plan = fig2_setup
        registry = default_registry()
        calls = {"n": 0}

        def broken(ctx, request):
            calls["n"] += 1
            raise ToolError("recognizer offline")

        registry.register("image2graph", broken)
        result = execute_plan(plan, d, registry=registry)
        assert calls["n"] == 1
        errors = [
            t for t in result.trace if t.get("type") == "tool" and t["tool"] == "image2graph"
        ]
        assert [t["status"] for t in errors] == ["error"]

    def test_first_step_hard_failure_raises_with_trace(self, fig2_bundle):
        # Recognition is the only step that feeds data_structure here, so
        # its failure leaves nothing to structure and no document.
        d = descriptor("molecule_image_only", path=str(fig2_bundle))
        registry = default_registry()

        def broken(ctx, request):
            raise ToolError("camera unplugged")

        registry.register("image2graph", broken)
        with pytest.raises(ExecutionError) as err:
            execute_plan(plan_extraction(d, BACKEND), d, registry=registry)
        assert str(err.value) == (
            "the run wrote no document; failed steps: molecular_recognition, data_structure"
        )
        assert [t["status"] for t in err.value.trace if t["type"] == "tool"] == ["error"]
        verdicts = [(t["step"], t["reasons"]) for t in err.value.trace if t["type"] == "observer"]
        assert verdicts == [
            ("molecular_recognition", ["tool 'image2graph' failed: camera unplugged"]),
            ("data_structure", ["nothing to structure"]),
        ]

    def test_later_step_failure_degrades_dependents(self, fig2_setup):
        d, plan = fig2_setup
        registry = default_registry()

        def broken(ctx, request):
            raise ToolError("recognizer offline")

        registry.register("image2graph", broken)
        result = execute_plan(plan, d, registry=registry)
        failed = [t for t in result.trace if t.get("type") == "step_failed"]
        degraded = [t for t in result.trace if t.get("type") == "degraded"]
        assert [t["step"] for t in failed] == ["molecular_recognition"]
        # Downstream consumers of recognition's outputs are skipped, not run.
        assert {t["step"] for t in degraded} == {
            "structure_rgroup",
            "condition_interpretation",
        }
        # The template-level record survives even without the variants.
        assert len(result.records) >= 1

    def test_trace_holds_only_its_own_runs_warnings(self, fig2_setup):
        # Run B logs a warning per graph written while run A waits inside
        # its ocr tool.
        d, plan = fig2_setup
        a_in_ocr, b_done = threading.Event(), threading.Event()
        registry_a, registry_b = default_registry(), default_registry()
        real_ocr, real_graph2smiles = registry_a._tools["ocr"], registry_b._tools["graph2smiles"]

        def waiting_ocr(ctx, request):
            a_in_ocr.set()
            b_done.wait(timeout=60)
            return real_ocr(ctx, request)

        def logging_graph2smiles(ctx, request):
            a_in_ocr.wait(timeout=60)
            response = real_graph2smiles(ctx, request)
            logging.getLogger("rxnscope.agents.tools").warning("wrote %s", response["smiles"])
            return response

        registry_a.register("ocr", waiting_ocr)
        registry_b.register("graph2smiles", logging_graph2smiles)
        results = {}

        def run_a():
            results["a"] = execute_plan(plan, d, registry=registry_a)

        def run_b():
            try:
                results["b"] = execute_plan(plan, d, registry=registry_b)
            finally:
                b_done.set()

        threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert a_in_ocr.is_set()

        def logs(result):
            return [e["message"] for e in result.trace if e["type"] == "log"]

        written = [e["response"]["smiles"] for e in results["b"].trace if e.get("tool") == "graph2smiles"]
        assert logs(results["a"]) == []
        assert logs(results["b"]) == [f"wrote {smiles}" for smiles in written]
        assert len(written) == 14


class TestTextTableScope:
    # A table token (Ph), a formula (4-BrC6H4), a typo the scripted
    # backend corrects (Pj) and a token nothing reads (Qq7, in two rows,
    # one alias), with time and yield cells.
    PINNED_TABLE = (
        "entry\tR\tAr\tproduct\ttime\tyield\n"
        "1\tMe\tPh\t3a\t24 h\t71%\n"
        "2\tEt\t4-BrC6H4\t3b\t12 h\t78%\n"
        "3\tMe\tPj\t3c\t24 h\t60%\n"
        "4\tEt\tQq7\t3d\t36 h\t52%\n"
        "5\tMe\tQq7\t3e\t24 h\t61%\n"
    )

    def test_document_digest_is_pinned(self, fig2_bundle, tmp_path):
        d = _text_table_copy(fig2_bundle, tmp_path, self.PINNED_TABLE)
        document = execute_plan(plan_extraction(d, BACKEND), d).document
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "d99f06c978e904f22f9f1baac029bdb9c6b59be11a6b17794fb3f66901c85d10"
        )

    def test_trace_digest_is_pinned(self, fig2_bundle, tmp_path):
        # Serialized as ``rxnscope extract --trace`` writes it.
        d = _text_table_copy(fig2_bundle, tmp_path, self.PINNED_TABLE)
        trace = execute_plan(plan_extraction(d, BACKEND), d).trace
        written = json.dumps(list(trace), indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "092f459e128dab9c6b12fba30733037daf9e9a5e442f0288a404949f6f4d26ed"
        )

    def test_trace_lost_only_its_instantiation_writes(self, fig2_bundle, tmp_path):
        # The table step wrote each row's instantiated templates through a
        # traced ``graph2smiles`` call, after the warnings the row's cells
        # raised: the placeholder-free reactant in the first row only, then
        # the product. Put back in row order, they give the old trace.
        d = _text_table_copy(fig2_bundle, tmp_path, self.PINNED_TABLE)
        result = execute_plan(plan_extraction(d, BACKEND), d)
        trace = list(result.trace)
        start = next(i for i, e in enumerate(trace) if e.get("tool") == "table_parser") + 1
        end = trace.index({"type": "observer", "step": "text_rgroup", "passed": True, "reasons": []})
        logs = trace[start:end]
        assert [e["type"] for e in logs] == ["log"]
        fixed = [not e.graph.placeholder_indices() for e in result.records[0].reactants]
        rows = parse_rgroup_table(self.PINNED_TABLE)
        restored = []
        for k, (row, record) in enumerate(zip(rows, result.records[1:])):
            restored += [
                e for e in logs
                if e not in restored and any(f"table cell {cell!r}" in e["message"] for cell in row.values.values())
            ]
            entries = [e for e, f in zip(record.reactants, fixed) if k == 0 or not f] + [record.products[0]]
            restored += [
                {
                    "type": "tool", "step": "text_rgroup", "tool": "graph2smiles",
                    "request": {"graph": {"atoms": len(e.graph.atoms), "bonds": len(e.graph.bonds)}},
                    "response": {"smiles": e.smiles}, "status": "ok",
                }
                for e in entries
            ]
        trace[start:end] = restored
        written = json.dumps(trace, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(written.encode()).hexdigest() == (
            "e269e2ece5b11f1a36563fb846ca659d7c9c350af76bdb576ac837c132bf5175"
        )

    def test_template_without_reactants_writes_records_without_reactants(self, fig2_bundle, tmp_path):
        # The table step instantiates an empty reactant side as no
        # reactants; the structuring observer names every such record.
        rows = "entry\tR\tAr\tproduct\n" + "".join(f"{i}\tMe\tPh\t3{i}\n" for i in range(1, 25))
        d = _text_table_copy(fig2_bundle, tmp_path, rows)
        template = json.loads((tmp_path / "template.json").read_text())
        edited = {**template, "reactant_templates": [], "reactant_labels": []}
        (tmp_path / "template.json").write_text(json.dumps(edited))
        result = execute_plan(plan_extraction(d, BACKEND), d)
        assert hashlib.sha256(result.document.encode()).hexdigest() == (
            "597da4e83f9ed42d5e7750f6e270c6d7c9ee28a6d78cdb75c316cb1d88a45922"
        )
        reactions = json.loads(result.document)["reactions"]
        assert [len(r["reactants"]) for r in reactions] == [0] * 25
        verdicts = {e["step"]: e for e in result.trace if e["type"] == "observer"}
        assert verdicts["text_rgroup"]["passed"]
        assert not verdicts["data_structure"]["passed"]
        assert verdicts["data_structure"]["reasons"] == [
            f"{i}_1: concrete record has no reactants" for i in range(1, 25)
        ]

    def test_each_cell_and_template_formula_is_read_once(self, fig2_bundle, tmp_path, monkeypatch):
        # Ar and Ar2 each stand in a reactant and the product template, but
        # a distinct cell or formula is read once per run, and so is a
        # misspelt cell's answer: each unread token goes to the backend once
        # and is logged once.
        reads = []
        read = chemops.parse_condensed_formula

        def spy(text, table=None):
            reads.append(text)
            return read(text, table)

        class Asked(ScriptedBackend):
            tokens = []

            def respond(self, role, context):
                if role == "token_correction":
                    self.tokens.append(context["token"])
                return super().respond(role, context)

        monkeypatch.setattr(chemops, "parse_condensed_formula", spy)
        table = (
            "entry\tR\tAr\tproduct\n"
            "1\tMe\t4-BrC6H4\t3a\n"
            "2\tEt\t4-BrC6H4\t3b\n"
            "3\tMe\tPj\t3c\n"
            "4\tEt\tQq7\t3d\n"
            "5\tMe\tQq7\t3e\n"
        )
        d = _text_table_copy(fig2_bundle, tmp_path, table)
        backend = Asked()
        result = execute_plan(plan_extraction(d, backend), d, backend=backend)
        assert len(result.records) == 6
        # Qq7 reads as nothing: it is read once, as a cell. The backend
        # answers it unchanged, and the four template graphs its two rows
        # splice it into take its alias without reading it again.
        assert Counter(reads) == {"2-ClC6H4": 1, "4-BrC6H4": 1, "Pj": 1, "Qq7": 1}
        assert backend.tokens == ["Pj", "Qq7"]
        warnings = [e for e in result.trace if e["type"] == "log" and "Qq7" in e["message"]]
        assert len(warnings) == 1


def _written_texts(trace) -> list[str]:
    """Every molecule text a run's tools wrote from a graph, in trace order."""
    texts = []
    for e in trace:
        if e.get("tool") == "graph2smiles" and e["status"] == "ok":
            texts.append(e["response"]["smiles"])
        elif e.get("tool") == "smiles_reconstructor" and e["status"] == "ok":
            texts += [t for vr in e["response"]["variant_reactions"] for t in vr["reactants"]]
    return texts


class TestMoleculeEntries:
    """A run parses each distinct molecule text it meets once, whether it
    read the text from outside or a tool wrote it from a graph, and hands
    the entry on; ``parse_smiles`` keeps nothing."""

    @pytest.fixture
    def parsed(self, monkeypatch) -> list:
        AbbreviationTable.default()  # a process reads its packaged table once
        texts = []
        real = smiles._parse
        monkeypatch.setattr(smiles, "_parse", lambda text: texts.append(text) or real(text))
        return texts

    @pytest.fixture
    def writes(self, monkeypatch) -> dict:
        """The texts ``graph2smiles`` writes, and those ``ReactionTemplate``
        writes when it instantiates a template."""
        texts = {"graph2smiles": [], "instantiate": []}
        for key, module in (("graph2smiles", tools), ("instantiate", rgroup)):
            def write(g, real=module.write_smiles, out=texts[key]):
                out.append(real(g))
                return out[-1]

            monkeypatch.setattr(module, "write_smiles", write)
        return texts

    @pytest.fixture
    def text_table(self, fig2_bundle, tmp_path):
        table = "entry\tR\tAr\tproduct\n1\tMe\tPh\t3a\n2\tEt\t4-BrC6H4\t3b\n3\tMe\tQq7\t3c\n"
        d = _text_table_copy(fig2_bundle, tmp_path, table)
        return d, plan_extraction(d, BACKEND)

    @pytest.mark.parametrize("bundle", ["fig2", "text-table"])
    def test_a_run_parses_no_text_twice(self, bundle, fig2_setup, text_table, parsed):
        d, plan = fig2_setup if bundle == "fig2" else text_table
        parsed.clear()
        execute_plan(plan, d)
        assert parsed
        assert len(parsed) == len(set(parsed))

    def test_fig2_run_parses_its_written_texts(self, fig2_setup, parsed):
        # Every molecule of fig2 is a drawn graph, written by ``graph2smiles``
        # or reconstructed; the placeholder-free reactant (the template's
        # second) is in every variant record, and it is parsed once.
        d, plan = fig2_setup
        result = execute_plan(plan, d)
        written = _written_texts(result.trace)
        assert len(written) == 14 + 2 * 6
        assert sorted(parsed) == sorted(set(written))
        assert len(set(written)) < len(written)
        fixed = result.records[0].reactants[1].smiles
        assert [fixed in (e.smiles for e in r.reactants) for r in result.records[1:]] == [True] * 6

    def test_sidecar_texts_are_parsed(self, fig2_bundle, tmp_path, parsed):
        # A sidecar ``smiles`` field is parsed as a written text is; one
        # that does not parse fails recognition.
        for path in fig2_bundle.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        molecules = json.loads((fig2_bundle / "molecules.json").read_text())
        molecules[2] = {"label": "3", "smiles": "C1CC"}
        (tmp_path / "molecules.json").write_text(json.dumps(molecules))
        d = Bundle.load(tmp_path).descriptor
        result = execute_plan(plan_extraction(d, BACKEND), d)
        # The run parses it once, and the observer once more to name it.
        assert Counter(parsed)["C1CC"] == 2
        assert {"type": "step_failed", "step": "molecular_recognition"} in result.trace

    def test_table_run_writes_a_placeholder_free_reactant_once_per_step(self, text_table, parsed, writes):
        # ``graph2smiles`` writes the placeholder-free reactant when the
        # template is parsed, and the table step writes it once for all 3
        # rows; both write the same text, which the run parses once.
        d, plan = text_table
        result = execute_plan(plan, d)
        fixed = result.records[0].reactants[1].smiles
        assert [Counter(texts)[fixed] for texts in writes.values()] == [1, 1]
        assert [fixed in (e.smiles for e in r.reactants) for r in result.records[1:]] == [True] * 3
        assert Counter(parsed)[fixed] == 1

    def test_table_step_writes_only_templates_with_a_placeholder_per_row(self, text_table, writes):
        d, plan = text_table
        execute_plan(plan, d)
        templates = [parse_smiles(text) for text in writes["graph2smiles"]]
        with_placeholder = sum(1 for g in templates if g.placeholder_indices())
        assert 0 < with_placeholder < len(templates)
        rows = 3
        assert len(writes["instantiate"]) == rows * with_placeholder + (len(templates) - with_placeholder)

    @pytest.mark.parametrize("bundle", ["fig2", "text-table"])
    def test_record_graphs_are_their_texts_parsed(self, bundle, fig2_setup, text_table):
        d, plan = fig2_setup if bundle == "fig2" else text_table
        records = execute_plan(plan, d).records
        entries = [e for r in records for e in r.reactants + r.products]
        assert len(entries) > len(records)
        for entry in entries:
            assert entry.graph == parse_smiles(entry.smiles), entry

    def test_parse_smiles_keeps_nothing_during_a_run(self, fig2_setup):
        d, plan = fig2_setup
        registry = default_registry()
        kept = []

        def ocr(ctx, request):
            kept.append(parse_smiles("CCO") is parse_smiles("CCO"))
            return {"text": ""}

        registry.register("ocr", ocr)
        execute_plan(plan, d, registry=registry)
        assert kept == [False]


# The first step of each canonical plan, and the sidecar its first tool reads.
FIRST_STEP_SIDECAR = {
    "reaction_template_parsing": "template.json",
    "molecular_recognition": "molecules.json",
    "text_extraction": "text.txt",
}

# What a run writes when its plan's first step fails, per modality set:
# the document's reaction count, its listed molecule count (None: it lists
# none) and whether it holds text; None when the run writes no document.
FIRST_STEP_FAILED = {
    ("reaction_template_image", "structure_table", "text_description"): (0, 11, True),
    ("reaction_template_image", "structure_table"): (0, 11, False),
    ("reaction_template_image", "text_description", "text_table"): (0, None, True),
    ("reaction_template_image", "text_table"): None,
    ("molecule_image_only",): None,
    ("molecule_image_only", "text_description"): (0, None, True),
    ("plain_text_only",): None,
}


class TestFailedFirstStep:
    """A failed step fails its outputs wherever it stands in the plan."""

    @pytest.mark.parametrize("shape", sorted(tuple(sorted(m)) for m in PLAN_TABLE), ids="+".join)
    def test_every_plan_shape(self, shape, fig2_bundle, tmp_path):
        for path in fig2_bundle.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "descriptor.json").write_text(json.dumps({"modalities": list(shape)}))
        (tmp_path / "table.txt").write_text("entry\tR\tAr\tproduct\n1\tMe\tPh\t3a\n")
        d = Bundle.load(tmp_path).descriptor
        plan = plan_extraction(d, BACKEND)
        first = plan.steps[0].agent
        (tmp_path / FIRST_STEP_SIDECAR[first]).write_bytes(b"\xff")
        expected = FIRST_STEP_FAILED[shape]
        if expected is None:
            with pytest.raises(ExecutionError) as err:
                execute_plan(plan, d)
            assert str(err.value).startswith("the run wrote no document; failed steps: ")
            trace = err.value.trace
        else:
            result = execute_plan(plan, d)
            doc = json.loads(result.document)
            listed = doc.get("molecules")
            count = None if listed is None else len(listed)
            assert (len(doc["reactions"]), count, bool(doc["Text description"])) == expected
            trace = result.trace
        assert [e["step"] for e in trace if e["type"] == "step_failed"][0] == first


class TestMoleculesOnlyDocument:
    """A run with no records writes the molecules it recognized instead."""

    @pytest.fixture
    def clone(self, fig2_bundle, tmp_path):
        for path in fig2_bundle.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        return tmp_path

    def test_fig2_molecules_document_is_pinned(self, clone):
        (clone / "descriptor.json").write_text(json.dumps({"modalities": ["molecule_image_only"]}))
        d = Bundle.load(clone).descriptor
        result = execute_plan(plan_extraction(d, BACKEND), d)
        assert json.loads(result.document)["reactions"] == []
        assert hashlib.sha256(result.document.encode()).hexdigest() == (
            "a303e48ef4cee50b647bb46bb948a7c31d04422ff31666271d0607deee9a5d81"
        )

    def test_texts_are_listed_as_recognized(self, fig2_bundle, clone):
        # An empty or absent label writes no "label" key, and a text that
        # does not parse is still listed although its step failed.
        modalities = ["molecule_image_only", "text_description"]
        (clone / "descriptor.json").write_text(json.dumps({"modalities": modalities}))
        molecules = json.loads((fig2_bundle / "molecules.json").read_text())
        del molecules[0]["label"]
        molecules[1]["label"] = ""
        molecules[2] = {"label": "3", "smiles": "C1CC"}
        (clone / "molecules.json").write_text(json.dumps(molecules))
        d = Bundle.load(clone).descriptor
        plan = Plan(steps=build_steps(["text_extraction", "molecular_recognition", "data_structure"]))
        result = execute_plan(plan, d)
        assert {"type": "step_failed", "step": "molecular_recognition"} in result.trace
        listed = json.loads(result.document)["molecules"]
        assert listed[:3] == [
            {"smiles": "[Ar]C([R])=O"},
            {"smiles": "Cc1ccc(S(=O)(=O)N2OC2[Ar2])cc1"},
            {"smiles": "C1CC", "label": "3"},
        ]
        assert len(listed) == 11

    def test_failed_recognition_under_the_canonical_plan(self, fig2_bundle, clone):
        # Recognition is the plan's first step; its failure keeps the texts.
        (clone / "descriptor.json").write_text(json.dumps({"modalities": ["molecule_image_only"]}))
        molecules = json.loads((fig2_bundle / "molecules.json").read_text())
        molecules[2] = {"label": "3", "smiles": "C1CC"}
        (clone / "molecules.json").write_text(json.dumps(molecules))
        d = Bundle.load(clone).descriptor
        result = execute_plan(plan_extraction(d, BACKEND), d)
        assert {"type": "step_failed", "step": "molecular_recognition"} in result.trace
        listed = json.loads(result.document)["molecules"]
        assert len(listed) == 11
        assert listed[2] == {"smiles": "C1CC", "label": "3"}
