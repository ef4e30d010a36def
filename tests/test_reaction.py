import json
import logging
import random
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from rxnscope.reaction import (
    ROLES,
    CodecError,
    ConditionItem,
    ConditionLexicon,
    MoleculeEntry,
    ReactionRecord,
    TableParseError,
    align_conditions,
    classify_condition,
    decode_records,
    encode_records,
    parse_rgroup_table,
    validate_record,
)
from rxnscope.reaction import _TEMP_VALUE
from rxnscope.smiles import canonicalize, parse_smiles

from oracles import TEMP_VALUE_TWO_BLANK_RUNS, random_condition_text


def one(text: str) -> ConditionItem:
    items = classify_condition(text)
    assert len(items) == 1, items
    return items[0]


class TestClassifyCondition:
    def test_solvent_with_smiles(self):
        item = one("PhMe")
        assert item.role == "solvent"
        assert canonicalize(item.smiles) == canonicalize("Cc1ccccc1")

    def test_every_packaged_solvent_parses(self):
        # A condition item takes its SMILES as given; the packaged ones are checked here.
        lexicon = ConditionLexicon.default()
        names = json.loads(
            resources.files("rxnscope.data").joinpath("condition_lexicon.json").read_text()
        )["solvents"]
        assert len(names) > 10
        for name in names:
            parse_smiles(lexicon.solvent_smiles(name))

    def test_room_temperature(self):
        assert one("rt").role == "temperature"

    def test_yield_range(self):
        item = one("38 - 78%")
        assert item.role == "yield"
        assert item.text == "38 - 78%"

    def test_diastereomer_ratio(self):
        assert one("14:1 dr").role == "add_info"

    def test_ee_beats_percent(self):
        # "%" alone reads as yield; the ee suffix overrides that.
        assert one("91% ee").role == "add_info"

    def test_mol_percent_reagent(self):
        item = one("10 mol% Cs2CO3")
        assert item.role == "reagent"
        assert item.text == "10 mol% Cs2CO3"

    def test_reagent_alternatives_fan_out(self):
        items = classify_condition("10 mol% B17 or B27")
        assert [i.role for i in items] == ["reagent", "reagent"]
        assert [i.label for i in items] == ["B17", "B27"]
        assert items[0].text == items[1].text == "10 mol% B17 or B27"

    def test_celsius_and_kelvin(self):
        assert one("80 °C").role == "temperature"
        assert one("273 K").role == "temperature"

    def test_time_units(self):
        for text in ["24 h", "30 min", "2 d"]:
            assert one(text).role == "time", text

    def test_comma_split_keeps_order(self):
        items = classify_condition("PhMe, rt, 24 h, 38 - 78%")
        assert [i.role for i in items] == ["solvent", "temperature", "time", "yield"]

    def test_unclassified_residue_is_add_info(self):
        assert one("under nitrogen").role == "add_info"

    @given(st.text(max_size=40))
    def test_total_and_closed_enum(self, text):
        for item in classify_condition(text):
            assert item.role in ROLES
            assert item.text

    def test_deterministic(self):
        text = "10 mol% B17 or B27, PhMe, rt, 24 h, 38 - 78%"
        assert classify_condition(text) == classify_condition(text)

    def test_temperature_pattern_agrees_with_reference(self):
        rng = random.Random(36)
        texts = [random_condition_text(rng) for _ in range(5000)]

        def matches(pattern, text):
            return [(m.span(), m.groups()) for m in pattern.finditer(text)]

        assert [t for t in texts if matches(_TEMP_VALUE, t) != matches(TEMP_VALUE_TWO_BLANK_RUNS, t)] == []
        assert sum(bool(_TEMP_VALUE.search(t)) for t in texts) > 300


def record(rid: str, product_label: str) -> ReactionRecord:
    return ReactionRecord(
        reaction_id=rid,
        reactants=(MoleculeEntry(smiles="CCO"),),
        conditions=(),
        products=(MoleculeEntry(smiles="CC=O", label=product_label),),
    )


class TestAlignConditions:
    def test_variant_items_attach_by_product_label(self):
        shared = classify_condition("PhMe, rt")
        per_variant = {"3a": classify_condition("71%")}
        records = align_conditions(
            shared, per_variant, [record("1_1", "3a"), record("2_1", "3b")]
        )
        assert [c.role for c in records[0].conditions] == [
            "solvent",
            "temperature",
            "yield",
        ]
        assert [c.role for c in records[1].conditions] == ["solvent", "temperature"]

    def test_unknown_label_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="rxnscope.reaction"):
            records = align_conditions(
                [], {"9z": classify_condition("71%")}, [record("1_1", "3a")]
            )
        assert records[0].conditions == ()
        assert caplog.messages == ["condition annotation for '9z' matches no reaction record"]

    def test_no_duplicate_items(self):
        shared = classify_condition("rt")
        per_variant = {"3a": classify_condition("rt")}
        records = align_conditions(shared, per_variant, [record("1_1", "3a")])
        identities = [c.identity() for c in records[0].conditions]
        assert len(identities) == len(set(identities))

    def test_add_info_goes_to_additional_info_and_the_shared_yield_goes(self):
        shared = classify_condition("PhMe, 60-90%")
        per_variant = {"3a": classify_condition("71%, 5:1 dr")}
        first, second = align_conditions(shared, per_variant, [record("1_1", "3a"), record("2_1", "3b")])
        assert [(c.role, c.text) for c in first.conditions] == [("solvent", "PhMe"), ("yield", "71%")]
        assert first.additional_info == ("5:1 dr",)
        assert [(c.role, c.text) for c in second.conditions] == [("solvent", "PhMe")]
        assert second.additional_info == ()

    def test_empty_per_variant(self, caplog):
        shared = classify_condition("PhMe")
        with caplog.at_level(logging.WARNING, logger="rxnscope.reaction"):
            records = align_conditions(shared, {}, [record("1_1", "3a")])
        assert list(records[0].conditions) == shared
        assert caplog.messages == []


FIG_TABLE = """entry\tR1\tR2\tR3\tR4\ttime\tproduct\tyield
1\tPh\tH\tPh\t4-BrC6H4\t24\t3a\t78
2\tPh\tH\tPh\t3-BrC6H4\t24\t3b\t67
3\tPh\tH\tPh\t2-BrC6H4\t24\t3c\t78
"""


class TestParseRGroupTable:
    def test_rows_and_columns(self):
        rows = parse_rgroup_table(FIG_TABLE)
        assert len(rows) == 3
        first = rows[0]
        assert first.entry == 1
        assert first.values == {"R1": "Ph", "R2": "H", "R3": "Ph", "R4": "4-BrC6H4"}
        assert first.metadata == {"time": "24", "product": "3a", "yield": "78"}

    def test_header_only(self):
        assert parse_rgroup_table("entry\tR1\tproduct\n") == []

    def test_dash_cell_absent(self):
        rows = parse_rgroup_table("entry\tR1\tR2\n1\tPh\t-\n")
        assert rows[0].values == {"R1": "Ph"}
        assert "R2" not in rows[0].values

    def test_two_space_separation(self):
        rows = parse_rgroup_table("entry  R1  product\n1  Et  3a\n")
        assert rows[0].values["R1"] == "Et"
        assert rows[0].metadata["product"] == "3a"

    def test_overlong_row_names_row_number(self):
        with pytest.raises(TableParseError) as err:
            parse_rgroup_table("entry\tR1\n1\tPh\textra\n")
        assert "row 1" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(TableParseError):
            parse_rgroup_table("")


class TestMoleculeEntry:
    def test_keeps_its_graph_out_of_equality_hash_and_repr(self):
        a = MoleculeEntry(smiles="CCO", label="1")
        b = MoleculeEntry(smiles="CCO", label="1")
        assert a.graph == parse_smiles("CCO")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "MoleculeEntry(smiles='CCO', label='1')"

    def test_relabelled_entry_keeps_its_graph(self, monkeypatch):
        a = MoleculeEntry(smiles="CCO", label="1")
        monkeypatch.setattr(MoleculeEntry, "__post_init__", lambda e: pytest.fail("parsed again"))
        b = a.with_label("2")
        assert (b.smiles, b.label, b.graph) == ("CCO", "2", a.graph)
        assert b.graph is a.graph and a.label == "1"
        assert a.with_label("1") is a


class TestValidateRecord:
    def test_concrete_record_needs_both_sides(self):
        empty = ReactionRecord(reaction_id="1_1", reactants=(), conditions=(), products=())
        assert validate_record(empty)
        assert validate_record(record("1_1", "3a")) == []

    def test_template_record_may_hold_placeholders(self):
        rec = ReactionRecord(
            reaction_id="0_1",
            reactants=(MoleculeEntry(smiles="[Ar]C([R])=O", label="1"),),
            conditions=(),
            products=(MoleculeEntry(smiles="[Ar]C([R])(O)C#N", label="3"),),
        )
        assert rec.is_template_record()
        assert validate_record(rec) == []

    def test_concrete_record_is_not_a_template(self):
        assert not record("1_1", "3a").is_template_record()


conditions_strategy = st.lists(
    st.builds(
        ConditionItem,
        role=st.sampled_from(ROLES),
        text=st.text(min_size=1, max_size=12).map(lambda s: s.strip() or "x"),
        smiles=st.none() | st.sampled_from(["CCO", "Cc1ccccc1"]),
        label=st.none() | st.sampled_from(["B17", "3a"]),
    ),
    max_size=4,
)

records_strategy = st.lists(
    st.builds(
        ReactionRecord,
        reaction_id=st.uuids().map(str),
        reactants=st.lists(
            st.builds(
                MoleculeEntry,
                smiles=st.sampled_from(["CCO", "CC=O", "c1ccccc1"]),
                label=st.none() | st.sampled_from(["1", "2"]),
            ),
            min_size=1,
            max_size=3,
        ).map(tuple),
        conditions=conditions_strategy.map(tuple),
        products=st.lists(
            st.builds(MoleculeEntry, smiles=st.sampled_from(["CC(C)=O", "OCC"])),
            min_size=1,
            max_size=2,
        ).map(tuple),
        additional_info=st.lists(st.text(min_size=1, max_size=8), max_size=2).map(tuple),
    ),
    max_size=4,
)


class TestCodec:
    def test_round_trip_minimal(self):
        rec = record("1_1", "3a")
        back, text = decode_records(encode_records([rec], "scheme 1", None))
        assert back == [rec]
        assert text == "scheme 1"

    @given(records_strategy, st.text(max_size=30))
    def test_round_trip_random(self, records, description):
        back, text = decode_records(encode_records(records, description, None))
        assert back == records
        assert text == description

    def test_exact_key_names(self):
        doc = json.loads(encode_records([record("1_1", "3a")], "d", None))
        assert set(doc) == {"Text description", "reactions"}
        rec = doc["reactions"][0]
        assert list(rec) == [
            "reaction_id",
            "reactants",
            "conditions",
            "products",
            "additional_info",
        ]

    def test_unknown_role_names_path(self):
        bad = json.dumps(
            {
                "Text description": "",
                "reactions": [
                    {
                        "reaction_id": "1_1",
                        "reactants": [{"smiles": "CCO"}],
                        "conditions": [{"role": "flavor", "text": "sweet"}],
                        "products": [{"smiles": "CC=O"}],
                        "additional_info": [],
                    }
                ],
            }
        )
        with pytest.raises(CodecError) as err:
            decode_records(bad)
        assert "conditions[0].role" in str(err.value)

    def test_missing_key_names_path(self):
        bad = json.dumps({"reactions": [{"reactants": []}]})
        with pytest.raises(CodecError) as err:
            decode_records(bad)
        assert "reaction_id" in str(err.value)

    @pytest.mark.parametrize("role,text", [("flavor", "sweet"), ("solvent", "")])
    def test_condition_item_raises_a_codec_error(self, role, text):
        with pytest.raises(CodecError):
            ConditionItem(role=role, text=text)

    def test_duplicate_reaction_ids_rejected(self):
        rec = record("1_1", "3a")
        text = encode_records([rec, rec], "", None)
        with pytest.raises(CodecError):
            decode_records(text)

    @pytest.mark.parametrize(
        "field", ["reactants", "products", "conditions", "additional_info"]
    )
    @pytest.mark.parametrize("value", [5, None, "CCO", {"smiles": "CCO"}])
    def test_non_list_field_names_path(self, field, value):
        obj = {"reaction_id": "1_1", field: value}
        with pytest.raises(CodecError) as err:
            decode_records(json.dumps({"reactions": [obj]}))
        assert str(err.value) == f"document.reactions[0].{field}: expected a list"
