import gc
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delmenu import (
    Action,
    CorrelatedInstance,
    IndependentInstance,
    ParseError,
    Profile,
    XNum,
    dump_instance,
    dumps_instance,
    gen_log_family,
    gen_outside_family,
    gen_random,
    gen_three_approx,
    load_instance,
    loads_instance,
)
from delmenu.serialize import instance_from_obj, instance_to_obj
from conftest import small_instances

FAMILIES = [
    gen_log_family(3),
    gen_three_approx(Fraction(1, 7)),
    gen_outside_family(2),
    gen_random("independent", 3, 2, seed=4, outside="random"),
    gen_random("correlated", 2, 3, seed=4, outside="fixed"),
    gen_random("correlated", 3, 4, seed=11, outside="none"),
]


@pytest.mark.parametrize("instance", FAMILIES, ids=range(len(FAMILIES)))
def test_round_trip_exact(instance):
    text = dumps_instance(instance)
    assert loads_instance(text) == instance
    # Serialization is canonical: a second trip is byte-identical.
    assert dumps_instance(loads_instance(text)) == text


def test_file_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    instance = gen_log_family(2)
    dump_instance(instance, str(path))
    assert load_instance(str(path)) == instance


def test_round_trip_default_labels():
    from delmenu import CorrelatedInstance, Profile, xnum

    inst = CorrelatedInstance(
        (xnum(0), xnum(1)),
        (Profile(Fraction(1), (xnum(1), xnum(2))),),
    )
    assert inst.labels == ("a1", "a2")
    assert loads_instance(dumps_instance(inst)) == inst


def test_rationals_are_canonical_strings():
    obj = json.loads(dumps_instance(gen_log_family(3)))
    assert obj["schema_version"] == 1
    assert obj["kind"] == "correlated"
    assert obj["profiles"][0]["prob"] == "1/7"
    assert obj["profiles"][0]["values"][0] == {"std": "8", "inf": "0"}
    assert obj["actions"][1]["bias"] == {"std": "4", "inf": "-1"}


def test_parse_error_bad_json():
    with pytest.raises(ParseError, match="line 1"):
        loads_instance("{not json")


def test_undecodable_deep_or_long_input_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_instance(str(path))
    with pytest.raises(ParseError, match="nested too deeply"):
        loads_instance("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError, match="integer literal too long"):
        loads_instance('{"schema_version": ' + "1" * 5000 + "}")


def test_parse_error_fields():
    with pytest.raises(ParseError, match="schema_version"):
        loads_instance(json.dumps({"schema_version": 9, "kind": "independent", "actions": []}))
    base = json.loads(dumps_instance(gen_three_approx(Fraction(1, 2))))
    bad = json.loads(json.dumps(base))
    bad["actions"][0]["support"][0]["prob"] = "1/3"  # probabilities no longer sum to 1
    with pytest.raises(ParseError, match="actions\\[0\\]"):
        loads_instance(json.dumps(bad))
    bad2 = json.loads(json.dumps(base))
    bad2["actions"][0]["bias"] = {"std": "1/0", "inf": "0"}
    with pytest.raises(ParseError, match="bias"):
        loads_instance(json.dumps(bad2))
    bad3 = json.loads(json.dumps(base))
    del bad3["actions"][0]["bias"]
    with pytest.raises(ParseError):
        loads_instance(json.dumps(bad3))


def test_parse_error_profile_width():
    base = json.loads(dumps_instance(gen_log_family(2)))
    base["profiles"][0]["values"].append({"std": "0", "inf": "0"})
    with pytest.raises(ParseError, match="values"):
        loads_instance(json.dumps(base))
    base["profiles"][0]["values"] = 5
    with pytest.raises(ParseError, match=r"profiles\[0\]\.values"):
        loads_instance(json.dumps(base))


def test_kind_required():
    with pytest.raises(ParseError, match="kind"):
        loads_instance(
            json.dumps({"schema_version": 1, "kind": "mixed", "actions": [{"bias": {}}]})
        )


def test_parse_error_support_not_a_list():
    base = json.loads(dumps_instance(gen_three_approx(Fraction(1, 2))))
    base["actions"][0]["support"] = {"value": {"std": "1", "inf": "0"}, "prob": "1"}
    with pytest.raises(ParseError, match=r"actions\[0\]\.support"):
        loads_instance(json.dumps(base))
    base["actions"][0]["support"] = ["1"]
    with pytest.raises(ParseError, match=r"support\[0\]"):
        loads_instance(json.dumps(base))


@pytest.mark.parametrize("instance", [gen_three_approx(Fraction(1, 2)), gen_log_family(2)])
def test_parse_error_null_label(instance):
    base = json.loads(dumps_instance(instance))
    base["actions"][1]["label"] = None
    with pytest.raises(ParseError, match=r"actions\[1\]\.label"):
        loads_instance(json.dumps(base))


@pytest.mark.parametrize("text", ["0.5", " 1_0 ", "1e3", "2/4", "+1", "-0", "01", "1/1", "1/0"])
@pytest.mark.parametrize("field", ["bias", "value", "prob"])
def test_parse_error_non_canonical_rational(text, field):
    obj = json.loads(dumps_instance(gen_three_approx(Fraction(1, 2))))
    action = obj["actions"][0]
    if field == "bias":
        action["bias"]["inf"] = text
    elif field == "value":
        action["support"][0]["value"]["std"] = text
    else:
        action["support"][0]["prob"] = text
    with pytest.raises(ParseError, match=r"actions\[0\].*(invalid rational|canonical form)"):
        loads_instance(json.dumps(obj))


def uncached_load(text):
    """The instance in ``text``, each literal read anew by ``Fraction``."""
    obj = json.loads(text)

    def number(o):
        return XNum(Fraction(o["std"]), Fraction(o["inf"]))

    def action(a):
        support = tuple((number(e["value"]), Fraction(e["prob"])) for e in a["support"])
        return Action(number(a["bias"]), support, a["label"])

    outside = obj["outside"]
    if obj["kind"] == "independent":
        return IndependentInstance(tuple(map(action, obj["actions"])), outside and action(outside))
    return CorrelatedInstance(
        tuple(number(a["bias"]) for a in obj["actions"]),
        tuple(
            Profile(Fraction(p["prob"]), tuple(map(number, p["values"]))) for p in obj["profiles"]
        ),
        outside and number(outside["bias"]),
        tuple(a["label"] for a in obj["actions"]),
    )


@pytest.mark.parametrize("kind", ["independent", "correlated"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_equals_an_uncached_load(kind, data):
    # Drawn with iota parts, unlike denominators and every outside mode.
    instance = data.draw(small_instances(kind, max_den=3))
    text = dumps_instance(instance)
    loaded = loads_instance(text)
    assert loaded == uncached_load(text) == instance
    assert dumps_instance(loaded) == text


def test_equal_literals_share_one_xnum_and_no_load_keeps_them():
    text = dumps_instance(gen_log_family(4))
    instance = loads_instance(text)
    values = [v for p in instance.profiles for v in p.values] + list(instance.biases)
    # Literals are canonical, so equal numbers had equal literal pairs: one object each.
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    again = loads_instance(text)
    assert again == instance and again.biases[0] is not instance.biases[0]
    # Once the instance is gone, nothing holds its numbers: no cache outlives a load.
    zero = weakref.ref(instance.biases[0])
    del instance, values
    gc.collect()
    assert zero() is None


def test_each_distinct_profile_is_rendered_once():
    instance = gen_log_family(5)
    entries = instance_to_obj(instance)["profiles"]
    # Level i is profiles 2^i .. 2^(i+1) - 1, counted from 1: one row, so one dict.
    for i in range(5):
        level = entries[2**i - 1 : 2 ** (i + 1) - 1]
        assert len(level) == 2**i and all(entry is level[0] for entry in level)
    assert len({id(entry) for entry in entries}) == 5
    assert json.dumps(instance_to_obj(instance), indent=2) + "\n" == dumps_instance(instance)


def test_equal_rows_load_as_one_profile():
    obj = json.loads(dumps_instance(gen_log_family(3)))
    # Profiles 0 and 2 get level 1's row, as a copy of the literals: one row.
    obj["profiles"][0] = json.loads(json.dumps(obj["profiles"][2]))
    instance = instance_from_obj(obj)
    assert instance.profiles[0] is instance.profiles[1] is instance.profiles[2]
    assert [m for _, m in instance.rows] == [3, 4]
    # The same values under another probability literal are another row.
    obj["profiles"][0]["prob"] = "2/7"
    obj["profiles"][6]["prob"] = "0"
    with pytest.raises(ParseError, match=r"^profiles\[6\]: profile probability 0 is not positive$"):
        instance_from_obj(obj)


def test_a_repeated_negative_row_is_named_at_its_first_occurrence():
    obj = json.loads(dumps_instance(gen_log_family(3)))
    # Level 2's row is profiles[3..6]; the same negative literal in each is one row.
    for entry in obj["profiles"][3:]:
        entry["values"][4] = {"std": "-1", "inf": "0"}
    message = r"^profiles\[3\]: profile value -1 has negative standard part$"
    with pytest.raises(ParseError, match=message):
        instance_from_obj(obj)
    # A negative value only in a later occurrence makes that occurrence its own row.
    obj = json.loads(dumps_instance(gen_log_family(3)))
    obj["profiles"][5]["values"][4] = {"std": "-1", "inf": "0"}
    with pytest.raises(ParseError, match=r"^profiles\[5\]: profile value -1"):
        instance_from_obj(obj)
