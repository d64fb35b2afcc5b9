"""Exact JSON serialization of instances.

Every rational is a canonical reduced string ("24/7", "-3", "0"), and the
parser accepts no other spelling; numbers of the form a + b*iota are
{"std": ..., "inf": ...} objects.  Parsing a serialized instance reproduces
it exactly, and serialization is deterministic, so equal instances produce
byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Set as AbstractSet
from fractions import Fraction
from typing import Any

from .model import (
    Action,
    CorrelatedInstance,
    DelegationError,
    IndependentInstance,
    Instance,
    Profile,
)
from .xnum import DigitLimitError, XNum, parse_rational

SCHEMA_VERSION = 1

# The keys an instance file's top level and an exact number may hold; every
# other object is read by its schema (read_fields).
_FILE_KEYS = frozenset({"schema_version", "kind", "actions", "outside"})
_CORRELATED_FILE_KEYS = _FILE_KEYS | {"profiles"}
_XNUM_KEYS = frozenset({"std", "inf"})


class ParseError(DelegationError, ValueError):
    """Malformed instance file; the message names the offending field."""


def xnum_to_obj(x: XNum) -> dict[str, str]:
    return {"std": str(x.std), "inf": str(x.inf)}


def read_rational(obj: Any, where: str) -> Fraction:
    """A canonical rational string (``str(x) == obj``); ``ParseError`` names ``where``."""
    if not isinstance(obj, str):
        raise ParseError(f"{where}: expected a rational string, got {obj!r}")
    try:
        x = parse_rational(obj)
    except DigitLimitError as exc:  # names the limit, never the over-long literal
        raise ParseError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{where}: invalid rational {obj!r}") from exc
    if str(x) != obj:
        raise ParseError(f"{where}: rational {obj!r} is not in canonical form {x}")
    return x


def _parse_xnum(obj: Any, where: str, xnums: dict[tuple[str, str], XNum]) -> XNum:
    """``obj`` as an XNum; ``xnums`` holds one load's XNums by their literal pair.

    XNums are frozen, so equal literal pairs share one object.  A pair enters
    ``xnums`` only once both its literals have parsed, so a bad literal
    still fails where it first occurs.
    """
    if not isinstance(obj, dict) or obj.keys() != _XNUM_KEYS:
        raise ParseError(f"{where}: expected an object with 'std' and 'inf'")
    std, inf = literals = obj["std"], obj["inf"]
    x = xnums.get(literals) if isinstance(std, str) and isinstance(inf, str) else None
    if x is None:
        x = XNum(read_rational(std, f"{where}.std"), read_rational(inf, f"{where}.inf"))
        xnums[literals] = x
    return x


def read_field(obj: dict[str, Any], name: str, default: Any, where: str) -> Any:
    """Field ``name`` of the JSON object ``obj`` at ``where``, of the type of ``default``.

    A type in place of a default makes the field required.  An int is a
    JSON integer (not a boolean), a tuple two of them, a Fraction a
    canonical rational string, a list a JSON array and a dict a JSON
    object; anything else raises ``ParseError``.
    """
    where = f"{where}.{name}"
    want = default if isinstance(default, type) else type(default)
    if name not in obj:
        if want is default:
            raise ParseError(f"{where}: missing field")
        return default
    value = obj[name]
    if want is Fraction:
        return read_rational(value, where)
    # type() is exact: True is an int to isinstance; no JSON value is a tuple.
    if want is tuple and type(value) is list and len(value) == 2 and {*map(type, value)} == {int}:
        return tuple(value)
    if type(value) is want:
        return value
    expected = {
        int: "an integer", str: "a string", tuple: "two integers", list: "a list", dict: "an object"
    }[want]
    raise ParseError(f"{where}: expected {expected}, got {value!r}")


def check_fields(obj: Any, known: AbstractSet[str], where: str) -> None:
    """Refuse an ``obj`` that is not a JSON object, or that holds a key outside ``known``.

    ``ParseError`` names ``where``, and the first such key in ``obj``'s own
    order under it (the top level's ``where`` is "").
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if not obj.keys() <= known:
        name = next(key for key in obj if key not in known)
        raise ParseError(f"{where}.{name}: unknown field" if where else f"{name}: unknown field")


def read_fields(obj: Any, schema: dict[str, Any], where: str) -> list[Any]:
    """The fields of the JSON object ``obj`` at ``where``, read in ``schema``'s order.

    ``schema`` maps each field the object may hold to its :func:`read_field`
    default, or to a type for a required field.  A non-object, or a key
    outside ``schema``, is refused before any field is read (:func:`check_fields`).
    """
    check_fields(obj, schema.keys(), where)
    return [read_field(obj, name, default, where) for name, default in schema.items()]


def _action_to_obj(a: Action, render: Callable[[XNum], dict[str, str]]) -> dict[str, Any]:
    return {
        "label": a.label,
        "bias": render(a.bias),
        "support": [{"value": render(v), "prob": str(p)} for v, p in a.support],
    }


def _parse_action(obj: Any, where: str, xnums: dict[tuple[str, str], XNum]) -> Action:
    entries, bias, label = read_fields(obj, {"support": [], "bias": dict, "label": ""}, where)
    support = []
    for i, entry in enumerate(entries):
        at = f"{where}.support[{i}]"
        value, prob = read_fields(entry, {"value": dict, "prob": Fraction}, at)
        support.append((_parse_xnum(value, f"{at}.value", xnums), prob))
    bias = _parse_xnum(bias, f"{where}.bias", xnums)
    # Field errors above already name their field; only the action's own
    # checks (probabilities, values) get the action's location here.
    try:
        return Action(bias, tuple(support), label)
    except DelegationError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def instance_to_obj(instance: Instance) -> dict[str, Any]:
    """The JSON object of ``instance``.

    Each distinct value object and each distinct ``Profile`` is rendered
    once per call, by its ``id``, and its occurrences share the one rendered
    dict, so a caller that edits the object edits every occurrence; nothing
    is kept after the call.
    """
    rendered: dict[int, dict[str, Any]] = {}

    def render(x: Any, to_obj: Callable[[Any], dict[str, Any]] = xnum_to_obj) -> dict[str, Any]:
        obj = rendered.get(id(x))
        if obj is None:
            obj = rendered[id(x)] = to_obj(x)
        return obj

    def profile_to_obj(p: Profile) -> dict[str, Any]:
        return {"prob": str(p.prob), "values": list(map(render, p.values))}

    if isinstance(instance, IndependentInstance):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "independent",
            "actions": [_action_to_obj(a, render) for a in instance.actions],
            "outside": _action_to_obj(instance.outside, render) if instance.outside else None,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "correlated",
        "actions": [
            {"label": instance.label_of(i), "bias": render(instance.bias_of(i))}
            for i in range(1, instance.n + 1)
        ],
        "outside": (
            {"bias": render(instance.outside_bias)}
            if instance.outside_bias is not None
            else None
        ),
        "profiles": [render(p, profile_to_obj) for p in instance.profiles],
    }


def instance_from_obj(obj: Any) -> Instance:
    """The instance ``obj`` describes; ``ParseError`` names the first bad field.

    Each distinct ``(std, inf)`` pair of literals is parsed once per call,
    into one XNum that all its occurrences share, and each distinct row, its
    ``prob`` literal and those XNums, is one ``Profile``, built and checked
    where it first occurs; nothing is kept after the call.  Objects are read
    in file order, and each by its schema (:func:`read_fields`): its unknown
    keys, then each field's presence and type, then its nested objects and
    exact numbers.  So an error names the first faulty object in file order,
    and within it the first fault in that order.
    """
    xnums: dict[tuple[str, str], XNum] = {}
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    version = obj.get("schema_version")
    # True and 1.0 equal 1 in Python; only the JSON integer 1 is the version.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    kind = obj.get("kind")
    actions = obj.get("actions")
    if not isinstance(actions, list) or not actions:
        raise ParseError("actions: expected a nonempty list")
    if kind == "independent":
        check_fields(obj, _FILE_KEYS, "")
        parsed = tuple(_parse_action(a, f"actions[{i}]", xnums) for i, a in enumerate(actions))
        outside = obj.get("outside")
        out = _parse_action(outside, "outside", xnums) if outside is not None else None
        return IndependentInstance(parsed, out)  # actions is nonempty, its one check
    if kind == "correlated":
        check_fields(obj, _CORRELATED_FILE_KEYS, "")
        biases = []
        labels = []
        for i, a in enumerate(actions):
            bias, label = read_fields(a, {"bias": dict, "label": f"a{i + 1}"}, f"actions[{i}]")
            biases.append(_parse_xnum(bias, f"actions[{i}].bias", xnums))
            labels.append(label)
        outside = obj.get("outside")
        outside_bias = None
        if outside is not None:
            (bias,) = read_fields(outside, {"bias": dict}, "outside")
            outside_bias = _parse_xnum(bias, "outside.bias", xnums)
        raw_profiles = obj.get("profiles")
        if not isinstance(raw_profiles, list) or not raw_profiles:
            raise ParseError("profiles: expected a nonempty list")
        width = len(biases) + (outside_bias is not None)
        profiles = []
        # One Profile per distinct row, keyed by its prob literal and its values' ids.
        rows: dict[tuple, Profile] = {}
        for i, pr in enumerate(raw_profiles):
            where = f"profiles[{i}]"
            prob, values = read_fields(pr, {"prob": Fraction, "values": list}, where)
            values = tuple(
                _parse_xnum(v, f"{where}.values[{j}]", xnums) for j, v in enumerate(values)
            )
            key = (pr["prob"], *map(id, values))
            try:
                profiles.append(rows.get(key) or rows.setdefault(key, Profile(prob, values)))
            except DelegationError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            # A repeated row repeats its first occurrence's width, so this fails there.
            if len(values) != width:
                raise ParseError(f"{where}: profile has {len(values)} values, expected {width}")
        try:
            return CorrelatedInstance(
                tuple(biases), tuple(profiles), outside_bias, tuple(labels)
            )
        except DelegationError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"kind: expected 'independent' or 'correlated', got {kind!r}")


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_obj(instance), indent=2) + "\n"


def parse_json(text: str) -> Any:
    """The JSON value of ``text``; ``ParseError`` for anything ``json.loads`` rejects."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ParseError("invalid JSON: integer literal too long") from exc


def loads_instance(text: str) -> Instance:
    """The instance in JSON ``text``; ``ParseError`` for a malformed one.

    One load parses each distinct ``(std, inf)`` pair of literals once
    (:func:`instance_from_obj`): a ``generate log --k 12`` file holds 94,208
    exact numbers of 45 distinct pairs.  Its 4,095 ``prob`` literals, all
    equal, are each parsed.
    """
    return instance_from_obj(parse_json(text))


def dump_instance(instance: Instance, path: str) -> None:
    """Write ``instance`` to ``path``; the text is rendered first, so a failure leaves no file."""
    text = dumps_instance(instance)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    """The file's text, read as UTF-8; ``ParseError`` names the file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def load_instance(path: str) -> Instance:
    return loads_instance(read_text(path))
