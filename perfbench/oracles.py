"""Correctness checks that do not trust the code under test.

The evaluators here restate the agent's choice rule from the README (higher
value + bias, then higher value, then a menu action over the outside option,
then the lower index) on plain ``Fraction`` pairs, and share no code with
``delmenu.evaluate`` or ``delmenu.model``.  They read only the instance
fields the README documents.

Each ``check_*`` function returns a list of problems, empty when the result
passed every oracle; :func:`compare_reference` adds the recorded-result check.
"""

from __future__ import annotations

import csv
from fractions import Fraction

from mix import Item

ZERO = Fraction(0)


def _pair(x) -> tuple[Fraction, Fraction]:
    return (x.std, x.inf)


def _add(a, b) -> tuple[Fraction, Fraction]:
    return (a[0] + b[0], a[1] + b[1])


def _agent_key(index: int, value, bias) -> tuple:
    utility = _add(_pair(value), _pair(bias))
    return (utility, _pair(value), 1 if index else 0, -index)


def _bias(instance, index: int):
    if hasattr(instance, "profiles"):
        return instance.outside_bias if index == 0 else instance.biases[index - 1]
    return instance.outside.bias if index == 0 else instance.actions[index - 1].bias


def _candidates(instance, menu) -> list[int]:
    has_outside = (
        instance.outside_bias is not None
        if hasattr(instance, "profiles")
        else instance.outside is not None
    )
    return sorted(menu) + ([0] if has_outside else [])


def menu_value(instance, menu) -> tuple[tuple[Fraction, Fraction], dict[int, Fraction]]:
    """Exact (value, choice frequencies) of ``menu``, computed independently.

    Correlated instances enumerate profiles.  Independent instances sort every
    candidate realization by the agent's key; a realization is picked exactly
    when every other candidate realizes below it, so its pick probability is
    its own mass times the product of the others' mass below it.
    """
    cands = _candidates(instance, menu)
    freq = {i: ZERO for i in cands}
    total = (ZERO, ZERO)
    if hasattr(instance, "profiles"):
        n = len(instance.biases)
        for profile in instance.profiles:
            values = {i: profile.values[n if i == 0 else i - 1] for i in cands}
            pick = max(cands, key=lambda i: _agent_key(i, values[i], _bias(instance, i)))
            v = _pair(values[pick])
            total = _add(total, (v[0] * profile.prob, v[1] * profile.prob))
            freq[pick] += profile.prob
        return total, freq
    entries = []
    for i in cands:
        action = instance.outside if i == 0 else instance.actions[i - 1]
        for value, prob in action.support:
            entries.append((_agent_key(i, value, action.bias), i, _pair(value), prob))
    entries.sort(key=lambda e: e[0])
    below = {i: ZERO for i in cands}
    for _, i, v, prob in entries:
        mass = prob
        for j in cands:
            if j != i:
                mass *= below[j]
                if not mass:
                    break
        if mass:
            total = _add(total, (v[0] * mass, v[1] * mass))
            freq[i] += mass
        below[i] += prob
    return total, freq


def threshold_set(instance, t) -> frozenset[int]:
    n = len(instance.biases) if hasattr(instance, "profiles") else len(instance.actions)
    if t is None:
        return frozenset()
    return frozenset(i for i in range(1, n + 1) if _pair(_bias(instance, i)) <= _pair(t))


def _lex_ge(a, b) -> bool:
    return _pair(a) >= _pair(b)


def compare_reference(key: str, got, reference: dict) -> list[str]:
    if key not in reference:
        return [f"{key}: no recorded reference"]
    if got != reference[key]:
        return [f"{key}: result differs from the recorded reference"]
    return []


# ---------------------------------------------------------------------------
# opt-exhaustive: solve() + bound_report()
# ---------------------------------------------------------------------------


def opt_record(result, bounds) -> dict:
    """The exact strings recorded for one solved instance."""
    return {
        "opt_menu": sorted(result.opt_menu),
        "opt_value": str(result.opt_value),
        "best_threshold": "empty" if result.best_threshold is None else str(result.best_threshold),
        "best_threshold_menu": sorted(result.best_threshold_menu),
        "best_threshold_value": str(result.best_threshold_value),
        "bounds": [bounds.bound_3, bounds.bound_n, bounds.bound_log],
    }


def check_opt(item: Item, result, bounds) -> list[str]:
    inst, key = item.instance, item.key
    problems = []
    if not (bounds.bound_3 and bounds.bound_n and bounds.bound_log):
        problems.append(f"{key}: a bound flag is false")
    if menu_value(inst, result.opt_menu)[0] != _pair(result.opt_value):
        problems.append(f"{key}: opt value is not the value of the opt menu")
    if menu_value(inst, result.best_threshold_menu)[0] != _pair(result.best_threshold_value):
        problems.append(f"{key}: threshold value is not the value of its menu")
    if threshold_set(inst, result.best_threshold) != result.best_threshold_menu:
        problems.append(f"{key}: threshold menu is not the biases at most t")
    if not _lex_ge(result.opt_value, result.best_threshold_value):
        problems.append(f"{key}: best threshold beats the optimum")
    expect = item.expect
    if "opt_std" in expect and result.opt_value.std != expect["opt_std"]:
        problems.append(f"{key}: log family optimum is not k*2^k/(2^k-1)")
    if "opt" in expect and result.opt_value.std != expect["opt"]:
        problems.append(f"{key}: optimum is not (5m+3n-cover)/(m+n)")
    if "has_partition" in expect:
        if (result.opt_value.std >= expect["threshold"]) != expect["has_partition"]:
            problems.append(f"{key}: optimum crosses the threshold iff no partition")
    return problems


# ---------------------------------------------------------------------------
# threshold-independent: best_threshold() + evaluate(full) + decompose(full)
# ---------------------------------------------------------------------------


def threshold_record(best, report, dec) -> dict:
    t, menu, value = best
    return {
        "best_threshold": "empty" if t is None else str(t),
        "best_threshold_menu": sorted(menu),
        "best_threshold_value": str(value),
        "full_f": str(report.f),
        "u_low": str(dec.u_low),
        "sur": str(dec.sur),
        "bdif": str(dec.bdif),
    }


def check_threshold(item: Item, best, report, dec) -> list[str]:
    inst, key = item.instance, item.key
    t, menu, value = best
    full = frozenset(range(1, len(inst.actions) + 1))
    problems = []
    full_value, freq = menu_value(inst, full)
    if full_value != _pair(report.f):
        problems.append(f"{key}: f(full menu) differs from the independent evaluator")
    if menu_value(inst, menu)[0] != _pair(value):
        problems.append(f"{key}: threshold value is not the value of its menu")
    if threshold_set(inst, t) != menu:
        problems.append(f"{key}: threshold menu is not the biases at most t")
    if not _lex_ge(value, report.f):
        problems.append(f"{key}: the full menu (a threshold menu) beats the best threshold")
    cands = _candidates(inst, full)
    u_low = max((_pair(_bias(inst, i)) for i in cands))
    if _pair(dec.u_low) != u_low:
        problems.append(f"{key}: u_low is not the largest candidate bias")
    expected_bias = (ZERO, ZERO)
    for i, p in freq.items():
        b = _pair(_bias(inst, i))
        expected_bias = _add(expected_bias, (b[0] * p, b[1] * p))
    if _pair(dec.bdif) != (u_low[0] - expected_bias[0], u_low[1] - expected_bias[1]):
        problems.append(f"{key}: bdif is not u_low minus the expected chosen bias")
    if _add(_pair(dec.sur), _pair(dec.bdif)) != full_value:
        problems.append(f"{key}: sur + bdif is not f")
    return problems


# ---------------------------------------------------------------------------
# cli-batch: outputs of `delmenu` calls
# ---------------------------------------------------------------------------


def sweep_record(rows: list[dict]) -> dict[str, dict]:
    """Sweep rows keyed by instance id, with the wall-clock column dropped."""
    return {row["instance_id"]: {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows}


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_solve_output(key: str, obj: dict, instance) -> list[str]:
    """Parsed ``delmenu solve`` stdout against the oracles.

    ``instance`` is the same instance built in-process, so the reported
    values can be re-evaluated independently.
    """
    problems = []
    bounds = obj["bounds"]
    if not (bounds["bound_3"] and bounds["bound_n"] and bounds["bound_log"]):
        problems.append(f"{key}: a bound flag is false")
    for menu_field, value_field in (
        ("opt_menu", "opt_value"),
        ("best_threshold_menu", "best_threshold_value"),
    ):
        got = (Fraction(obj[value_field]["std"]), Fraction(obj[value_field]["inf"]))
        if menu_value(instance, frozenset(obj[menu_field]))[0] != got:
            problems.append(f"{key}: {value_field} is not the value of {menu_field}")
    if key.startswith("log-k"):
        k = int(key[len("log-k"):])
        if Fraction(obj["opt_value"]["std"]) != Fraction(k * 2**k, 2**k - 1):
            problems.append(f"{key}: log family optimum is not k*2^k/(2^k-1)")
    return problems


def check_sweep_rows(key: str, rows: list[dict], expected_ids: list[str]) -> list[str]:
    if [row["instance_id"] for row in rows] != expected_ids:
        return [f"{key}: sweep rows are not the spec's instances in order"]
    return [
        f"{key}: row {row['instance_id']} is not ok with every bound true"
        for row in rows
        if row["status"] != "ok" or "false" in (row["bound_3"], row["bound_n"], row["bound_log"])
    ]
