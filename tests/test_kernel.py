"""The compiled integer kernel against the exact XNum reference path.

Every comparison is exact equality of the whole report (``f``, every
``contrib[i]``, every ``freq[i]``).  Correlated instances are checked against
a test-side enumeration that applies ``agent_choice`` to every profile;
independent instances against ``eval_bruteforce_product``.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import delmenu.kernel
from delmenu import (
    CorrelatedInstance,
    EvalReport,
    IndependentInstance,
    PartitionInstance,
    Profile,
    ZERO,
    Action,
    agent_choice,
    brute_force_opt,
    deterministic,
    eval_bruteforce_product,
    eval_correlated,
    eval_independent_dp,
    evaluate,
    gen_log_family,
    gen_random,
    minimal_valid_m,
    parse_graph,
    reduce_integer_partition,
    reduce_vertex_cover,
    shift_biases,
    xnum,
    xsum,
)
from delmenu.model import candidates, profile_assignment

from conftest import OUTSIDE_MODES, random_correlated, random_independent, random_menus


def reference_correlated(instance, menu) -> EvalReport:
    contrib = {i: ZERO for i in candidates(instance, menu)}
    freq = {i: Fraction(0) for i in candidates(instance, menu)}
    for profile in instance.profiles:
        values = profile_assignment(instance, profile)
        chosen = agent_choice(instance, menu, values)
        contrib[chosen] = contrib[chosen] + values[chosen] * profile.prob
        freq[chosen] += profile.prob
    return EvalReport(xsum(contrib.values()), contrib, freq)


def reference(instance, menu) -> EvalReport:
    if isinstance(instance, CorrelatedInstance):
        return reference_correlated(instance, menu)
    return eval_bruteforce_product(instance, menu)


def all_menus(instance):
    first = 0 if instance.has_outside else 1
    for size in range(first, instance.n + 1):
        for combo in combinations(range(1, instance.n + 1), size):
            yield frozenset(combo)


def assert_matches_reference(instance, menus):
    for menu in menus:
        got = evaluate(instance, menu)
        assert got == reference(instance, menu), sorted(menu)
        assert list(got.contrib) == candidates(instance, menu)


def tie_heavy(kind: str, seed: int, outside: str):
    """Values and biases on a coarse integer grid, so utilities tie often."""
    return gen_random(
        kind, n=4, support_size=3, seed=seed, outside=outside,
        value_range=(0, 2), bias_range=(0, 1), denominator=1,
    )


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_correlated_kernel_equals_agent_choice_enumeration(outside):
    for seed in range(40):
        inst = random_correlated(seed, outside=outside, n=4, profiles=5)
        assert_matches_reference(inst, random_menus(inst, 6, seed))


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_independent_kernel_equals_bruteforce_product(outside):
    for seed in range(40):
        inst = random_independent(seed, outside=outside, n=4, support=3)
        assert_matches_reference(inst, random_menus(inst, 6, seed))


@pytest.mark.parametrize("kind", ["independent", "correlated"])
@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_kernel_equals_reference_under_utility_ties(kind, outside):
    for seed in range(15):
        inst = tie_heavy(kind, seed, outside)
        assert_matches_reference(inst, all_menus(inst))


def test_equal_utility_across_actions_and_outside():
    # Every candidate has utility 3; values break the tie, then menu over
    # outside, then the lower index.
    cor = CorrelatedInstance(
        biases=(xnum(0), xnum(1), xnum(1), xnum(2)),
        profiles=(
            Profile(Fraction(1, 3), (xnum(3), xnum(2), xnum(2), xnum(1), xnum(2))),
            Profile(Fraction(2, 3), (xnum(1), xnum(2), xnum(2), xnum(1), xnum(3))),
        ),
        outside_bias=xnum(1),
    )
    assert_matches_reference(cor, all_menus(cor))
    assert eval_correlated(cor, frozenset({2, 3})).freq[2] == Fraction(1, 3)
    ind = IndependentInstance(
        (
            deterministic(xnum(0), xnum(3)),
            Action(xnum(1), ((xnum(2), Fraction(1, 2)), (xnum(0), Fraction(1, 2)))),
            deterministic(xnum(1), xnum(2)),
            deterministic(xnum(2), xnum(1)),
        ),
        outside=Action(xnum(1), ((xnum(2), Fraction(1, 4)), (xnum(5), Fraction(3, 4)))),
    )
    assert_matches_reference(ind, all_menus(ind))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_log_family_iota_ties(k):
    inst = gen_log_family(k)
    assert_matches_reference(inst, all_menus(inst))


def test_partition_reduction_iota_ties():
    part = PartitionInstance((1, 2, 3))
    inst, _ = reduce_integer_partition(part, minimal_valid_m(part))
    assert_matches_reference(inst, all_menus(inst))


def test_vertex_cover_reduction():
    inst = reduce_vertex_cover(parse_graph("1 2\n2 3\n3 4\n1 4\n1 3\n"))
    assert_matches_reference(inst, all_menus(inst))


@pytest.mark.parametrize("shift", [xnum(5), xnum("-7/3"), xnum(0, 1), xnum("1/2", "-3/4")])
def test_shift_biases_leaves_every_report_unchanged(shift):
    for seed in range(12):
        for inst in (
            random_correlated(seed, n=4, profiles=4),
            random_independent(seed, n=4, support=3),
            tie_heavy("correlated", seed, OUTSIDE_MODES[seed % 3]),
            tie_heavy("independent", seed, OUTSIDE_MODES[seed % 3]),
        ):
            shifted = shift_biases(inst, shift)
            for menu in random_menus(inst, 5, seed):
                assert evaluate(shifted, menu) == evaluate(inst, menu)


def scan_opt(instance):
    """Best menu by the reference evaluators; ties: smaller, then lexicographic."""
    scored = [(reference(instance, menu).f, menu) for menu in all_menus(instance)]
    best = max(value for value, _ in scored)
    winners = [menu for value, menu in scored if value == best]
    return min(winners, key=lambda m: (len(m), sorted(m))), best


def test_brute_force_opt_equals_reference_scan():
    instances = [
        gen_log_family(3),
        reduce_vertex_cover(parse_graph("1 2\n2 3\n3 4\n1 4\n")),
    ]
    for seed in range(12):
        outside = OUTSIDE_MODES[seed % 3]
        instances += [
            random_correlated(seed, n=4, profiles=4),
            random_independent(seed, n=4, support=2),
            tie_heavy("correlated", seed, outside),
            tie_heavy("independent", seed, outside),
        ]
    for inst in instances:
        assert brute_force_opt(inst) == scan_opt(inst)


def test_kernel_is_compiled_once_per_instance(monkeypatch):
    calls = []
    original = delmenu.kernel.choice_key
    monkeypatch.setattr(delmenu.kernel, "choice_key", lambda *a: calls.append(a) or original(*a))
    for inst in (
        random_correlated(3, outside="random", n=4, profiles=5),
        random_independent(3, outside="random", n=4, support=3),
    ):
        calls.clear()
        for menu in all_menus(inst):
            evaluate(inst, menu)
        assert inst.kernel is inst.kernel
        pairs = {(i, v) for i, v, _ in calls}
        assert len(calls) == len(pairs)
        if isinstance(inst, CorrelatedInstance):
            expected = {
                (i, v) for p in inst.profiles for i, v in profile_assignment(inst, p).items()
            }
        else:
            expected = {
                (i, v)
                for i in candidates(inst, frozenset(range(1, inst.n + 1)))
                for v, _ in (inst.outside if i == 0 else inst.actions[i - 1]).support
            }
        assert pairs == expected


def test_kernel_is_not_part_of_instance_equality():
    inst = random_independent(5, n=3)
    twin = random_independent(5, n=3)
    eval_independent_dp(inst, frozenset({1, 2}))
    assert inst == twin and hash(inst) == hash(twin)
    assert "kernel" in vars(inst) and "kernel" not in vars(twin)
