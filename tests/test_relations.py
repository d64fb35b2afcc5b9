"""Exact relations that check both searches past the exhaustive reach.

A scan of every menu stops near a dozen actions.  These relations need no
scan, and in this model they are exact (metamorphic testing: Chen, Cheung
and Yiu, HKUST-CS98-01, 1998): the search's value is the evaluation of its
menu, and no menu one add or remove away beats it under the tie rule.  They
run on random independent instances of 12-14 actions, on partition
reductions of 14-16 integers, whose repeated integers the search walks as
classes of interchangeable actions, on random correlated instances of
30-100 actions, past the reach of a walk that decides every action, and on
tie-heavy correlated ones of 16-24.  Across kernels,
an independent instance written out over its joint realizations is a
correlated instance with the same optimum, found by a walk that shares no
code with the independent one.  The symmetries at the end need no
oracle either: a positive scale of every value and bias, a common bias
shift and a common value shift map each menu's value by one known rule,
so the optimal and best-threshold menus stay and their values move by that
rule; a correlated action's duplicate never enters the canonical optimum;
and an added independent action never lowers the optimum.
"""

import random
from fractions import Fraction

import pytest

from delmenu import (
    IOTA,
    Action,
    CorrelatedInstance,
    IndependentInstance,
    PartitionInstance,
    Profile,
    brute_force_opt,
    gen_random,
    has_partition,
    minimal_valid_m,
    reduce_integer_partition,
    shift_biases,
    solve,
)

from conftest import (
    OUTSIDE_MODES,
    as_correlated,
    assert_no_single_flip_beats,
    search_is_its_evaluation,
    tie_heavy,
)


@pytest.mark.parametrize("n", [12, 13, 14])
def test_independent_search_relations(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("independent", n=n, support_size=3, seed=n, outside=outside)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance))


@pytest.mark.parametrize("size", [14, 15, 16])
def test_partition_search_relations(size):
    # 12, then integers in 1..12: the largest integer, and so M, is fixed.
    rng = random.Random(size)
    p = PartitionInstance((12, *(rng.randint(1, 12) for _ in range(size - 1))))
    instance, threshold = reduce_integer_partition(p, minimal_valid_m(p))
    menu, value = search_is_its_evaluation(instance)
    assert_no_single_flip_beats(instance, menu, value)
    assert (value.std >= threshold) == has_partition(p)


@pytest.mark.parametrize("n", [30, 33, 36, 60, 80, 100])
def test_correlated_search_relations(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("correlated", n=n, support_size=12, seed=n, outside=outside)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance, cap_n=n))


@pytest.mark.parametrize("n", [16, 20, 24])
def test_tie_heavy_correlated_search_relations(n):
    # Many one-flip neighbours tie the optimum, so the tie rule decides them.
    for seed, outside in enumerate(OUTSIDE_MODES):
        instance = tie_heavy("correlated", seed, outside, n=n, support=12)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance, cap_n=n))


@pytest.mark.parametrize("n", [5, 6])
def test_independent_and_correlated_searches_agree(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("independent", n=n, support_size=3, seed=n, outside=outside)
        assert brute_force_opt(as_correlated(instance)) == brute_force_opt(instance)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

def symmetry_instances(kind):
    """40 seeded instances of 5 actions and support 3, outside modes cycled."""
    for seed in range(40):
        outside = OUTSIDE_MODES[seed % 3]
        yield gen_random(kind, n=5, support_size=3, seed=seed, outside=outside)


def mapped(instance, value, bias):
    """``instance`` with ``value`` applied to every value and ``bias`` to every bias."""
    if isinstance(instance, IndependentInstance):
        def action(a):
            support = tuple((value(v), p) for v, p in a.support)
            return Action(bias(a.bias), support, a.label)

        outside = action(instance.outside) if instance.outside is not None else None
        return IndependentInstance(tuple(map(action, instance.actions)), outside)
    rows = {id(p): Profile(p.prob, tuple(map(value, p.values))) for p, _ in instance.rows}
    outside_bias = bias(instance.outside_bias) if instance.has_outside else None
    return CorrelatedInstance(
        tuple(map(bias, instance.biases)),
        tuple(rows[id(p)] for p in instance.profiles),
        outside_bias,
        instance.labels,
    )


def scaled(instance, c):
    return mapped(instance, lambda v: v * c, lambda b: b * c)


def value_shifted(instance, alpha):
    return mapped(instance, lambda v: v + alpha, lambda b: b)


def menus_and_values(instance):
    """(optimal menu, its value, best-threshold menu, its value)."""
    result = solve(instance)
    return (
        result.opt_menu,
        result.opt_value,
        result.best_threshold_menu,
        result.best_threshold_value,
    )


def with_duplicate(instance, j):
    """``instance`` with action j copied as action n + 1: same bias, same value in every profile."""
    n = instance.n
    rows = {
        id(p): Profile(p.prob, (*p.values[:n], p.values[j - 1], *p.values[n:]))
        for p, _ in instance.rows
    }
    return CorrelatedInstance(
        (*instance.biases, instance.biases[j - 1]),
        tuple(rows[id(p)] for p in instance.profiles),
        instance.outside_bias,
        (*instance.labels, f"copy of a{j}"),
    )


@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_scaling_values_and_biases_scales_both_values(kind):
    for instance in symmetry_instances(kind):
        opt, opt_value, t_menu, t_value = menus_and_values(instance)
        for c in (Fraction(3), Fraction(1, 7)):
            assert menus_and_values(scaled(instance, c)) == (opt, opt_value * c, t_menu, t_value * c)


@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_a_common_bias_shift_keeps_menus_and_values(kind):
    for instance in symmetry_instances(kind):
        expected = menus_and_values(instance)
        for shift in (Fraction(5, 2), IOTA, -IOTA):
            assert menus_and_values(shift_biases(instance, shift)) == expected


@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_a_common_value_shift_adds_exactly_alpha(kind):
    # The agent's choice is unchanged in every realization, so every menu,
    # the empty one included, gains exactly alpha.
    for instance in symmetry_instances(kind):
        opt, opt_value, t_menu, t_value = menus_and_values(instance)
        for alpha in (Fraction(1, 3), Fraction(2), IOTA):
            shifted = menus_and_values(value_shifted(instance, alpha))
            assert shifted == (opt, opt_value + alpha, t_menu, t_value + alpha)


def test_a_duplicated_correlated_action_changes_no_menu_or_value():
    # A menu holding the copy is worth what it is worth with action j in the
    # copy's place, and that menu is smaller or lexicographically earlier, so
    # the copy never enters the optimum.  A threshold menu holds the copy
    # exactly when it holds j.
    for seed, instance in enumerate(symmetry_instances("correlated")):
        j = seed % instance.n + 1
        opt, opt_value, t_menu, t_value = menus_and_values(instance)
        twin = instance.n + 1
        expected_t_menu = t_menu | {twin} if j in t_menu else t_menu
        got = menus_and_values(with_duplicate(instance, j))
        assert got == (opt, opt_value, expected_t_menu, t_value)


def test_an_added_independent_action_never_lowers_the_optimum():
    for seed, instance in enumerate(symmetry_instances("independent")):
        _, opt_value = brute_force_opt(instance)
        donor = gen_random("independent", n=1, support_size=3, seed=1000 + seed).actions[0]
        larger = IndependentInstance((*instance.actions, donor), instance.outside)
        assert brute_force_opt(larger)[1] >= opt_value  # the old optimum is still a menu
