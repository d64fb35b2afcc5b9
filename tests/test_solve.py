import importlib
import math
import random
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delmenu import (
    Action,
    CapExceededError,
    CorrelatedInstance,
    IndependentInstance,
    PartitionInstance,
    Profile,
    best_threshold,
    bound_report,
    brute_force_opt,
    decompose,
    deterministic,
    evaluate,
    from_assortment,
    gen_log_family,
    gen_outside_family,
    gen_three_approx,
    log2_at_least,
    minimal_valid_m,
    parse_graph,
    reduce_integer_partition,
    reduce_vertex_cover,
    solve,
    threshold_menu,
    threshold_menus,
    xnum,
)

from conftest import random_correlated, random_independent, random_menus, small_instances


# ---------------------------------------------------------------------------
# Brute-force optimum
# ---------------------------------------------------------------------------


def test_brute_force_log_family():
    menu, value = brute_force_opt(gen_log_family(3))
    assert menu == frozenset({1, 3, 5})
    assert value == xnum("24/7")


def test_brute_force_single_action():
    inst = IndependentInstance(
        (Action(xnum(0), ((xnum(1), Fraction(1, 3)), (xnum(4), Fraction(2, 3)))),)
    )
    menu, value = brute_force_opt(inst)
    assert menu == frozenset({1})
    assert value == xnum(3)  # 1/3 + 8/3


def test_brute_force_cap():
    inst = random_independent(0, n=3)
    with pytest.raises(CapExceededError):
        brute_force_opt(inst, cap_n=2)


def test_brute_force_walks_deeper_than_the_recursion_limit():
    # One level per action, past the interpreter's limit: the walk keeps its
    # own stack, so only cap_n limits the size.  Action i is worth n - i + 1.
    n = sys.getrecursionlimit() + 100
    values = tuple(xnum(n - i) for i in range(n))
    inst = CorrelatedInstance((xnum(0),) * n, (Profile(Fraction(1), values),))
    assert brute_force_opt(inst, cap_n=2 * n) == (frozenset({1}), xnum(n))


def test_brute_force_tiebreak_smaller_then_lex():
    # Two identical copies: every nonempty menu is worth the same.
    a = deterministic(xnum(0), xnum(1))
    inst = IndependentInstance((a, a))
    menu, _ = brute_force_opt(inst)
    assert menu == frozenset({1})


def test_brute_force_dominates_random_menus():
    for seed in range(30):
        inst = random_independent(seed, n=4, support=2)
        _, opt = brute_force_opt(inst)
        for menu in random_menus(inst, 6, seed):
            assert opt >= evaluate(inst, menu).f


# ---------------------------------------------------------------------------
# Threshold menus
# ---------------------------------------------------------------------------


def test_threshold_menus_all_equal_biases():
    inst = IndependentInstance(
        (deterministic(xnum(2), xnum(1)), deterministic(xnum(2), xnum(3)))
    )
    assert threshold_menus(inst) == [(xnum(2), frozenset({1, 2}))]
    with_outside = IndependentInstance(inst.actions, deterministic(xnum(0), xnum(0)))
    assert threshold_menus(with_outside) == [
        (None, frozenset()),
        (xnum(2), frozenset({1, 2})),
    ]


def test_threshold_menus_log_family():
    inst = gen_log_family(3)
    menus = threshold_menus(inst)
    assert [m for _, m in menus] == [
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
        frozenset({1, 2, 3, 4}),
        frozenset({1, 2, 3, 4, 5}),
    ]
    assert [t for t, _ in menus] == [xnum(0), xnum(4, -1), xnum(4), xnum(6, -1), xnum(6)]


def with_grid_biases(instance, seed):
    """``instance`` with biases, outside option's included, on a grid with iota parts.

    Three standard parts and three iota parts give nine biases, so biases
    repeat often, and equal standard parts are told apart by iota.
    """
    rng = random.Random(seed)
    grid = [xnum(rng.randint(0, 2), rng.randint(-1, 1)) for _ in range(instance.n + 1)]
    if isinstance(instance, CorrelatedInstance):
        outside = grid[0] if instance.has_outside else None
        return CorrelatedInstance(tuple(grid[1:]), instance.profiles, outside, instance.labels)
    actions = tuple(replace(a, bias=b) for a, b in zip(instance.actions, grid[1:]))
    outside = replace(instance.outside, bias=grid[0]) if instance.has_outside else None
    return IndependentInstance(actions, outside)


def test_threshold_menus_downward_closed():
    repeated = 0
    for seed in range(30):
        for inst in (
            random_independent(seed, n=4),
            with_grid_biases(random_independent(seed, n=6), seed),
            with_grid_biases(random_correlated(seed, n=6), seed),
        ):
            biases = [inst.bias_of(i) for i in range(1, inst.n + 1)]
            expected = [(None, frozenset())] if inst.has_outside else []
            expected += [(t, threshold_menu(inst, t)) for t in sorted(set(biases))]
            assert threshold_menus(inst) == expected
            for _, menu in expected:
                for i in menu:
                    for j in range(1, inst.n + 1):
                        if inst.bias_of(j) <= inst.bias_of(i):
                            assert j in menu
            repeated += len(set(biases)) < len(biases)
    assert repeated > 30


# ---------------------------------------------------------------------------
# Best threshold
# ---------------------------------------------------------------------------


def test_best_threshold_log_family():
    t, menu, value = best_threshold(gen_log_family(3))
    assert t == xnum(6)
    assert menu == frozenset({1, 2, 3, 4, 5})
    assert value == xnum(2, "9/7")


def test_best_threshold_three_approx_band():
    result = solve(gen_three_approx(Fraction(1, 1000)))
    assert Fraction(285, 100) <= result.ratio <= 3


def test_best_threshold_single_action():
    inst = IndependentInstance((deterministic(xnum(5), xnum(2)),))
    t, menu, value = best_threshold(inst)
    assert (t, menu, value) == (xnum(5), frozenset({1}), xnum(2))


def test_best_threshold_tie_prefers_smaller_t():
    # Second action never chosen and worthless: both thresholds tie.
    inst = IndependentInstance(
        (deterministic(xnum(1), xnum(2)), deterministic(xnum(2), xnum(0)))
    )
    t, menu, _ = best_threshold(inst)
    assert t == xnum(1)
    assert menu == frozenset({1})


# ---------------------------------------------------------------------------
# Structural inequalities
# ---------------------------------------------------------------------------


def test_threshold_dominance_and_single_action_bound():
    for seed in range(40):
        inst = random_independent(seed, n=3, support=2)
        for menu in random_menus(inst, 4, seed):
            dec = decompose(inst, menu)
            assert evaluate(inst, threshold_menu(inst, dec.u_low)).f >= dec.sur
            report = evaluate(inst, menu)
            for i in report.contrib:
                t_menu = threshold_menu(inst, inst.bias_of(i))
                assert evaluate(inst, t_menu).f >= report.contrib[i]


# ---------------------------------------------------------------------------
# Exact log comparison
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [Fraction(0), Fraction(-1, 2)])
def test_log2_at_least_refuses_a_nonpositive_argument(q):
    with pytest.raises(ValueError, match="must be positive"):
        log2_at_least(q, Fraction(0))


def test_log2_at_least_exact_edges():
    assert log2_at_least(Fraction(8), Fraction(3))
    assert not log2_at_least(Fraction(8), Fraction(3) + Fraction(1, 10**5))
    assert log2_at_least(Fraction(8), Fraction(3) - Fraction(1, 10**5))
    assert log2_at_least(Fraction(1), Fraction(0))
    assert not log2_at_least(Fraction(1, 2), Fraction(0))
    assert log2_at_least(Fraction(1, 2), Fraction(-1))
    # Continued-fraction convergents of log2(9/8) sit within 1e-6 and
    # exercise the exact integer-power branch from both sides.
    assert log2_at_least(Fraction(9, 8), Fraction(113, 665))
    assert not log2_at_least(Fraction(9, 8), Fraction(1043, 6138))


def decimal_log2_at_least(q: Fraction, t: Fraction) -> bool:
    """log2(q) >= t by 300-digit decimal logarithms; q must not be a power of two."""
    with localcontext() as ctx:
        ctx.prec = 300
        log2 = (Decimal(q.numerator).ln() - Decimal(q.denominator).ln()) / Decimal(2).ln()
        return log2 >= Decimal(t.numerator) / Decimal(t.denominator)


def test_log2_at_least_near_tie_with_large_denominator():
    # A continued-fraction convergent of log2(3) just below it: deciding it
    # through q**b would build an integer of about 10**10 bits.
    q, t = Fraction(3), Fraction(9809721694, 6189245291)
    assert decimal_log2_at_least(q, t)
    assert log2_at_least(q, t)
    above = t + Fraction(1, 10**19)
    assert not decimal_log2_at_least(q, above)
    assert not log2_at_least(q, above)


def test_log2_at_least_powers_of_two_are_exact():
    for e in range(-6, 7):
        q = Fraction(2) ** e
        assert log2_at_least(q, Fraction(e))
        assert not log2_at_least(q, Fraction(e) + Fraction(1, 10**30))
        assert log2_at_least(q, Fraction(e) - Fraction(1, 10**30))


def test_log2_at_least_matches_decimal_near_ties():
    rng = random.Random(5)
    for _ in range(60):
        q = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        if q.numerator & (q.numerator - 1) == 0 and q.denominator & (q.denominator - 1) == 0:
            continue
        den = rng.randint(1, 10**15)
        near = round(Fraction(math.log2(q.numerator) - math.log2(q.denominator)) * den)
        for t in (Fraction(near + d, den) for d in (-1, 0, 1)):
            assert log2_at_least(q, t) == decimal_log2_at_least(q, t), (q, t)


def test_log2_at_least_matches_float():
    rng = random.Random(3)
    for _ in range(200):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        approx = math.log2(float(q))
        if abs(approx - float(t)) > 1e-9:
            assert log2_at_least(q, t) == (approx >= float(t))


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bound_report_log_family(k):
    inst = gen_log_family(k)
    result = solve(inst)
    report = bound_report(inst, result)
    assert result.ratio == Fraction(k * 2**k, 2 * (2**k - 1))
    assert result.ratio >= Fraction(k, 2)
    assert report.bound_log
    assert report.p_min == Fraction(1, 2**k - 1)
    assert report.bound_3 and report.bound_n  # vacuous for correlated instances


def test_bound_report_log_branch_past_the_clamp(monkeypatch):
    # opt / best = 1024/255 > 4, so the clamped factor does not settle it and
    # the flag comes from the exact logarithm test.
    solve_module = importlib.import_module("delmenu.solve")
    calls = []
    real = solve_module.log2_at_least
    monkeypatch.setattr(solve_module, "log2_at_least", lambda *a: calls.append(a) or real(*a))
    inst = gen_log_family(8)
    result = solve(inst)
    assert result.ratio == Fraction(1024, 255)
    report = bound_report(inst, result)
    assert report.bound_log and report.p_min == Fraction(1, 255)
    assert calls == [(Fraction(255), Fraction(1024, 1020))]


def with_best(result, best):
    return replace(result, best_threshold_value=best)


def test_bound_report_log_flag_at_its_edges():
    inst = gen_log_family(8)
    result = solve(inst)
    opt = result.opt_value.std
    assert not bound_report(inst, with_best(result, xnum(0))).bound_log
    # 2**7.9943 < 255 < 2**7.9944, so opt / (4 log2 255) lies between these.
    assert 2**7.9943 < 255 < 2**7.9944
    inside, outside = opt / (4 * Fraction("7.9943")), opt / (4 * Fraction("7.9944"))
    assert bound_report(inst, with_best(result, xnum(inside))).bound_log
    assert not bound_report(inst, with_best(result, xnum(outside))).bound_log
    # With p_min = 1/4 the bound is the rational opt / 8, and it is inclusive.
    quarters = CorrelatedInstance(
        (xnum(0),), tuple(Profile(Fraction(1, 4), (xnum(v),)) for v in range(1, 5))
    )
    result = solve(quarters)
    edge = result.opt_value.std / 8
    assert bound_report(quarters, with_best(result, xnum(edge))).bound_log
    assert not bound_report(quarters, with_best(result, xnum(edge - Fraction(1, 10**9)))).bound_log


def test_single_profile_correlated_threshold_is_optimal():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        biases = tuple(xnum(Fraction(rng.randint(-6, 6), 2)) for _ in range(n))
        values = tuple(xnum(Fraction(rng.randint(0, 8), 2)) for _ in range(n))
        inst = CorrelatedInstance(biases, (Profile(Fraction(1), values),))
        result = solve(inst)
        assert result.best_threshold_value == result.opt_value
        if result.opt_value.std > 0:
            assert result.ratio == 1


def test_bound_report_single_action_all_true():
    inst = IndependentInstance((deterministic(xnum(0), xnum(2)),))
    report = bound_report(inst, solve(inst))
    assert report.bound_3 and report.bound_n and report.bound_log
    assert report.rho == 1


def test_bound_report_zero_opt_vacuous():
    inst = IndependentInstance((deterministic(xnum(0), xnum(0)),))
    report = bound_report(inst, solve(inst))
    assert report.vacuous
    assert report.bound_3 and report.bound_n and report.bound_log
    assert report.rho is None


def test_bound_report_zero_opt_correlated_takes_no_log(monkeypatch):
    solve_module = importlib.import_module("delmenu.solve")
    monkeypatch.setattr(solve_module, "log2_at_least", None)  # any call would raise
    inst = CorrelatedInstance((xnum(0), xnum(1)), (Profile(Fraction(1), (xnum(0), xnum(0))),))
    report = bound_report(inst, solve(inst))
    assert report.vacuous and report.rho is None
    assert report.bound_3 and report.bound_n and report.bound_log


def test_bound_properties_random_ensembles():
    for seed in range(100):
        inst = random_independent(seed, outside="fixed" if seed % 2 else "none")
        result = solve(inst)
        report = bound_report(inst, result)
        assert report.bound_3 and report.bound_n
    for seed in range(100):
        inst = random_correlated(seed)
        report = bound_report(inst, solve(inst))
        assert report.bound_log


def reference_top_std(instance):
    """The largest standard part of an action value, outside option excluded, from the instance."""
    if isinstance(instance, IndependentInstance):
        return max(value.std for a in instance.actions for value, _ in a.support)
    return max(p.values[i].std for p in instance.profiles for i in range(instance.n))


def reference_min_profile_mass(instance):
    """Least profile probability, or the product of every candidate's least mass."""
    if isinstance(instance, CorrelatedInstance):
        return min(p.prob for p in instance.profiles)
    mass = Fraction(1)
    for a in (*instance.actions, *filter(None, [instance.outside])):
        mass *= min(prob for _, prob in a.support)
    return mass


def assert_rho_and_p_min_match_reference(instance):
    result = solve(instance)
    report = bound_report(instance, result)
    assert report.p_min == reference_min_profile_mass(instance)
    opt = result.opt_value.std
    assert report.rho == (None if opt == 0 else reference_top_std(instance) / opt)


# The outside option, worth 5 or 7, holds the largest value and wins; rho
# must read the actions' values alone.  In the correlated one, action 1
# ranks below the outside option in every profile, so no ranking holds it.
OUTSIDE_LARGEST = (
    IndependentInstance(
        (deterministic(xnum(5), xnum(1)), deterministic(xnum(6), xnum(0))),
        outside=deterministic(xnum(0), xnum(5)),
    ),
    CorrelatedInstance(
        biases=(xnum(0), xnum(6)),
        profiles=(
            Profile(Fraction(1, 3), (xnum(1), xnum(0), xnum(7))),
            Profile(Fraction(2, 3), (xnum(2), xnum(0), xnum(7))),
        ),
        outside_bias=xnum(0),
    ),
)


@pytest.mark.parametrize("instance", OUTSIDE_LARGEST)
def test_rho_excludes_the_outside_option(instance):
    assert_rho_and_p_min_match_reference(instance)
    assert bound_report(instance, solve(instance)).rho < 1


def test_rho_and_p_min_equal_reference_on_families():
    part = PartitionInstance((3, 1, 1, 2, 2, 1))
    graph = parse_graph("1 2\n2 3\n3 4\n1 4\n1 3\n")
    instances = [
        *(gen_log_family(k) for k in (2, 3, 4)),
        gen_three_approx(Fraction(1, 10)),
        gen_outside_family(3),
        gen_outside_family(3, alt_good_values=True),
        from_assortment([3, 1, 2], [[(4, 1)], [(2, Fraction(1, 2)), (0, Fraction(1, 2))], [(1, 1)]]),
        from_assortment([3, 1], [[(4, 1)], [(2, 1)]], outside_util=[(2, Fraction(1, 4)), (6, Fraction(3, 4))]),
        reduce_vertex_cover(graph),
        reduce_integer_partition(part, minimal_valid_m(part))[0],
    ]
    for seed in range(9):
        instances += [random_independent(seed, n=4, support=3), random_correlated(seed, n=4)]
    for inst in instances:
        assert_rho_and_p_min_match_reference(inst)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, max_den=3)
    )
)
def test_rho_and_p_min_equal_reference_on_drawn_instances(instance):
    assert_rho_and_p_min_match_reference(instance)
