import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delmenu.model
from delmenu import (
    Action,
    CapExceededError,
    CorrelatedInstance,
    Decomposition,
    IndependentInstance,
    InterferenceAction,
    InvalidInstanceError,
    Profile,
    agent_choice,
    brute_force_opt,
    decompose,
    derandomize_interference,
    deterministic,
    eval_bruteforce_product,
    eval_correlated,
    eval_independent_dp,
    evaluate,
    full_menu,
    gen_log_family,
    gen_outside_family,
    gen_three_approx,
    shift_biases,
    threshold_menus,
    xnum,
    xsum,
)
from delmenu.model import candidates, product_realizations

from conftest import (
    profile_assignment,
    random_correlated,
    random_independent,
    random_menus,
    small_instances,
)


# ---------------------------------------------------------------------------
# Correlated evaluator
# ---------------------------------------------------------------------------


def test_log_family_worked_values():
    inst = gen_log_family(3)
    assert eval_correlated(inst, frozenset({1, 3, 5})).f == xnum("24/7")
    assert eval_correlated(inst, full_menu(inst)).f == xnum(2, "9/7")


def test_empty_menu_fixed_outside():
    v0 = xnum("5/3")
    inst = CorrelatedInstance(
        biases=(xnum(0), xnum(2)),
        profiles=(
            Profile(Fraction(1, 2), (xnum(1), xnum(4), v0)),
            Profile(Fraction(1, 2), (xnum(3), xnum(0), v0)),
        ),
        outside_bias=xnum(0),
    )
    assert eval_correlated(inst, frozenset()).f == v0


# ---------------------------------------------------------------------------
# Independent evaluators: DP and the brute-force oracle
# ---------------------------------------------------------------------------


def test_single_deterministic_action():
    inst = IndependentInstance((deterministic(xnum(-2), xnum("7/3")),))
    menu = frozenset({1})
    assert eval_independent_dp(inst, menu).f == xnum("7/3")
    assert eval_bruteforce_product(inst, menu).f == xnum("7/3")


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 100)])
def test_three_approx_menu_value(eps):
    # f({1,3,5}) = (1 - (1-eps)^2) + eps(1-eps)^2, plus iota terms.
    inst = gen_three_approx(eps)
    expected_std = (1 - (1 - eps) ** 2) + eps * (1 - eps) ** 2
    menu = frozenset({1, 3, 5})
    dp = eval_independent_dp(inst, menu)
    assert dp.f.std == expected_std
    assert eval_bruteforce_product(inst, menu).f == dp.f


def test_outside_family_hand_expansion():
    # n=2, eps=1/16: eight equally weighted joint cases give
    # f({g1, g2}) = (6 + 25 eps / 2) / 8 = 3/4 + 25 eps/16 = 217/256.
    inst = gen_outside_family(2)
    report = eval_bruteforce_product(inst, frozenset({1, 2}))
    assert report.f == xnum(Fraction(217, 256))
    assert eval_independent_dp(inst, frozenset({1, 2})).f == report.f


def test_dp_equals_bruteforce_on_random_instances():
    for seed in range(60):
        inst = random_independent(seed, n=3, support=3)
        for menu in random_menus(inst, 4, seed):
            dp = eval_independent_dp(inst, menu)
            bf = eval_bruteforce_product(inst, menu)
            assert dp.f == bf.f
            assert dp.contrib == bf.contrib
            assert dp.freq == bf.freq


def test_report_invariants():
    for seed in range(30):
        inst = random_independent(seed, n=4, support=2)
        for menu in random_menus(inst, 3, seed):
            report = eval_independent_dp(inst, menu)
            assert xsum(report.contrib.values()) == report.f
            assert sum(report.freq.values()) == 1
            assert report.f.std >= 0
    for seed in range(30):
        inst = random_correlated(seed)
        for menu in random_menus(inst, 3, seed):
            report = eval_correlated(inst, menu)
            assert xsum(report.contrib.values()) == report.f
            assert sum(report.freq.values()) == 1
            assert report.f.std >= 0


def test_bruteforce_cap_names_counts():
    inst = IndependentInstance(
        tuple(
            Action(xnum(0), ((xnum(0), Fraction(1, 2)), (xnum(i), Fraction(1, 2))), f"a{i}")
            for i in range(1, 4)
        )
    )
    with pytest.raises(CapExceededError, match=r"8 profiles, cap is 4"):
        eval_bruteforce_product(inst, full_menu(inst), cap=4)


def record_calls(monkeypatch, module, name):
    """Record the calls of ``module.name`` through every delmenu module global naming it."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for home, loaded in list(sys.modules.items()):
        if home.split(".")[0] == "delmenu" and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, recorded)
    return calls


def test_bruteforce_validates_its_menu_once(monkeypatch):
    calls = record_calls(monkeypatch, delmenu.model, "validate_menu")
    for seed in range(6):
        inst = random_independent(seed, n=3, support=3)
        for menu in random_menus(inst, 3, seed):
            calls.clear()
            eval_bruteforce_product(inst, menu)
            assert calls == [(inst, menu)]


def test_bruteforce_keys_each_draw_once(monkeypatch):
    calls = record_calls(monkeypatch, delmenu.model, "choice_key")
    for seed in range(6):
        inst = random_independent(seed, n=3, support=3)
        for menu in random_menus(inst, 3, seed):
            calls.clear()
            report = eval_bruteforce_product(inst, menu)
            indices = candidates(inst, menu)
            draws = [(i, v, inst.bias_of(i)) for i in indices for v, _ in inst.support_of(i)]
            assert calls == draws  # one key per draw: the sum of the support sizes
            # Each realization's pick is agent_choice's, as a per-realization expansion gives.
            contrib, freq = {i: xnum(0) for i in indices}, {i: Fraction(0) for i in indices}
            for prob, values in product_realizations(inst, indices):
                chosen = agent_choice(inst, menu, values)
                contrib[chosen] += values[chosen] * prob
                freq[chosen] += prob
            assert (report.contrib, report.freq) == (contrib, freq)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_action():
    inst = IndependentInstance((deterministic(xnum(3), xnum(2)),))
    dec = decompose(inst, frozenset({1}))
    assert dec.u_low == xnum(3)
    assert dec.bdif == xnum(0)
    assert dec.sur == xnum(2)


def test_decompose_log_family_optimum():
    inst = gen_log_family(3)
    dec = decompose(inst, frozenset({1, 3, 5}))
    assert dec.sur + dec.bdif == xnum("24/7")
    assert dec.u_low == xnum(6)


def test_decompose_identity_and_direct_bdif():
    for seed in range(50):
        inst = random_independent(seed, n=3, support=2)
        for menu in random_menus(inst, 4, seed):
            report = eval_independent_dp(inst, menu)
            dec = decompose(inst, menu)
            assert dec.sur + dec.bdif == report.f
            # Dual route: bias difference by direct joint enumeration.
            direct = xsum(
                (dec.u_low - inst.bias_of(agent_choice(inst, menu, values))) * prob
                for prob, values in product_realizations(inst, candidates(inst, menu))
            )
            assert dec.bdif == direct
    for seed in range(30):
        inst = random_correlated(seed)
        for menu in random_menus(inst, 4, seed):
            dec = decompose(inst, menu)
            assert dec.sur + dec.bdif == eval_correlated(inst, menu).f


def reference_decompose(instance, menu):
    """The decomposition by XNum arithmetic, one product per candidate."""
    report = evaluate(instance, menu)
    u_low = max(instance.bias_of(i) for i in candidates(instance, menu))
    bdif = u_low - xsum(instance.bias_of(i) * p for i, p in report.freq.items())
    return Decomposition(u_low=u_low, sur=report.f - bdif, bdif=bdif)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, iota=True, max_den=3)
    )
)
def test_decompose_equals_xnum_expression(instance):
    for menu in every_menu(instance):
        assert decompose(instance, menu) == reference_decompose(instance, menu)


def every_menu(instance):
    first = 0 if instance.has_outside else 1
    for size in range(first, instance.n + 1):
        yield from map(frozenset, combinations(range(1, instance.n + 1), size))


# The two properties below read no kernel result but the decomposition under
# test: frequencies come from agent_choice, or not at all.


@settings(max_examples=100, deadline=None)
@given(small_instances("correlated", iota=True, max_den=3))
def test_correlated_bdif_equals_agent_choice_per_profile(instance):
    for menu in every_menu(instance):
        u_low = max(instance.bias_of(i) for i in candidates(instance, menu))
        direct = xsum(
            (u_low - instance.bias_of(agent_choice(instance, menu, profile_assignment(instance, p))))
            * p.prob
            for p in instance.profiles
        )
        dec = decompose(instance, menu)
        assert (dec.u_low, dec.bdif) == (u_low, direct)


SHIFTS = st.builds(
    lambda std, std_den, inf, inf_den: xnum(Fraction(std, std_den), Fraction(inf, inf_den)),
    st.integers(-6, 6), st.integers(1, 5), st.integers(-3, 3), st.integers(1, 4),
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, iota=True, max_den=3)
    ),
    SHIFTS,
)
def test_bias_shift_moves_u_low_alone(instance, c):
    shifted = shift_biases(instance, c)
    for menu in every_menu(instance):
        dec, moved = decompose(instance, menu), decompose(shifted, menu)
        assert (moved.u_low, moved.sur, moved.bdif) == (dec.u_low + c, dec.sur, dec.bdif)


# ---------------------------------------------------------------------------
# Derandomized interference
# ---------------------------------------------------------------------------


def test_derandomize_trivial_when_no_interference():
    inst = gen_three_approx(Fraction(1, 2))
    opt = frozenset({1, 2, 3, 4, 5})
    action, certified = derandomize_interference(inst, opt, xnum(1))
    assert action is None
    assert certified


def test_derandomize_three_approx_at_b4():
    inst = gen_three_approx(Fraction(1, 100))
    opt = frozenset({1, 3, 5})
    t = xnum(1, -1)  # bias of action 4: threshold menu {1,2,3,4}
    action, certified = derandomize_interference(inst, opt, t)
    assert certified
    assert action is not None
    assert action.bias == t


def test_derandomize_preserves_agent_utility():
    for seed in range(25):
        inst = random_independent(seed, n=3, support=2)
        opt_menu, _ = brute_force_opt(inst)
        for t, menu in threshold_menus(inst):
            if t is None:
                continue
            action, certified = derandomize_interference(inst, opt_menu, t)
            assert certified
            if action is not None:
                interference = sorted(menu - opt_menu)
                utilities = {
                    inst.actions[i - 1].bias + v
                    for i in interference
                    for v, _ in inst.actions[i - 1].support
                }
                assert action.value + action.bias in utilities


def test_product_realizations_of_no_indices():
    inst = IndependentInstance((deterministic(xnum(0), xnum(1)),))
    assert list(product_realizations(inst, [])) == [(Fraction(1), {})]


def test_derandomize_with_nothing_kept_and_no_outside():
    # The threshold menu {2} misses the opt menu {1} entirely: the kept set is
    # empty and there is no outside option, so the stand-in action is alone.
    inst = IndependentInstance(
        (
            deterministic(xnum(5), xnum(1)),
            Action(xnum(0), ((xnum(1), Fraction(1, 2)), (xnum(3), Fraction(1, 2)))),
        )
    )
    action, certified = derandomize_interference(inst, frozenset({1}), xnum(0))
    assert action == InterferenceAction(bias=xnum(0), value=xnum(1))
    assert certified


def test_derandomize_certificates_outside_family():
    inst = gen_outside_family(3)
    opt_menu, _ = brute_force_opt(inst)
    for t, _ in threshold_menus(inst):
        if t is None:
            continue
        _, certified = derandomize_interference(inst, opt_menu, t)
        assert certified


def test_derandomize_past_any_profile_cap():
    # Three actions of 1,000 distinct draws and a two-point outside option:
    # the top threshold menu has 2 * 10^9 joint realizations, and against
    # the empty opt menu all three actions are pinned, 10^9 realizations of
    # them.  The certificate scans the draws, not the realizations.
    rng = random.Random(5)

    def draws():
        values = rng.sample(range(10**5), 1000)
        return tuple((xnum(Fraction(v, 100)), Fraction(1, 1000)) for v in values)

    inst = IndependentInstance(
        tuple(Action(xnum(bias), draws()) for bias in (0, 1, 2)),
        Action(xnum(1), ((xnum(0), Fraction(1, 2)), (xnum(500), Fraction(1, 2)))),
    )
    start = time.perf_counter()
    for opt_menu in (frozenset(), frozenset({1})):
        for t, menu in threshold_menus(inst):
            if t is None:
                continue
            action, certified = derandomize_interference(inst, opt_menu, t)
            assert certified
            pinned = menu - opt_menu
            if not pinned:  # the threshold menu {1} against the opt menu {1}
                assert action is None
                continue
            utilities = {v + inst.bias_of(i) for i in pinned for v, _ in inst.support_of(i)}
            assert action.value + t in utilities
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_evaluate_dispatch():
    cor = gen_log_family(2)
    ind = gen_three_approx(Fraction(1, 2))
    assert evaluate(cor, full_menu(cor)).f == eval_correlated(cor, full_menu(cor)).f
    assert evaluate(ind, full_menu(ind)).f == eval_independent_dp(ind, full_menu(ind)).f
    with pytest.raises(Exception):
        eval_correlated(ind, full_menu(ind))
    with pytest.raises(Exception):
        eval_independent_dp(cor, full_menu(cor))


@pytest.mark.parametrize(
    "call",
    [
        lambda inst: eval_bruteforce_product(inst, full_menu(inst)),
        lambda inst: derandomize_interference(inst, full_menu(inst), xnum(0)),
    ],
    ids=["bruteforce-product", "derandomize"],
)
def test_independent_only_paths_refuse_a_correlated_instance(call):
    with pytest.raises(InvalidInstanceError, match="requires an independent instance"):
        call(gen_log_family(2))
