import random
from fractions import Fraction

import pytest

from delmenu import (
    Action,
    CorrelatedInstance,
    IndependentInstance,
    InvalidInstanceError,
    NoFeasibleActionError,
    OUTSIDE,
    Profile,
    agent_choice,
    deterministic,
    evaluate,
    full_menu,
    gen_log_family,
    make_support,
    shift_biases,
    threshold_menu,
    validate_menu,
    xnum,
)
from conftest import profile_assignment, random_independent, random_menus


def oracle_choice(instance, menu, values):
    """Independent linear scan re-implementing the tie rules from scratch."""
    feasible = sorted(menu) + ([OUTSIDE] if instance.has_outside else [])
    best = None
    for i in feasible:
        if best is None:
            best = i
            continue
        u_i, u_b = values[i] + instance.bias_of(i), values[best] + instance.bias_of(best)
        if u_i > u_b:
            best = i
        elif u_i == u_b:
            if values[i] > values[best]:
                best = i
            elif values[i] == values[best]:
                if best == OUTSIDE and i != OUTSIDE:
                    best = i
                elif i != OUTSIDE and i < best:
                    best = i
    if best is None:
        raise AssertionError("oracle called with empty feasible set")
    return best


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_action_validation():
    with pytest.raises(InvalidInstanceError):
        Action(xnum(0), ((xnum(1), Fraction(1, 2)),))  # probs sum to 1/2
    with pytest.raises(InvalidInstanceError):
        Action(xnum(0), ((xnum(1), Fraction(0)), (xnum(0), Fraction(1))))
    with pytest.raises(InvalidInstanceError):
        Action(xnum(0), ((xnum(-1), Fraction(1)),))  # negative standard part
    with pytest.raises(InvalidInstanceError):
        IndependentInstance(())


ONE_ACTION = IndependentInstance((deterministic(xnum(0), xnum(1)),))
ONE_PROFILE = (Profile(Fraction(1), (xnum(1),)),)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ONE_ACTION.bias_of(OUTSIDE), NoFeasibleActionError),
        (lambda: CorrelatedInstance((xnum(0),), ONE_PROFILE).bias_of(OUTSIDE), NoFeasibleActionError),
        (lambda: ONE_ACTION.support_of(OUTSIDE), NoFeasibleActionError),
        (lambda: CorrelatedInstance((), (Profile(Fraction(1), ()),)), InvalidInstanceError),
        (lambda: CorrelatedInstance((xnum(0),), ()), InvalidInstanceError),
        (lambda: CorrelatedInstance((xnum(0),), ONE_PROFILE, labels=("a", "b")), InvalidInstanceError),
    ],
    ids=["bias-independent", "bias-correlated", "support", "no-actions", "no-profiles", "labels"],
)
def test_instance_validation_raises(build, error):
    with pytest.raises(error):
        build()


def test_make_support_lifts_plain_rationals():
    assert make_support([(1, Fraction(1, 2)), (Fraction(1, 2), "1/2")]) == (
        (xnum("1/2"), Fraction(1, 2)),
        (xnum(1), Fraction(1, 2)),
    )


def test_support_canonicalized():
    a = Action(
        xnum(0),
        ((xnum(2), Fraction(1, 4)), (xnum(1), Fraction(1, 2)), (xnum(2), Fraction(1, 4))),
    )
    assert a.support == ((xnum(1), Fraction(1, 2)), (xnum(2), Fraction(1, 2)))


def test_validate_menu():
    inst = IndependentInstance((deterministic(xnum(0), xnum(1)),))
    with pytest.raises(InvalidInstanceError):
        validate_menu(inst, frozenset({2}))
    with pytest.raises(NoFeasibleActionError):
        validate_menu(inst, frozenset())


# ---------------------------------------------------------------------------
# Agent choice
# ---------------------------------------------------------------------------


def test_singleton_menu_trivial():
    inst = IndependentInstance((deterministic(xnum(-5), xnum(3)),))
    assert agent_choice(inst, frozenset({1}), {1: xnum(3)}) == 1


def test_log_family_column_one_full_menu():
    # Agent utilities in the first profile are 8, 8+i, 4, 8+2i, 6: action 4 wins.
    inst = gen_log_family(3)
    values = profile_assignment(inst, inst.profiles[0])
    utilities = [values[i] + inst.bias_of(i) for i in range(1, 6)]
    assert utilities == [xnum(8), xnum(8, 1), xnum(4), xnum(8, 2), xnum(6)]
    assert agent_choice(inst, full_menu(inst), values) == 4


def test_choice_matches_linear_scan_oracle():
    rng = random.Random(42)
    for seed in range(150):
        inst = random_independent(seed, n=4, support=2)
        for menu in random_menus(inst, 4, seed):
            # Small grids force plenty of exact ties.
            values = {
                i: xnum(Fraction(rng.randint(0, 4), 2), Fraction(rng.randint(-1, 1)))
                for i in sorted(menu) + ([OUTSIDE] if inst.has_outside else [])
            }
            assert agent_choice(inst, menu, values) == oracle_choice(inst, menu, values)


def test_no_feasible_action():
    inst = IndependentInstance((deterministic(xnum(0), xnum(1)),))
    with pytest.raises(NoFeasibleActionError, match="no feasible action"):
        agent_choice(inst, frozenset(), {})


def test_tie_rules_in_order():
    # Equal utility: higher value wins; equal value too: in-menu beats outside.
    out = deterministic(xnum(0), xnum(2), "outside")
    inst = IndependentInstance(
        (deterministic(xnum(1), xnum(1)), deterministic(xnum(0), xnum(2))), out
    )
    # a1: u=2 v=1; a2: u=2 v=2; outside: u=2 v=2.
    values = {1: xnum(1), 2: xnum(2), OUTSIDE: xnum(2)}
    assert agent_choice(inst, frozenset({1, 2}), values) == 2
    assert agent_choice(inst, frozenset({1}), values) == OUTSIDE  # value 2 beats 1
    # Full tie between two in-menu actions: lowest index.
    inst2 = IndependentInstance(
        (deterministic(xnum(0), xnum(1)), deterministic(xnum(0), xnum(1)))
    )
    assert agent_choice(inst2, frozenset({1, 2}), {1: xnum(1), 2: xnum(1)}) == 1


# ---------------------------------------------------------------------------
# Threshold menus (bias filter)
# ---------------------------------------------------------------------------


def test_threshold_menu_iota_boundary():
    inst = gen_log_family(3)  # biases 0, 4-i, 4, 6-i, 6
    assert threshold_menu(inst, xnum(4)) == frozenset({1, 2, 3})
    assert threshold_menu(inst, xnum(4, -1)) == frozenset({1, 2})
    assert threshold_menu(inst, xnum(6)) == frozenset({1, 2, 3, 4, 5})


# ---------------------------------------------------------------------------
# Bias-shift invariance
# ---------------------------------------------------------------------------


def test_shift_zero_is_identity():
    inst = gen_log_family(3)
    assert shift_biases(inst, xnum(0)) == inst
    ind = random_independent(7)
    assert shift_biases(ind, 0) == ind


def test_log_family_shift_preserves_choices():
    inst = gen_log_family(3)
    shifted = shift_biases(inst, xnum(1))
    menus = [full_menu(inst), frozenset({1, 3, 5}), frozenset({2, 4}), frozenset({1})]
    for menu in menus:
        for profile in inst.profiles:
            values = profile_assignment(inst, profile)
            assert agent_choice(inst, menu, values) == agent_choice(shifted, menu, values)


def test_shift_to_nonnegative_biases_preserves_f():
    for seed in range(40):
        inst = random_independent(seed)
        indices = list(range(1, inst.n + 1)) + ([OUTSIDE] if inst.has_outside else [])
        c = -min((inst.bias_of(i) for i in indices), key=lambda b: (b.std, b.inf))
        shifted = shift_biases(inst, c)
        assert all(shifted.bias_of(i) >= xnum(0) for i in indices)
        for menu in random_menus(inst, 5, seed):
            assert evaluate(inst, menu).f == evaluate(shifted, menu).f
