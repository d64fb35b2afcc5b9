import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delmenu import (
    Action,
    CorrelatedInstance,
    IndependentInstance,
    InvalidInstanceError,
    NoFeasibleActionError,
    OUTSIDE,
    Profile,
    agent_choice,
    derandomize_interference,
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
from delmenu.xnum import XNum, as_fraction, merge_distribution
from conftest import probabilities, profile_assignment, random_independent, random_menus


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


def _value(*actions):
    instance = IndependentInstance(actions)
    return evaluate(instance, full_menu(instance))


def _correlated_value(biases, values, outside_bias):
    instance = CorrelatedInstance(biases, (Profile(1, values),), outside_bias)
    return evaluate(instance, full_menu(instance))


_TWO = IndependentInstance((deterministic(xnum(0), xnum(3)), deterministic(xnum(1), xnum(2))))
PLAIN_AND_XNUM = {
    "action-int-bias": (
        lambda: _value(Action(0, ((1, 1),))),
        lambda: _value(Action(xnum(0), ((xnum(1), 1),))),
    ),
    "action-str-bias": (
        lambda: _value(Action("1/2", ((1, 1),))),
        lambda: _value(Action(xnum("1/2"), ((xnum(1), 1),))),
    ),
    "deterministic": (
        lambda: _value(deterministic(0, 3)),
        lambda: _value(deterministic(xnum(0), xnum(3))),
    ),
    "profile": (
        lambda: Profile(Fraction(1), (1, 2)),
        lambda: Profile(Fraction(1), (xnum(1), xnum(2))),
    ),
    "profile-mixed": (
        lambda: Profile("1/2", (xnum(1, -1), 2, Fraction(3, 4), "5/7", xnum("1/3"))),
        lambda: Profile(Fraction(1, 2), (xnum(1, -1), xnum(2), xnum("3/4"), xnum("5/7"), xnum("1/3"))),
    ),
    "correlated": (
        lambda: _correlated_value((0, 1), (1, 2, 0), 2),
        lambda: _correlated_value((xnum(0), xnum(1)), (xnum(1), xnum(2), xnum(0)), xnum(2)),
    ),
    "derandomize": (
        lambda: derandomize_interference(_TWO, frozenset({1}), 1),
        lambda: derandomize_interference(_TWO, frozenset({1}), xnum(1)),
    ),
}


@pytest.mark.parametrize("plain, wrapped", PLAIN_AND_XNUM.values(), ids=PLAIN_AND_XNUM.keys())
def test_plain_numbers_equal_their_xnum_twins(plain, wrapped):
    # Biases, values and thresholds take what an XNum operand takes.
    assert plain() == wrapped()


def test_profile_coerces_plain_values_and_still_refuses_a_negative_one():
    assert all(isinstance(v, XNum) for v in Profile(1, (1, "1/2", Fraction(3))).values)
    assert all(type(v) is XNum for v in Profile(1, (xnum(1, -1), 2, "1/2", Fraction(3))).values)
    with pytest.raises(InvalidInstanceError, match="value -2 has negative standard part"):
        Profile(1, (1, -2))
    # An XNum first: the plain number after it is coerced and checked too.
    assert Profile(1, (xnum(1), "1/2")).values == (xnum(1), xnum("1/2"))
    with pytest.raises(InvalidInstanceError, match="value -2 has negative standard part"):
        Profile(1, (xnum(1), -2))


@pytest.mark.parametrize("values", [(xnum(-1),), (1, -2), ("x",), (None,), (xnum(1), "1.5")])
@pytest.mark.parametrize("prob", [0, "-1/2", Fraction(0)])
def test_a_nonpositive_probability_is_reported_before_any_value(prob, values):
    with pytest.raises(InvalidInstanceError, match="profile probability .* is not positive"):
        Profile(prob, values)


def test_each_profile_runs_post_init_once(monkeypatch):
    calls = []
    post_init = Profile.__post_init__
    monkeypatch.setattr(Profile, "__post_init__", lambda self: calls.append(self) or post_init(self))
    rows = [(1, 2), (xnum(1), "1/2"), (Fraction(1), xnum(0)), (xnum(1), xnum(2))]
    profiles = [Profile(Fraction(1, 4), values) for values in rows]
    assert list(map(id, calls)) == list(map(id, profiles))  # one call each, plain rows too


def test_a_repeated_profile_is_one_row_weighed_by_its_multiplicity():
    third = Profile(Fraction(1, 3), (xnum(1), xnum(2)))
    other = Profile(Fraction(1, 3), (xnum(1), xnum(2)))  # equal, but another object
    instance = CorrelatedInstance((xnum(0), xnum(1)), (third, other, third))
    assert instance.rows == ((third, 2), (other, 1))
    assert instance.rows[0][0] is third and instance.rows[1][0] is other
    assert CorrelatedInstance((xnum(0), xnum(1)), (third,) * 3).rows == ((third, 3),)
    with pytest.raises(InvalidInstanceError, match="^profile probabilities sum to 2/3, not 1$"):
        CorrelatedInstance((xnum(0), xnum(1)), (third,) * 2)
    with pytest.raises(InvalidInstanceError, match="^profile probabilities sum to 4/3, not 1$"):
        CorrelatedInstance((xnum(0), xnum(1)), (third,) * 4)


def test_a_repeated_row_of_the_wrong_width_raises_the_width_message():
    half = Profile(Fraction(1, 2), (xnum(1), xnum(2)))
    with pytest.raises(InvalidInstanceError, match="^profile has 2 values, expected 1$"):
        CorrelatedInstance((xnum(0),), (half, half))
    with pytest.raises(InvalidInstanceError, match="^profile has 2 values, expected 3$"):
        CorrelatedInstance((xnum(0), xnum(1)), (half, half), outside_bias=xnum(0))
    # Every distinct row is checked, not only the first.
    whole = Profile(Fraction(1, 3), (xnum(1),))
    with pytest.raises(InvalidInstanceError, match="^profile has 2 values, expected 1$"):
        CorrelatedInstance((xnum(0),), (whole, half, whole))


def test_rows_are_derived_not_a_field():
    instance = gen_log_family(4)
    assert "rows" not in {f.name for f in dataclasses.fields(instance)}
    assert "rows" in vars(instance)  # the checks read it at construction
    twin = CorrelatedInstance(instance.biases, tuple(instance.profiles), instance.outside_bias)
    assert twin == instance and hash(twin) == hash(instance) and repr(twin) == repr(instance)
    blob = pickle.dumps(instance)
    assert b"rows" not in blob and pickle.dumps(twin) == blob
    for again in (pickle.loads(blob), copy.deepcopy(instance), copy.copy(instance)):
        assert again == instance and "rows" not in vars(again)
        # Rebuilt on use, over the copy's own objects.
        assert [m for _, m in again.rows] == [1, 2, 4, 8]
        assert all(any(p is q for q in again.profiles) for p, _ in again.rows)


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


def test_merge_distribution_keeps_objects_and_shares_a_total_of_one():
    first, again, lone = xnum(2), xnum(2), xnum(1)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    pairs = [(first, quarter), (lone, half), (again, Fraction(1, 8)), (xnum(2), Fraction(1, 8))]
    merged, total = merge_distribution(pairs)
    assert merged == [(lone, half), (first, Fraction(1, 2))]
    assert merged[0][0] is lone and merged[0][1] is half and merged[1][0] is first
    # A valid support's total is the one shared Fraction: none is built per action.
    assert total == 1 and total is merge_distribution([(lone, Fraction(1))])[1]
    assert merge_distribution([(lone, half)])[1] == half


def fraction_make_support(pairs):
    """``make_support`` as it was built on Fraction arithmetic: hash, add, sort."""
    merged = {}
    for value, prob in pairs:
        if not isinstance(value, XNum):
            value = XNum(value)
        prob = as_fraction(prob)
        merged[value] = merged.get(value, Fraction(0)) + prob
    return tuple(sorted(merged.items(), key=lambda vp: vp[0]._key()))


def fraction_action_support(pairs):
    """``Action``'s support and checks as they were built on Fraction arithmetic."""
    support = fraction_make_support(pairs)
    if not support:
        raise InvalidInstanceError("action support is empty")
    total = Fraction(0)
    for value, prob in support:
        if prob <= 0:
            raise InvalidInstanceError(f"support probability {prob} is not positive")
        if value.std < 0:
            raise InvalidInstanceError(f"value {value} has negative standard part")
        total += prob
    if total != 1:
        raise InvalidInstanceError(f"support probabilities sum to {total}, not 1")
    return support


def outcome(build, pairs):
    """The repr of what ``build(pairs)`` returns, or its exception's type and message.

    A repr shows each number's type, so an int where a Fraction belongs differs.
    """
    try:
        return repr(build(pairs))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


# A small grid, so values repeat; negative standard parts, iota parts and
# unlike denominators; ints and "p/q" strings to coerce.
GRID = st.builds(Fraction, st.integers(-1, 2), st.integers(1, 3))
VALUES = st.one_of(
    st.builds(xnum, GRID, st.sampled_from([0, 0, 1, Fraction(-1, 2)])),
    st.integers(-1, 2),
    GRID.map(str),
)
PROBS = st.builds(Fraction, st.integers(-2, 4), st.integers(1, 4))


@st.composite
def raw_supports(draw):
    """(value, probability) pairs as a caller may give them, valid or not.

    Half the draws have free probabilities: zero, negative, cancelling on a
    merge, or summing to anything.  The other half have positive ones that
    sum to 1.  Probabilities come as Fractions, ints or "p/q" strings.
    """
    values = draw(st.lists(VALUES, max_size=5))
    if draw(st.booleans()):
        probs = [draw(PROBS) for _ in values]
    else:
        probs = probabilities([draw(st.integers(1, 3)) for _ in values])
    spell = [lambda p: p, str, lambda p: int(p) if p.denominator == 1 else p]
    return [(v, draw(st.sampled_from(spell))(p)) for v, p in zip(values, probs)]


@settings(max_examples=300, deadline=None)
@given(raw_supports())
@example([(1, Fraction(1, 2)), (xnum(1), "-1/2"), (2, 1)])  # merges to probability 0
@example([(3, "1/2"), (xnum(-1, 1), Fraction(1, 2))])  # negative value listed after a valid one
@example([(2, "1/2"), (-1, 0), (xnum(-1), "1/2")])  # merges to 1/2, then the negative value
@example([(xnum(-1), 0), (xnum(-2), "1/4")])  # the first sorted entry fails before the next
@example([(1, Fraction(1, 2)), (0.5, Fraction(1, 2))])  # a float value
@example([(1, Fraction(1, 2)), (2, 0.5)])  # a float probability
def test_support_equals_the_fraction_implementation(pairs):
    assert outcome(make_support, pairs) == outcome(fraction_make_support, pairs)
    action_support = outcome(lambda p: Action(xnum(0), p).support, pairs)
    assert action_support == outcome(fraction_action_support, pairs)


def test_merged_entry_keeps_its_first_value_and_a_lone_entry_its_probability():
    first, again, other = xnum(1), xnum(1), xnum(2)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    support = Action(xnum(0), ((other, half), (first, quarter), (again, quarter))).support
    assert support == ((xnum(1), half), (xnum(2), half))
    assert support[0][0] is first
    assert support[1][1] is half


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
