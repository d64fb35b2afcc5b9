import gc
import hashlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delmenu.model
from delmenu import (
    Action,
    CapExceededError,
    InvalidInstanceError,
    Profile,
    agent_choice,
    brute_force_opt,
    eval_independent_dp,
    evaluate,
    from_assortment,
    full_menu,
    gen_log_family,
    gen_outside_family,
    gen_random,
    gen_three_approx,
    solve,
    threshold_menus,
    xnum,
    xsum,
)
from delmenu.model import OUTSIDE, CorrelatedInstance, candidates, product_realizations
from delmenu.reductions import (
    Graph,
    PartitionInstance,
    minimal_valid_m,
    reduce_integer_partition,
    reduce_vertex_cover,
)
from delmenu.serialize import dumps_instance


# ---------------------------------------------------------------------------
# Log family
# ---------------------------------------------------------------------------


def test_log_family_k3_exact_matrices():
    inst = gen_log_family(3)
    assert [str(b) for b in inst.biases] == ["0", "4-1i", "4", "6-1i", "6"]
    expected_rows = [
        ["8", "0", "0", "0", "0", "0", "0"],
        ["4+2i", "0", "0", "0", "0", "0", "0"],
        ["0", "4", "4", "0", "0", "0", "0"],
        ["2+3i", "2+3i", "2+3i", "0", "0", "0", "0"],
        ["0", "0", "0", "2", "2", "2", "2"],
    ]
    matrix = [[str(p.values[r]) for p in inst.profiles] for r in range(5)]
    assert matrix == expected_rows
    assert all(p.prob == Fraction(1, 7) for p in inst.profiles)


@pytest.mark.parametrize("k", range(2, 16))
def test_log_family_optimum_formula(k):
    # 2k - 1 actions, past the search's default cap from k = 11 on; the
    # kernel merges the 2^k - 1 profiles into k rankings, and the least
    # likely profile stays one of them.  The best threshold menu is worth 2
    # at every k, so the ratio, k * 2^k / (2 (2^k - 1)), grows as about k / 2.
    inst = gen_log_family(k)
    result = solve(inst, cap_n=2 * k - 1)
    assert result.opt_menu == frozenset(range(1, 2 * k, 2))
    assert result.opt_value.std == Fraction(k * 2**k, 2**k - 1)
    assert result.best_threshold_value.std == 2
    assert result.ratio == Fraction(k * 2**k, 2 * (2**k - 1))
    assert inst.kernel.least_mass() == Fraction(1, 2**k - 1)


def test_log_family_k2_value():
    _, value = brute_force_opt(gen_log_family(2))
    assert value.std == Fraction(8, 3)


def test_log_family_probabilities_sum():
    for k in (2, 3, 4, 6):
        inst = gen_log_family(k)
        assert sum(p.prob for p in inst.profiles) == 1


def test_log_family_bounds():
    with pytest.raises(InvalidInstanceError):
        gen_log_family(1)
    with pytest.raises(InvalidInstanceError):
        gen_log_family(17)


def test_log_family_value_cap(monkeypatch):
    # m * n values: k = 3 holds 7 * 5 = 35, k = 4 holds 15 * 7 = 105.
    monkeypatch.setattr(delmenu.model, "VALUE_CAP", 35)
    assert gen_log_family(3).n == 5
    with pytest.raises(CapExceededError, match="instance of 105 values exceeds the cap of 35 values"):
        gen_log_family(4)


# ---------------------------------------------------------------------------
# Three-approximation family
# ---------------------------------------------------------------------------


def test_three_approx_structure():
    inst = gen_three_approx(Fraction(1, 2))
    assert inst.outside is None
    a1, a2, a3, a4, a5 = inst.actions
    assert a1.bias == xnum(0)
    assert dict(a1.support) == {xnum(0): Fraction(1, 2), xnum(1, 2): Fraction(1, 2)}
    assert a5.bias == xnum(1)
    assert dict(a5.support) == {xnum(0): Fraction(1, 2), xnum(1): Fraction(1, 2)}
    assert a2.bias == xnum(Fraction(1, 2), -1)
    assert a4.support == ((xnum(0, 5), Fraction(1)),)
    for a in inst.actions:
        assert sum(p for _, p in a.support) == 1


def test_three_approx_half_value():
    inst = gen_three_approx(Fraction(1, 2))
    assert eval_independent_dp(inst, frozenset({1, 3, 5})).f.std == Fraction(7, 8)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda e: 0 < e < 1))
@example(Fraction(1, 1000))
def test_three_approx_ratio_closed_form(eps):
    # The factor-3 bound is approached as eps goes to 0 and never reached.
    assert solve(gen_three_approx(eps)).ratio == 3 - 3 * eps + eps**2


def test_three_approx_eps_range():
    for bad in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(InvalidInstanceError):
            gen_three_approx(bad)


# ---------------------------------------------------------------------------
# Outside-option family
# ---------------------------------------------------------------------------


def test_outside_family_n2_masses():
    inst = gen_outside_family(2)
    eps = Fraction(1, 16)
    assert dict(inst.outside.support) == {
        xnum(eps / 2): Fraction(1, 2),
        xnum(3 * eps / 2): Fraction(1, 2),
    }
    assert inst.outside.bias == xnum(2)
    assert inst.n == 3  # g1, g2, b2


def test_outside_family_n4_survival_probabilities():
    # A good action's high draw at level i beats the outside option with
    # probability exactly n^-(n-i).
    n = 4
    inst = gen_outside_family(n)
    eps = Fraction(1, n ** (2 * n))
    for i in range(1, n + 1):
        cutoff = i * eps
        mass = sum(p for v, p in inst.outside.support if v.std < cutoff)
        assert mass == Fraction(1, n ** (n - i))


def test_outside_family_good_menu_and_thresholds():
    n = 4
    inst = gen_outside_family(n)
    good = frozenset(range(1, n + 1))
    f_good = eval_independent_dp(inst, good).f
    assert f_good.std >= 1 - Fraction(3, 4) ** 4
    _, opt = brute_force_opt(inst)
    ev0 = xsum(v * p for v, p in inst.outside.support)
    eps = Fraction(1, n ** (2 * n))
    # Exact threshold value is 1/n + (1-1/n)/n up to the chosen action's
    # j*eps bonus and whatever the outside option chips in.
    cap = Fraction(1, n) + (1 - Fraction(1, n)) * Fraction(1, n) + ev0.std + n * eps
    for t, menu in threshold_menus(inst):
        assert evaluate(inst, menu).f.std <= cap
        assert evaluate(inst, menu).f.std * Fraction(3, 2) <= opt.std


def test_outside_family_alt_distribution():
    inst = gen_outside_family(3, alt_good_values=True)
    for i, a in enumerate(inst.actions[:3], start=1):
        values = [v for v, _ in a.support]
        assert all(v.std > 0 for v in values)
        assert len(values) == 2
    assert gen_outside_family(3, alt_good_values=True) != gen_outside_family(3)


def test_outside_family_bounds():
    with pytest.raises(InvalidInstanceError):
        gen_outside_family(1)
    with pytest.raises(InvalidInstanceError):
        gen_outside_family(7)


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------


def test_gen_random_deterministic():
    for kind in ("independent", "correlated"):
        for outside in ("none", "fixed", "random"):
            a = gen_random(kind, 3, 3, seed=9, outside=outside)
            b = gen_random(kind, 3, 3, seed=9, outside=outside)
            assert a == b
    assert gen_random("independent", 3, 2, seed=1) != gen_random("independent", 3, 2, seed=2)


def test_gen_random_shapes():
    ind = gen_random("independent", 4, 3, seed=5, outside="random")
    assert ind.n == 4 and ind.outside is not None and len(ind.outside.support) >= 1
    cor = gen_random("correlated", 3, 5, seed=5, outside="fixed")
    assert cor.n == 3 and len(cor.profiles) == 5
    outside_values = {p.values[3] for p in cor.profiles}
    assert len(outside_values) == 1  # fixed outside value is constant across profiles


def test_gen_random_validation():
    with pytest.raises(InvalidInstanceError):
        gen_random("weird", 3, 2, seed=0)
    with pytest.raises(InvalidInstanceError):
        gen_random("independent", 3, 2, seed=0, outside="sometimes")
    with pytest.raises(InvalidInstanceError):
        gen_random("independent", 3, 2, seed=0, value_range=(-1, 4))


@pytest.mark.parametrize("denominator", [0, -1])
def test_gen_random_rejects_a_denominator_below_one(denominator):
    with pytest.raises(InvalidInstanceError, match=f"must be at least 1, got {denominator}"):
        gen_random("independent", 3, 2, seed=0, denominator=denominator)


def partition_reduction():
    p = PartitionInstance((3, 1, 1, 2, 2, 1))
    return reduce_integer_partition(p, minimal_valid_m(p))[0]


# SHA-256 of each generator's file, recorded before the generators shared
# their numbers: sharing changes no byte.
GENERATED_SHA256 = {
    ("independent", "none", 5): "fcbeb4219e3586bc0d5698441f3fbc74c4962ba68e816ad431c1b7a4b0d7210c",
    ("independent", "none", 40): "69b4ee56e55bd37bd0318951f66045494503afd5e86c178df18d21ceee7a1a23",
    ("independent", "fixed", 5): "5af552c53ab458eeb941405fbc9cdf78c63c14b093370976690b8e895b64f5bb",
    ("independent", "fixed", 40): "f029ef7b564a35a681f5ade00d24866b872a4d834f69614ebf9b9ac5bb02e567",
    ("independent", "random", 5): "2f99e1046efa0775b6a04545be274e83758e5a23b1a8cda7803f70923c46b6b2",
    ("independent", "random", 40): "a04672426355b6dae2183c4df5f99e4b0507dc26d7061b4cf89a6a08559959a2",
    ("correlated", "none", 5): "25eae6be5997d7e78be5ca0c11e3e36fb6ef85ed6a2d638c7514822e19975179",
    ("correlated", "none", 40): "1de254cf0de408d444bb4cd84f3177989291f5f63fe39ad93bc2777664a684af",
    ("correlated", "fixed", 5): "f15642566a2a91fbbbb5719248881df4b21fda9d5e3de0fab0e1c516f2ad0d4e",
    ("correlated", "fixed", 40): "800d88d066b6860cd9f0d3d10059c0e0b53f2f3ef0ee1b137c37cee5f0f786e1",
    ("correlated", "random", 5): "b6be13dc7dbfe3aefffe646353a4195b3d2feae36b3d8dc5312f2e130ff2800b",
    ("correlated", "random", 40): "71b3c0814dd4f527a27de91228451b7dcfd5c520fe15c14ec96599bf39c8f321",
    "log 5": "72276e518be7f13d1f8f11172a8e2ee8a4a4e282d37467e47274792fdadaa72a",
    "vertex cover": "8b0d620adc79892de4a24bf6f333f4267ff7225bbe112753f79fba0f3dccf595",
    "partition": "830f6461cd754b0a84be69a58a8d714a18fcd1b9a6c2a5ed0d7156b039987868",
}


def generated(name):
    if name == "log 5":
        return gen_log_family(5)
    if name == "vertex cover":
        return reduce_vertex_cover(Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4))))
    if name == "partition":
        return partition_reduction()
    kind, outside, n = name
    return gen_random(kind, n=n, support_size=4, seed=2024, outside=outside)


@pytest.mark.parametrize("name", GENERATED_SHA256, ids=str)
def test_generated_bytes_are_pinned(name):
    text = dumps_instance(generated(name))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[name]


def numbers(instance):
    """The instance's value objects and its probability objects, every occurrence."""
    if isinstance(instance, CorrelatedInstance):
        values = [v for p in instance.profiles for v in p.values]
        return values, [p.prob for p in instance.profiles]
    actions = instance.actions + ((instance.outside,) if instance.outside else ())
    support = [pair for a in actions for pair in a.support]
    return [v for v, _ in support], [p for _, p in support]


def distinct_objects(xs):
    return len({id(x) for x in xs})


@pytest.mark.parametrize("kind", ["independent", "correlated"])
@pytest.mark.parametrize("outside", ["none", "fixed", "random"])
def test_generated_numbers_are_one_object_each(kind, outside):
    lo, hi, den = 1, 5, 3
    for seed in range(3):
        inst = gen_random(
            kind, n=40, support_size=4, seed=seed, outside=outside,
            value_range=(lo, hi), denominator=den,
        )
        values, probs = numbers(inst)
        biases = inst.biases if kind == "correlated" else [a.bias for a in inst.actions]
        # One object per grid point, shared by values and biases alike.
        assert distinct_objects(values) == len(set(values)) <= (hi - lo) * den + 1
        assert distinct_objects(values + list(biases)) == len(set(values + list(biases)))
        # One object per multiple of 1/12, merged draws included.
        assert distinct_objects(probs) == len(set(probs)) <= 11
        assert all((p * 12).denominator == 1 for p in probs)


@pytest.mark.parametrize("k", [2, 5, 8])
def test_log_family_holds_at_most_2k_plus_1_value_objects(k):
    inst = gen_log_family(k)
    values, _ = numbers(inst)
    assert distinct_objects(values) == len(set(values)) <= 2 * k + 1 < len(values)
    assert any(inst.biases[0] is v for v in values)  # the zero bias is the zero value
    assert distinct_objects(inst.profiles) == k  # one Profile per distinct row


def docstring_log_profiles(k):
    """``gen_log_family(k)``'s profiles as its docstring states them, one per c."""
    m, profiles = 2**k - 1, []
    for c in range(1, 2**k):
        values = [xnum(0)] * (2 * k - 1)
        for i in range(k):
            if 2**i <= c <= 2 ** (i + 1) - 1:  # odd action 2i+1
                values[2 * i] = xnum(2 ** (k - i))
            if i >= 1 and c <= 2**i - 1:  # even action 2i
                values[2 * i - 1] = xnum(2 ** (k - i), i + 1)
        profiles.append(Profile(Fraction(1, m), tuple(values)))
    return tuple(profiles)


@pytest.mark.parametrize("k", range(2, 11))
def test_log_family_profiles_follow_the_docstring(k):
    assert gen_log_family(k).profiles == docstring_log_profiles(k)


def test_reductions_share_their_constants():
    cover = reduce_vertex_cover(Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))))
    values, _ = numbers(cover)
    assert distinct_objects(values + list(cover.biases)) == 5  # 0, 2, 3, 5 and the bias -2
    values, _ = numbers(partition_reduction())
    assert distinct_objects(values) == 4  # 0, 1, 1 + 2 iota and action n + 1's high value


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_random("independent", n=6, support_size=3, seed=4, outside="random"),
        lambda: gen_random("correlated", n=6, support_size=5, seed=4, outside="fixed"),
        lambda: gen_log_family(4),
    ],
)
def test_no_generator_keeps_its_numbers(build):
    inst = build()
    values, _ = numbers(inst)
    assert distinct_objects(values) < len(values)
    # Once the instance is gone, nothing holds its numbers: no table outlives the call.
    value = weakref.ref(values[-1])
    del inst, values
    gc.collect()
    assert value() is None


# ---------------------------------------------------------------------------
# Assortment adapter
# ---------------------------------------------------------------------------


def test_assortment_single_item():
    eps = Fraction(1, 100)
    inst = from_assortment(
        [2], [[(3, Fraction(1, 2)), (5, Fraction(1, 2))]], eps=eps
    )
    # Buyer utility always exceeds the price, so the item always sells.
    report = eval_independent_dp(inst, frozenset({1}))
    assert report.f.std == 2 + eps * 4
    assert report.freq[1] == 1


def test_assortment_smaller_menu_wins():
    # Item 2 is cheaper and strictly more attractive: offering it only
    # cannibalizes item 1's revenue.
    inst = from_assortment([5, 1], [[(6, 1)], [(3, 1)]], eps=Fraction(1, 100))
    f_one = evaluate(inst, frozenset({1})).f
    f_both = evaluate(inst, frozenset({1, 2})).f
    assert f_one.std == Fraction(5) + Fraction(6, 100)
    assert f_both.std == Fraction(1) + Fraction(3, 100)
    assert f_one > f_both


def test_assortment_thresholds_are_revenue_ordered():
    revenues = [4, Fraction(5, 2), Fraction(5, 2), 1, 0]
    utils = [[(i, 1)] for i in range(1, 6)]
    inst = from_assortment(revenues, utils, eps=Fraction(1, 10))
    for t, menu in threshold_menus(inst):
        if t is None:
            continue
        inside = [revenues[i - 1] for i in menu]
        outside_menu = [revenues[i - 1] for i in range(1, 6) if i not in menu]
        assert not outside_menu or min(inside) >= max(outside_menu)


def test_assortment_choice_invariant_in_eps():
    revenues = [3, 2, 1]
    utils = [
        [(1, Fraction(1, 2)), (6, Fraction(1, 2))],
        [(2, Fraction(1, 3)), (4, Fraction(2, 3))],
        [(0, Fraction(1, 2)), (5, Fraction(1, 2))],
    ]
    small, smaller = Fraction(1, 100), Fraction(1, 200)
    inst_a = from_assortment(revenues, utils, eps=small)
    inst_b = from_assortment(revenues, utils, eps=smaller)
    menus = [full_menu(inst_a), frozenset({1, 3}), frozenset({2})]
    for menu in menus:
        joint_a = list(product_realizations(inst_a, candidates(inst_a, menu)))
        joint_b = list(product_realizations(inst_b, candidates(inst_b, menu)))
        assert len(joint_a) == len(joint_b)
        for (pa, va), (pb, vb) in zip(joint_a, joint_b):
            assert pa == pb
            assert agent_choice(inst_a, menu, va) == agent_choice(inst_b, menu, vb)


def test_assortment_with_no_buy_utility():
    eps = Fraction(1, 10)
    revenues = [3, 1, 3, 2]
    utils = [[(4, 1)], [(2, Fraction(1, 2)), (0, Fraction(1, 2))], [(5, 1)], [(1, 1)]]
    no_buy = [(2, Fraction(1, 4)), (6, Fraction(3, 4))]
    inst = from_assortment(revenues, utils, outside_util=no_buy, eps=eps)
    assert inst.outside == Action(
        xnum(0), ((xnum(eps * 2), Fraction(1, 4)), (xnum(eps * 6), Fraction(3, 4))), "no-buy"
    )
    # Threshold menus are the revenue-ordered assortments: the empty one,
    # then every item of revenue at least r, for r from the top down.
    assortments = [frozenset()] + [
        frozenset(i for i, ri in enumerate(revenues, 1) if ri >= r)
        for r in sorted(set(revenues), reverse=True)
    ]
    assert [menu for _, menu in threshold_menus(inst)] == assortments
    assert evaluate(inst, frozenset()).f == xnum(eps * 5)  # eps * E[w_0]


def test_assortment_negative_revenue_rejected():
    with pytest.raises(InvalidInstanceError, match="negative revenue"):
        from_assortment([-1], [[(1, 1)]])


@pytest.mark.parametrize(
    "revenues, utils, eps, match",
    [
        ([1], [[(1, 1)]], 0, "eps must be positive"),
        ([1], [[(1, 1)]], Fraction(-1, 10), "eps must be positive"),
        ([1, 2], [[(1, 1)]], Fraction(1, 1000), "lengths differ"),
    ],
)
def test_assortment_rejects_a_nonpositive_eps_or_mismatched_lengths(revenues, utils, eps, match):
    with pytest.raises(InvalidInstanceError, match=match):
        from_assortment(revenues, utils, eps=eps)


def test_assortment_no_buy_option():
    inst = from_assortment([1], [[(0, 1)]], eps=Fraction(1, 10))
    # Worthless item priced at 1: the buyer walks, seller gets nothing.
    report = evaluate(inst, frozenset({1}))
    assert report.freq[OUTSIDE] == 1
    assert report.f == xnum(0)
