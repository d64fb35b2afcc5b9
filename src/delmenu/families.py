"""Instance families: worst-case constructions, random ensembles, adapters.

Each constructor documents its exact arithmetic.  Tie-breaking perturbations
are expressed with the symbolic infinitesimal ``iota`` instead of a tiny
rational, so downstream evaluation stays exact and scale-free.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .model import (
    Action,
    CorrelatedInstance,
    IndependentInstance,
    Instance,
    InvalidInstanceError,
    Profile,
    check_value_cap,
    deterministic,
)
from .xnum import IOTA, XNum, Rational, as_fraction


def gen_log_family(k: int) -> CorrelatedInstance:
    """Correlated family on which every threshold menu loses a log factor.

    For k >= 2: n = 2k-1 actions and m = 2^k - 1 equally likely value
    profiles.  Odd action 2i+1 (i = 0..k-1) is worth 2^(k-i) in profiles
    2^i .. 2^(i+1)-1 and nothing elsewhere; even action 2i (i = 1..k-1) is
    worth 2^(k-i) + (i+1)*iota in profiles 1 .. 2^i - 1.  Biases climb so
    that b_1 = 0, b_{2i+1} = 2^k - 2^(k-i), and each even action undercuts
    its odd neighbor by iota: b_{2i} = b_{2i+1} - iota.

    The odd actions alone are worth k*2^k/m, while every threshold menu
    collapses to standard part at most 2: the even actions shadow the odd
    ones whenever they are allowed.  Raises ``CapExceededError``, before
    any profile is built, when the instance would hold more than
    ``model.VALUE_CAP`` values, m * n: k = 16 does, k = 15 does not.
    """
    if not 2 <= k <= 16:
        raise InvalidInstanceError(f"k must be in 2..16, got {k}")
    n = 2 * k - 1
    m = 2**k - 1
    check_value_cap(m * n)

    # Each distinct number is one object: the zero, and per level i its odd
    # value, its even value and its biases.
    zero = XNum(Fraction(0))
    odd_values = [XNum(Fraction(2 ** (k - i))) for i in range(k)]
    even_values = [None] + [XNum(Fraction(2 ** (k - j)), Fraction(j + 1)) for j in range(1, k)]
    biases = [zero]
    for i in range(1, k):
        odd_bias = XNum(Fraction(2**k - 2 ** (k - i)))
        biases.append(odd_bias - IOTA)
        biases.append(odd_bias)

    # Profiles c = 2^i .. 2^(i+1)-1 share level i's row: the odd value at 2i,
    # and the even value at 2j-1 for each j > i, since c <= 2^j - 1 exactly
    # then.  So each row is one Profile, listed 2^i times.
    prob = Fraction(1, m)
    profiles = []
    for i in range(k):
        values = [zero] * n
        values[2 * i] = odd_values[i]
        for j in range(i + 1, k):
            values[2 * j - 1] = even_values[j]
        profiles += [Profile(prob, tuple(values))] * 2**i

    return CorrelatedInstance(tuple(biases), tuple(profiles))


def gen_three_approx(eps: Rational) -> IndependentInstance:
    """Five independent actions pinning the factor-3 threshold loss.

    No outside option.  With the tie-breaking infinitesimal iota:

    * a1: bias 0,            value 1 + 2*iota w.p. eps, else 0
    * a2: bias 1-eps-iota,   value eps + 4*iota
    * a3: bias 1-eps,        value eps + iota
    * a4: bias 1-iota,       value 5*iota
    * a5: bias 1,            value 1 w.p. eps, else 0

    The menu {1,3,5} earns (1-(1-eps)^2) + eps*(1-eps)^2 while every
    threshold menu's standard part is at most eps, so the gap approaches 3
    as eps shrinks.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise InvalidInstanceError(f"eps must be in (0, 1), got {eps}")
    one = Fraction(1)
    actions = (
        Action(
            XNum(Fraction(0)),
            ((XNum(one, Fraction(2)), eps), (XNum(Fraction(0)), one - eps)),
            "a1",
        ),
        deterministic(XNum(one - eps, Fraction(-1)), XNum(eps, Fraction(4)), "a2"),
        deterministic(XNum(one - eps), XNum(eps, Fraction(1)), "a3"),
        deterministic(XNum(one, Fraction(-1)), XNum(Fraction(0), Fraction(5)), "a4"),
        Action(
            XNum(one),
            ((XNum(one), eps), (XNum(Fraction(0)), one - eps)),
            "a5",
        ),
    )
    return IndependentInstance(actions)


def gen_outside_family(
    n: int, eps: Rational | None = None, alt_good_values: bool = False
) -> IndependentInstance:
    """Independent family where a random outside option defeats all thresholds.

    For n in 2..6 there are n "good" actions, n-1 "bad" shadows, and a random
    outside option.  Good action i has bias n^(n-1) - n^(n-i) and value
    n^(n-i) + i*eps with probability 1/n (else 0); bad action i (i >= 2)
    shares the bias and deterministically pays n^(n-i) + (i-1)*eps + iota,
    wedged just under good action i's high utility.  The outside option has
    bias n^(n-1) and value i*eps - eps/2 with mass n^-(n-i) - n^-(n-i+1)
    (mass n^-(n-1) at eps/2), so a good action's high realization at level i
    survives it with probability exactly n^-(n-i).

    Offering only the good actions is worth at least 1 - (1-1/n)^n, while any
    threshold menu funnels the agent through its top bad shadow and earns
    about 2/n.  eps defaults to 1/n^(2n); ``alt_good_values`` switches the
    good actions' low realization from 0 to n^(n-i) - eps.

    Actions are indexed good-first: 1..n are g(1)..g(n), n+1..2n-1 are
    b(2)..b(n).
    """
    if not 2 <= n <= 6:
        raise InvalidInstanceError(f"n must be in 2..6, got {n}")
    eps = as_fraction(eps) if eps is not None else Fraction(1, n ** (2 * n))
    if eps <= 0:
        raise InvalidInstanceError(f"eps must be positive, got {eps}")

    def inv(e: int) -> Fraction:
        return Fraction(1, n**e)

    good = []
    bad = []
    for i in range(1, n + 1):
        bias = XNum(Fraction(n ** (n - 1) - n ** (n - i)))
        high = XNum(Fraction(n ** (n - i)) + i * eps)
        low = XNum(Fraction(n ** (n - i)) - eps) if alt_good_values else XNum(Fraction(0))
        good.append(
            Action(bias, ((high, Fraction(1, n)), (low, 1 - Fraction(1, n))), f"g{i}")
        )
        if i >= 2:
            value = XNum(Fraction(n ** (n - i)) + (i - 1) * eps, Fraction(1))
            bad.append(deterministic(bias, value, f"b{i}"))

    outside_support = [(XNum(eps / 2), inv(n - 1))]
    for i in range(2, n + 1):
        outside_support.append((XNum(i * eps - eps / 2), inv(n - i) - inv(n - i + 1)))
    outside = Action(XNum(Fraction(n ** (n - 1))), outside_support, "outside")

    return IndependentInstance(tuple(good + bad), outside)


# ---------------------------------------------------------------------------
# Seeded random ensembles
# ---------------------------------------------------------------------------

OUTSIDE_KINDS = ("none", "fixed", "random")
PROB_DENOMINATOR = 12  # gen_random's probabilities are multiples of 1/12


def gen_random(
    kind: str,
    n: int,
    support_size: int,
    seed: int,
    value_range: tuple[int, int] = (0, 8),
    bias_range: tuple[int, int] = (-4, 4),
    outside: str = "none",
    denominator: int = 4,
) -> Instance:
    """Deterministic pseudo-random instance from a seed.

    Values are drawn uniformly from the grid {lo, lo + 1/denominator, .., hi}
    (standard parts only, nonnegative range required), biases likewise from
    their own grid.  Probabilities are uniform random compositions of
    ``PROB_DENOMINATOR``, so they are positive and sum to exactly 1.  For
    ``kind="correlated"``, ``support_size`` is the number of profiles.
    ``outside`` is "none", "fixed" (deterministic value), or "random".
    Equal draws are one object: values and biases share one ``XNum`` per
    grid point, and probabilities one ``Fraction`` per multiple of
    ``1/PROB_DENOMINATOR``, since an action's equal value draws merge, on
    integers, before its support is built.  The tables live for one call,
    so no instance keeps another's numbers alive.  Raises
    ``CapExceededError``, before any action is built, when the instance
    could hold more than ``model.VALUE_CAP`` values, counted as ``(n + 1) *
    support_size`` with an outside option and ``n * support_size`` without.
    """
    if kind not in ("independent", "correlated"):
        raise InvalidInstanceError(f"unknown kind {kind!r}")
    if outside not in OUTSIDE_KINDS:
        raise InvalidInstanceError(f"unknown outside mode {outside!r}")
    if value_range[0] < 0:
        raise InvalidInstanceError("value_range must be nonnegative")
    if value_range[0] > value_range[1] or bias_range[0] > bias_range[1]:
        raise InvalidInstanceError("value_range and bias_range must be (lo, hi) with lo <= hi")
    if not 1 <= support_size <= PROB_DENOMINATOR:
        raise InvalidInstanceError(f"support_size must be in 1..{PROB_DENOMINATOR}")
    if denominator < 1:
        raise InvalidInstanceError(f"denominator must be at least 1, got {denominator}")
    check_value_cap((n + (outside != "none")) * support_size)
    rng = random.Random(seed)

    @cache
    def point(k: int) -> XNum:
        """The grid point k / denominator, one object per k in this call."""
        return XNum(Fraction(k, denominator))

    @cache
    def share(k: int) -> Fraction:
        """The probability k / PROB_DENOMINATOR, one object per k in this call."""
        return Fraction(k, PROB_DENOMINATOR)

    def draw(bounds: tuple[int, int]) -> int:
        """A grid point of ``bounds`` drawn uniformly, as its k in k / denominator."""
        return rng.randint(bounds[0] * denominator, bounds[1] * denominator)

    def rand_parts(count: int) -> list[int]:
        cuts = sorted(rng.sample(range(1, PROB_DENOMINATOR), count - 1))
        edges = [0] + cuts + [PROB_DENOMINATOR]
        return [edges[i + 1] - edges[i] for i in range(count)]

    def rand_action(label: str, size: int) -> Action:
        parts = rand_parts(size)
        bias = point(draw(bias_range))
        # Equal draws merge here, on integers, so every probability is a share.
        merged: dict[int, int] = {}
        for part in parts:
            k = draw(value_range)
            merged[k] = merged.get(k, 0) + part
        return Action(bias, tuple((point(k), share(part)) for k, part in merged.items()), label)

    if kind == "independent":
        actions = tuple(rand_action(f"a{i}", support_size) for i in range(1, n + 1))
        out = None
        if outside == "fixed":
            out = rand_action("outside", 1)  # one part: rand_parts(1) draws nothing
        elif outside == "random":
            out = rand_action("outside", support_size)
        return IndependentInstance(actions, out)

    biases = tuple(point(draw(bias_range)) for _ in range(n))
    outside_bias = point(draw(bias_range)) if outside != "none" else None
    parts = rand_parts(support_size)
    fixed = [point(draw(value_range))] if outside == "fixed" else []  # one value, every row
    profiles = []
    for part in parts:
        # A random outside value is drawn last in its row, after the actions' values.
        values = [point(draw(value_range)) for _ in range(n + (outside == "random"))]
        profiles.append(Profile(share(part), tuple(values + fixed)))
    return CorrelatedInstance(biases, tuple(profiles), outside_bias)


# ---------------------------------------------------------------------------
# Assortment adapter
# ---------------------------------------------------------------------------


def from_assortment(
    revenues: list[Rational],
    buyer_utils: list[list[tuple[Rational, Rational]]],
    outside_util: list[tuple[Rational, Rational]] | None = None,
    eps: Rational = Fraction(1, 1000),
) -> IndependentInstance:
    """Map a fixed-price assortment problem to a delegation instance.

    Item i with revenue r_i and random buyer utility w_i becomes an action
    with value r_i + eps*w_i and bias -(1+eps)*r_i, so the buyer's ranking by
    w_i - r_i is exactly the agent's ranking (scaled by eps) and, for small
    eps, menu values order by expected revenue.  The ever-present no-buy
    option maps to an outside option with value eps*w_0 and bias 0 (value 0
    when ``outside_util`` is omitted).  Threshold menus are then precisely
    the revenue-ordered assortments.

    eps must be positive and small enough that it never reorders the buyer's
    choices; this is the caller's responsibility (compare two eps values to
    audit a particular instance).
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidInstanceError(f"eps must be positive, got {eps}")
    if len(revenues) != len(buyer_utils):
        raise InvalidInstanceError("revenues and buyer_utils lengths differ")
    actions = []
    for idx, (revenue, utils) in enumerate(zip(revenues, buyer_utils), start=1):
        r = as_fraction(revenue)
        if r < 0:
            raise InvalidInstanceError(f"item {idx} has negative revenue {r}")
        support = tuple((XNum(r + eps * as_fraction(w)), p) for w, p in utils)
        actions.append(Action(XNum(-(1 + eps) * r), support, f"item{idx}"))
    if outside_util is None:
        out = deterministic(XNum(Fraction(0)), XNum(Fraction(0)), "no-buy")
    else:
        support = tuple((XNum(eps * as_fraction(w)), p) for w, p in outside_util)
        out = Action(XNum(Fraction(0)), support, "no-buy")
    return IndependentInstance(tuple(actions), out)
