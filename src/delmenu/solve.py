"""Optimal menus, threshold menus, and performance-bound reports.

Finding the optimal menu is NP-hard in general, so the optimum here is an
exact search over all menus, which skips subtrees that provably cannot win,
with a hard cap on the action count.  Threshold menus (all actions with bias
at most t) are linear in number and nested, so the best threshold is found
by one pass over the actions in bias order, on the kernel.  Bound reports
record, as literal booleans, whether the guarantees that provably hold for
each instance class held on this instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .evaluate import evaluate
from .model import (
    DEFAULT_ACTION_CAP,
    CapExceededError,
    IndependentInstance,
    Instance,
    Menu,
)
from .xnum import XNum


@dataclass(frozen=True)
class SolveResult:
    opt_menu: Menu
    opt_value: XNum
    best_threshold: XNum | None  # None encodes the empty menu (threshold below all biases)
    best_threshold_menu: Menu
    best_threshold_value: XNum
    ratio: Fraction | None  # opt std / best-threshold std, when the latter is positive


@dataclass(frozen=True)
class BoundReport:
    """Literal truth values of the guarantees applying to this instance.

    Each flag is vacuously true when its guarantee does not apply to the
    instance class (e.g. ``bound_3`` on a correlated instance).  ``vacuous``
    marks the degenerate zero-optimum case, where every flag is reported
    true by convention.
    """

    rho: Fraction | None  # largest supported action value over optimal value
    p_min: Fraction  # mass of the least likely value profile
    bound_3: bool  # independent, fixed-or-absent outside: best threshold >= opt/3
    bound_n: bool  # independent: best threshold >= opt/n
    bound_log: bool  # correlated: best threshold >= opt / (4 max(1, log2(1/p_min)))
    vacuous: bool = False


BOUND_FLAGS = ("bound_3", "bound_n", "bound_log")  # BoundReport's flags, in report order


def brute_force_opt(instance: Instance, cap_n: int = DEFAULT_ACTION_CAP) -> tuple[Menu, XNum]:
    """The optimal menu and its value; ties favor smaller, then lexicographic.

    An exact search over the empty menu (legal only with an outside option)
    and all 2^n - 1 nonempty menus, run by the instance's compiled kernel,
    one walk per kind: :meth:`kernel.CorrelatedKernel.search` and
    :meth:`kernel.IndependentKernel.search` describe them.  Both keep the
    winner by one tie rule: among menus of equal value the smallest, then
    the lexicographically smallest, the first maximizer of a
    size-then-lexicographic scan, whatever order the walk takes.  The value
    is the exact one the walk held at the winner's leaf; no evaluator runs.
    Raises ``CapExceededError`` above ``cap_n`` actions, since the
    independent walk's worst case still doubles per action.
    """
    if instance.n > cap_n:
        raise CapExceededError(f"instance has {instance.n} actions, cap is {cap_n}")
    return instance.kernel.search()


def _threshold_steps(instance: Instance) -> list[tuple[XNum | None, list[int]]]:
    """Each threshold with the actions it adds to the previous one's menu.

    Thresholds increase; the empty menu's ``(None, [])`` leads whenever the
    instance has an outside option.  One sort on the kernel's integer biases
    orders the actions, and each distinct bias cuts a step.
    """
    steps: list[tuple[XNum | None, list[int]]] = [(None, [])] if instance.has_outside else []
    bias = instance.kernel.bias.__getitem__
    for _, group in groupby(sorted(range(1, instance.n + 1), key=bias), key=bias):
        added = list(group)
        steps.append((instance.bias_of(added[0]), added))
    return steps


def threshold_menus(instance: Instance) -> list[tuple[XNum | None, Menu]]:
    """One menu per distinct bias threshold, in increasing-threshold order.

    The empty menu leads the list (as if the threshold sat below every bias)
    whenever the instance has an outside option to fall back on.
    """
    out: list[tuple[XNum | None, Menu]] = []
    menu: Menu = frozenset()
    for t, added in _threshold_steps(instance):
        menu = menu.union(added)
        out.append((t, menu))
    return out


def best_threshold(instance: Instance) -> tuple[XNum | None, Menu, XNum]:
    """The threshold menu maximizing expected utility; ties favor smaller t.

    Threshold menus are nested, so the kernel values them all in one pass
    over the actions in bias order (``instance.kernel.best_prefix``), and
    ``evaluate`` runs on the winner alone.  On an independent instance that
    pass leaves the winner's states, and the full menu's, in the kernel's
    memo, so neither menu is folded again.  ``None`` stands for the empty
    menu, which leads the thresholds when there is an outside option.
    """
    steps = _threshold_steps(instance)
    j = instance.kernel.best_prefix([added for _, added in steps])
    menu = frozenset(i for _, added in steps[: j + 1] for i in added)
    return steps[j][0], menu, evaluate(instance, menu).f


def solve(instance: Instance, cap_n: int = DEFAULT_ACTION_CAP) -> SolveResult:
    opt_menu, opt_value = brute_force_opt(instance, cap_n)
    t, t_menu, t_value = best_threshold(instance)
    ratio = opt_value.std / t_value.std if t_value.std > 0 else None
    return SolveResult(opt_menu, opt_value, t, t_menu, t_value, ratio)


# ---------------------------------------------------------------------------
# Exact logarithmic comparisons
# ---------------------------------------------------------------------------


def _log2_digits(x: int, w: int, bits: int, up: bool) -> int:
    """The first ``bits`` binary digits of log2(x / 2**w), for x / 2**w in [1, 2].

    Each step squares the mantissa and reads one digit.  Rounding every step
    down (``up`` false) can only shrink the mantissa, so the digits bound
    the logarithm from below; rounding up, the digits plus one final unit
    bound it from above.
    """
    digits = 0
    for _ in range(bits):
        x *= x
        x = -(-x >> w) if up else x >> w
        digits <<= 1
        if x >> w >= 2:
            digits |= 1
            x = -(-x >> 1) if up else x >> 1
    return digits


def log2_at_least(q: Fraction, threshold: Fraction) -> bool:
    """Exact test of log2(q) >= threshold for rational q > 0.

    When q is a power of two, 2**e, the answer is e >= threshold.  Otherwise
    log2(q) is irrational, so it never equals the threshold, and integer
    fixed-point bounds on it, refined until they clear the threshold,
    decide the test; the work grows with the digits needed, never with the
    threshold's denominator as a power.
    """
    if q <= 0:
        raise ValueError("log2 argument must be positive")
    a, b = threshold.numerator, threshold.denominator
    n, d = q.numerator, q.denominator
    e = n.bit_length() - d.bit_length()
    if n & (n - 1) == 0 and d & (d - 1) == 0:
        return e * b >= a
    if (n << max(0, -e)) < (d << max(0, e)):
        e -= 1  # now 2**e <= q < 2**(e + 1)
    bits = 32
    while True:
        w = bits + 16
        num, den = n << max(0, w - e), d << max(0, e - w)
        if a << bits <= ((e << bits) + _log2_digits(num // den, w, bits, up=False)) * b:
            return True
        if ((e << bits) + _log2_digits(-(-num // den), w, bits, up=True) + 1) * b <= a << bits:
            return False
        bits *= 2


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


def bound_report(instance: Instance, result: SolveResult) -> BoundReport:
    """Check every guarantee that provably applies to this instance class.

    * independent values with a fixed or absent outside option: some
      threshold is a 3-approximation;
    * independent values, any outside option: some threshold is an
      n-approximation;
    * correlated values: some threshold is a
      4*max(1, log2(1/p_min))-approximation (log factor clamped below by 1 so
      the guarantee stays meaningful when p_min > 1/2).

    Flags are the literal truth of each inequality on this instance,
    vacuously true where the guarantee does not apply or the optimum is zero.
    """
    p_min = instance.kernel.least_mass()  # of the least likely value profile
    opt = result.opt_value.std
    # No value has a negative standard part, so 0 <= best <= opt: with a
    # zero optimum every inequality below holds and no logarithm is taken.
    best = result.best_threshold_value.std
    independent = isinstance(instance, IndependentInstance)
    # Values order on their standard part first, so the largest standard
    # part is the largest action value's; the kernel finds it on integers.
    rho = instance.kernel.largest_std() / opt if opt > 0 else None
    fixed_outside = independent and (
        instance.outside is None or instance.outside.is_deterministic
    )
    bound_3 = (not fixed_outside) or opt <= 3 * best
    bound_n = (not independent) or opt <= instance.n * best
    # Within the clamped factor 4 the bound holds regardless of p_min, and
    # with best == 0 < opt it fails.
    bound_log = (
        independent
        or opt <= 4 * best
        or (best > 0 and log2_at_least(1 / p_min, opt / (4 * best)))
    )
    return BoundReport(rho, p_min, bound_3, bound_n, bound_log, vacuous=opt == 0)
