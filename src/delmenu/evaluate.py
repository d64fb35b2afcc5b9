"""Exact expected principal utility and its structural decompositions.

Everything here runs on the instance's compiled integer choice kernel
(:mod:`delmenu.kernel`), except the oracle:

* :func:`eval_correlated` takes each profile's pick from its ranking of the
  candidates.
* :func:`eval_independent_dp` folds actions one at a time over a distribution
  of "current winner" states, which is polynomial in total support size.
* :func:`derandomize_interference` scans the draws of a threshold menu's
  interference actions against the kept actions' winner states: a pinned
  realization counts only through its top draw.

:func:`eval_bruteforce_product` stays on the reference path: it expands an
independent instance's product distribution into explicit profiles (capped)
and picks in each the draw of the largest :func:`~delmenu.model.choice_key`,
each draw keyed once with exact XNum arithmetic, as the oracle for the
dynamic program.  :func:`decompose` splits a menu's utility into surplus and
bias-difference parts, on the kernel too: one integer sum per part over the
same per-index counts as the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .model import (
    DEFAULT_PROFILE_CAP,
    CapExceededError,
    CorrelatedInstance,
    IndependentInstance,
    Instance,
    InvalidInstanceError,
    Menu,
    candidates,
    choice_key,
    threshold_menu,
    validate_menu,
)
from .xnum import XNum, ZERO, _coerce, xsum


@dataclass(frozen=True)
class EvalReport:
    """Expected principal utility of a menu, split by chosen action.

    ``contrib[i]`` is the expected value collected while the agent picks i
    (index 0 is the outside option); ``freq[i]`` is the probability i is
    picked.  Exactly: ``sum(contrib.values()) == f`` and
    ``sum(freq.values()) == 1``.
    """

    f: XNum
    contrib: dict[int, XNum]
    freq: dict[int, Fraction]


@dataclass(frozen=True)
class Decomposition:
    """Split of a menu's utility into aligned and misaligned parts.

    ``u_low`` is the largest bias among the menu and the outside option: a
    floor on the agent's achieved utility.  ``bdif`` is the expected gap
    between that floor and the chosen action's bias; ``sur`` is the rest.
    ``sur + bdif == f`` exactly, ``bdif >= 0``, and ``sur``'s standard part
    is nonnegative (its iota part need not be).
    """

    u_low: XNum
    sur: XNum
    bdif: XNum


def eval_correlated(instance: CorrelatedInstance, menu: Menu) -> EvalReport:
    """Expected utility over the explicit profiles, each pick read from the kernel's rankings."""
    if not isinstance(instance, CorrelatedInstance):
        raise InvalidInstanceError("eval_correlated requires a correlated instance")
    return EvalReport(*instance.kernel.tally(candidates(instance, validate_menu(instance, menu))))


def eval_bruteforce_product(
    instance: IndependentInstance, menu: Menu, cap: int = DEFAULT_PROFILE_CAP
) -> EvalReport:
    """Expected utility by expanding the full product distribution.

    Exponential in menu size; refuses to enumerate more than ``cap`` joint
    profiles.  Exists as an independent oracle for the dynamic program, on
    exact XNum arithmetic.  A draw's :func:`~delmenu.model.choice_key` reads
    its own value and its action's bias alone, so each draw is keyed once,
    and each joint realization's pick is the draw of the largest key, as
    :func:`~delmenu.model.agent_choice` picks.
    """
    if not isinstance(instance, IndependentInstance):
        raise InvalidInstanceError("eval_bruteforce_product requires an independent instance")
    menu = validate_menu(instance, menu)
    indices = candidates(instance, menu)
    size = prod(len(instance.support_of(i)) for i in indices)
    if size > cap:
        raise CapExceededError(f"joint support has {size} profiles, cap is {cap}")
    draws = [
        [(choice_key(i, v, instance.bias_of(i)), i, v, p) for v, p in instance.support_of(i)]
        for i in indices
    ]
    contrib = {i: ZERO for i in indices}
    freq = {i: Fraction(0) for i in indices}
    for realization in product(*draws):
        _, chosen, value, _ = max(realization)  # keys differ by index, so max reads keys alone
        prob = prod(p for *_, p in realization)
        contrib[chosen] = contrib[chosen] + value * prob
        freq[chosen] += prob
    f = xsum(contrib.values())
    assert sum(freq.values()) == 1
    return EvalReport(f, contrib, freq)


def eval_independent_dp(instance: IndependentInstance, menu: Menu) -> EvalReport:
    """Expected utility by dynamic programming over winner states.

    A state is the current agent favorite among the actions folded so far,
    identified by the integer rank of its (index, value) pair in the agent's
    order.  Folding in one more action sends each (incumbent, draw)
    combination to the higher-ranked of the two, so the state count stays at
    most the total support size.  Ranks are a total order, so the fold order
    does not matter; independence makes the fold exact, because the
    incumbent's identity carries no information about later actions' values.
    """
    if not isinstance(instance, IndependentInstance):
        raise InvalidInstanceError("eval_independent_dp requires an independent instance")
    return EvalReport(*instance.kernel.tally(candidates(instance, validate_menu(instance, menu))))


def evaluate(instance: Instance, menu: Menu) -> EvalReport:
    """Dispatch to the exact evaluator matching the instance kind."""
    if isinstance(instance, CorrelatedInstance):
        return eval_correlated(instance, menu)
    return eval_independent_dp(instance, menu)


# ---------------------------------------------------------------------------
# Surplus / bias-difference decomposition
# ---------------------------------------------------------------------------


def decompose(instance: Instance, menu: Menu) -> Decomposition:
    """Decompose f(menu) into surplus and bias-difference parts.

    Defined for any menu, not just an optimal one.  ``bdif`` is E[u_low -
    b_chosen] over the exact choice frequencies, summed by the kernel
    (``split``) in integer numerators, one sum per part, from the same
    counts that give the menu's value; ``sur`` is the rest of that value.
    """
    menu = validate_menu(instance, menu)
    top, sur, bdif = instance.kernel.split(candidates(instance, menu))
    return Decomposition(u_low=instance.bias_of(top), sur=sur, bdif=bdif)


# ---------------------------------------------------------------------------
# Single-action derandomization of threshold interference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceAction:
    """Deterministic stand-in for everything a threshold menu adds.

    Carries the requested bias t; its value may have a negative standard
    part (it is t minus a bias gap away from a real realization), so it is
    deliberately not an :class:`Action`.
    """

    bias: XNum
    value: XNum


def derandomize_interference(
    instance: IndependentInstance, opt_menu: Menu, t: XNum
) -> tuple[InterferenceAction | None, bool]:
    """Collapse a threshold menu's non-opt actions to one deterministic action.

    Let A_t be the threshold menu at t and B = A_t minus ``opt_menu``.  Among
    the joint realizations of B, pick the one minimizing the conditional
    expected utility of A_t (ties: first in canonical enumeration order,
    that of :func:`~delmenu.model.product_realizations` over B in index
    order).  The agent's favorite action in that frozen set, re-biased to t
    with its agent utility preserved (value v + b - t), summarizes the
    interference: the returned flag certifies f(A_t) >= f((A_t intersect
    opt_menu) + that single action), which holds for every independent
    instance.

    One kernel call finds the worst realization against the kept
    candidates' random draws, values the kept candidates plus the
    stand-in, and values A_t by folding B's actions onto the kept
    candidates' winner states.  A realization counts only through its
    favorite draw, so the call scans B's draws, one binary search each,
    never its joint realizations: it costs one winner-state fold of A_t,
    and no joint support is too large for it.  With B empty there is
    nothing to collapse: returns (None, True).
    """
    if not isinstance(instance, IndependentInstance):
        raise InvalidInstanceError("derandomize_interference requires an independent instance")
    opt_menu, t = validate_menu(instance, opt_menu), _coerce(t)
    a_t = threshold_menu(instance, t)
    interference = sorted(a_t - opt_menu)
    if not interference:
        return None, True

    kept = candidates(instance, a_t & opt_menu)
    value, rhs, f_t = instance.kernel.stand_in(kept, interference, t)
    return InterferenceAction(t, value), rhs <= f_t
