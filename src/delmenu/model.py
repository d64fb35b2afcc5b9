"""Instance data model and the agent's choice rule.

An instance has n actions.  Action i has a known bias ``b_i`` and a random
value ``v_i`` that only the agent observes; the agent's utility is
``v_i + b_i`` and the principal's realized utility is ``v_i``.  The principal
restricts the agent to a menu (a subset of action indices); an outside option,
when present, is index 0 and is available no matter what the menu says.

Values are either an explicit joint distribution over profiles (correlated)
or a product of per-action marginals (independent).  All probabilities and
values are exact (:class:`~delmenu.xnum.XNum` over rationals).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterator, Mapping, Union

from .xnum import XNum, Rational, _coerce, as_fraction, merge_distribution

if TYPE_CHECKING:
    from .kernel import CorrelatedKernel, IndependentKernel

Menu = frozenset[int]

OUTSIDE = 0  # reserved index of the outside option


class DelegationError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(DelegationError, ValueError):
    """Instance data violates a structural invariant."""


class NoFeasibleActionError(DelegationError):
    """Empty menu and no outside option: the agent has nothing to pick."""


class CapExceededError(DelegationError):
    """An enumeration would exceed its configured size cap."""


DEFAULT_ACTION_CAP = 20  # the exact searches' size cap: actions, or graph vertices
DEFAULT_PROFILE_CAP = 10**6  # joint profiles eval_bruteforce_product enumerates

# Most values a generated instance may hold: as many as the default profile
# cap of eval_bruteforce_product, about 65 MB of instance file.
VALUE_CAP = DEFAULT_PROFILE_CAP


def check_value_cap(count: int, described: str | None = None) -> None:
    """Raise ``CapExceededError`` when an instance of ``count`` values exceeds ``VALUE_CAP``.

    Builders call it before they build any action or profile; ``described``
    words the count in the message when the plain number would not.
    """
    if count > VALUE_CAP:
        raise CapExceededError(
            f"instance of {described or count} values exceeds the cap of {VALUE_CAP} values"
        )


Support = tuple[tuple[XNum, Fraction], ...]


def _canonical(pairs) -> tuple[Support, Fraction]:
    """``pairs`` as a canonical support, and its total probability.

    Values are coerced as XNum operands are and probabilities by
    ``as_fraction``, pair by pair; :func:`~delmenu.xnum.merge_distribution`
    then sorts and merges them in one integer lift.
    """
    merged, total = merge_distribution([(_coerce(v), as_fraction(p)) for v, p in pairs])
    return tuple(merged), total


def make_support(pairs) -> Support:
    """Canonicalize a discrete distribution: merge equal values, sort by value.

    Probabilities of merged entries add exactly; a merged entry keeps its
    first value object, and an unmerged entry its probability as given.
    Sorting makes supports a canonical form, so structurally equal
    distributions compare equal and enumeration order is reproducible.
    Values and probabilities are compared and added as integers over common
    denominators (:func:`~delmenu.xnum.merge_distribution`), never hashed.
    """
    return _canonical(pairs)[0]


@dataclass(frozen=True)
class Action:
    """A bias plus a finite value distribution.

    The support is canonicalized (distinct values, sorted, probabilities > 0
    summing to exactly 1).  Value standard parts must be nonnegative: the
    principal's utility is the chosen action's value.
    """

    bias: XNum
    support: Support
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "bias", _coerce(self.bias))
        support, total = _canonical(self.support)
        object.__setattr__(self, "support", support)
        if not support:
            raise InvalidInstanceError("action support is empty")
        # A Fraction's denominator is positive, so its numerator holds its sign.
        for value, prob in support:
            if prob.numerator <= 0:
                raise InvalidInstanceError(f"support probability {prob} is not positive")
            if value.std.numerator < 0:
                raise InvalidInstanceError(f"value {value} has negative standard part")
        if total != 1:
            raise InvalidInstanceError(f"support probabilities sum to {total}, not 1")

    @property
    def is_deterministic(self) -> bool:
        return len(self.support) == 1


def deterministic(bias: XNum, value: XNum, label: str = "") -> Action:
    return Action(bias, ((value, Fraction(1)),), label)


@dataclass(frozen=True)
class Profile:
    """One joint value realization: a probability plus one value per action.

    When the instance has an outside option its value is the last entry,
    whether or not it actually varies across profiles.

    Construction takes one path: the probability is coerced by
    ``as_fraction`` and checked first, then every value is coerced as an
    XNum operand is (an XNum passes unchanged) and sign-checked in order.
    """

    prob: Fraction
    values: tuple[XNum, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", as_fraction(self.prob))
        # A Fraction's denominator is positive, so its numerator holds its sign.
        if self.prob.numerator <= 0:
            raise InvalidInstanceError(f"profile probability {self.prob} is not positive")
        object.__setattr__(self, "values", tuple(map(_coerce, self.values)))
        for v in self.values:
            if v.std.numerator < 0:
                raise InvalidInstanceError(f"profile value {v} has negative standard part")


@dataclass(frozen=True)
class IndependentInstance:
    """Product distribution: each action's value is drawn independently."""

    actions: tuple[Action, ...]
    outside: Action | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise InvalidInstanceError("instance has no actions")

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def has_outside(self) -> bool:
        return self.outside is not None

    def bias_of(self, index: int) -> XNum:
        if index == OUTSIDE:
            if self.outside is None:
                raise NoFeasibleActionError("instance has no outside option")
            return self.outside.bias
        return self.actions[index - 1].bias

    def label_of(self, index: int) -> str:
        if index == OUTSIDE:
            return "outside"
        return self.actions[index - 1].label or f"a{index}"

    def support_of(self, index: int) -> Support:
        if index == OUTSIDE:
            if self.outside is None:
                raise NoFeasibleActionError("instance has no outside option")
            return self.outside.support
        return self.actions[index - 1].support

    @cached_property
    def kernel(self) -> IndependentKernel:
        """This instance compiled for the exact integer evaluator, built on first use."""
        from .kernel import compile_independent

        return compile_independent(self)


@dataclass(frozen=True)
class CorrelatedInstance:
    """Explicit joint distribution over value profiles.

    ``biases[i-1]`` is action i's bias; each profile carries one value per
    action in the same order, plus the outside option's value last when
    ``outside_bias`` is set.  Profile probabilities sum to exactly 1.

    A row listed more than once is one ``Profile`` object, as the generators
    and the loader build it.  ``rows`` holds each distinct object once, with
    the number of times it is listed, in order of first occurrence.
    Construction checks each row's width once and adds its probability
    times that multiplicity, and the kernel compile reads ``rows`` too.  It
    is derived data, not a field, so equality, repr, hash, pickles and files
    see ``profiles`` alone.
    """

    biases: tuple[XNum, ...]
    profiles: tuple[Profile, ...]
    outside_bias: XNum | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "biases", tuple(map(_coerce, self.biases)))
        if self.outside_bias is not None:
            object.__setattr__(self, "outside_bias", _coerce(self.outside_bias))
        object.__setattr__(self, "profiles", tuple(self.profiles))
        labels = tuple(self.labels) or tuple(f"a{i}" for i in range(1, len(self.biases) + 1))
        object.__setattr__(self, "labels", labels)
        if not self.biases:
            raise InvalidInstanceError("instance has no actions")
        if not self.profiles:
            raise InvalidInstanceError("instance has no profiles")
        width = len(self.biases) + (1 if self.outside_bias is not None else 0)
        for p, _ in self.rows:
            if len(p.values) != width:
                raise InvalidInstanceError(
                    f"profile has {len(p.values)} values, expected {width}"
                )
        total = sum(p.prob * m for p, m in self.rows)
        if total != 1:
            raise InvalidInstanceError(f"profile probabilities sum to {total}, not 1")
        if len(self.labels) != len(self.biases):
            raise InvalidInstanceError("labels length does not match action count")

    @cached_property
    def rows(self) -> tuple[tuple[Profile, int], ...]:
        """Each distinct ``Profile`` object and its multiplicity, in order of first occurrence."""
        rows: dict[int, list] = {}
        for p in self.profiles:
            rows.setdefault(id(p), [p, 0])[1] += 1
        return tuple(map(tuple, rows.values()))

    def __getstate__(self) -> dict:
        # Pickles and copies carry the fields (and a built kernel); rows is rebuilt on use.
        return {name: v for name, v in self.__dict__.items() if name != "rows"}

    @property
    def n(self) -> int:
        return len(self.biases)

    @property
    def has_outside(self) -> bool:
        return self.outside_bias is not None

    def bias_of(self, index: int) -> XNum:
        if index == OUTSIDE:
            if self.outside_bias is None:
                raise NoFeasibleActionError("instance has no outside option")
            return self.outside_bias
        return self.biases[index - 1]

    def label_of(self, index: int) -> str:
        if index == OUTSIDE:
            return "outside"
        return self.labels[index - 1]

    @cached_property
    def kernel(self) -> CorrelatedKernel:
        """This instance compiled for the exact integer evaluator, built on first use."""
        from .kernel import compile_correlated

        return compile_correlated(self)


Instance = Union[IndependentInstance, CorrelatedInstance]


# ---------------------------------------------------------------------------
# Menus
# ---------------------------------------------------------------------------


def full_menu(instance: Instance) -> Menu:
    return frozenset(range(1, instance.n + 1))


def validate_menu(instance: Instance, menu: Menu) -> Menu:
    menu = frozenset(menu)
    n = instance.n
    for i in menu:
        if not 1 <= i <= n:
            raise InvalidInstanceError(f"menu index {i} out of range 1..{n}")
    if not menu and not instance.has_outside:
        raise NoFeasibleActionError("no feasible action")
    return menu


def candidates(instance: Instance, menu: Menu) -> list[int]:
    """Feasible choices for the agent: the menu plus 0 if an outside option exists."""
    out = sorted(menu)
    if instance.has_outside:
        out.append(OUTSIDE)
    return out


def threshold_menu(instance: Instance, t: XNum) -> Menu:
    """All actions whose bias is at most t (lexicographic XNum comparison)."""
    return frozenset(i for i in range(1, instance.n + 1) if instance.bias_of(i) <= t)


# ---------------------------------------------------------------------------
# Agent choice
# ---------------------------------------------------------------------------


def choice_key(index: int, value: XNum | tuple[int, int], bias: XNum | tuple[int, int]) -> tuple:
    """Sort key implementing the agent's full tie-breaking order.

    Higher is better: (1) agent utility value+bias; (2) principal value;
    (3) any in-menu action over the outside option; (4) lower index.

    ``value`` and ``bias`` may instead both be ``(std, inf)`` pairs of
    numerators over one common denominator (see
    :func:`~delmenu.xnum.numerators`): the same order, but keys sharing that
    denominator compare as integers, not fractions.  XNums are read as their
    ``(std, inf)`` pairs, over the common denominator 1.  The key is one
    flat tuple, agent utility then value each as ``std, inf``, so keys
    compare without nested tuples.
    """
    if isinstance(value, XNum):
        value, bias = value._key(), bias._key()
    (std, inf), (bias_std, bias_inf) = value, bias
    return (std + bias_std, inf + bias_inf, std, inf, 1 if index != OUTSIDE else 0, -index)


def agent_choice(instance: Instance, menu: Menu, values: Mapping[int, XNum]) -> int:
    """Index of the agent's pick from ``menu`` (0 means the outside option).

    ``values`` must assign a value to every menu index, and to 0 when the
    instance has an outside option.  Deterministic: the result is independent
    of iteration order by totality of :func:`choice_key`.
    """
    menu = validate_menu(instance, menu)  # refuses an empty menu without an outside option
    return max(
        candidates(instance, menu),
        key=lambda i: choice_key(i, values[i], instance.bias_of(i)),
    )


def product_realizations(
    instance: IndependentInstance, indices: list[int]
) -> Iterator[tuple[Fraction, dict[int, XNum]]]:
    """Expand the product distribution over ``indices`` (0 is the outside option).

    Yields (probability, values) pairs in canonical support order.  No menu
    check is made: an empty ``indices`` yields one empty realization of
    probability 1.
    """
    for combo in product(*map(instance.support_of, indices)):
        prob = Fraction(1)
        values: dict[int, XNum] = {}
        for idx, (value, p) in zip(indices, combo):
            prob *= p
            values[idx] = value
        yield prob, values


# ---------------------------------------------------------------------------
# Bias shifts
# ---------------------------------------------------------------------------


def shift_biases(instance: Instance, c: XNum | Rational) -> Instance:
    """Add ``c`` to every bias, including the outside option's.

    The agent's choice compares ``v_i + b_i`` across candidates, so a common
    shift never changes it, and the principal's expected utility of every menu
    is unchanged.
    """
    c = _coerce(c)
    if isinstance(instance, IndependentInstance):
        actions = tuple(dataclasses.replace(a, bias=a.bias + c) for a in instance.actions)
        outside = (
            dataclasses.replace(instance.outside, bias=instance.outside.bias + c)
            if instance.outside is not None
            else None
        )
        return IndependentInstance(actions, outside)
    biases = tuple(b + c for b in instance.biases)
    outside_bias = instance.outside_bias + c if instance.outside_bias is not None else None
    return CorrelatedInstance(biases, instance.profiles, outside_bias, instance.labels)
