"""Exact numbers of the form ``a + b*iota``.

``iota`` is a symbolic positive infinitesimal: smaller than every positive
rational, larger than zero.  A single infinitesimal level is enough to break
agent ties exactly, so an :class:`XNum` carries one rational standard part
(``std``) and one rational infinitesimal coefficient (``inf``).

The order is lexicographic: ``x < y`` iff ``x.std < y.std``, or the standard
parts are equal and ``x.inf < y.inf``.  Addition, negation, and multiplication
by a rational scalar act componentwise; the product of two XNums is not
defined (iota**2 never arises).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

# The only rational literal the package reads: an integer or 'p/q' in ASCII
# digits, with an optional sign and nothing around it.
INTEGER = r"[+-]?[0-9]+"
RATIONAL = rf"{INTEGER}(?:/[0-9]+)?"


class DigitLimitError(ValueError):
    """A literal holds an integer of more digits than the interpreter converts."""


def _over_limit(digits: int) -> DigitLimitError:
    return DigitLimitError(
        f"integer of {digits} digits exceeds the interpreter's limit"
        f" of {sys.get_int_max_str_digits()} digits"
    )


def parse_integer(text: str) -> int:
    """An integer literal in ASCII digits, with an optional sign, as an int.

    ``int``'s own grammar also reads underscores, blanks and non-ASCII
    digits.  Raises ``ValueError``, also for a literal of more digits than
    the interpreter converts (``sys.get_int_max_str_digits()``), as a
    :class:`DigitLimitError` that names the limit.
    """
    if not re.fullmatch(INTEGER, text):
        raise ValueError(f"invalid integer {text!r}")
    try:
        return int(text)
    except ValueError as exc:
        raise _over_limit(len(text.lstrip("+-"))) from exc


def parse_rational(text: str) -> Fraction:
    """An integer or 'p/q' literal as an exact rational.

    ``Fraction``'s own grammar also reads decimals, exponents, underscores
    and surrounding blanks; none of them is an exact rational literal, and
    an exponent could build a huge integer from a short string.  Raises
    ``ValueError``, also for a zero denominator, and a
    :class:`DigitLimitError` naming the limit and the longer part's digit
    count, not the literal, for a part of more digits than the interpreter
    converts.
    """
    if not re.fullmatch(RATIONAL, text):
        raise ValueError(f"invalid rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # only int's digit limit: the grammar matched
        raise _over_limit(max(map(len, text.lstrip("+-").split("/")))) from exc


def as_fraction(x: Rational | str) -> Fraction:
    """Coerce an int, a Fraction or a rational literal to Fraction.

    A string must be an integer or 'p/q' literal (see :func:`parse_rational`):
    ``"3"``, ``"-24/7"``; ``"0.5"``, ``"1e3"``, ``"1_0"`` and ``" 3 "`` raise
    ``ValueError``.  Floats raise ``TypeError``: they would silently smuggle
    binary rounding into a toolkit whose whole point is exact arithmetic.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


_set = object.__setattr__  # XNum is frozen: its __init__ stores the parts past __setattr__


@dataclass(frozen=True)
class XNum:
    std: Fraction
    inf: Fraction = Fraction(0)

    def __init__(self, std: Rational | str, inf: Rational | str = Fraction(0)) -> None:
        # The dataclass keeps this __init__: each part is coerced and stored once.
        _set(self, "std", std if type(std) is Fraction else as_fraction(std))
        _set(self, "inf", inf if type(inf) is Fraction else as_fraction(inf))

    # -- arithmetic (componentwise / scalar-linear) --------------------------

    def __add__(self, other: XNum | Rational) -> XNum:
        other = _coerce(other)
        return XNum(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other: XNum | Rational) -> XNum:
        other = _coerce(other)
        return XNum(self.std - other.std, self.inf - other.inf)

    def __rsub__(self, other: XNum | Rational) -> XNum:
        return _coerce(other) - self

    def __neg__(self) -> XNum:
        return XNum(-self.std, -self.inf)

    def __mul__(self, scalar: Rational) -> XNum:
        if isinstance(scalar, XNum):
            raise TypeError("product of two XNums is not defined")
        k = as_fraction(scalar)
        return XNum(self.std * k, self.inf * k)

    __rmul__ = __mul__

    # -- lexicographic total order -------------------------------------------

    def _key(self) -> tuple[Fraction, Fraction]:
        return (self.std, self.inf)

    def __lt__(self, other: XNum | Rational) -> bool:
        return self._key() < _coerce(other)._key()

    def __le__(self, other: XNum | Rational) -> bool:
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other: XNum | Rational) -> bool:
        return self._key() > _coerce(other)._key()

    def __ge__(self, other: XNum | Rational) -> bool:
        return self._key() >= _coerce(other)._key()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (XNum, int, Fraction)):
            return self._key() == _coerce(other)._key()
        return NotImplemented

    def __hash__(self) -> int:
        # A standard number equals its int or Fraction, so it must hash alike.
        return hash(self.std) if self.inf == 0 else hash(self._key())

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.inf == 0:
            return str(self.std)
        sign = "+" if self.inf > 0 else "-"
        return f"{self.std}{sign}{abs(self.inf)}i"

    def __repr__(self) -> str:
        return f"XNum({self.std!r}, {self.inf!r})"


def _coerce(x: XNum | Rational) -> XNum:
    if isinstance(x, XNum):
        return x
    return XNum(x)


xnum = XNum  # the constructor under a lower-case name: it takes ints, Fractions and 'p/q' strings


_ONE = Fraction(1)
ZERO = XNum(Fraction(0))
ONE = XNum(Fraction(1))
IOTA = XNum(Fraction(0), Fraction(1))


def xsum(terms) -> XNum:
    """Exact sum of XNums (empty sum is 0)."""
    total = ZERO
    for t in terms:
        total = total + t
    return total


def fraction_numerators(fractions: Iterable[Fraction]) -> tuple[list[int], int]:
    """``fractions`` as integer numerators over their least common denominator, and it.

    Each fraction is read once, as its integer ratio, and the denominator is
    one ``lcm`` of them all.
    """
    ratios = [x.as_integer_ratio() for x in fractions]
    den = math.lcm(*{d for _, d in ratios})
    return [n * (den // d) for n, d in ratios], den


def numerators(xs: list[XNum]) -> tuple[list[tuple[int, int]], int]:
    """``xs`` as integer ``(std, inf)`` pairs over one common denominator, and it.

    The denominator is the least common one of both parts of every number,
    so the pairs compare lexicographically, and add, as the XNums do.  One
    integer lift, :func:`fraction_numerators`, reads both parts of every number.
    """
    lifted, den = fraction_numerators([part for x in xs for part in (x.std, x.inf)])
    return list(zip(lifted[::2], lifted[1::2])), den


def merge_distribution(
    pairs: list[tuple[XNum, Fraction]],
) -> tuple[list[tuple[XNum, Fraction]], Fraction]:
    """``pairs`` sorted by value with equal values merged, and their total probability.

    One integer lift reads the values (:func:`numerators`) and one the
    probabilities (:func:`fraction_numerators`), so values sort and compare
    as integer pairs and merged probabilities add as integers, in one pass
    over the sorted order.  A merged entry keeps the first of its value
    objects, in the order given, and the sum of its probabilities; an entry
    of one pair is that pair as given.  A total of exactly 1 is the shared
    ``Fraction`` one, so a valid support builds no total.
    """
    lifted, _ = numerators([value for value, _ in pairs])
    masses, den = fraction_numerators([prob for _, prob in pairs])
    merged: list[tuple[XNum, Fraction]] = []
    last = None
    for i in sorted(range(len(pairs)), key=lifted.__getitem__):
        if lifted[i] == last:
            mass += masses[i]
            merged[-1] = merged[-1][0], Fraction(mass, den)
        else:
            last, mass = lifted[i], masses[i]
            merged.append(pairs[i])
    total = sum(masses)
    return merged, _ONE if total == den else Fraction(total, den)
