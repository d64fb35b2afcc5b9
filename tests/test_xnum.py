import random
from fractions import Fraction

import pytest

from delmenu import IOTA, XNum, as_fraction, xnum, xsum


def test_lexicographic_order():
    assert XNum(1) > XNum(0, 100)
    assert XNum(1, -3) < XNum(1) < XNum(1, 2)
    assert IOTA > XNum(0)
    assert XNum(0, -1) < XNum(0) < IOTA < XNum(Fraction(1, 10**9))


def test_order_embeds_rationals():
    rng = random.Random(5)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        assert (XNum(a) < XNum(b)) == (a < b)
        assert (XNum(a) == XNum(b)) == (a == b)


def test_trichotomy():
    rng = random.Random(6)
    for _ in range(200):
        x = XNum(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        y = XNum(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        assert (x < y) + (x == y) + (x > y) == 1


def test_arithmetic_componentwise():
    a = xnum("3/2", "1/3")
    b = xnum("-1/2", 2)
    assert a + b == xnum(1, "7/3")
    assert a - b == xnum(2, "-5/3")
    assert -b == xnum("1/2", -2)
    assert a * 6 == xnum(9, 2)
    assert Fraction(2) * a == xnum(3, "2/3")
    assert a + Fraction(1, 2) == xnum(2, "1/3")


def test_xnum_product_undefined():
    with pytest.raises(TypeError):
        IOTA * IOTA


def test_floats_rejected():
    with pytest.raises(TypeError):
        XNum(0.5)
    with pytest.raises(TypeError):
        xnum(1) * 0.5


def test_hashable_and_str():
    assert hash(xnum("2/4")) == hash(xnum("1/2"))
    assert {xnum(1, 2): "x"}[xnum(1, 2)] == "x"
    assert str(xnum("24/7")) == "24/7"
    assert str(xnum(2, "9/7")) == "2+9/7i"
    assert str(xnum(4, -1)) == "4-1i"


def test_hash_agrees_with_eq_for_mixed_keys():
    assert XNum(3) == 3 and hash(XNum(3)) == hash(3)
    assert {XNum(3): "x"}.get(3) == "x"
    assert {3: "x"}.get(XNum(3)) == "x"
    assert {Fraction(1, 2): "y"}.get(xnum("2/4")) == "y"
    assert {xnum(3), 3, Fraction(3)} == {3}
    assert {xnum(3, 1): "z"}.get(3) is None


@pytest.mark.parametrize(
    "got, want",
    [
        (1 - xnum("1/2", 2), xnum("1/2", -2)),
        (Fraction(1, 3) - xnum(0, 1), xnum("1/3", -1)),
        (xnum(1).__eq__("x"), NotImplemented),
        (xnum(1) == "1", False),
        (repr(xnum("1/2", -1)), "XNum(Fraction(1, 2), Fraction(-1, 1))"),
    ],
    ids=["rsub-int", "rsub-fraction", "eq-str", "eq-str-operator", "repr"],
)
def test_reflected_subtraction_foreign_equality_and_repr(got, want):
    assert got == want


def test_xsum():
    assert xsum([]) == XNum(0)
    assert xsum([xnum(1, 1), xnum(2, -1), xnum("1/2")]) == xnum("7/2", 0)


@pytest.mark.parametrize("text", ["0.5", "1e3", "1E-3", "1_0", " 3", "3 ", "\t1/2", "1/ 2", "1/0", ""])
def test_strings_outside_the_rational_grammar_rejected(text):
    with pytest.raises(ValueError):
        xnum(text)
    with pytest.raises(ValueError):
        as_fraction(text)


def test_rational_literals_accepted():
    assert as_fraction("-24/7") == Fraction(-24, 7)
    assert as_fraction("+3") == 3
    assert xnum("2/4", "-1") == XNum(Fraction(1, 2), Fraction(-1))
