"""A bounded-exhaustive census of the guarantees on a small grid.

Random draws rarely approach a bound, so this slice enumerates every
independent instance of 2 actions on one grid, the actions taken as a
multiset: values {0, 1, 2, iota}, biases {0, 1, 1 - iota, 2}, supports of
one draw or of two draws at 1/2 and 1/2, and no outside option or a fixed
one worth 1 at bias 0.  That is 1,640 instances (bounded-exhaustive
testing: Boyapati, Khurshid and Marinov, "Korat", ISSTA 2002).  On each,
every bound flag holds, the search equals the reference scan, and the
verify suite finds no violation; the worst opt/threshold ratio on the grid
is pinned exactly.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from delmenu import (
    IOTA,
    Action,
    IndependentInstance,
    bound_report,
    deterministic,
    solve,
    xnum,
)
from delmenu.cli import run_verify
from delmenu.solve import BOUND_FLAGS

from test_kernel import scan_opt

VALUES = (xnum(0), xnum(1), xnum(2), IOTA)
BIASES = (xnum(0), xnum(1), 1 - IOTA, xnum(2))
HALF = Fraction(1, 2)
SUPPORTS = [((v, 1),) for v in VALUES] + [((v, HALF), (w, HALF)) for v, w in combinations(VALUES, 2)]
OUTSIDES = {"none": None, "fixed": deterministic(xnum(0), xnum(1))}

# The grid's worst instance with the fixed outside option, for the targeted
# properties of ROADMAP item 7.  Menu {2} is worth 3/2: action 2 pays 2 when
# it draws 2 and loses its tie to the outside option when it draws 0.  Every
# threshold menu holding action 2 holds action 1 too, whose iota edge takes
# the draw of 0 from the outside option, so no threshold menu's standard part
# exceeds 1.
WORST_FIXED_OUTSIDE = IndependentInstance(
    (
        deterministic(xnum(1), IOTA),
        Action(xnum(1), ((xnum(0), HALF), (xnum(2), HALF))),
    ),
    OUTSIDES["fixed"],
)


def grid(outside):
    actions = [Action(b, s) for b in BIASES for s in SUPPORTS]
    for pair in combinations_with_replacement(actions, 2):
        yield IndependentInstance(pair, OUTSIDES[outside])


def test_census_of_two_action_independent_instances():
    worst = {}
    count = 0
    for outside in OUTSIDES:
        ratios = []
        for instance in grid(outside):
            count += 1
            result = solve(instance)
            bounds = bound_report(instance, result)
            assert all(getattr(bounds, flag) for flag in BOUND_FLAGS), instance
            assert (result.opt_menu, result.opt_value) == scan_opt(instance), instance
            assert run_verify(instance, menus=1)[0] == [], instance
            if result.ratio is not None:
                ratios.append(result.ratio)
        worst[outside] = max(ratios)
    assert count == 1640
    assert worst == {"none": Fraction(1), "fixed": Fraction(3, 2)}


def test_census_worst_instance_reaches_three_halves():
    assert WORST_FIXED_OUTSIDE in set(grid("fixed"))
    result = solve(WORST_FIXED_OUTSIDE)
    assert (result.opt_menu, result.opt_value) == (frozenset({2}), xnum(Fraction(3, 2)))
    assert result.best_threshold_value == xnum(1, HALF)
    assert result.ratio == Fraction(3, 2)
    assert bound_report(WORST_FIXED_OUTSIDE, result).bound_3
