import random
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from delmenu import (
    Action,
    CorrelatedInstance,
    IndependentInstance,
    Profile,
    XNum,
    brute_force_opt,
    deterministic,
    evaluate,
    gen_random,
    xnum,
)
from delmenu.cli import sample_menus as random_menus  # noqa: F401  (the CLI's one sampling rule)
from delmenu.model import OUTSIDE, product_realizations

OUTSIDE_MODES = ("none", "fixed", "random")


def random_independent(seed: int, outside: str | None = None, n: int = 3, support: int = 2):
    """Seeded random independent instance; outside mode cycles with the seed."""
    if outside is None:
        outside = OUTSIDE_MODES[seed % 3]
    return gen_random("independent", n=n, support_size=support, seed=seed, outside=outside)


def random_correlated(seed: int, outside: str | None = None, n: int = 3, profiles: int = 4):
    if outside is None:
        outside = OUTSIDE_MODES[seed % 3]
    return gen_random("correlated", n=n, support_size=profiles, seed=seed, outside=outside)


def tie_heavy(kind: str, seed: int, outside: str, n: int = 4, support: int = 3):
    """Values in 0..2 and biases in 0..1, integers, so utilities and menu values tie often."""
    return gen_random(
        kind, n=n, support_size=support, seed=seed, outside=outside,
        value_range=(0, 2), bias_range=(0, 1), denominator=1,
    )


def profile_assignment(instance: CorrelatedInstance, profile: Profile) -> dict[int, XNum]:
    """Map every candidate index (actions and outside) to its profile value."""
    values = {i: profile.values[i - 1] for i in range(1, instance.n + 1)}
    if instance.has_outside:
        values[OUTSIDE] = profile.values[instance.n]
    return values


def search_is_its_evaluation(instance, cap_n: int = 20):
    """The optimal menu and value, checked by the evaluation identity.

    The search's value must equal ``evaluate`` of its menu.  The evaluators
    read the kernel's ``counts``, code apart from the walks, so this checks
    a search at any size, past the reach of a scan of every menu.
    """
    menu, value = brute_force_opt(instance, cap_n=cap_n)
    assert value == evaluate(instance, menu).f
    return menu, value


def assert_no_single_flip_beats(instance, menu, value):
    """One-flip certificate: no menu one add or remove away from ``menu`` is
    worth more, or as much and smaller by size, then sorted indices.

    A necessary condition on an optimum under the searches' tie rule, with
    one evaluation per action.
    """
    for i in range(1, instance.n + 1):
        flipped = menu ^ {i}
        if not flipped and not instance.has_outside:
            continue
        other = evaluate(instance, flipped).f
        larger = (len(flipped), sorted(flipped)) > (len(menu), sorted(menu))
        assert other < value or other == value and larger, sorted(flipped)


def as_correlated(instance: IndependentInstance) -> CorrelatedInstance:
    """``instance`` written out as a correlated instance: one profile per
    joint realization of its candidates, in canonical order."""
    indices = list(range(1, instance.n + 1)) + ([OUTSIDE] if instance.has_outside else [])
    profiles = tuple(
        Profile(prob, tuple(values[i] for i in indices))
        for prob, values in product_realizations(instance, indices)
    )
    outside_bias = instance.outside.bias if instance.has_outside else None
    return CorrelatedInstance(tuple(a.bias for a in instance.actions), profiles, outside_bias)


def stack_depth():
    """Frames on the caller's stack, counted as the interpreter's recursion limit counts them."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def with_iota(instance, seed: int):
    """``instance`` with a seeded iota part in -2..2 on every value and bias.

    ``gen_random`` draws standard parts only, so this is how seeded
    ensembles exercise the iota channel.
    """
    rng = random.Random(seed)

    def lift(x):
        return XNum(x.std, rng.randint(-2, 2))

    def action(a):
        return Action(lift(a.bias), tuple((lift(v), p) for v, p in a.support), a.label)

    if isinstance(instance, IndependentInstance):
        outside = None if instance.outside is None else action(instance.outside)
        return IndependentInstance(tuple(map(action, instance.actions)), outside)
    outside_bias = None if instance.outside_bias is None else lift(instance.outside_bias)
    return CorrelatedInstance(
        tuple(map(lift, instance.biases)),
        tuple(Profile(p.prob, tuple(map(lift, p.values))) for p in instance.profiles),
        outside_bias,
        instance.labels,
    )


def fresh_twin(instance):
    """``instance`` rebuilt with a fresh XNum for every value and bias entry.

    Generators and loads share one object per distinct number; the twin
    shares none, so a kernel that depended on sharing would differ.
    """

    def fresh(x):
        return XNum(x.std, x.inf)

    def action(a):
        return Action(fresh(a.bias), tuple((fresh(v), p) for v, p in a.support), a.label)

    if isinstance(instance, IndependentInstance):
        outside = None if instance.outside is None else action(instance.outside)
        return IndependentInstance(tuple(map(action, instance.actions)), outside)
    outside_bias = None if instance.outside_bias is None else fresh(instance.outside_bias)
    return CorrelatedInstance(
        tuple(map(fresh, instance.biases)),
        tuple(Profile(p.prob, tuple(map(fresh, p.values))) for p in instance.profiles),
        outside_bias,
        instance.labels,
    )


# ---------------------------------------------------------------------------
# Drawn instances: values and biases on a 0/1/2 grid, so utilities tie often
# ---------------------------------------------------------------------------

def probabilities(weights):
    return [Fraction(w, sum(weights)) for w in weights]


@st.composite
def small_instances(draw, kind, max_n=4, iota=None, max_den=1, max_support=3):
    """n <= max_n actions, at most ``max_support`` support entries or profiles, any outside mode.

    Half the instances (all with ``iota`` true) also put iota parts on the
    grid, so the iota channel and its ties are drawn too.  With ``max_den``
    above 1 each part of a grid number is divided by a drawn integer up to
    it, so values and biases have unlike denominators.
    """
    if iota is None:
        iota = draw(st.booleans())
    den = st.integers(1, max_den) if max_den > 1 else st.just(1)
    grid = st.builds(
        lambda std, std_den, inf, inf_den: xnum(Fraction(std, std_den), Fraction(inf, inf_den)),
        st.integers(0, 2), den, st.integers(0, 2) if iota else st.just(0), den,
    )
    weights = st.lists(st.integers(1, 3), min_size=1, max_size=max_support)
    n = draw(st.integers(1, max_n))
    outside = draw(st.sampled_from(OUTSIDE_MODES))
    if kind == "independent":

        def action():
            return Action(draw(grid), tuple((draw(grid), p) for p in probabilities(draw(weights))))

        actions = tuple(action() for _ in range(n))
        if outside == "fixed":
            return IndependentInstance(actions, deterministic(draw(grid), draw(grid)))
        return IndependentInstance(actions, action() if outside == "random" else None)
    biases = tuple(draw(grid) for _ in range(n))
    outside_bias = None if outside == "none" else draw(grid)
    fixed = draw(grid)
    profiles = []
    for prob in probabilities(draw(weights)):
        values = [draw(grid) for _ in range(n)]
        if outside != "none":
            values.append(fixed if outside == "fixed" else draw(grid))
        profiles.append(Profile(prob, tuple(values)))
    return CorrelatedInstance(biases, tuple(profiles), outside_bias)


@pytest.fixture
def triangle_edges(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("1 2\n2 3\n1 3\n")
    return str(path)
