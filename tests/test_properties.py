"""Property tests: the rational grammar, the sweep-spec reader, serialization.

Example counts are kept small so the suite stays quick; each property is
checked on fresh random inputs every run.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delmenu import ParseError, gen_random, loads_instance, dumps_instance
from delmenu.cli import _ensemble_jobs
from delmenu.xnum import as_fraction, parse_rational

FEW = settings(max_examples=60, deadline=None)


@FEW
@given(st.fractions())
def test_parse_rational_reads_str_back(x):
    assert parse_rational(str(x)) == x
    assert as_fraction(str(x)) == x


# Spellings that Fraction's own grammar accepts but that are no rational literal.
LENIENT = st.one_of(
    st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-9, 9)),
    st.builds("{}_{}".format, st.integers(1, 99), st.integers(0, 99)),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "\t", "\n"]),
        st.fractions().map(str),
        st.sampled_from(["", " ", "\n"]),
    ).filter(lambda s: s != s.strip()),
)


@FEW
@given(LENIENT)
def test_as_fraction_rejects_lenient_spellings(text):
    Fraction(text)  # the lenient grammar reads it
    with pytest.raises(ValueError):
        as_fraction(text)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
FIELDS = ["generator", "count", "seed0", "kind", "n", "support_size", "outside",
          "value_range", "bias_range", "k", "eps", "ensembles"]
GENERATORS = st.sampled_from(["random", "log", "three_approx", "outside", "other"])
BLOCK = st.fixed_dictionaries(
    {"generator": GENERATORS},
    optional={f: JSON | st.sampled_from(["1/2", "independent", "0.5"]) for f in FIELDS[1:]},
)
SPEC = JSON | BLOCK | st.lists(BLOCK | JSON, max_size=3) | st.builds(
    lambda blocks: {"ensembles": blocks}, st.lists(BLOCK, max_size=3)
)


@settings(max_examples=100, deadline=None)
@given(SPEC)
def test_ensemble_jobs_return_jobs_or_parse_error(spec):
    try:
        jobs = _ensemble_jobs(spec)
    except ParseError:
        return
    for instance_id, constructor, kwargs in jobs:
        assert isinstance(instance_id, str) and callable(constructor)
        assert all(type(v) in (int, str, tuple, Fraction) for v in kwargs.values())


@FEW
@given(
    kind=st.sampled_from(["independent", "correlated"]),
    n=st.integers(1, 4),
    support_size=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    outside=st.sampled_from(["none", "fixed", "random"]),
)
def test_random_instances_round_trip(kind, n, support_size, seed, outside):
    instance = gen_random(kind, n, support_size, seed, outside=outside)
    text = dumps_instance(instance)
    assert loads_instance(text) == instance
    assert dumps_instance(loads_instance(text)) == text
