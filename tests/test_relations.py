"""Exact relations that check both searches past the exhaustive reach.

A scan of every menu stops near a dozen actions.  These relations need no
scan, and in this model they are exact (metamorphic testing: Chen, Cheung
and Yiu, HKUST-CS98-01, 1998): the search's value is the evaluation of its
menu, and no menu one add or remove away beats it under the tie rule.  They
run on random independent instances of 12-14 actions, on partition
reductions of 14-16 integers, whose repeated integers the search walks as
classes of interchangeable actions, on random correlated instances of
30-100 actions, past the reach of a walk that decides every action, and on
tie-heavy correlated ones of 16-24.  Across kernels,
an independent instance written out over its joint realizations is a
correlated instance with the same optimum, found by a walk that shares no
code with the independent one.
"""

import random

import pytest

from delmenu import (
    PartitionInstance,
    brute_force_opt,
    gen_random,
    has_partition,
    minimal_valid_m,
    reduce_integer_partition,
)

from conftest import (
    OUTSIDE_MODES,
    as_correlated,
    assert_no_single_flip_beats,
    search_is_its_evaluation,
    tie_heavy,
)


@pytest.mark.parametrize("n", [12, 13, 14])
def test_independent_search_relations(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("independent", n=n, support_size=3, seed=n, outside=outside)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance))


@pytest.mark.parametrize("size", [14, 15, 16])
def test_partition_search_relations(size):
    # 12, then integers in 1..12: the largest integer, and so M, is fixed.
    rng = random.Random(size)
    p = PartitionInstance((12, *(rng.randint(1, 12) for _ in range(size - 1))))
    instance, threshold = reduce_integer_partition(p, minimal_valid_m(p))
    menu, value = search_is_its_evaluation(instance)
    assert_no_single_flip_beats(instance, menu, value)
    assert (value.std >= threshold) == has_partition(p)


@pytest.mark.parametrize("n", [30, 33, 36, 60, 80, 100])
def test_correlated_search_relations(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("correlated", n=n, support_size=12, seed=n, outside=outside)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance, cap_n=n))


@pytest.mark.parametrize("n", [16, 20, 24])
def test_tie_heavy_correlated_search_relations(n):
    # Many one-flip neighbours tie the optimum, so the tie rule decides them.
    for seed, outside in enumerate(OUTSIDE_MODES):
        instance = tie_heavy("correlated", seed, outside, n=n, support=12)
        assert_no_single_flip_beats(instance, *search_is_its_evaluation(instance, cap_n=n))


@pytest.mark.parametrize("n", [5, 6])
def test_independent_and_correlated_searches_agree(n):
    for outside in OUTSIDE_MODES:
        instance = gen_random("independent", n=n, support_size=3, seed=n, outside=outside)
        assert brute_force_opt(as_correlated(instance)) == brute_force_opt(instance)
