"""Exact relations that check the independent search past the exhaustive reach.

A scan of every menu stops near a dozen actions.  These relations need no
scan, and in this model they are exact (metamorphic testing: Chen, Cheung
and Yiu, HKUST-CS98-01, 1998): the search's value is the evaluation of its
menu, and no menu one add or remove away beats it under the tie rule.  They
run on random independent instances of 12-14 actions and on partition
reductions of 14-16 integers, whose repeated integers the search walks as
classes of interchangeable actions.
"""

import random

import pytest

from delmenu import (
    PartitionInstance,
    gen_random,
    has_partition,
    minimal_valid_m,
    reduce_integer_partition,
)

from conftest import OUTSIDE_MODES, assert_no_single_flip_beats, search_is_its_evaluation


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
