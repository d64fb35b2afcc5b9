"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact rational equality unless a criterion
states an interval.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from delmenu import (
    PartitionInstance,
    agent_choice,
    best_threshold,
    bound_report,
    brute_force_opt,
    decompose,
    derandomize_interference,
    dumps_instance,
    eval_bruteforce_product,
    eval_independent_dp,
    evaluate,
    gen_log_family,
    gen_outside_family,
    gen_random,
    gen_three_approx,
    has_partition,
    loads_instance,
    min_vertex_cover,
    minimal_valid_m,
    reduce_integer_partition,
    reduce_vertex_cover,
    shift_biases,
    solve,
    threshold_menu,
    threshold_menus,
    xnum,
)
from delmenu.model import candidates, product_realizations
from delmenu.reductions import Graph

from conftest import profile_assignment, random_correlated, random_independent, random_menus


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {description}")


def test_criterion_1_log_family_worked_example():
    with criterion(1, "log family k=3: opt {1,3,5}=24/7, best threshold full=14/7+(9/7)i"):
        inst = gen_log_family(3)
        menu, value = brute_force_opt(inst)
        assert menu == frozenset({1, 3, 5})
        assert value == xnum("24/7")
        t, t_menu, t_value = best_threshold(inst)
        assert t_menu == frozenset({1, 2, 3, 4, 5})
        assert t_value == xnum("14/7", "9/7")


def test_criterion_2_log_family_scaling():
    with criterion(2, "log family k=2..5: ratio = k*2^k/(2*(2^k-1)) >= k/2, log bound holds"):
        for k in range(2, 6):
            inst = gen_log_family(k)
            result = solve(inst)
            assert result.ratio == Fraction(k * 2**k, 2 * (2**k - 1))
            assert result.ratio >= Fraction(k, 2)
            report = bound_report(inst, result)
            assert report.p_min == Fraction(1, 2**k - 1)
            assert report.bound_log


def test_criterion_3_dp_oracle_equivalence():
    with criterion(3, "200 random independent instances: DP == brute-force oracle exactly"):
        for seed in range(200):
            inst = random_independent(seed, n=2 + seed % 3, support=2 + seed % 2)
            for menu in random_menus(inst, 5, seed):
                dp = eval_independent_dp(inst, menu)
                bf = eval_bruteforce_product(inst, menu)
                assert dp.f == bf.f
                assert dp.contrib == bf.contrib
                assert dp.freq == bf.freq


def _fixed_outside_ensemble():
    for seed in range(200):
        yield random_independent(
            seed, outside="fixed" if seed % 2 else "none", n=2 + seed % 3, support=2
        )


def test_criterion_4_three_approx_bound():
    with criterion(4, "200 random fixed/absent-outside instances: best threshold >= OPT/3"):
        for inst in _fixed_outside_ensemble():
            result = solve(inst)
            assert 3 * result.best_threshold_value.std >= result.opt_value.std
            assert bound_report(inst, result).bound_3


def test_criterion_5_decomposition_inequality_suite():
    with criterion(5, "sur+bdif identity, threshold dominance, single-action bound"):
        for seed in range(200):
            inst = random_independent(
                seed, outside="fixed" if seed % 2 else "none", n=2 + seed % 3, support=2
            )
            for menu in random_menus(inst, 5, seed):
                report = evaluate(inst, menu)
                dec = decompose(inst, menu)
                assert dec.sur + dec.bdif == report.f
                assert evaluate(inst, threshold_menu(inst, dec.u_low)).f >= dec.sur
                for i in report.contrib:
                    t_menu = threshold_menu(inst, inst.bias_of(i))
                    assert evaluate(inst, t_menu).f >= report.contrib[i]


def test_criterion_6_derandomization_certificates():
    with criterion(6, "50 random independent instances: every threshold certificate holds"):
        for seed in range(50):
            inst = random_independent(seed, n=2 + seed % 3, support=2 + seed % 2)
            opt_menu, _ = brute_force_opt(inst)
            for t, _menu in threshold_menus(inst):
                if t is None:
                    continue
                _action, certified = derandomize_interference(inst, opt_menu, t)
                assert certified


def test_criterion_7_three_approx_tight_example():
    with criterion(7, "five-action example: f({1,3,5})=7/8 at eps=1/2; ratio in [2.85,3]"):
        inst = gen_three_approx(Fraction(1, 2))
        assert eval_independent_dp(inst, frozenset({1, 3, 5})).f.std == Fraction(7, 8)
        result = solve(gen_three_approx(Fraction(1, 1000)))
        assert Fraction(285, 100) <= result.ratio <= Fraction(3)


def test_criterion_8_outside_option_family():
    with criterion(8, "outside family n=4: good menu floor, n-approx, thresholds <= OPT/1.5"):
        inst = gen_outside_family(4)
        f_good = eval_independent_dp(inst, frozenset({1, 2, 3, 4})).f
        assert f_good.std >= 1 - Fraction(3, 4) ** 4
        result = solve(inst)
        assert 4 * result.best_threshold_value.std >= result.opt_value.std
        assert bound_report(inst, result).bound_n
        for _t, menu in threshold_menus(inst):
            assert Fraction(3, 2) * evaluate(inst, menu).f.std <= result.opt_value.std


def test_criterion_9_vertex_cover_identity():
    with criterion(9, "vertex-cover identity on triangle, edge, P4, C5"):
        graphs = [
            Graph(3, ((1, 2), (2, 3), (1, 3))),
            Graph(2, ((1, 2),)),
            Graph(4, ((1, 2), (2, 3), (3, 4))),
            Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),
        ]
        for g in graphs:
            inst = reduce_vertex_cover(g)
            _menu, value = brute_force_opt(inst)
            n, m, k = g.vertices, len(g.edges), min_vertex_cover(g)
            assert value.std == Fraction(5 * m + 3 * n - k, m + n)
            assert value.inf == 0


def test_criterion_10_integer_partition_decision():
    with criterion(10, "partition reduction decides (1,1,2) yes and (1,1,3) no"):
        for values in ((1, 1, 2), (1, 1, 3)):
            p = PartitionInstance(values)
            inst, threshold = reduce_integer_partition(p, minimal_valid_m(p))
            _menu, value = brute_force_opt(inst)
            assert (value.std >= threshold) == has_partition(p)
        assert has_partition(PartitionInstance((1, 1, 2)))
        assert not has_partition(PartitionInstance((1, 1, 3)))


def test_criterion_11_invariance_suite():
    with criterion(11, "bias-shift invariance, exact serialization round trip, determinism"):
        shifts = [xnum(3), xnum("-5/2", 1)]
        for seed in range(100):
            if seed % 2:
                inst = random_independent(seed, n=2 + seed % 3, support=2)
            else:
                inst = random_correlated(seed, n=2 + seed % 3, profiles=3)
            assert loads_instance(dumps_instance(inst)) == inst
            menus = random_menus(inst, 4, seed)
            for c in shifts:
                shifted = shift_biases(inst, c)
                for menu in menus:
                    if hasattr(inst, "profiles"):
                        for profile in inst.profiles:
                            values = profile_assignment(inst, profile)
                            assert agent_choice(inst, menu, values) == agent_choice(
                                shifted, menu, values
                            )
                    else:
                        for _prob, values in product_realizations(inst, candidates(inst, menu)):
                            assert agent_choice(inst, menu, values) == agent_choice(
                                shifted, menu, values
                            )
                    assert evaluate(inst, menu).f == evaluate(shifted, menu).f
        for kind in ("independent", "correlated"):
            a = gen_random(kind, 3, 3, seed=123, outside="random")
            b = gen_random(kind, 3, 3, seed=123, outside="random")
            assert a == b and dumps_instance(a) == dumps_instance(b)
