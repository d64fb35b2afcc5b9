"""The compiled integer kernel against the exact XNum reference path.

Every comparison is exact equality of the whole report (``f``, every
``contrib[i]``, every ``freq[i]``).  Correlated instances are checked against
a test-side enumeration that applies ``agent_choice`` to every profile;
independent instances against ``eval_bruteforce_product``.  The
derandomization is checked against a test-side run of the same algorithm
over explicit product realizations.  Hypothesis draws small tie-heavy
instances for both checks.
"""

import ast
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delmenu.kernel
from delmenu import (
    CorrelatedInstance,
    EvalReport,
    Graph,
    IndependentInstance,
    PartitionInstance,
    Profile,
    ZERO,
    Action,
    InterferenceAction,
    agent_choice,
    best_threshold,
    brute_force_opt,
    decompose,
    derandomize_interference,
    deterministic,
    eval_bruteforce_product,
    eval_correlated,
    eval_independent_dp,
    evaluate,
    gen_log_family,
    gen_outside_family,
    gen_random,
    gen_three_approx,
    min_vertex_cover,
    minimal_valid_m,
    parse_graph,
    reduce_integer_partition,
    reduce_vertex_cover,
    shift_biases,
    threshold_menu,
    threshold_menus,
    xnum,
    xsum,
)
from delmenu.kernel import CorrelatedKernel, IndependentKernel, _members, _rank_pairs, _wins
from delmenu.solve import _threshold_steps
from delmenu.model import (
    OUTSIDE,
    candidates,
    choice_key,
    full_menu,
    product_realizations,
)
from delmenu.serialize import instance_from_obj, instance_to_obj
from delmenu.xnum import XNum, numerators

from conftest import (
    OUTSIDE_MODES,
    fresh_twin,
    profile_assignment,
    random_correlated,
    random_independent,
    random_menus,
    small_instances,
    tie_heavy,
    with_iota,
)


def reference_correlated(instance, menu) -> EvalReport:
    contrib = {i: ZERO for i in candidates(instance, menu)}
    freq = {i: Fraction(0) for i in candidates(instance, menu)}
    for profile in instance.profiles:
        values = profile_assignment(instance, profile)
        chosen = agent_choice(instance, menu, values)
        contrib[chosen] = contrib[chosen] + values[chosen] * profile.prob
        freq[chosen] += profile.prob
    return EvalReport(xsum(contrib.values()), contrib, freq)


def reference(instance, menu) -> EvalReport:
    if isinstance(instance, CorrelatedInstance):
        return reference_correlated(instance, menu)
    return eval_bruteforce_product(instance, menu)


def all_menus(instance):
    first = 0 if instance.has_outside else 1
    for size in range(first, instance.n + 1):
        for combo in combinations(range(1, instance.n + 1), size):
            yield frozenset(combo)


def assert_matches_reference(instance, menus):
    for menu in menus:
        got = evaluate(instance, menu)
        assert got == reference(instance, menu), sorted(menu)
        assert list(got.contrib) == candidates(instance, menu)


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_correlated_kernel_equals_agent_choice_enumeration(outside):
    for seed in range(40):
        inst = random_correlated(seed, outside=outside, n=4, profiles=5)
        assert_matches_reference(inst, random_menus(inst, 6, seed))


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_independent_kernel_equals_bruteforce_product(outside):
    for seed in range(40):
        inst = random_independent(seed, outside=outside, n=4, support=3)
        assert_matches_reference(inst, random_menus(inst, 6, seed))


@pytest.mark.parametrize("kind", ["independent", "correlated"])
@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_kernel_equals_reference_under_utility_ties(kind, outside):
    for seed in range(15):
        inst = tie_heavy(kind, seed, outside)
        assert_matches_reference(inst, all_menus(inst))


def test_equal_utility_across_actions_and_outside():
    # Every candidate has utility 3; values break the tie, then menu over
    # outside, then the lower index.
    cor = CorrelatedInstance(
        biases=(xnum(0), xnum(1), xnum(1), xnum(2)),
        profiles=(
            Profile(Fraction(1, 3), (xnum(3), xnum(2), xnum(2), xnum(1), xnum(2))),
            Profile(Fraction(2, 3), (xnum(1), xnum(2), xnum(2), xnum(1), xnum(3))),
        ),
        outside_bias=xnum(1),
    )
    assert_matches_reference(cor, all_menus(cor))
    assert eval_correlated(cor, frozenset({2, 3})).freq[2] == Fraction(1, 3)
    ind = IndependentInstance(
        (
            deterministic(xnum(0), xnum(3)),
            Action(xnum(1), ((xnum(2), Fraction(1, 2)), (xnum(0), Fraction(1, 2)))),
            deterministic(xnum(1), xnum(2)),
            deterministic(xnum(2), xnum(1)),
        ),
        outside=Action(xnum(1), ((xnum(2), Fraction(1, 4)), (xnum(5), Fraction(3, 4)))),
    )
    assert_matches_reference(ind, all_menus(ind))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_log_family_iota_ties(k):
    inst = gen_log_family(k)
    assert_matches_reference(inst, all_menus(inst))


def test_partition_reduction_iota_ties():
    part = PartitionInstance((1, 2, 3))
    inst, _ = reduce_integer_partition(part, minimal_valid_m(part))
    assert_matches_reference(inst, all_menus(inst))


def test_vertex_cover_reduction():
    inst = reduce_vertex_cover(parse_graph("1 2\n2 3\n3 4\n1 4\n1 3\n"))
    assert_matches_reference(inst, all_menus(inst))


@pytest.mark.parametrize("shift", [xnum(5), xnum("-7/3"), xnum(0, 1), xnum("1/2", "-3/4")])
def test_shift_biases_leaves_every_report_unchanged(shift):
    for seed in range(12):
        for inst in (
            random_correlated(seed, n=4, profiles=4),
            random_independent(seed, n=4, support=3),
            tie_heavy("correlated", seed, OUTSIDE_MODES[seed % 3]),
            tie_heavy("independent", seed, OUTSIDE_MODES[seed % 3]),
        ):
            shifted = shift_biases(inst, shift)
            for menu in random_menus(inst, 5, seed):
                assert evaluate(shifted, menu) == evaluate(inst, menu)


def first_best(scored):
    """The best ``(value, menu)``'s menu and value; ties: smaller, then lexicographic."""
    best = max(value for value, _ in scored)
    winners = [menu for value, menu in scored if value == best]
    return min(winners, key=lambda m: (len(m), sorted(m))), best


def scan_opt(instance):
    """Best menu by the reference evaluators, by :func:`first_best`."""
    return first_best([(reference(instance, menu).f, menu) for menu in all_menus(instance)])


def test_brute_force_opt_equals_reference_scan():
    instances = [
        gen_log_family(3),
        reduce_vertex_cover(parse_graph("1 2\n2 3\n3 4\n1 4\n")),
        gen_three_approx(Fraction(1, 100)),
        gen_outside_family(3),
        gen_outside_family(3, alt_good_values=True),
    ]
    for values in ((1, 2, 3), (1, 1, 2), (2, 3, 4)):
        part = PartitionInstance(values)
        instances.append(reduce_integer_partition(part, minimal_valid_m(part))[0])
    for seed in range(12):
        outside = OUTSIDE_MODES[seed % 3]
        instances += [
            random_correlated(seed, n=4, profiles=4),
            random_independent(seed, n=4, support=2),
            tie_heavy("correlated", seed, outside),
            tie_heavy("independent", seed, outside),
        ]
    for inst in instances:
        assert brute_force_opt(inst) == scan_opt(inst)


def fold_value(kernel, feasible):
    """The value of ``feasible``'s winner states, packed, over ``den`` times
    every ``prob_den``: ``total`` over the states, times ``rest``, the
    product of the non-candidates' ``prob_den``."""
    rest = math.prod(d for i, d in enumerate(kernel.prob_den) if i not in feasible)
    return kernel.total(*kernel.winners(feasible)) * rest


def fold_search(instance):
    """The independent kernel's best menu and its value by winner states: a
    scan of every menu, each valued by :func:`fold_value` over every rank,
    with the tie rule of :func:`scan_opt`."""
    outside = [OUTSIDE] if instance.has_outside else []
    kernel = instance.kernel
    return first_best([(fold_value(kernel, outside + sorted(m)), m) for m in all_menus(instance)])


def test_independent_search_equals_fold_search():
    instances = [
        random_independent(seed, outside, n=n, support=3)
        for n in (9, 10)
        for outside in OUTSIDE_MODES
        for seed in range(2)
    ]
    instances += [with_iota(inst, seed) for seed, inst in enumerate(instances[:6])]
    rng = random.Random(0)
    for size in (7, 8, 7, 8):
        part = PartitionInstance(tuple([12] + rng.sample(range(1, 12), size - 1)))
        instances.append(reduce_integer_partition(part, minimal_valid_m(part))[0])
    for inst in instances:
        menu, value = inst.kernel.search()
        assert menu == fold_search(inst)[0]
        assert value == evaluate(inst, menu).f


def index_order_search(kernel):
    """The correlated kernel's best menu and its packed value by the plain
    bound walk: actions in index order, include first, no dead-node prune,
    each node valued by ``_bound`` alone and pruned strictly below the
    incumbent, ties as in :func:`scan_opt`."""
    width = len(kernel.bias)
    outside = 0 if kernel.bias[OUTSIDE] is None else 1
    best = []  # the incumbent's (-value, size, sorted menu)

    def visit(i, live, stop):
        if i == width and not stop:
            return  # the empty menu without an outside option
        bound = kernel._bound(live, stop)
        if best and -bound > best[0][0]:
            return
        if i < width:
            visit(i + 1, live, stop | 1 << i)
            visit(i + 1, live & ~(1 << i), stop)
        else:
            menu = [j for j in range(1, width) if stop >> j & 1]
            best[:] = [min(best + [(-bound, len(menu), menu)])]

    visit(1, (1 << width) - 2 | outside, outside)
    return frozenset(best[0][2]), -best[0][0]


def bound_and_picks(kernel, live, stop):
    """The bound of the whole-action walk on every ranking, with the mask
    of each ranking's first member of ``stop``: its pick from the included
    set plus the outside option."""
    total = picks = 0
    for ranking in kernel.rankings:
        top = None
        for bit, value in ranking:
            if live & bit:
                if top is None or value > top:
                    top = value
                if stop & bit:
                    break
        total += top
        picks |= bit
    return total, picks


def value_order_search(kernel):
    """The correlated kernel's best menu and its packed value by the walk
    over whole actions: actions of largest total value over the rankings
    decided first, include first, a node dropped when an included action is
    no ranking's pick from the included set plus the outside option, and
    otherwise unless :func:`_wins` holds for its bound and included set."""
    width = len(kernel.bias)
    total = [0] * width
    for ranking in kernel.rankings:
        for bit, value in ranking:
            total[bit.bit_length() - 1] += value
    order = sorted(range(1, width), key=total.__getitem__, reverse=True)
    outside = 0 if kernel.bias[OUTSIDE] is None else 1
    best = best_menu = None
    stack = [(0, (1 << width) - 2 | outside, outside)]
    while stack:
        k, live, stop = stack.pop()
        if k == len(order) and not stop:  # the empty menu, and no outside option
            continue
        bound, picks = bound_and_picks(kernel, live, stop)
        if stop & ~picks > 1 or not _wins(bound, stop & ~1, best, best_menu):
            continue
        if k < len(order):
            bit = 1 << order[k]
            stack.append((k + 1, live & ~bit, stop))
            stack.append((k + 1, live, stop | bit))
        else:
            best, best_menu = bound, stop & ~1
    return frozenset(i for i in range(1, width) if best_menu >> i & 1), best


def covers(sizes, seed=0):
    """Vertex-cover reductions of graphs of each size v, 2v edges drawn by one seeded draw."""
    rng = random.Random(seed)
    out = []
    for vertices in sizes:
        pairs = list(combinations(range(1, vertices + 1), 2))
        out.append(reduce_vertex_cover(Graph(vertices, tuple(rng.sample(pairs, 2 * vertices)))))
    return out


def test_correlated_search_equals_index_order_search():
    instances = [
        with_iota(random_correlated(seed, outside, n=n, profiles=12), seed)
        for n in range(12, 17)
        for outside in OUTSIDE_MODES
        for seed in (n, n + 20)
    ]
    for inst in instances + covers(range(10, 15)):
        assert inst.kernel.search()[0] == index_order_search(inst.kernel)[0]


def packed_search(kernel):
    """``kernel.search()`` with its value packed as the reference walks return it."""
    menu, value = kernel.search()
    den = kernel.den
    return menu, (value.std * den) * kernel.scale + value.inf * den


def test_correlated_search_equals_value_order_search():
    # Random instances of 12-24 actions and covers of 10-16 vertices, on
    # which the walk by picks and the walk over whole actions visit
    # different nodes in a different order.
    instances = [
        random_correlated(seed, outside, n=n, profiles=12)
        for n in (12, 16, 20, 24)
        for outside in OUTSIDE_MODES
        for seed in (n, n + 20)
    ]
    for inst in instances + covers(range(10, 17), seed=1):
        assert packed_search(inst.kernel) == value_order_search(inst.kernel)


@pytest.mark.parametrize("n", range(8, 13))
def test_tie_heavy_correlated_search_equals_index_order_search(n):
    # Menus of equal value abound, and the walk drops the nodes whose ties
    # the incumbent already wins, which the reference walks out.
    for seed, outside in enumerate(OUTSIDE_MODES * 2):
        inst = tie_heavy("correlated", 10 * n + seed, outside, n=n, support=12)
        assert inst.kernel.search()[0] == index_order_search(inst.kernel)[0]


def traced_search(instance, monkeypatch):
    """``instance.kernel.search()``, with the ``(live, stop, k)`` nodes the
    walk values by ``_bound``, in walk order; ``k`` is the number of
    rankings whose picks the node fixes, all of them at a leaf."""
    valued = []
    bound = CorrelatedKernel._bound

    def spy(kernel, live, stop, k=0):
        valued.append((live, stop, k))
        return bound(kernel, live, stop, k)

    monkeypatch.setattr(CorrelatedKernel, "_bound", spy)
    return instance.kernel.search(), valued


def leaves(kernel, valued):
    """The menus, as bit masks of ``stop``, of the leaves among ``valued``."""
    return [stop & ~1 for _, stop, k in valued if k == len(kernel.rankings)]


def test_correlated_search_values_few_nodes_when_every_menu_ties(monkeypatch):
    # n equal actions in one profile: every nonempty menu is worth 1, and
    # {1} wins the tie.  Once {1} is the incumbent, a node's included set
    # is empty, which wins the tie, or holds one later action, which loses
    # it, so the walk values about 2n nodes; a prune only strictly below
    # the incumbent values n(n + 1).
    n = 400
    inst = CorrelatedInstance((xnum(0),) * n, (Profile(Fraction(1), (xnum(1),) * n),))
    result, valued = traced_search(inst, monkeypatch)
    assert result == (frozenset({1}), xnum(1))
    assert n < len(valued) <= 4 * n


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_correlated_search_never_expands_a_dead_node(outside, monkeypatch):
    # Dead: an included action that the reference picks in no profile.  The
    # walk includes an action only as a ranking's pick, so no node it
    # values, leaf or not, is dead, and no leaf holds an unpicked action,
    # though many menus of these instances do.
    dead_menus = False
    for seed in range(6):
        inst = random_correlated(seed, outside, n=7, profiles=6)

        def is_dead(menu):
            freq = reference(inst, menu).freq if menu or inst.has_outside else {}
            return any(freq[i] == 0 for i in menu)

        (menu, _), valued = traced_search(inst, monkeypatch)
        assert menu == scan_opt(inst)[0]
        included = {_members(stop & ~1) for _, stop, _ in valued}
        assert not any(map(is_dead, included))
        found = leaves(inst.kernel, valued)
        assert found and len(set(found)) == len(found)  # each menu is one leaf
        dead_menus = dead_menus or any(map(is_dead, all_menus(inst)))
    assert dead_menus


@pytest.mark.parametrize("vertices", [16, 19, 20, 21, 22, 23, 24])
def test_vertex_cover_optimum_equals_closed_form(vertices):
    # vertices + 1 actions, past the search's default cap of 20 from 20
    # vertices on, and 2 * vertices edges; the cover comes from the
    # branching solver, whose own oracle is a subset scan in
    # test_reductions.py.
    edges = 2 * vertices
    rng = random.Random(vertices)
    pairs = list(combinations(range(1, vertices + 1), 2))
    graph = Graph(vertices, tuple(rng.sample(pairs, edges)))
    menu, value = brute_force_opt(reduce_vertex_cover(graph), cap_n=vertices + 1)
    cover = min_vertex_cover(graph, cap_n=vertices)
    assert value == xnum(Fraction(5 * edges + 3 * vertices - cover, edges + vertices))
    assert len(menu) == cover + 1 and vertices + 1 in menu
    assert all(u in menu or v in menu for u, v in graph.edges)


def pairs_of(instance):
    """The distinct (index, value) pairs a kernel ranks, outside option included."""
    if isinstance(instance, CorrelatedInstance):
        return {pair for p in instance.profiles for pair in profile_assignment(instance, p).items()}
    return {
        (i, v)
        for i in candidates(instance, frozenset(range(1, instance.n + 1)))
        for v, _ in instance.support_of(i)
    }


def as_xnum_pairs(pairs, den):
    """Integer (index, (std, inf)) pairs over ``den`` as (index, XNum) pairs."""
    return {(i, XNum(Fraction(std, den), Fraction(inf, den))) for i, (std, inf) in pairs}


def candidate_biases(instance):
    """Each candidate's (index, bias), outside option included."""
    return {(i, instance.bias_of(i)) for i in candidates(instance, full_menu(instance))}


def shared_den(instance):
    """The least common denominator of both parts of every ranked value and
    candidate bias: the kernel's one lift."""
    xs = [v for _, v in pairs_of(instance) | candidate_biases(instance)]
    return math.lcm(*{part.denominator for x in xs for part in (x.std, x.inf)})


# Values repeat across profiles, and some differ only in their iota part.
IOTA_REPEATS = CorrelatedInstance(
    biases=(xnum(0), xnum("1/2", 1)),
    profiles=(
        Profile(Fraction(1, 3), (xnum(1), xnum("1/2"), xnum(1))),
        Profile(Fraction(1, 3), (xnum(1, 1), xnum("1/2"), xnum(1, -1))),
        Profile(Fraction(1, 3), (xnum(1, 2), xnum("1/2", 1), xnum(1))),
    ),
    outside_bias=xnum("1/3"),
)


def test_kernel_is_compiled_once_per_instance(monkeypatch):
    rankings, keys, lifts = [], [], []
    rank_pairs, key = delmenu.kernel._rank_pairs, delmenu.kernel.choice_key
    lift = delmenu.kernel.numerators
    monkeypatch.setattr(
        delmenu.kernel, "_rank_pairs", lambda *a: rankings.append(a) or rank_pairs(*a)
    )
    monkeypatch.setattr(delmenu.kernel, "choice_key", lambda *a: keys.append(a) or key(*a))
    monkeypatch.setattr(delmenu.kernel, "numerators", lambda xs: lifts.append(xs) or lift(xs))
    for inst in (
        random_correlated(3, outside="random", n=4, profiles=5),
        random_independent(3, outside="random", n=4, support=3),
        gen_log_family(3),
        IOTA_REPEATS,
    ):
        rankings.clear()
        keys.clear()
        lifts.clear()
        for menu in all_menus(inst):
            evaluate(inst, menu)
        best_threshold(inst)
        assert inst.kernel is inst.kernel
        assert len(lifts) == 1  # values and biases in one lift
        den = shared_den(inst)
        assert [
            (as_xnum_pairs(pairs, den), as_xnum_pairs(bias.items(), den))
            for pairs, bias in rankings
        ] == [(pairs_of(inst), candidate_biases(inst))]
        assert len(keys) == len(set(keys)) == len(pairs_of(inst))  # one choice key per pair
        assert sorted(i for i, *_ in keys) == sorted(i for i, _ in pairs_of(inst))


def test_kernel_is_not_part_of_instance_equality():
    inst = random_independent(5, n=3)
    twin = random_independent(5, n=3)
    eval_independent_dp(inst, frozenset({1, 2}))
    assert inst == twin and hash(inst) == hash(twin)
    assert "kernel" in vars(inst) and "kernel" not in vars(twin)


ENCODING = {"numerators", "fraction_numerators"}


def test_only_the_kernel_imports_the_integer_encoding():
    # The integer encoding stays inside the kernel: every other module gets
    # exact numbers from it, never numerators.
    users = set()
    for path in Path(delmenu.kernel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):  # module.numerators after a plain import
                names = {node.attr}
            else:
                continue
            if names & ENCODING:
                users.add(path.name)
    assert users == {"kernel.py"}  # xnum.py defines them


# ---------------------------------------------------------------------------
# Derandomized interference
# ---------------------------------------------------------------------------


def reference_derandomize(instance, opt_menu, t):
    """derandomize_interference by agent_choice over explicit realizations.

    Returns the stand-in action and both sides of the certificate:
    f(kept + stand-in) and f(A_t).
    """
    a_t = threshold_menu(instance, t)
    interference = sorted(a_t - opt_menu)
    if not interference:
        return None, ZERO, ZERO
    kept_menu = a_t & opt_menu
    kept = list(product_realizations(instance, candidates(instance, kept_menu)))

    def conditional_value(pinned):
        total = ZERO
        for prob, values in kept:
            values = {**values, **pinned}
            total = total + values[agent_choice(instance, a_t, values)] * prob
        return total

    supports = [[v for v, _ in instance.actions[i - 1].support] for i in interference]
    pinned_sets = (dict(zip(interference, combo)) for combo in product(*supports))
    worst = min(pinned_sets, key=conditional_value)
    favorite = max(interference, key=lambda i: choice_key(i, worst[i], instance.bias_of(i)))
    action = InterferenceAction(t, worst[favorite] + instance.bias_of(favorite) - t)

    extra_key = choice_key(instance.n + 1, action.value, t)
    rhs = ZERO
    for prob, values in kept:
        picked = action.value
        if kept_menu or instance.has_outside:
            i = agent_choice(instance, kept_menu, values)
            if choice_key(i, values[i], instance.bias_of(i)) > extra_key:
                picked = values[i]
        rhs = rhs + picked * prob
    return action, rhs, eval_bruteforce_product(instance, a_t).f


def assert_derandomize_matches_reference(instance, opt_menus, monkeypatch):
    """Exact equality with the oracle, on every threshold of every opt menu.

    The kernel's ``stand_in`` values A_t as its third result, which must be
    the oracle's f(A_t).  The flag hides f(kept + stand-in) whenever the
    certificate holds, so that third result is also pinned at the oracle's
    value of f(kept + stand-in) and just below, which makes the flag read
    that value exactly.
    """
    stand_in = IndependentKernel.stand_in
    cases = empty_kept = 0
    for opt_menu in opt_menus:
        for t, menu in threshold_menus(instance):
            if t is None:
                continue
            action, rhs, lhs = reference_derandomize(instance, opt_menu, t)
            got = derandomize_interference(instance, opt_menu, t)
            assert got == (action, rhs <= lhs), (sorted(opt_menu), t)
            if action is None:
                continue
            kept = candidates(instance, menu & opt_menu)
            assert instance.kernel.stand_in(kept, sorted(menu - opt_menu), t)[2] == lhs
            cases += 1
            empty_kept += not (menu & opt_menu or instance.has_outside)
            just_below = rhs - xnum(0, Fraction(1, 10**9))
            with monkeypatch.context() as patch:
                for pinned, certified in ((rhs, True), (just_below, False)):
                    patch.setattr(
                        IndependentKernel, "stand_in", lambda *args: (*stand_in(*args)[:2], pinned)
                    )
                    assert derandomize_interference(instance, opt_menu, t) == (action, certified)
    return cases, empty_kept


def opt_and_singletons(instance):
    return [brute_force_opt(instance)[0]] + [frozenset({i}) for i in range(1, instance.n + 1)]


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_derandomize_equals_reference_on_random_ensembles(outside, monkeypatch):
    cases = empty_kept = 0
    for n in (3, 4, 5, 6):
        for seed in range(2):
            inst = random_independent(seed, outside=outside, n=n, support=3 if n < 5 else 2)
            got = assert_derandomize_matches_reference(
                inst, opt_and_singletons(inst) + random_menus(inst, 2, seed)[1:], monkeypatch
            )
            cases, empty_kept = cases + got[0], empty_kept + got[1]
    assert cases > 60
    assert (empty_kept > 0) == (outside == "none")


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_derandomize_equals_reference_on_tie_grid(outside, monkeypatch):
    # Values and biases in {0, 1}: agent utilities tie across actions.
    for seed in range(10):
        inst = gen_random(
            "independent", n=4, support_size=2, seed=seed, outside=outside,
            value_range=(0, 1), bias_range=(0, 1), denominator=1,
        )
        assert_derandomize_matches_reference(inst, opt_and_singletons(inst), monkeypatch)


def test_derandomize_equals_reference_on_families(monkeypatch):
    for inst in (
        gen_three_approx(Fraction(1, 100)),
        gen_outside_family(3),
        gen_outside_family(3, alt_good_values=True),
    ):
        assert_derandomize_matches_reference(inst, opt_and_singletons(inst), monkeypatch)


def test_derandomize_stand_in_ties_kept_pair_on_agent_utility(monkeypatch):
    # Interference {2, 4} collapses to a stand-in of bias 2 and value 1 from
    # action 2's draw of 2 (agent utility 3).  Kept action 3's draw of 2 has
    # the same utility and value as that pair and ranks below it only by
    # index, but it is the next pair above the stand-in, whose value is 1.
    half = Fraction(1, 2)
    inst = IndependentInstance(
        tuple(
            Action(xnum(bias), ((xnum(lo), half), (xnum(hi), half)))
            for bias, lo, hi in ((2, 0, 2), (1, 2, 3), (1, 1, 2), (1, 0, 3))
        )
    )
    opt_menu, t = frozenset({1, 3}), xnum(2)
    action, rhs, _ = reference_derandomize(inst, opt_menu, t)
    assert action == InterferenceAction(bias=xnum(2), value=xnum(1))
    assert action.value + action.bias == xnum(2) + inst.bias_of(3)
    assert rhs == xnum("7/4")
    assert_derandomize_matches_reference(inst, [opt_menu], monkeypatch)


def test_derandomize_tie_goes_to_the_first_realization_in_canonical_order(monkeypatch):
    # At t = 2 all three actions are pinned against the outside option's
    # draws of 0 and 4.  Two tops are worst, at 3: action 1's draw of 2,
    # which the outside draw of 4 beats on value, and action 3's draw of 3.
    # The enumeration varies the last action fastest, so (1, 3, 3) comes
    # before (2, 3, 0): the stand-in is action 3's draw, though action 1's
    # top ranks lower and comes first by index.
    half = Fraction(1, 2)

    def two_draws(bias, lo, hi):
        return Action(xnum(bias), ((xnum(lo), half), (xnum(hi), half)))

    inst = IndependentInstance(
        (two_draws(2, 1, 2), deterministic(xnum(0), xnum(3)), two_draws(2, 0, 3)),
        two_draws(0, 0, 4),
    )
    action, rhs, _ = reference_derandomize(inst, frozenset(), xnum(2))
    assert action == InterferenceAction(bias=xnum(2), value=xnum(3))
    assert rhs == xnum(3)
    assert_derandomize_matches_reference(inst, [frozenset()], monkeypatch)


# ---------------------------------------------------------------------------
# Drawn instances (``small_instances``): values and biases on a small grid
# ---------------------------------------------------------------------------


# Drawn with unlike denominators: the standard and iota parts of one grid
# number are divided by their own integers up to 3.
UNLIKE_DENS = st.sampled_from(["independent", "correlated"]).flatmap(
    lambda kind: small_instances(kind, max_den=3)
)


@settings(max_examples=100, deadline=None)
@given(UNLIKE_DENS)
@example(IOTA_REPEATS)  # negative iota parts: packed sums must unpack to negative inf
def test_kernel_equals_reference_on_drawn_instances(instance):
    assert_matches_reference(instance, all_menus(instance))


@settings(max_examples=60, deadline=None)
@given(small_instances("independent", max_den=3), st.data())
def test_derandomize_equals_reference_on_drawn_instances(instance, data):
    indices = st.sets(st.integers(1, instance.n), min_size=0 if instance.has_outside else 1)
    opt_menu = frozenset(data.draw(indices))
    assert_derandomize_matches_reference(instance, [opt_menu], pytest.MonkeyPatch)


# Menus {1} and {2} tie at 1 on the standard part; iota decides for {2},
# which the tie rule alone would not pick.
IOTA_DECIDES = IndependentInstance(
    (
        Action(xnum(0), ((xnum(0), Fraction(1, 2)), (xnum(2), Fraction(1, 2)))),
        deterministic(xnum(1), xnum(1, 1)),
    )
)
# {1} is worth 2 - iota and {2} 1 + 5/3 iota: adding the parts in place of
# ordering them lexicographically would pick {2}.
NEGATIVE_IOTA = IndependentInstance(
    (
        deterministic(xnum(0), xnum(2, -1)),
        Action(xnum(0), ((xnum(1, 1), Fraction(1, 3)), (xnum(1, 2), Fraction(2, 3)))),
    ),
    outside=deterministic(xnum(0), xnum(0)),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, 5, max_den=3)
    )
)
@example(IOTA_DECIDES)
@example(NEGATIVE_IOTA)
def test_brute_force_opt_equals_reference_scan_on_drawn_instances(instance):
    assert brute_force_opt(instance) == scan_opt(instance)


# Action 2 ranks below the outside option in every profile, so no menu's
# profile picks it: {2} ties the empty menu and {1, 2} ties {1}.
OUTSIDE_OUTRANKS = CorrelatedInstance(
    biases=(xnum(0), xnum(-3)),
    profiles=(
        Profile(Fraction(1, 2), (xnum(3), xnum(4), xnum(2))),
        Profile(Fraction(1, 2), (xnum(0), xnum(4), xnum(2))),
    ),
    outside_bias=xnum(0),
)
# Action 3 is picked from {1, 3} (second profile) and from {2, 3} (first),
# but not from {1, 2, 3}: 1 outranks it in the first profile, 2 in the second.
SET_OUTRANKS = CorrelatedInstance(
    biases=(xnum(0), xnum(0), xnum(0)),
    profiles=(
        Profile(Fraction(1, 2), (xnum(2), xnum(0), xnum("3/2"))),
        Profile(Fraction(1, 2), (xnum(0), xnum(2), xnum("3/2"))),
    ),
)
# {1, 3}, {2, 3} and {3, 4} tie at 5/2, the best value.  The walk meets
# {2, 3} first, as the picks of its first ranking's favorite 2 and of the
# second's favorite 3, and {1, 3} later, which must replace it: of two menus
# of one size, the lexicographically smaller sorted one wins the tie.
TIE_AFTER_ORDER = CorrelatedInstance(
    biases=(xnum(0), xnum(2), xnum(1), xnum(0)),
    profiles=(
        Profile(Fraction(1, 2), (xnum(0), xnum(2), xnum(3), xnum(0))),
        Profile(Fraction(1, 2), (xnum(2), xnum(2), xnum(0), xnum(2))),
    ),
)

# {1, 2} and {2} tie at 2: action 2 is worth 2 in both profiles, and the
# agent picks action 1 from {1, 2} only where it is worth 2 too.  The
# ranking whose favorite is action 2, of the larger total value, comes first
# in walk order, so the walk takes 2 as its pick and 1 as the other
# ranking's, and reaches {1, 2} first; {2}'s bound equals the incumbent's
# value, and its smaller included set keeps it.
SMALLER_TIE_LATER = CorrelatedInstance(
    biases=(xnum(1), xnum(0)),
    profiles=(
        Profile(Fraction(2, 3), (xnum(0), xnum(2))),
        Profile(Fraction(1, 3), (xnum(2), xnum(2))),
    ),
)


@settings(max_examples=100, deadline=None)
@given(small_instances("correlated", 7, iota=True, max_den=3, max_support=6))
@example(OUTSIDE_OUTRANKS)
@example(SET_OUTRANKS)
@example(TIE_AFTER_ORDER)
@example(SMALLER_TIE_LATER)
def test_correlated_opt_equals_reference_scan_in_value_order(instance):
    assert brute_force_opt(instance) == scan_opt(instance)


def test_correlated_search_examples_cover_their_cases(monkeypatch):
    def picks(instance, menu):
        return evaluate(instance, frozenset(menu)).freq

    assert picks(OUTSIDE_OUTRANKS, {2})[2] == picks(OUTSIDE_OUTRANKS, {1, 2})[2] == 0
    assert brute_force_opt(OUTSIDE_OUTRANKS) == (frozenset({1}), xnum("5/2"))
    assert picks(SET_OUTRANKS, {1, 3})[3] > 0 and picks(SET_OUTRANKS, {2, 3})[3] > 0
    assert picks(SET_OUTRANKS, {1, 2, 3})[3] == 0
    assert brute_force_opt(SET_OUTRANKS) == (frozenset({1, 2}), xnum(2))
    tied = [evaluate(TIE_AFTER_ORDER, frozenset(m)).f for m in ({1, 3}, {2, 3}, {3, 4})]
    assert tied == [xnum("5/2")] * 3
    assert brute_force_opt(TIE_AFTER_ORDER) == (frozenset({1, 3}), xnum("5/2"))
    _, valued = traced_search(TIE_AFTER_ORDER, monkeypatch)
    found = leaves(TIE_AFTER_ORDER.kernel, valued)
    assert found.index(0b1100) < found.index(0b1010)
    tied = [evaluate(SMALLER_TIE_LATER, frozenset(m)).f for m in ({1, 2}, {2})]
    assert tied == [xnum(2)] * 2 and picks(SMALLER_TIE_LATER, {1, 2})[1] > 0
    result, valued = traced_search(SMALLER_TIE_LATER, monkeypatch)
    found = leaves(SMALLER_TIE_LATER.kernel, valued)
    assert found.index(0b110) < found.index(0b100)
    assert result == (frozenset({2}), xnum(2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["independent", "correlated"]).flatmap(small_instances))
@example(  # actions 1, 2 and the outside option tie on agent utility 3, then 1 and 2 on 3 + iota
    CorrelatedInstance(
        biases=(xnum(1), xnum(2, 1)),
        profiles=(
            Profile(Fraction(1, 2), (xnum(2), xnum(1, -1), xnum(3))),
            Profile(Fraction(1, 2), (xnum(2, 1), xnum(1), xnum(2))),
        ),
        outside_bias=xnum(0),
    )
)
def test_integer_rank_order_equals_choice_key_order(instance):
    pairs = list(pairs_of(instance))
    biases = list(candidate_biases(instance))
    lifted, _ = numerators([v for _, v in pairs] + [b for _, b in biases])
    as_pair = {(i, value): (i, v) for (i, v), value in zip(pairs, lifted)}
    bias = {i: value for (i, _), value in zip(biases, lifted[len(pairs) :])}
    by_key = sorted(pairs, key=lambda pair: choice_key(*pair, instance.bias_of(pair[0])))
    integer_pairs = list(as_pair)
    ranks = _rank_pairs(integer_pairs, bias)
    assert sorted(ranks) == list(range(len(pairs)))
    assert [as_pair[pair] for _, pair in sorted(zip(ranks, integer_pairs))] == by_key


def reference_compile(instance, merge=True):
    """The kernel from ``(index, XNum)`` pairs hashed into a rank dict.

    Pairs are ranked by ``choice_key``'s fraction form, and values and
    probabilities scaled to integers one at a time, values and biases over
    the one denominator they share; the oracle for the compile's integer pair
    identities.  Each profile's correlated ranking lists (bit, packed value)
    entries, favorite first and cut after the outside option, with a scale
    computed from the scaled rows.  Profiles whose rankings list the same
    candidates in the same order share one ranking, with packed values and
    probabilities summed, and the rankings are sorted by decreasing total of
    their favorite's packed values over every ranking, first occurrences
    first among equals; ``least_prob`` is the least profile probability, and
    ``top`` is the largest action value's standard part, scaled, from the
    instance's values.  Independent values are packed on a scale computed
    from the scaled values and every ``prob_den``.  With ``merge`` false,
    a correlated kernel keeps one ranking per profile, in table order.
    """
    indices = candidates(instance, full_menu(instance))
    if isinstance(instance, CorrelatedInstance):
        assignments = [profile_assignment(instance, p) for p in instance.profiles]
        rows = [[(i, values[i]) for i in indices] for values in assignments]
    else:
        rows = [[(i, v) for v, _ in instance.support_of(i)] for i in indices]
    pairs = {pair for row in rows for pair in row}
    ranked = sorted(pairs, key=lambda pair: choice_key(*pair, instance.bias_of(pair[0])))
    rank = {pair: r for r, pair in enumerate(ranked)}
    den = shared_den(instance)

    def scaled(x, den):
        return x.numerator * (den // x.denominator)

    width = instance.n + 1
    biases = {i: instance.bias_of(i) for i in indices}
    bias = tuple(
        (scaled(biases[i].std, den), scaled(biases[i].inf, den)) if i in biases else None
        for i in range(width)
    )
    if isinstance(instance, CorrelatedInstance):
        prob_den = math.lcm(*{p.prob.denominator for p in instance.profiles})
        prob = [scaled(profile.prob, prob_den) for profile in instance.profiles]
        scale = 2 * sum(
            max(abs(scaled(v.inf, den)) * p for _, v in row) for row, p in zip(rows, prob)
        ) + 1
        merged = {}  # per key: the candidates in ranked order, summed packed values and prob
        for k, (row, p) in enumerate(zip(rows, prob)):
            ranked = sorted(row, key=rank.__getitem__, reverse=True)
            if instance.has_outside:
                ranked = ranked[: [i for i, _ in ranked].index(OUTSIDE) + 1]
            order = tuple(i for i, _ in ranked)
            packed = [(scaled(v.std, den) * scale + scaled(v.inf, den)) * p for _, v in ranked]
            key = order if merge else k
            _, values, q = merged.get(key, (order, [0] * len(order), 0))
            merged[key] = order, [a + b for a, b in zip(values, packed)], q + p
        walk = list(merged.values())
        if merge:
            totals = {}
            for order, values, _ in walk:
                for i, value in zip(order, values):
                    totals[i] = totals.get(i, 0) + value
            walk.sort(key=lambda entry: -totals[entry[0][0]])
        top = max(v.std for values in assignments for i, v in values.items() if i != OUTSIDE)
        return CorrelatedKernel(
            tuple(tuple((1 << i, v) for i, v in zip(order, values)) for order, values, _ in walk),
            scale, tuple(q for _, _, q in walk),
            den * prob_den, prob_den, bias, scaled(top, den), min(prob),
        )
    ranks, probs, prob_dens = [()] * width, [()] * width, [1] * width
    for i in indices:
        draws = sorted((rank[i, v], p) for v, p in instance.support_of(i))
        prob_dens[i] = math.lcm(*{p.denominator for _, p in draws})
        ranks[i] = tuple(r for r, _ in draws)
        probs[i] = tuple(scaled(p, prob_dens[i]) for _, p in draws)
    scale = 2 * max(abs(scaled(v.inf, den)) for _, v in ranked) * math.prod(prob_dens) + 1
    return IndependentKernel(
        tuple(ranks), tuple(probs), tuple(prob_dens),
        tuple(i for i, _ in ranked),
        tuple(scaled(v.std, den) * scale + scaled(v.inf, den) for _, v in ranked),
        scale, den, bias,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, max_den=3)
    )
)
@example(gen_log_family(3))
@example(IOTA_REPEATS)
def test_kernel_equals_reference_compile(instance):
    assert instance.kernel == reference_compile(instance)


def assert_merge_changes_no_result(instance, menus):
    """The kernel, whose profiles of one cut ranking share a ranking, and
    the kernel of one ranking per profile give equal searches, best
    threshold steps, tallies and splits."""
    merged, whole = instance.kernel, reference_compile(instance, merge=False)
    assert len(whole.rankings) == len(instance.profiles)
    assert merged.search() == whole.search()
    assert merged.least_mass() == whole.least_mass() == min(p.prob for p in instance.profiles)
    steps = [added for _, added in _threshold_steps(instance)]
    assert merged.best_prefix(steps) == whole.best_prefix(steps)
    for menu in menus:
        feasible = candidates(instance, menu)
        if feasible:
            assert merged.tally(feasible) == whole.tally(feasible)
            assert merged.split(feasible) == whole.split(feasible)


@pytest.mark.parametrize("k", range(2, 12))
def test_log_family_kernel_equals_reference_compile(k):
    inst = gen_log_family(k)
    assert inst.kernel == reference_compile(inst)


@pytest.mark.parametrize("k", [12, 13, 14])
def test_large_log_family_kernel_needs_no_shared_objects(k):
    # reference_compile is too slow here: the generated instance, its loaded
    # twin and a twin of one object per entry must compile alike instead.
    inst = gen_log_family(k)
    loaded = instance_from_obj(instance_to_obj(inst))
    assert inst.kernel == loaded.kernel == fresh_twin(inst).kernel
    assert brute_force_opt(inst, cap_n=inst.n)[1] == Fraction(k * 2**k, 2**k - 1)


def entries(instance):
    """Every value and bias entry of ``instance``, one per occurrence."""
    if isinstance(instance, CorrelatedInstance):
        values = [v for p in instance.profiles for v in p.values]
        return values + list(instance.biases)
    actions = instance.actions + ((instance.outside,) if instance.outside else ())
    return [x for a in actions for x in (a.bias, *(v for v, _ in a.support))]


@pytest.mark.parametrize(
    "build",
    [
        *(
            lambda seed=seed, outside=outside: random_correlated(seed, outside, n=8, profiles=12)
            for seed, outside in zip(range(3), OUTSIDE_MODES)
        ),
        *(
            lambda seed=seed, outside=outside: random_independent(seed, outside, n=8, support=4)
            for seed, outside in zip(range(3), OUTSIDE_MODES)
        ),
        lambda: tie_heavy("correlated", 1, "random"),
        lambda: tie_heavy("independent", 2, "fixed"),
        lambda: partition_at_minimal_m((3, 1, 1, 2, 2, 1)),
    ],
)
def test_kernel_needs_no_shared_objects(build):
    inst = build()
    twin = fresh_twin(inst)
    shared, fresh = entries(inst), entries(twin)
    assert len({id(x) for x in shared}) < len(shared) == len({id(x) for x in fresh})
    assert twin == inst and twin.kernel == inst.kernel


def halved_twins(instance):
    """``instance`` with each profile listed twice at half its probability:
    once as two Profiles of fresh XNums, once as one shared Profile.

    The first halves come first and the second halves after all of them,
    so an equal row recurs after other rows.
    """
    shared = [dataclasses.replace(p, prob=p.prob / 2) for p in instance.profiles]
    fresh = [Profile(p.prob, tuple(XNum(v.std, v.inf) for v in p.values)) for p in shared * 2]
    return [dataclasses.replace(instance, profiles=tuple(rows)) for rows in (fresh, shared * 2)]


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_equal_rows_in_distinct_objects_merge_as_one_shared_row(outside):
    # The compile groups rows by object alone: equal value rows held in
    # distinct objects reach the cut-ranking merge apart, and must give the
    # kernel of their shared twin, one ranking per distinct cut ranking.
    for seed in range(4):
        for inst in (
            random_correlated(seed, outside, n=4, profiles=5),
            tie_heavy("correlated", seed, outside, n=4, support=6),
        ):
            fresh, shared = halved_twins(inst)
            assert len(fresh.rows) == 2 * len(shared.rows) == 2 * len(inst.profiles)
            assert fresh.kernel == shared.kernel == reference_compile(shared)


@pytest.mark.parametrize("k", range(2, 11))
def test_merged_log_family_kernel_equals_one_ranking_per_profile(k):
    # 2^k - 1 profiles, of k distinct cut rankings.
    inst = gen_log_family(k)
    assert len(inst.kernel.rankings) == k
    menus = random_menus(inst, 12, k) + [menu for _, menu in threshold_menus(inst)]
    assert_merge_changes_no_result(inst, menus)


def test_merged_kernel_equals_one_ranking_per_profile_on_repeated_rankings():
    # Three actions and twelve profiles on a small grid: cut rankings repeat,
    # often with unequal values, and the iota copies put iota parts on them.
    instances = [
        tie_heavy("correlated", seed, OUTSIDE_MODES[seed % 3], n=3, support=12) for seed in range(9)
    ]
    instances += [with_iota(inst, seed) for seed, inst in enumerate(instances)]
    for inst in instances:
        assert len({p.values for p in inst.profiles}) > len(inst.kernel.rankings)
        assert_merge_changes_no_result(inst, all_menus(inst))


@settings(max_examples=60, deadline=None)
@given(small_instances("correlated", 3, max_den=3, max_support=8))
@example(IOTA_REPEATS)
def test_merged_kernel_equals_one_ranking_per_profile_on_drawn_instances(instance):
    assert_merge_changes_no_result(instance, all_menus(instance))


def scan_threshold(instance):
    """Best threshold by one reference evaluation per threshold menu; first maximizer."""
    best = None
    for t, menu in threshold_menus(instance):
        value = reference(instance, menu).f
        if best is None or value > best[2]:
            best = (t, menu, value)
    return best


def partition_at_minimal_m(values):
    part = PartitionInstance(values)
    return reduce_integer_partition(part, minimal_valid_m(part))[0]


# Every action and the outside option have bias 1: the only thresholds are
# the empty menu and the full one.
EQUAL_BIASES = IndependentInstance(
    (
        Action(xnum(1), ((xnum(0), Fraction(1, 2)), (xnum(2), Fraction(1, 2)))),
        Action(xnum(1), ((xnum(1), Fraction(1, 3)), (xnum(2, 1), Fraction(2, 3)))),
        deterministic(xnum(1), xnum(1)),
    ),
    outside=deterministic(xnum(1), xnum(1)),
)
# The outside option is worth 5 to the principal, but every action pulls the
# agent away from it to a value of at most 1: the empty menu wins.
EMPTY_WINS = IndependentInstance(
    (deterministic(xnum(5), xnum(1)), deterministic(xnum(6), xnum(0))),
    outside=deterministic(xnum(0), xnum(5)),
)
# Correlated: both actions rank above the outside option, worth 5, in every
# profile; action 1 is worth 1 or 6 and action 2 nothing, so each nonempty
# threshold menu is worth 7/2 and the empty menu wins.  Valuing a menu by its
# best value above the outside option alone would give {1} 11/2.
EMPTY_WINS_CORRELATED = CorrelatedInstance(
    biases=(xnum(5), xnum(6)),
    profiles=(
        Profile(Fraction(1, 2), (xnum(1), xnum(0), xnum(5))),
        Profile(Fraction(1, 2), (xnum(6), xnum(0), xnum(5))),
    ),
    outside_bias=xnum(0),
)
# Correlated: adding action 2 moves the first profile's pick from action 1 to
# action 2, of the same value, so both threshold menus are worth 3/2 and the
# earlier step wins.
TIED_STEPS = CorrelatedInstance(
    biases=(xnum(0), xnum(1)),
    profiles=(
        Profile(Fraction(1, 2), (xnum(2), xnum(2))),
        Profile(Fraction(1, 2), (xnum(1), xnum(0))),
    ),
)


@settings(max_examples=100, deadline=None)
@given(UNLIKE_DENS)
@example(EQUAL_BIASES)
@example(EMPTY_WINS)
@example(EMPTY_WINS_CORRELATED)
@example(TIED_STEPS)
@example(gen_log_family(3))
@example(partition_at_minimal_m((1, 2, 3)))
def test_best_threshold_equals_reference_scan(instance):
    assert best_threshold(instance) == scan_threshold(instance)


def test_best_threshold_examples_cover_their_cases():
    assert [t for t, _ in threshold_menus(EQUAL_BIASES)] == [None, xnum(1)]
    assert best_threshold(EMPTY_WINS) == (None, frozenset(), xnum(5))
    assert best_threshold(EMPTY_WINS_CORRELATED) == (None, frozenset(), xnum(5))
    values = [evaluate(TIED_STEPS, menu).f for _, menu in threshold_menus(TIED_STEPS)]
    assert values == [xnum("3/2"), xnum("3/2")]
    assert best_threshold(TIED_STEPS) == (xnum(0), frozenset({1}), xnum("3/2"))


# Steps {1} and {1, 2} are both worth 2: from {1, 2} the agent takes action
# 1's draw of 4 on a tie of agent utility 4, and action 2's value 0 when
# action 1 draws 0.  The earlier step must win.
EQUAL_STEP_VALUES = IndependentInstance(
    (
        Action(xnum(0), ((xnum(0), Fraction(1, 2)), (xnum(4), Fraction(1, 2)))),
        deterministic(xnum(4), xnum(0)),
    )
)
# Steps {1} and {1, 2} are worth 2 and 2 + iota: equal standard parts, and
# the iota part decides for the later step.
IOTA_DECIDES_STEP = IndependentInstance(
    (deterministic(xnum(0), xnum(2)), deterministic(xnum(1), xnum(2, 1)))
)
# Steps {1} and {1, 2} are worth 2 - 19 iota and 5/3 + 8 iota.  The standard
# parts differ by 1/3, one unit over the product of the prob_dens, and the
# iota parts are near their bound, so a packing scale without the factor 2,
# or without that product, lets the iota parts carry into the standard part
# and picks the later step.
LARGE_IOTA_STEPS = IndependentInstance(
    (
        deterministic(xnum(0), xnum(2, -19)),
        Action(xnum(1), ((xnum(1, 14), Fraction(2, 3)), (xnum(3, -4), Fraction(1, 3)))),
    )
)


@settings(max_examples=100, deadline=None)
@given(small_instances("independent", 5, iota=True, max_den=3))
@example(EQUAL_STEP_VALUES)
@example(IOTA_DECIDES_STEP)
@example(LARGE_IOTA_STEPS)
def test_best_threshold_step_is_the_first_maximizer_of_evaluate(instance):
    # Each prefix menu evaluated on its own, on a twin without a kernel.
    twin = dataclasses.replace(instance)
    menus = threshold_menus(twin)
    values = [evaluate(twin, menu).f for _, menu in menus]
    j = values.index(max(values))
    assert best_threshold(instance) == (*menus[j], values[j])


def test_best_threshold_step_examples_cover_their_cases():
    def step_values(instance):
        return [evaluate(instance, menu).f for _, menu in threshold_menus(instance)]

    assert step_values(EQUAL_STEP_VALUES) == [xnum(2), xnum(2)]
    assert best_threshold(EQUAL_STEP_VALUES) == (xnum(0), frozenset({1}), xnum(2))
    assert step_values(IOTA_DECIDES_STEP) == [xnum(2), xnum(2, 1)]
    assert best_threshold(IOTA_DECIDES_STEP) == (xnum(1), frozenset({1, 2}), xnum(2, 1))
    assert step_values(LARGE_IOTA_STEPS) == [xnum(2, -19), xnum("5/3", 8)]
    assert best_threshold(LARGE_IOTA_STEPS) == (xnum(0), frozenset({1}), xnum(2, -19))


# Every value is zero, so every packed difference is zero and the independent
# walk keeps no rank: every menu is worth 0 and the tie rule alone picks {1}.
ALL_ZERO = IndependentInstance((deterministic(xnum(1), xnum(0)), deterministic(xnum(0), xnum(0))))


def kept_ranks(kernel):
    """The ranks whose value differs from the next rank's, 0 past the top one."""
    return [r for r, (a, b) in enumerate(zip(kernel.value, kernel.value[1:] + (0,))) if a != b]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["independent", "correlated"]).flatmap(
        lambda kind: small_instances(kind, 5, iota=True, max_den=3)
    )
)
@example(partition_at_minimal_m((1, 2, 3)))
@example(NEGATIVE_IOTA)
@example(IOTA_REPEATS)
@example(ALL_ZERO)
def test_search_value_equals_evaluate(instance):
    menu, value = instance.kernel.search()
    assert value == evaluate(instance, menu).f


def test_search_value_examples_cover_their_cases():
    part = partition_at_minimal_m((1, 2, 3))
    assert 0 < len(kept_ranks(part.kernel)) < len(part.kernel.value)
    assert NEGATIVE_IOTA.kernel.search() == (frozenset({1}), xnum(2, -1))
    assert IOTA_REPEATS.kernel.search() == (frozenset(), xnum(1, Fraction(-1, 3)))
    assert kept_ranks(ALL_ZERO.kernel) == []
    assert ALL_ZERO.kernel.search() == (frozenset({1}), xnum(0))


# ---------------------------------------------------------------------------
# Classes of interchangeable actions in the independent search
# ---------------------------------------------------------------------------


@st.composite
def repeated_actions(draw):
    """An independent tie grid, iota parts and unlike denominators, with
    1-3 of its actions copied to drawn positions."""
    instance = draw(small_instances("independent", 3, iota=True, max_den=3, max_support=2))
    actions = list(instance.actions)
    for _ in range(draw(st.integers(1, 3))):
        copy = draw(st.sampled_from(actions))
        actions.insert(draw(st.integers(0, len(actions))), copy)
    return IndependentInstance(tuple(actions), instance.outside)


def cdf_rows(kernel, ranks):
    """Each candidate's CDF numerators, over its ``prob_den``, at ``ranks``."""
    return [
        tuple(sum(p for r, p in zip(kernel.ranks[i], kernel.probs[i]) if r <= k) for k in ranks)
        for i in range(len(kernel.ranks))
    ]


HALF = Fraction(1, 2)
# Actions 1 and 3 draw 0 or 2 but differ in bias, so their pairs rank apart
# and their CDF rows over every rank differ; at the kept ranks they are
# equal, so they are one class.  The full menu, which takes both, wins.
ROW_TWINS = IndependentInstance(
    (
        Action(xnum(0), ((xnum(0), HALF), (xnum(2), HALF))),
        Action(xnum(1), ((xnum(1), HALF), (xnum(3), HALF))),
        Action(xnum(1), ((xnum(0), HALF), (xnum(2), HALF))),
    )
)
# The top-ranked pair is worth 0, so its rank is dropped, and the kept rows
# of actions 1 and 2 are equal, (1,), over prob_dens 1 and 2: they are not
# interchangeable.  {2} ties {1, 2} at -iota/2 and wins; a class of both
# would never visit it.
DEN_TWINS = IndependentInstance(
    (
        deterministic(xnum(0), xnum(0, -1)),
        Action(xnum(0), ((xnum(0, -1), HALF), (xnum(0), HALF))),
    )
)
# Actions 1 and 3 are equal, and {1, 2} ties {2, 3} at 7/3: the lowest
# member of the class wins.
LOWEST_TIE = IndependentInstance(
    (
        deterministic(xnum(2), xnum(2)),
        Action(xnum(3), ((xnum(1), Fraction(2, 3)), (xnum(3), Fraction(1, 3)))),
        deterministic(xnum(2), xnum(2)),
    ),
    outside=deterministic(xnum(2), xnum(1)),
)


@settings(max_examples=60, deadline=None)
@given(repeated_actions())
@example(ROW_TWINS)
@example(DEN_TWINS)
@example(LOWEST_TIE)
def test_independent_search_over_repeated_actions_equals_both_scans(instance):
    result = instance.kernel.search()
    assert result == scan_opt(instance)
    assert result[0] == fold_search(instance)[0]


def test_independent_search_class_examples_cover_their_cases():
    kernel = ROW_TWINS.kernel
    kept = cdf_rows(kernel, kept_ranks(kernel))
    every = cdf_rows(kernel, range(len(kernel.value)))
    assert ROW_TWINS.bias_of(1) != ROW_TWINS.bias_of(3)
    assert kept[1] == kept[3] and every[1] != every[3]
    assert kernel.prob_den[1] == kernel.prob_den[3]
    assert brute_force_opt(ROW_TWINS) == (frozenset({1, 2, 3}), xnum("19/8"))

    kernel = DEN_TWINS.kernel
    kept = cdf_rows(kernel, kept_ranks(kernel))
    assert kernel.value[-1] == 0 and kept[1] == kept[2] == (1,)
    assert kernel.prob_den[1:] == (1, 2)
    tied = evaluate(DEN_TWINS, frozenset({1, 2})).f
    assert tied == evaluate(DEN_TWINS, frozenset({2})).f == xnum(0, Fraction(-1, 2))
    assert brute_force_opt(DEN_TWINS) == (frozenset({2}), tied)

    assert LOWEST_TIE.actions[0] == LOWEST_TIE.actions[2]
    tied = evaluate(LOWEST_TIE, frozenset({1, 2})).f
    assert tied == evaluate(LOWEST_TIE, frozenset({2, 3})).f == xnum("7/3")
    assert brute_force_opt(LOWEST_TIE) == (frozenset({1, 2}), tied)


# ---------------------------------------------------------------------------
# Winner-state memo
# ---------------------------------------------------------------------------


def every_result(instance):
    """Each menu's report and decomposition, and, on an independent instance,
    each threshold's derandomization against each menu."""
    menus = list(all_menus(instance))
    out = [(evaluate(instance, menu), decompose(instance, menu)) for menu in menus]
    if isinstance(instance, IndependentInstance):
        thresholds = [t for t, _ in threshold_menus(instance) if t is not None]
        out += [derandomize_interference(instance, m, t) for t in thresholds for m in menus]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["independent", "correlated"]).flatmap(small_instances))
@example(EQUAL_BIASES)
@example(EMPTY_WINS)
@example(gen_log_family(3))
@example(partition_at_minimal_m((1, 2, 3)))
def test_results_are_the_same_before_and_after_best_threshold(instance):
    before = every_result(instance)
    best = best_threshold(instance)
    assert every_result(instance) == before
    assert best_threshold(instance) == best
    fresh = dataclasses.replace(instance)
    assert fresh == instance and "kernel" not in vars(fresh)
    assert every_result(fresh) == before


@pytest.mark.parametrize("outside", OUTSIDE_MODES)
def test_best_threshold_leaves_winner_and_full_menu_unfolded(outside, monkeypatch):
    folds = []
    fold = delmenu.kernel._fold
    monkeypatch.setattr(delmenu.kernel, "_fold", lambda *a: folds.append(a) or fold(*a))
    for seed in range(6):
        inst = random_independent(seed, outside=outside, n=6, support=3)
        _, menu, value = best_threshold(inst)
        folds.clear()
        assert evaluate(inst, menu).f == value
        assert decompose(inst, full_menu(inst)) == decompose(dataclasses.replace(inst), full_menu(inst))
        assert len(folds) == inst.n + inst.has_outside  # the fresh twin's full menu alone


@settings(max_examples=100, deadline=None)
@given(small_instances("independent", max_den=3))
@example(gen_three_approx(Fraction(1, 10)))
def test_memo_changes_no_kernel_equality_repr_or_pickle(instance):
    kernel = instance.kernel
    blob, text, instance_blob = pickle.dumps(kernel), repr(kernel), pickle.dumps(instance)
    best_threshold(instance)
    evaluate(instance, full_menu(instance))
    memo = dict(kernel._memo)
    kernel.search()  # the search's state is its own: the memo stays as it was
    assert kernel._memo == memo and kernel._memo
    assert kernel == reference_compile(instance)
    assert (pickle.dumps(kernel), repr(kernel), pickle.dumps(instance)) == (blob, text, instance_blob)
    assert not pickle.loads(blob)._memo and pickle.loads(instance_blob) == instance


def test_memo_holds_at_most_two_entries_of_tuples():
    rng = random.Random(0)
    for seed in range(20):
        inst = random_independent(seed, n=6, support=3)
        kernel = inst.kernel
        for _ in range(5):
            order = rng.sample(range(1, inst.n + 1), inst.n)
            cuts = sorted(rng.sample(range(1, inst.n), rng.randint(0, inst.n - 1)))
            steps = [order[a:b] for a, b in zip([0, *cuts], [*cuts, inst.n])]
            kernel.best_prefix(steps)
            for menu in random_menus(inst, 4, seed):
                evaluate(inst, menu)
            assert 1 <= len(kernel._memo) <= 2
            for states in kernel._memo.values():
                assert len(states) == 2 and all(isinstance(part, tuple) for part in states)
        states = kernel.winners([1, 2])  # (ranks, masses)
        assert len(states) == 2 and all(isinstance(part, tuple) for part in states)
