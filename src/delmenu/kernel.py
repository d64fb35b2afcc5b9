"""Exact integer choice kernel: each instance compiled once, then integer work only.

:func:`~delmenu.model.choice_key` is a total order over (index, value) pairs,
so an instance's pairs get integer ranks once, by one sort on its integer
form, and every later agent choice is an integer comparison: the agent
picks the highest-ranked feasible pair.  Compiling scales each distinct
value object and every candidate's bias to integer ``(std, inf)``
numerators in one :func:`~delmenu.xnum.numerators` call, over one
denominator for both parts of every number: each (index, value) occurrence
has an integer identity and an integer agent utility, value plus bias.
That lift reads each part once, as its integer ratio, and takes one
``lcm``; probabilities are lifted the same way
(:func:`~delmenu.xnum.fraction_numerators`).  The generators and the loader
make one object per distinct number, so the compile lifts per object: a
table keyed by ``id``, which lives for one call (:func:`_lift`).  The
generators and the loader also make one ``Profile`` per distinct row, and
the correlated compile reads the instance's grouping of them
(:attr:`~delmenu.model.CorrelatedInstance.rows`): each distinct ``Profile``
once, its probability weighed by how often it is listed.  So it lifts and
ranks one row per distinct row: the log family's 2^k - 1 profiles are k
rows.  That is the compile's one grouping of rows.  Equal numbers in
distinct objects still lift to equal integers, so equal value rows in
distinct objects rank and cut alike, and the merge of equal cut rankings
adds them exactly: no kernel depends on the sharing.
Pairs are ranked on those integers, never by hashing exact rationals:
:func:`_rank_pairs` makes one key per pair and one sort of the pairs'
positions, and the same numerators fill the kernel's value rows.

Both kernels hold values in one format: a value's numerators ``std`` and
``inf`` packed ``std * scale + inf`` in one integer, on a ``scale`` fixed at
compile time.  The scale is odd and exceeds twice the largest |inf| that any
sum the kernel forms can reach, so sums of packed values add and compare as
integers, as their ``(std, inf)`` pairs do lexicographically, and unpack to
those pairs exactly.

* A correlated instance becomes one ranking per distinct cut ranking of its
  profiles (the ranking-based choice model of Aouad, Farias, Levi and
  Segev, Oper. Res. 2018), stored once as the table every walk reads: each
  candidate's bit with its packed value times the profile's probability,
  favorite first and cut after the outside option.  The pick from a menu is
  the first menu member in the ranking, with the outside option, always
  feasible, as the floor.  Profiles whose cut rankings list the same
  candidates in the same order pick alike from every menu, so they share
  one ranking, whose entries and probability are their sums: the log
  family's 2^k - 1 profiles make k rankings.  Equal value rows have equal
  cut rankings, so they merge too.  The rankings are stored in the order
  the search walks them.
* An independent instance becomes, per action, its support as integer ranks
  and probabilities, which the winner-state DP folds, and one packed value
  per rank.  Supports need no sort and no deduplication:
  :func:`~delmenu.model.make_support` merges equal values and sorts by
  value, and for one action, of one bias, value order is rank order.  So
  the pairs are distinct as listed, and the compile reads their ranks by
  position.

Values and biases are integer numerators over that one denominator, and
probabilities over denominators of their own.  Only kernels hold that
encoding: every method returns indices, exact rationals and
:class:`~delmenu.xnum.XNum` values, built once per call.  Each kernel keeps
every candidate's bias as numerators (``bias``), which order as the biases
do; ``solve`` sorts actions into threshold steps on them.  Both kernels
report a menu from the same per-index integer counts, packed totals and
pick-probability numerators: its value split by chosen action (``tally``),
and its surplus and bias-difference decomposition (``split``), where a pick
probability's numerator times a bias numerator needs no new denominator.
Only those reports unpack, and only what they hold.  Biases stay
``(std, inf)`` pairs, since the gap sums in ``split`` can exceed the scale.
Kernels are derived data: the instances build and cache them on first use
(their ``kernel`` attribute).

Each kernel also finds the optimal menu (``search``), and the best of a
nested sequence of menus, such as the threshold menus in bias order
(``best_prefix``), with no evaluator.  :meth:`CorrelatedKernel.search` and
:meth:`IndependentKernel.search` describe the two walks, the two
``best_prefix`` methods their passes, and :meth:`IndependentKernel.winners`
the memo of winner states that the independent pass leaves, which changes
no result.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import prod
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .model import (
    OUTSIDE,
    CorrelatedInstance,
    IndependentInstance,
    Menu,
    candidates,
    choice_key,
    full_menu,
)
from .xnum import ZERO, Rational, XNum, fraction_numerators, numerators

_ZERO = Fraction(0)
Report = tuple[XNum, dict[int, XNum], dict[int, Fraction]]
# Per index: packed contribution and pick-probability numerator, then their
# denominators (den, freq_den).
Counts = tuple[list[int], list[int], int, int]


def _ratio(num: Rational, den: int) -> Fraction:
    # Most iota channels and many contributions are zero; skip their gcd.
    return Fraction(num, den) if num else _ZERO


def _exact(std: Rational, inf: Rational, den: int) -> XNum:
    """The number of numerators ``std`` and ``inf``, maybe fractions, over ``den``."""
    return XNum(_ratio(std, den), _ratio(inf, den))


def _unpack(t: int, scale: int) -> tuple[int, int]:
    """The ``(std, inf)`` of ``t``, packed ``std * scale + inf`` with |inf| at most ``scale // 2``."""
    half = scale // 2
    std, inf = divmod(t + half, scale)
    return std, inf - half


class _Counted:
    """The reports both kernels derive from their per-index integer counts.

    A kernel's ``counts(feasible)`` gives the menu's picks per index (see
    :data:`Counts`), each contribution packed ``std * scale + inf`` on the
    kernel's ``scale``; any sum of them unpacks exactly, and only what a
    report holds is unpacked.  Its ``bias[i]`` is index i's bias as ``(std,
    inf)`` numerators, kept apart since gap sums can exceed the scale; a
    pick probability's numerator times a bias numerator is over the
    contributions' denominator, so each gap is one integer sum per part.
    """

    __slots__ = ()

    def tally(self, feasible: list[int]) -> Report:
        """``(f, contrib, freq)`` of the picks from ``feasible``, the menu's candidates.

        Many candidates are never picked; their zero contribution is not unpacked.
        """
        total, freq, den, freq_den = self.counts(feasible)
        scale = self.scale
        contrib = {
            i: _exact(*_unpack(total[i], scale), den) if total[i] else ZERO for i in feasible
        }
        f = _exact(*_unpack(sum(total), scale), den)
        return f, contrib, {i: _ratio(freq[i], freq_den) for i in feasible}

    def split(self, feasible: list[int]) -> tuple[int, XNum, XNum]:
        """``(top, sur, bdif)`` of the picks from ``feasible``, the menu's candidates.

        ``top`` is a feasible index of largest bias u; ``bdif`` is the sum
        over picks of freq_i * (u - b_i), and ``sur`` the rest of the value.
        """
        total, freq, den, _ = self.counts(feasible)
        bias = self.bias
        top = max(feasible, key=bias.__getitem__)
        u_std, u_inf = bias[top]
        gap_std = sum(freq[i] * (u_std - bias[i][0]) for i in feasible)
        gap_inf = sum(freq[i] * (u_inf - bias[i][1]) for i in feasible)
        std, inf = _unpack(sum(total), self.scale)
        sur = _exact(std - gap_std, inf - gap_inf, den)
        return top, sur, _exact(gap_std, gap_inf, den)


def _wins(value, menu: int, best, best_menu: int | None) -> bool:
    """Whether ``menu`` of ``value`` beats the incumbent ``best_menu`` of ``best``.

    Menus are bit masks, bit i for action i.  A higher value wins; equal
    values go to the smaller menu, then to the lexicographically smaller
    sorted one, as in a size-then-lexicographic scan that keeps the first
    maximizer, whatever order the menus come in.  Of two sorted menus of one
    size, the smaller holds the lowest index at which they differ: below it
    they agree.  Any menu beats no incumbent (``best_menu`` None).

    The correlated walk also asks it of inner nodes, with a node's bound
    for ``value`` and its included set for ``menu``.  That is exact because
    every menu below a node holds its included set: each is no smaller than
    the set, by size and then sorted indices, so if the set, valued at the
    bound, does not win, no menu below, worth at most the bound, does.
    """
    if best_menu is None or value != best:
        return best_menu is None or value > best
    size, best_size = menu.bit_count(), best_menu.bit_count()
    if size != best_size:
        return size < best_size
    differ = menu ^ best_menu
    return menu & differ & -differ != 0


def _members(menu: int) -> Menu:
    """The indices of the bit mask ``menu``."""
    return frozenset(i for i in range(menu.bit_length()) if menu >> i & 1)


Pair = tuple[int, tuple[int, int]]  # an index and its value's (std, inf) numerators


def _rank_pairs(pairs: Sequence[Pair], bias: Mapping[int, tuple[int, int]]) -> list[int]:
    """The rank of each distinct (index, value) pair in the agent's order, in input order.

    Rank 0 is the least preferred pair.  Values and ``bias[i]`` are integer
    numerators over the same denominator, so one
    :func:`~delmenu.model.choice_key` per pair, in its integer form, gives
    keys that compare as integers; the tie rule lives in that function
    alone.  One sort of the positions by their keys orders the pairs, and
    each position gets its place in that order.
    """
    indices, values = zip(*pairs)
    keys = list(map(choice_key, indices, values, map(bias.__getitem__, indices)))
    ranks = [0] * len(keys)
    for rank, k in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        ranks[k] = rank
    return ranks


class _CorrelatedTables(NamedTuple):
    """The fields of :class:`CorrelatedKernel`, which compare, print and pickle it."""

    rankings: tuple[tuple[tuple[int, int], ...], ...]
    scale: int
    prob: tuple[int, ...]
    den: int
    prob_den: int
    bias: tuple[tuple[int, int] | None, ...]
    top: int
    least_prob: int


class CorrelatedKernel(_CorrelatedTables, _Counted):
    """One ranking per distinct cut ranking of the profiles, with integer weights.

    ``rankings[k]`` lists candidates from the agent's favorite down, cut
    after the outside option: nothing ranked below it is ever picked.
    Profiles whose cut rankings list the same candidates in the same order
    pick the same candidate from every menu, so they share one ranking, and
    ``prob[k]`` is the sum of their probabilities over ``prob_den``.  Each
    entry is a candidate's bit, ``1 << i`` for index i, and the sum over
    those profiles of its value times the profile's probability, whose
    numerators ``std`` and ``inf`` over ``den`` are stored packed as ``std *
    scale + inf``.  The rankings are in walk order (see :meth:`search`).
    ``least_prob`` is the least likely profile's probability over
    ``prob_den``, as one profile is listed: not weighed by how often its
    row is listed, nor summed with rows that share a value row or a
    ranking.  ``bias[i]`` is index i's bias as ``(std,
    inf)`` numerators over the value denominator, ``den // prob_den`` (None
    for a missing outside option), and ``top`` the largest action value's
    std numerator over it, the outside option's excluded: the rankings are
    cut, so they may not hold it.  ``scale`` is odd and exceeds twice the
    sum over profiles of each one's largest |inf|, so a sum of packed
    values, one per ranking at most, has |inf| at most ``scale // 2``: it
    adds and compares as the pairs do, lexicographically, and its pair is
    recovered exactly.

    Every walk reads the rankings: ``counts`` takes each ranking's first
    feasible entry, and ``search`` and ``best_prefix`` value menus by one
    bound (:meth:`_bound`), which is a menu's exact value at a leaf.
    """

    __slots__ = ()

    def counts(self, feasible: list[int]) -> Counts:
        """Per-index integer counts of the picks from ``feasible``, values packed."""
        mask = sum(1 << i for i in feasible)
        total, freq = [0] * len(self.bias), [0] * len(self.bias)
        for ranking, prob_k in zip(self.rankings, self.prob):
            for bit, value in ranking:
                if mask & bit:
                    break
            i = bit.bit_length() - 1
            total[i] += value
            freq[i] += prob_k
        return total, freq, self.den, self.prob_den

    def largest_std(self) -> Fraction:
        """The largest standard part of any action's value; the outside option is no action."""
        return _ratio(self.top, self.den // self.prob_den)

    def least_mass(self) -> Fraction:
        """The probability of the least likely profile."""
        return Fraction(self.least_prob, self.prob_den)

    def _bound(self, live: int, stop: int, k: int = 0) -> int:
        """An exact upper bound on the terms of rankings k onward of every menu below a node.

        ``live`` holds the bits of the included set I plus the undecided set
        U plus the outside option, and ``stop`` those of I plus the outside
        option.  Each ranking picks a member of ``live`` ranked at or above
        the first member of ``stop``, so the best value among those bounds
        the ranking's term, and the bounds' sum bounds every menu:
        lexicographic order respects addition.  With U empty, ``live ==
        stop`` and the bound is the menu's exact value.  Values are packed,
        so bounds add and compare as integers.
        """
        total = 0
        for ranking in self.rankings[k:]:
            top = None
            for bit, value in ranking:
                if live & bit:
                    if top is None or value > top:
                        top = value
                    if stop & bit:
                        break
            total += top
        return total

    def search(self) -> tuple[Menu, XNum]:
        """The best menu and its value, by a depth-first walk over the rankings' picks.

        An optimal menu holds no action that no ranking picks: the same menu
        without it ties and is smaller.  So the walk decides each ranking's
        pick in turn, in walk order, and a leaf's menu is the set of picks.
        Walk order takes first the rankings whose favorite has the largest
        total value, so a good incumbent comes early.
        A node is ``(k, included, excluded, acc, pos)``: rankings before k
        have their picks fixed, worth ``acc`` in all, and ranking k is
        scanned from position ``pos``, every entry above it excluded.  The
        scan skips an excluded entry; an included entry, or the outside
        option, is the ranking's pick, and the scan goes on to the next
        ranking, so a ranking whose pick the decided entries fix costs no
        branch.  An undecided entry branches: the include child makes it the
        pick and goes on to ranking k + 1, and the exclude child goes on down
        ranking k.  A fixed pick is final, since every entry above it is
        excluded, so a leaf's value is ``acc`` exactly, and an action still
        undecided at a leaf ranks below every pick and is left out.  Each
        menu whose every action is some ranking's pick is one leaf, and no
        leaf holds an action that no ranking picks.  Without an outside
        option, an exclude child that would exclude every action holds only
        the empty menu, and it is not made.

        A node is valued by ``acc`` plus :meth:`_bound` over the remaining
        rankings, which is exact at a leaf: the first-choice model of
        Bertsimas and Mišić (Oper. Res. 2019), with a combinatorial bound in
        place of their integer program.  A node is dropped unless :func:`_wins`
        holds for that bound and its included set I against the incumbent.
        Every menu below the node holds I and is worth at most the bound, so
        when the pair does not win, each such menu is worth less than the
        incumbent, or ties it and is no smaller than I by size and then
        sorted indices, and loses the tie as well.  So a leaf that is not
        dropped is the new incumbent.  The walk keeps its nodes on a stack
        of its own, so no instance is too deep for it: a node pushes its
        exclude child, then its include child, which pops first.  The bound
        at the winner's leaf is its packed exact value, over ``den``.
        """
        rankings = self.rankings
        depth = len(rankings)
        outside = 0 if self.bias[OUTSIDE] is None else 1  # the outside option's bit
        every = (1 << len(self.bias)) - 2 | outside
        best = best_menu = None
        stack = [(0, outside, 0, 0, 0)]
        while stack:
            k, included, excluded, acc, pos = stack.pop()
            while k < depth:
                bit, value = rankings[k][pos]
                if excluded & bit:
                    pos += 1
                elif included & bit:  # the ranking's pick is fixed
                    k, acc, pos = k + 1, acc + value, 0
                else:  # undecided: the node branches on it
                    break
            bound = acc + self._bound(every & ~excluded, included, k)
            if not _wins(bound, included & ~1, best, best_menu):
                continue
            if k == depth:
                best, best_menu = bound, included & ~1
            else:
                # With every action excluded, and no outside option, only the
                # empty menu is left.
                if excluded | bit != every:
                    stack.append((k, included, excluded | bit, acc, pos + 1))
                stack.append((k + 1, included | bit, excluded, acc + value, 0))
        return _members(best_menu), _exact(*_unpack(best, self.scale), self.den)

    def best_prefix(self, steps: list[list[int]]) -> int:
        """The step j whose menu, the union of ``steps[0..j]``, has the highest value.

        Each step's menu is valued by :meth:`_bound` at its leaf, where
        ``live`` and ``stop`` are both the menu plus the outside option.
        Ties go to the earlier step.
        """
        menu = 0 if self.bias[OUTSIDE] is None else 1
        values = []
        for added in steps:
            menu |= sum(1 << i for i in added)
            values.append(self._bound(menu, menu))
        return values.index(max(values))


def _lift(objects: Sequence[XNum]) -> tuple[dict[int, tuple[int, int]], int]:
    """Each distinct object of ``objects`` lifted once, by its ``id``, and the denominator.

    The ids are only valid while the caller holds the objects: the table is
    the caller's, for the length of one compile.
    """
    distinct = dict(zip(map(id, objects), objects))
    lifted, den = numerators(list(distinct.values()))
    return dict(zip(distinct, lifted)), den


def compile_correlated(instance: CorrelatedInstance) -> CorrelatedKernel:
    # A profile lists its values in candidate order: the actions, then the outside option.
    indices = candidates(instance, full_menu(instance))
    # Each distinct Profile object once (the instance's rows), weighed by its
    # multiplicity, before anything is lifted.
    prob, prob_den = fraction_numerators(profile.prob for profile, _ in instance.rows)
    biases = [instance.bias_of(i) for i in indices]
    lifted, den = _lift([*chain.from_iterable(p.values for p, _ in instance.rows), *biases])
    bias = dict(zip(indices, map(lifted.__getitem__, map(id, biases))))
    rows = [
        (tuple(map(lifted.__getitem__, map(id, profile.values))), p * count)
        for (profile, count), p in zip(instance.rows, prob)
    ]
    distinct = list({pair for row, _ in rows for pair in zip(indices, row)})
    rank = dict(zip(distinct, _rank_pairs(distinct, bias)))
    scale = 2 * sum(max(abs(inf) for _, inf in row) * p for row, p in rows) + 1

    # Rows whose cut rankings list the same candidates in the same order
    # merge: their packed entries add, and their probabilities add.  Equal
    # value rows in distinct objects rank and cut alike, so they merge here,
    # exactly, and no kernel depends on the sharing.
    merged: dict[tuple[int, ...], tuple[list[int], int]] = {}
    total = [0] * (instance.n + 1)  # each candidate's packed values, summed
    for row, p in rows:
        bits, packed = [], []
        for i, (std, inf) in sorted(zip(indices, row), key=rank.__getitem__, reverse=True):
            value = (std * scale + inf) * p
            bits.append(1 << i)
            packed.append(value)
            total[i] += value
            if i == OUTSIDE:
                break
        key = tuple(bits)
        sums, q = merged.get(key, (repeat(0), 0))
        merged[key] = list(map(add, sums, packed)), q + p
    # Walk order: by decreasing total of each ranking's favorite; the sort is stable.
    order = sorted(merged, key=lambda bits: total[bits[0].bit_length() - 1], reverse=True)
    return CorrelatedKernel(
        tuple(tuple(zip(bits, merged[bits][0])) for bits in order),
        scale,
        tuple(merged[bits][1] for bits in order),
        den * prob_den,
        prob_den,
        tuple(map(bias.get, range(instance.n + 1))),
        max(std for i, (std, _) in distinct if i != OUTSIDE),
        min(prob),
    )


class _IndependentTables(NamedTuple):
    """The fields of :class:`IndependentKernel`, which compare, print and pickle it."""

    ranks: tuple[tuple[int, ...], ...]
    probs: tuple[tuple[int, ...], ...]
    prob_den: tuple[int, ...]
    owner: tuple[int, ...]
    value: tuple[int, ...]
    scale: int
    den: int
    bias: tuple[tuple[int, int] | None, ...]


States = tuple[tuple[int, ...], tuple[int, ...]]  # winner states: (ranks, masses)


class IndependentKernel(_IndependentTables, _Counted):
    """Per-action draws as integer ranks and probabilities.

    ``ranks[i]`` and ``probs[i]`` list index i's support in increasing rank,
    with probabilities as numerators over ``prob_den[i]`` (index 0 is the
    outside option, empty when there is none).  The pair of rank r belongs
    to index ``owner[r]``, and its value's numerators ``std`` and ``inf``
    over ``den`` are stored packed as ``value[r] = std * scale + inf``.
    ``bias[i]`` is index i's bias as ``(std, inf)`` numerators over ``den``
    too (None for a missing outside option).  A menu's value over ``den``
    times every ``prob_den`` is a sum of packed values times masses that
    sum to at most the product of every ``prob_den``, so its |inf| is at
    most the largest |inf| times that product; ``scale`` exceeds twice
    that, so such sums add and compare as their ``(std, inf)`` pairs do,
    lexicographically, and unpack to them, as in the correlated kernel.

    Winner states are ``(ranks, masses)``, and :func:`_fold` folds an
    action's support into them.  The masses are over the product of the
    folded actions' ``prob_den``, which is their sum: a fold multiplies the
    total by the folded action's ``prob_den`` and drops only zero masses.
    :meth:`winners`, :meth:`counts`, :meth:`best_prefix` and the memo read
    winner states, and :meth:`total` values them; :meth:`search` walks a
    state of its own.  Both :meth:`best_prefix` and :meth:`search` put
    menus on one footing by ``rest``, the product of the ``prob_den`` of the
    candidates not folded: a menu's value is then a packed integer over
    ``den`` times the product of every candidate's ``prob_den``.
    """

    # Winner states by feasible set: set whole by best_prefix, read by winners.
    # Not a field, so no part of the kernel's equality, repr or pickle.
    _memo: Mapping[frozenset[int], States] = MappingProxyType({})

    def __getstate__(self) -> None:
        # Pickles and copies carry the fields alone, so a filled memo leaves
        # the bytes as they were.
        return None

    def winners(self, feasible: list[int]) -> States:
        """Winner states of the DP folded over ``feasible``: (ranks, masses).

        A state is a rank: the pair that is the agent's favorite so far, with
        probability ``mass / sum(masses)``; ranks ascend.  The winner is a
        max under a total order, so actions fold in any order, and
        independence makes each fold exact.  Folding nothing leaves the one state of rank -1,
        which every draw beats.  A feasible set that the memo holds is not
        folded again: fold order changes no state, so the stored states are
        exactly those a fresh fold would give.
        """
        states = self._memo.get(frozenset(feasible))
        if states is None:
            states = (-1,), (1,)
            for i in feasible:
                states = _fold(*states, self.ranks[i], self.probs[i])
        return states

    def total(self, ranks: Sequence[int], masses: Sequence[int]) -> int:
        """Sum of value times mass over states, packed, over ``den``."""
        return sum(map(mul, map(self.value.__getitem__, ranks), masses))

    def counts(self, feasible: list[int]) -> Counts:
        """Per-index integer counts of the winner states of ``feasible``, values packed."""
        ranks, masses = self.winners(feasible)
        width = len(self.ranks)
        total, freq = [0] * width, [0] * width
        for r, m in zip(ranks, masses):
            i = self.owner[r]
            total[i] += self.value[r] * m
            freq[i] += m
        den = sum(freq)
        return total, freq, self.den * den, den

    def largest_std(self) -> Fraction:
        """The largest standard part of any action's value; the outside option is no action."""
        top = max(v for v, i in zip(self.value, self.owner) if i != OUTSIDE)
        return _ratio(_unpack(top, self.scale)[0], self.den)

    def least_mass(self) -> Fraction:
        """The probability of the least likely joint draw: each candidate's least mass, multiplied."""
        return Fraction(prod(min(probs) for probs in self.probs if probs), prod(self.prob_den))

    def search(self) -> tuple[Menu, XNum]:
        """The best menu and its value, by a depth-first walk over classes of equal actions.

        The draws are independent, so the winner ranks at most r with
        probability G(r), the product over the feasible candidates of their
        CDFs at r.  Summation by parts gives a menu's value as the sum over
        ranks r of G(r) * (v_r - v_{r+1}), where v_r is rank r's value and v
        is 0 past the top rank; the term G(-1) * v_0 drops out, since G(-1)
        is 0 once anything is feasible.  A node holds that sum's terms, one
        per rank, ``rest`` and its menu, a bit mask of the included indices.
        The root's terms are the value differences times the outside
        option's CDF row, if there is one, and its ``rest`` the product of
        every other ``prob_den``.  An include multiplies the terms by the
        action's CDF row and divides ``rest`` by its ``prob_den``.  Only the
        ranks whose packed difference is nonzero keep a term and a column of
        the CDF rows: a zero term stays zero under every product, so no sum
        changes.

        So a menu's value depends only on its actions' kept rows and
        ``prob_den``, and actions equal in both are interchangeable: they
        form a class, and a menu's value depends only on how many members of
        each class it holds.  Among menus of one value and the same counts,
        the one that takes each class's lowest-indexed members is the
        smallest sorted menu, the one the tie rule keeps.  So the walk
        decides the classes in the order of their first members, and a class
        of m members, in index order, has m + 1 children, which take its 0..m
        lowest members: Π(m + 1) leaves over the classes instead of 2^n.  On
        a partition reduction equal integers are equal actions, and most
        ranks are dropped: its actions share three values and one bias, so
        equal values sit next to each other in the agent's order.

        The walk keeps its nodes on a stack of its own, so no instance is
        too deep for it.  It steps through the classes' members in order:
        a node at a member pushes the child that takes no more of its class,
        which resumes past the class, and goes on at once to include the
        member.  So each member taken costs one row product and one division
        of ``rest``, and a class of one member costs an include and an
        exclude, with half the pushes and pops of a walk that pushes both
        children.  There is no bound, so only leaves sum: a leaf's value,
        ``sum(terms) * rest``, is over ``den`` times every ``prob_den``, and
        :func:`_wins` keeps the winner, called only for a leaf whose value
        reaches the incumbent's; the empty menu counts only with an outside
        option.  Values are packed, so leaves compare as their ``(std,
        inf)`` pairs do, and the winner's unpacks to its exact value.  The
        rows and classes are built here, not at compile time, since most
        compiled kernels are never searched.
        """
        diff = list(map(sub, self.value, self.value[1:] + (0,)))
        below = [*accumulate(map(bool, diff), initial=0)]  # kept ranks below each rank
        cdf = []
        for ranks, probs in zip(self.ranks, self.probs):
            # A CDF row is constant between the action's own ranks: read it
            # at the kept ranks alone, one run per rank of its support.
            row: list[int] = []
            mass = start = 0
            for r, p in zip(ranks, probs):
                row += [mass] * (below[r] - start)
                mass, start = mass + p, below[r]
            row += [mass] * (below[-1] - start)
            cdf.append(tuple(row))
        prob_den = self.prob_den
        classes: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for i in range(1, len(cdf)):
            classes.setdefault((cdf[i], prob_den[i]), []).append(1 << i)
        steps = []  # class by class, per member: the step past its class, row, prob_den, bit
        for (row, den), bits in classes.items():
            end = len(steps) + len(bits)
            for bit in bits:
                steps.append((end, row, den, bit))
        outside = bool(self.ranks[OUTSIDE])
        terms = list(filter(None, diff))
        if outside:
            terms = list(map(mul, terms, cdf[OUTSIDE]))
        depth = len(steps)
        best = best_menu = None
        whole = prod(prob_den)
        stack = [(0, terms, whole // prob_den[OUTSIDE], 0)]
        while stack:
            k, terms, rest, menu = stack.pop()
            while k < depth:
                end, row, den, bit = steps[k]
                stack.append((end, terms, rest, menu))
                terms, rest, menu = list(map(mul, terms, row)), rest // den, menu | bit
                k += 1
            if menu or outside:
                value = sum(terms) * rest
                if (best_menu is None or value >= best) and _wins(value, menu, best, best_menu):
                    best, best_menu = value, menu
        return _members(best_menu), _exact(*_unpack(best, self.scale), self.den * whole)

    def best_prefix(self, steps: list[list[int]]) -> int:
        """The step j whose menu, the union of ``steps[0..j]``, has the highest value.

        One pass: the outside option is folded first, then each step's
        actions, each once; the steps are disjoint.  ``rest`` starts at the
        product of every ``prob_den`` but the outside option's and drops
        each folded action's.  A step's value is its winner states'
        :meth:`total` times ``rest``: a packed integer over ``den`` times
        every ``prob_den``, which orders the steps as their exact values do.
        Ties go to the earlier step.  The pass replaces the memo with the
        winner states of the best step's menu and of the last step's, the
        union of all steps, so :meth:`winners` does not fold those menus
        again.  It folds rather than build :meth:`search`'s CDF rows: it
        visits each action once, so rows as long as the whole ranking would
        cost more to build than they save, and the memo must hold winner
        states, which the reports read.
        """
        feasible = [OUTSIDE] if self.ranks[OUTSIDE] else []
        states = self.winners(feasible)
        rest = prod(self.prob_den) // self.prob_den[OUTSIDE]
        best = None
        for j, added in enumerate(steps):
            for i in added:
                states = _fold(*states, self.ranks[i], self.probs[i])
                rest //= self.prob_den[i]
            feasible += added
            value = self.total(*states) * rest
            if best is None or value > best[0]:
                best = value, j, len(feasible), states
        _, j, size, best_states = best
        self._memo = {frozenset(feasible[:size]): best_states, frozenset(feasible): states}
        return j

    def stand_in(self, kept: list[int], pinned: list[int], bias: XNum) -> tuple[XNum, XNum, XNum]:
        """Value of ``pinned``'s deterministic stand-in, of ``kept`` plus it, and of ``kept`` plus ``pinned``.

        A joint realization of ``pinned`` is scored by the expected value of
        the agent's pick from it plus the random draws of ``kept``, and its
        top rank alone decides that: the top wins the kept winner states
        ranked below it, of mass ``heads[cut]``, and the rest win over it, of
        packed :meth:`total` ``tails[cut]``.  So the scan reads the pinned
        actions' own ranks, never their joint realizations.  A rank r is
        some realization's top exactly when r is at least ``floor``, the
        largest of the pinned actions' lowest ranks, and the first such
        realization in canonical order (the last action varying fastest)
        holds r at its owner and every other action's lowest rank.  The scan
        visits the tops in the order of those first realizations: ``floor``,
        the top of the realization of lowest ranks, then the pinned actions
        from the last back, each by ascending rank.  So ``min``, which keeps
        the first minimizer, finds the first worst realization in canonical
        order; shared denominators let packed sums compare.  The worst
        one's top pair, unpacked and re-biased to ``bias`` with its agent
        utility kept, is the stand-in, with an index above every action's;
        its value stays a ``(std, inf)`` pair, since a bias gap can exceed
        the scale.  It wins the kept winner states ranked below it; agent
        utilities can tie, so it is placed by its integer choice key over
        ``den``, against the unpacked pairs, where ``bias`` scales to exact
        rational numerators that compare with the pairs'.  The same
        ``heads`` and ``tails`` value the kept part at that place.  The
        pinned actions, folded onto the kept winner states, give the winner
        states of ``kept`` plus ``pinned``, which :meth:`total` values.
        """
        ranks, masses = self.winners(kept)
        heads = [0, *accumulate(masses)]
        # With nothing kept, the one state's rank -1 is below every top, so
        # tails[0], which reads value[-1], is never used.
        terms = list(map(mul, map(self.value.__getitem__, ranks), masses))
        tails = [*accumulate(reversed(terms), initial=0)][::-1]

        def conditional(top: int) -> int:
            cut = bisect_left(ranks, top)
            return self.value[top] * heads[cut] + tails[cut]

        floor = max(self.ranks[i][0] for i in pinned)
        tops = chain([floor], (r for i in reversed(pinned) for r in self.ranks[i] if r > floor))
        top = min(tops, key=conditional)
        t = bias.std * self.den, bias.inf * self.den
        top_std, top_inf = _unpack(self.value[top], self.scale)
        bias_std, bias_inf = self.bias[self.owner[top]]
        value = top_std + bias_std - t[0], top_inf + bias_inf - t[1]

        def pair_key(r: int) -> tuple:
            i = self.owner[r]
            return choice_key(i, _unpack(self.value[r], self.scale), self.bias[i])

        stand_in_key = choice_key(len(self.ranks), value, t)
        below = bisect_left(range(len(self.owner)), stand_in_key, key=pair_key)
        cut = bisect_left(ranks, below)
        std, inf = _unpack(tails[cut], self.scale)
        mass = heads[cut]
        kept_part = _exact(std + value[0] * mass, inf + value[1] * mass, self.den * heads[-1])
        states = ranks, masses
        for i in pinned:
            states = _fold(*states, self.ranks[i], self.probs[i])
        both = _exact(*_unpack(self.total(*states), self.scale), self.den * sum(states[1]))
        return _exact(*value, self.den), kept_part, both


def _fold(
    ranks: Sequence[int],
    masses: Sequence[int],
    new_ranks: tuple[int, ...],
    new_masses: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Winner states after one more independent action; every tuple ascends by rank.

    An incumbent of rank r keeps winning against every new draw ranked below
    r; a new draw of rank s wins against every incumbent ranked below s.
    States of zero mass are dropped.
    """
    out_ranks: list[int] = []
    out_masses: list[int] = []
    lo = below_new = below_old = 0
    for s, q in zip(new_ranks, new_masses):
        hi = bisect_left(ranks, s, lo)
        if hi > lo:
            segment = masses[lo:hi]
            if below_new:
                out_ranks += ranks[lo:hi]
                out_masses += map(mul, segment, repeat(below_new))
            below_old += sum(segment)
            lo = hi
        if below_old:
            out_ranks.append(s)
            out_masses.append(q * below_old)
        below_new += q
    out_ranks += ranks[lo:]
    out_masses += map(mul, masses[lo:], repeat(below_new))
    return tuple(out_ranks), tuple(out_masses)


def compile_independent(instance: IndependentInstance) -> IndependentKernel:
    # Supports are merged and sorted by value (make_support), and one
    # action's bias is fixed, so each support is distinct pairs in rank order.
    indices = candidates(instance, full_menu(instance))
    supports = [instance.support_of(i) for i in indices]
    draws = [v for support in supports for v, _ in support]
    biases = [instance.bias_of(i) for i in indices]
    lifted, den = _lift(draws + biases)
    owners = [i for i, support in zip(indices, supports) for _ in support]
    pairs = list(zip(owners, map(lifted.__getitem__, map(id, draws))))
    bias = dict(zip(indices, map(lifted.__getitem__, map(id, biases))))
    rank = _rank_pairs(pairs, bias)

    width = instance.n + 1
    ranks: list[tuple[int, ...]] = [()] * width
    probs: list[tuple[int, ...]] = [()] * width
    prob_den = [1] * width
    ranked = iter(rank)  # in draw order: action by action
    for i, support in zip(indices, supports):
        ranks[i] = tuple(islice(ranked, len(support)))
        masses, prob_den[i] = fraction_numerators([p for _, p in support])
        probs[i] = tuple(masses)
    by_rank = [None] * len(pairs)  # each pair at its rank
    for r, pair in zip(rank, pairs):
        by_rank[r] = pair
    owner, values = zip(*by_rank)
    std, inf = zip(*values)
    scale = 2 * max(map(abs, inf)) * prod(prob_den) + 1
    return IndependentKernel(
        tuple(ranks),
        tuple(probs),
        tuple(prob_den),
        owner,
        tuple([s * scale + i for s, i in zip(std, inf)]),
        scale,
        den,
        tuple(map(bias.get, range(width))),
    )
