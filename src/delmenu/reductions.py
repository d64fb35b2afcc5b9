"""Hardness-reduction constructors and their independent validation oracles.

Both reductions come with the combinatorial oracle for the source problem
(exact minimum vertex cover, exact subset-sum), so the claimed equivalences
can be checked instance by instance with exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DEFAULT_ACTION_CAP,
    Action,
    CapExceededError,
    CorrelatedInstance,
    IndependentInstance,
    InvalidInstanceError,
    Profile,
    check_value_cap,
)
from .xnum import IOTA, XNum, parse_integer


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 1-indexed vertices."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertices < 1:
            raise InvalidInstanceError("graph needs at least one vertex")
        seen = set()
        canonical = []
        for u, v in self.edges:
            if not (1 <= u <= self.vertices and 1 <= v <= self.vertices):
                raise InvalidInstanceError(f"edge ({u}, {v}) endpoint out of range")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise InvalidInstanceError(f"duplicate edge {edge}")
            seen.add(edge)
            canonical.append(edge)
        object.__setattr__(self, "edges", tuple(canonical))


def parse_graph(text: str, vertices: int | None = None) -> Graph:
    """Parse edge-list text: one "u v" pair per line, 1-indexed.

    Blank lines and lines starting with '#' are skipped.  The vertex count
    defaults to the largest endpoint; pass ``vertices`` to keep isolated
    vertices.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInstanceError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((parse_integer(parts[0]), parse_integer(parts[1])))
        except ValueError as exc:
            raise InvalidInstanceError(f"line {lineno}: non-integer endpoint: {exc}") from exc
    if vertices is None:
        if not edges:
            raise InvalidInstanceError("empty edge list; pass an explicit vertex count")
        vertices = max(max(e) for e in edges)
    return Graph(vertices, tuple(edges))


def min_vertex_cover(g: Graph, cap_n: int = DEFAULT_ACTION_CAP) -> int:
    """Exact minimum vertex cover size by branching on a vertex of maximum degree.

    Every cover holds a vertex v or all of its neighbours, so the vertex v
    with the most uncovered edges splits the search into v in the cover or
    its remaining neighbours in it.  A branch stops once its cover plus a
    greedy matching of the uncovered edges, each of which needs a cover
    vertex of its own, is as large as the best cover found so far, which
    starts at all vertices but one.  The branches are a loop over a stack
    of ``(left, size)`` entries, the undecided vertices and the cover size so
    far; the v-in-the-cover branch is pushed last, so it is taken first.
    Raises ``CapExceededError`` above ``cap_n`` vertices.
    """
    if g.vertices > cap_n:
        raise CapExceededError(f"graph has {g.vertices} vertices, cap is {cap_n}")
    neighbours = [0] * (g.vertices + 1)
    for u, v in g.edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    best = g.vertices - 1

    def matching(left: int) -> int:
        """Size of a greedy matching of the edges inside ``left``."""
        size = 0
        for v in range(1, g.vertices + 1):
            mates = neighbours[v] & left
            if left >> v & 1 and mates:
                left &= ~(1 << v | mates & -mates)
                size += 1
        return size

    stack = [((1 << g.vertices + 1) - 2, 0)]
    while stack:
        left, size = stack.pop()
        if size + matching(left) >= best:
            continue
        degree, v = max(
            ((neighbours[v] & left).bit_count(), v) for v in range(g.vertices + 1) if left >> v & 1
        )
        if not degree:
            best = size
            continue
        stack.append((left & ~(1 << v) & ~neighbours[v], size + degree))
        stack.append((left & ~(1 << v), size + 1))
    return best


def reduce_vertex_cover(g: Graph) -> CorrelatedInstance:
    """Delegation instance whose optimum encodes the minimum vertex cover.

    Actions 1..n correspond to vertices (bias 0); action n+1 is a default the
    agent only takes as a last resort: it pays the principal 3 in every
    profile but carries bias -2, leaving the agent utility 1.  Uniformly
    likely profiles: one per edge {i, j} paying 5 to both endpoint actions,
    and one per vertex i paying 2 to action i.

    The best menu is a minimum vertex cover plus the default, worth exactly
    (5*edges + 3*vertices - cover) / (edges + vertices): covered edges pay 5,
    vertices in the cover pay 2, and the rest fall through to the default
    for 3.  Raises ``CapExceededError``, before any profile is built, when
    the instance would hold more than ``model.VALUE_CAP`` values.
    """
    n, m = g.vertices, len(g.edges)
    check_value_cap((m + n) * (n + 1), described=f"{m + n} profiles of {n + 1}")
    prob = Fraction(1, m + n)
    zero, two, five = XNum(Fraction(0)), XNum(Fraction(2)), XNum(Fraction(5))
    default_value = XNum(Fraction(3))
    profiles = []
    for u, v in g.edges:
        values = [zero] * (n + 1)
        values[u - 1] = values[v - 1] = five
        values[n] = default_value
        profiles.append(Profile(prob, tuple(values)))
    for i in range(1, n + 1):
        values = [zero] * (n + 1)
        values[i - 1] = two
        values[n] = default_value
        profiles.append(Profile(prob, tuple(values)))
    biases = tuple([zero] * n + [XNum(Fraction(-2))])
    labels = tuple([f"v{i}" for i in range(1, n + 1)] + ["default"])
    return CorrelatedInstance(biases, tuple(profiles), None, labels)


# ---------------------------------------------------------------------------
# Integer partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionInstance:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise InvalidInstanceError("partition instance is empty")
        if any(c <= 0 for c in self.values):
            raise InvalidInstanceError("partition values must be positive integers")

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def max_value(self) -> int:
        return max(self.values)


def has_partition(p: PartitionInstance) -> bool:
    """True iff some subset sums to half the total (bitset subset-sum DP)."""
    if p.total % 2:
        return False
    target = p.total // 2
    reachable = 1
    for c in p.values:
        reachable |= reachable << c
    return bool(reachable >> target & 1)


def _m_bounds(p: PartitionInstance) -> dict[str, int]:
    """The lower bounds on M of :func:`reduce_integer_partition`, by name."""
    n, c = len(p.values), p.max_value
    return {"2*C": 2 * p.total, "4*n*c_max": 4 * n * c, "128*n^3*c_max^3": 128 * n**3 * c**3}


def minimal_valid_m(p: PartitionInstance) -> int:
    """Smallest M accepted by :func:`reduce_integer_partition`."""
    return max(_m_bounds(p).values())


def reduce_integer_partition(
    p: PartitionInstance, M: int
) -> tuple[IndependentInstance, Fraction]:
    """Delegation instance whose optimum crosses a threshold iff a partition exists.

    Integer c_i becomes action i with bias B = M^2*(1 - C/2M) and value
    1 + 2*iota with probability p_i = c_i/M^3 + c_i^2/(2M^4*(1 - C/2M)),
    value 1 with probability q_i = c_i/M, and 0 otherwise.  Action n+1
    (bias 0) is worth 0 half the time and B + 1 + iota otherwise.

    Any useful menu is S + {n+1}; writing s for the sum of the c_i with
    i in S, its exact utility is (B+1)/2 + s(C-s)/(4M^2) + D with
    |D| <= 2C^3/M^3: the q_i drive a concave product term while the p_i's
    second-order component cancels the sum-of-squares left over from the
    pairwise low-realization collisions.  Requiring M >= 2C, M >= 4n*c_max,
    and M >= 128*n^3*c_max^3 caps |D| at 1/(64M^2), half the 1/(32M^2) slack
    between an even split (s(C-s) = C^2/4) and the best uneven one
    (s(C-s) <= (C^2-1)/4).

    Returns the instance and the decision threshold
    (B+1)/2 + C^2/(16M^2) - 1/(32M^2): the optimal menu's standard part
    reaches it iff the integers split evenly.  Raises ``CapExceededError``,
    before any action is built, when the instance would hold more than
    ``model.VALUE_CAP`` values: three per integer and two for action n+1.
    """
    n, C = len(p.values), p.total
    check_value_cap(3 * n + 2)
    for name, lower in _m_bounds(p).items():
        if M < lower:
            raise InvalidInstanceError(f"M={M} violates M >= {name} = {lower}")

    big_bias = Fraction(M**2) * (1 - Fraction(C, 2 * M))
    bias, zero = XNum(big_bias), XNum(Fraction(0))
    high, low = XNum(Fraction(1), Fraction(2)), XNum(Fraction(1))
    actions = []
    for i, c in enumerate(p.values, start=1):
        p_high = Fraction(c, M**3) + Fraction(c**2, 2 * M**4 - C * M**3)
        q_low = Fraction(c, M)  # the M bounds give 0 < q_low <= 1/4 and a tiny p_high
        actions.append(
            Action(bias, ((high, p_high), (low, q_low), (zero, 1 - p_high - q_low)), f"c{i}")
        )
    half = Fraction(1, 2)
    actions.append(
        Action(zero, ((zero, half), (XNum(big_bias + 1) + IOTA, half)), f"a{n + 1}")
    )
    threshold = (big_bias + 1) / 2 + Fraction(C**2, 16 * M**2) - Fraction(1, 32 * M**2)
    return IndependentInstance(tuple(actions)), threshold
