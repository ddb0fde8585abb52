"""Tie sets that bound the diameter of the combined network.

A set S is *delta-enabling* when joining a newcomer to exactly S leaves the
combined graph with diameter at most delta.  This module gives the
constructive diameter-preserving set, two randomized reduction heuristics
(peripheral pairs, and center-then-periphery), and a brute-force oracle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_
from typing import Iterable

from .graph import (
    Graph,
    GraphError,
    NodeSet,
    _balls,
    _balls_of_radius,
    _bfs,
    _check_seed,
    _integer,
    _min_cover,
    _size_cap,
    augment,
    is_complete,
    is_diametrically_uniform,
    metric_profile,
)


@dataclass(frozen=True, slots=True)
class DeltaReport:
    """One diameter-reduction run: the tie set, its size, and what it achieved.

    ``elapsed`` is the run's wall time in seconds, from just after the
    argument checks to the report, as measured by the reduction itself.  It
    is left out of equality, so two runs that tie the same nodes compare
    equal.
    """

    s: NodeSet
    edges_added: int
    achieved_diameter: int
    iterations: int
    elapsed: float = field(default=0.0, compare=False)


def is_delta_enabling(g: Graph, s: NodeSet | Iterable[int], delta: int) -> bool:
    """True iff the graph joined with a newcomer tied to ``s`` has diameter <= delta.

    That is, iff every node's delta-ball in the combined graph holds every node.
    """
    h = augment(g, s)
    full = (1 << h.n) - 1
    return all(ball == full for ball in _balls_of_radius(h.adj, delta))


def preserve_diameter(g: Graph) -> NodeSet:
    """Smallest easy tie set that keeps the combined diameter at diam(g).

    Three constructive cases: a single minimum-eccentricity node when some
    node sits strictly inside the diameter; all nodes when the graph is
    complete; otherwise (uniform eccentricities, incomplete) the whole
    neighborhood of a minimum-degree node.
    """
    if g.n < 2:
        raise GraphError("need a graph with at least 2 nodes")
    if not is_diametrically_uniform(g):
        return NodeSet(metric_profile(g).center[:1])
    if is_complete(g):
        return NodeSet(range(g.n))
    v = min(range(g.n), key=g.degree)
    return NodeSet(g.adj[v])


def _check_delta(delta: int) -> None:
    """Refuse a target diameter that is not an integer, or one below 2, which tying every
    node need not reach; reads no graph.
    """
    _integer(delta, "target diameter", 2)


def brute_force_min_delta_enabling(g: Graph, delta: int, size_cap: int | None = None) -> NodeSet:
    """Smallest delta-enabling set by size-ordered exhaustive search.

    ``delta`` must be at least 2 (tying to all nodes always reaches diameter
    2, so an answer exists; below 2 none may).  Lexicographically first
    minimum; ``size_cap`` bounds the subset size as :func:`_size_cap` says,
    and a bad one is refused before the graph is profiled.

    The host's balls of radius 0..delta are computed once.  A subset S is
    then tested with the augmentation law d_H(x, y) = min(d(x, y),
    d(x, S) + 2 + d(S, y)), where the t-ball of S is the OR of its members'
    t-balls: the newcomer reaches every node within delta iff the
    (delta-1)-ball of S is full, and a node x with d(x, S) = a reaches every
    node within delta iff the nodes farther than delta from x in the host
    all lie in the (delta-2-a)-ball of S.  Each node's balls of radius
    0..delta-1 are packed into one int, radius t at bit offset
    (delta-1-t)*n, so the (delta-1)-ball takes the low n bits.
    :func:`_min_cover` searches for S with those bits as its cover and the
    second test, which reads the layers above them and also holds for
    every superset of a set it holds for, as its ``accept``, so it skips
    each subtree whose union with every later candidate fails either.  It
    raises CapExceededError once no subset of at most the cap is left.
    """
    _check_delta(delta)
    cap = _size_cap(size_cap, g.n)
    metric_profile(g)  # rejects disconnected input
    n = g.n
    balls = _balls(g.adj, range(delta + 1))[1]
    full = (1 << n) - 1
    # each node's balls of radius 0..delta-1 in one int, radius t at bit
    # offset (delta-1-t)*n, so one OR over S's members yields all of S's
    # t-balls and the cover layer, the (delta-1)-balls, is the low n bits
    packed = [sum(balls[t][v] << ((delta - 1 - t) * n) for t in range(delta)) for v in range(n)]
    # per node x with ecc > delta, and per a = 0..delta-2: the bit that says
    # d(x, S) <= a, and the nodes farther than delta from x placed in the
    # (delta-2-a)-ball layer, all of which that layer must contain
    far = [
        [(1 << ((delta - 1 - a) * n + x), (full ^ b) << ((a + 1) * n)) for a in range(delta - 1)]
        for x, b in enumerate(balls[delta])
        if b != full
    ]
    return _min_cover(packed, cap, "delta-enabling set", lambda s_balls: _far_pairs_bridged(s_balls, far))


def _far_pairs_bridged(s_balls: int, far: list[list[tuple[int, int]]]) -> bool:
    """True iff every host pair farther apart than delta is within delta through S."""
    for probes in far:
        for within, needed in probes:
            if s_balls & within:  # first hit: a = d(x, S)
                if needed & ~s_balls:
                    return False
                break
        else:  # d(x, S) > delta-2: x cannot reach its far nodes through S
            return False
    return True


class _Joined:
    """``g`` joined with a newcomer u tied to a growing set S, read through the augmentation law.

    The one place a reduction reads g from: it profiles g, which refuses a
    disconnected g, and then refuses a delta above diam(g) before its kernel
    run.  A delta below 2 never gets here: :func:`_reduce` refuses it
    before g is profiled.  By the law, d_H(x, y) = min(d(x, y), d(x, S) +
    2 + d(S, y)) for host nodes x and y, and d_H(x, u) = 1 + d(x, S).  So
    the host nodes within t hops of x in H are ``ball_t[x] | near[t - 2 -
    d(x, S)]``, where ``near[r]`` holds the nodes within r of S.  :meth:`_reach` is the one
    reader of this law: the tie loop and :meth:`at_delta` test its mask for
    ``full``, and the pair draw takes the rest.  The host's balls of radius
    delta-1..diam(g), the same radii for both reductions, come from one
    kernel run, of which only the balls are read; the host eccentricities
    come from ``profile``.  Each tie then costs one BFS that lowers d(., S),
    an update of ``near`` from the nodes it lowered, and mask tests on the
    nodes of ``far``.  ``near`` ends at its first full entry, so its length
    is ecc_H(u) = 1 + max d(., S), and ``near[0]`` is S.

    Only a node of host eccentricity at least delta can end a host pair
    delta or more apart in H.  ``far`` maps each such node not yet known to
    be within delta of every host node to r(x), the farthest any host node
    is from x in H (its host eccentricity before the first tie).  Distances
    only shrink as S grows, so each tie lowers r(x) from its last value,
    testing radii r(x) - 1 down to delta (all kept), and drops x for good
    once r(x) <= delta; a node at exactly delta before the first tie is
    dropped untested.  ``diameter`` is diam(H), exact
    whenever it exceeds delta; :meth:`at_delta` tells delta from less.
    Before the first tie H is g itself and ``near`` is empty.  ``profile``
    is g's metric profile, whose eccentricities seed ``far`` and whose
    center and radius ``cp`` reads.
    """

    def __init__(self, g: Graph, delta: int):
        self.profile = metric_profile(g)  # also rejects disconnected input
        if delta > self.profile.diameter:
            raise GraphError(f"target diameter {delta} outside valid range 2..{self.profile.diameter}")
        self.balls = _balls(g.adj, range(delta - 1, self.profile.diameter + 1))[1]
        self.adj = g.adj
        self.delta = delta
        self.full = (1 << g.n) - 1
        self.dist = [g.n] * g.n  # d(x, S); n while S is empty, farther than any hop count
        self.near: list[int] = []
        self.far = {x: e for x, e in enumerate(self.profile.ecc) if e >= delta}
        self.diameter = self.profile.diameter

    def _reach(self, x: int, t: int) -> int:
        """The mask of host nodes within t of host node x in H (t any kept radius)."""
        r = t - 2 - self.dist[x]  # ball_t[x] | near[r], where near[r] is empty below 0 and full past its end
        return self.full if r >= len(self.near) else self.balls[t][x] | (self.near[r] if r >= 0 else 0)

    def tie(self, members: Iterable[int]) -> None:
        """Tie the newcomer to ``members`` as well, and update ``near``, ``far`` and ``diameter``."""
        dist = self.dist
        lowered = _bfs(self.adj, dist, members)
        near = self.near or [0] * (1 + max(dist))  # the first tie: every node was n away
        joined = [0] * len(near)  # the lowered nodes, each at its new distance
        for x in lowered:
            joined[dist[x]] |= 1 << x
        near = [old | new for old, new in zip(near, accumulate(joined, or_))]
        while len(near) > 1 and near[-2] == self.full:
            near.pop()
        self.near = near
        for x, t in list(self.far.items()):  # t = r(x) before this tie, an upper bound now
            while t > self.delta and self._reach(x, t - 1) == self.full:
                t -= 1
            if t > self.delta:
                self.far[x] = t
            else:
                del self.far[x]
        self.diameter = max(len(near), max(self.far.values(), default=0))

    def at_delta(self) -> bool:
        """Once diam(H) <= delta: True iff it equals delta.

        That holds iff the newcomer is delta away from some node, or a node
        of host eccentricity above delta - 1 (``profile.ecc``, ascending) is
        not within delta - 1 of every host node.
        """
        t = self.delta - 1
        ecc = enumerate(self.profile.ecc)
        return len(self.near) > t or any(self._reach(x, t) != self.full for x, e in ecc if e > t)

    def periphery(self) -> list[int]:
        """The host nodes in the periphery of H, ascending.

        Only while diam(H) > delta, or before the first tie: a node at that
        distance from a host node is in ``far``, one at that distance from
        the newcomer is d(., S) = diam(H) - 1 away from S, which only
        happens when ecc_H(u) = diam(H).
        """
        top = self.diameter
        ends = {x for x, r in self.far.items() if r == top}
        if len(self.near) == top:
            ends.update(x for x, d in enumerate(self.dist) if d == top - 1)
        return sorted(ends)

    def draw_peripheral_pair(self, rng: random.Random) -> list[int]:
        """Draw a pair of H at distance diam(H); return its host endpoints not yet tied.

        Every such pair has one: two tied nodes are at most 2 apart, and a
        tied node is 1 from the newcomer, while diam(H) > delta >= 2.  The
        draw is uniform: ``rng.randrange`` over the number of pairs, taken in
        ascending order as (a, b) with a < b, the newcomer being node n.
        Each periphery node's pairs are counted from one mask, and only the
        drawn pair is built.  Only while diam(H) > delta, or before the
        first tie.
        """
        top = self.diameter
        dist = self.dist
        rows = []  # (a, its partners b > a in ascending bit order, how many pairs a starts)
        total = 0
        for a in self.periphery():
            apart = self.full & ~self._reach(a, top - 1)
            apart = apart >> (a + 1) << (a + 1)  # partners b > a only
            count = apart.bit_count() + (dist[a] == top - 1)  # plus (a, u) when d(a, S) = diam(H) - 1
            rows.append((a, apart, count))
            total += count
        if not total:
            raise RuntimeError("no addable peripheral pair despite oversized diameter")
        k = rng.randrange(total)
        for a, apart, count in rows:
            if k < count:
                break
            k -= count
        for _ in range(k):  # drop the k partners below the drawn one
            apart &= apart - 1
        if not apart:  # past every host partner: the pair (a, u)
            return [a]
        b = (apart & -apart).bit_length() - 1
        return [x for x in (a, b) if dist[x]]


def _reduce(g: Graph, delta: int, seed: int, pick, check=None) -> DeltaReport:
    """The loop of both reductions: tie the newcomer to ``pick``'s nodes until diam(H) <= delta.

    The arguments are checked first, a negative seed and then a delta below
    2 (:func:`_check_delta`), before the clock starts and before g is
    profiled.  The :class:`_Joined` state is built next, just after the
    clock starts; it refuses a disconnected g, then a delta above diam(g),
    before any other work.  ``pick(joined, rng)`` returns the host nodes of
    the next tie, given that state and the run's ``random.Random(seed)``.
    There is at least one tie.  Every tie but the first must not lengthen
    diam(H) (the first may, through the newcomer itself), and is then
    passed to ``check(joined, chosen)``, which raises on a broken
    invariant.  A final diameter of delta is read from the joined state;
    only one below delta takes a kernel run on the combined graph for its
    exact value.  The report's ``elapsed`` covers the whole call.
    """
    _check_seed(seed)
    _check_delta(delta)
    start = time.perf_counter()
    joined = _Joined(g, delta)
    rng = random.Random(seed)
    iterations = 0
    while not iterations or joined.diameter > delta:
        chosen = pick(joined, rng)
        before = joined.diameter
        joined.tie(chosen)
        if iterations and joined.diameter > before:
            raise RuntimeError("diameter increased")
        if iterations and check is not None:
            check(joined, chosen)
        iterations += 1
    s = NodeSet(x for x, d in enumerate(joined.dist) if not d)  # the tied nodes, 0 from S
    achieved = delta if joined.at_delta() else max(_balls(augment(g, s).adj)[0])
    return DeltaReport(s, len(s), achieved, iterations, time.perf_counter() - start)


def periphery_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """Reduce the combined diameter to <= delta by absorbing peripheral pairs.

    Each round picks a uniformly random pair at maximal distance in the
    current combined graph, ties the newcomer to the endpoints not yet tied
    (just one when the other is the newcomer or already tied), and
    recomputes the diameter.  A chosen pair drops to distance 2 and can never
    be peripheral again, so the loop terminates.  Deterministic per seed.

    Cost per call: one kernel run on g for its balls of radius
    delta-1..diam, made after :class:`_Joined` has checked delta.  Then per
    round one popcount per periphery node for the draw, one BFS that lowers
    the distances to the tie set, an update of the distance layers from the
    nodes it lowered, and, for each node still farther than delta from some
    node, mask tests that lower its farthest distance r(x) from its last
    value (at most one test at delta = diam - 1).  A second kernel run, on
    the final combined graph, is made only when its diameter ends below
    delta, for the exact ``achieved_diameter``.  Memory: diam - delta + 2
    kept mask generations of up to n^2/8 bytes each, full masks sharing one
    int.
    """
    return _reduce(g, delta, seed, _Joined.draw_peripheral_pair)


def cp_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """Reduce the combined diameter to <= delta via one center tie, then periphery ties.

    The first tie goes to a random center node of the original graph; each
    later round ties the newcomer to a random periphery node of the current
    combined graph that it is not yet tied to.  After every periphery tie the
    picked node's eccentricity is at most rad(g) + 2 (it reaches everything
    through the newcomer and the initial center tie), which is checked.
    Deterministic per seed.

    Cost per call: one kernel run on g for its balls of radius
    delta-1..diam, made after :class:`_Joined` has checked delta.  Then per
    tie one BFS that lowers the distances to the tie set, an update of the
    distance layers from the nodes it lowered, and, for each node still
    farther than delta from some node, mask tests that lower its r(x) from
    its last value, as for :func:`periphery_algorithm`.  The check reads one
    length: the picked node w is in S, so every node within rad of S is
    within rad + 2 of w through the newcomer, and the check asserts that the
    rad-ball of S is full, i.e. that the distance layers ``near`` have at
    most rad + 1 entries.  A center is in S, so that holds unless the layers
    are wrong, and no host ball of w can hide such a fault.  A second kernel
    run, on the final combined graph, is made only when its diameter ends
    below delta, for the exact ``achieved_diameter``.  Memory as for
    :func:`periphery_algorithm`.
    """

    def pick(joined: _Joined, rng: random.Random) -> list[int]:
        # a center of g first, then periphery nodes of H not yet tied (host nodes: never the newcomer)
        nodes = [w for w in joined.periphery() if joined.dist[w]] if joined.near else joined.profile.center
        if not nodes:
            raise RuntimeError("periphery exhausted despite oversized diameter")
        return [nodes[rng.randrange(len(nodes))]]

    def check(joined: _Joined, chosen: list[int]) -> None:
        radius = joined.profile.radius
        if len(joined.near) > radius + 1:  # ecc_H(u) = len(near): S's rad-ball is not full
            gap = f"some node is farther than {radius} from the tie set"
            raise RuntimeError(f"picked periphery node {chosen[0]} has no original radius {radius} + 2 bound: {gap}")

    return _reduce(g, delta, seed, pick, check)


# reduction name -> run(g, delta, seed), for ``tieset diam --alg`` and
# experiments 4 and 5.  The entries look the algorithms up by name when they
# run, so a rebound module attribute is seen.
REDUCTIONS = {
    "periphery": lambda g, delta, seed: periphery_algorithm(g, delta, seed),
    "cp": lambda g, delta, seed: cp_algorithm(g, delta, seed),
}
