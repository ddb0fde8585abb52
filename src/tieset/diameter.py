"""Tie sets that bound the diameter of the combined network.

A set S is *delta-enabling* when joining a newcomer to exactly S leaves the
combined graph with diameter at most delta.  This module gives the
constructive diameter-preserving set, two randomized reduction heuristics
(peripheral pairs, and center-then-periphery), and a brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    GraphError,
    MetricProfile,
    NodeSet,
    _balls,
    _balls_of_radius,
    _covering_subsets,
    augment,
    is_complete,
    metric_profile,
)
from .broker import CapExceededError


@dataclass(frozen=True, slots=True)
class DeltaReport:
    """One diameter-reduction run: the tie set, its size, and what it achieved."""

    s: NodeSet
    edges_added: int
    achieved_diameter: int
    iterations: int


def _diameter_at_most(g: Graph, bound: int) -> bool:
    # every ball must be full after `bound` rounds
    ecc, _ = _balls(g.adj, rounds=bound)
    return min(ecc, default=0) >= 0


def is_delta_enabling(g: Graph, s: NodeSet | Iterable[int], delta: int) -> bool:
    """True iff the graph joined with a newcomer tied to ``s`` has diameter <= delta."""
    return _diameter_at_most(augment(g, s), delta)


def preserve_diameter(g: Graph) -> NodeSet:
    """Smallest easy tie set that keeps the combined diameter at diam(g).

    Three constructive cases: a single minimum-eccentricity node when some
    node sits strictly inside the diameter; all nodes when the graph is
    complete; otherwise (uniform eccentricities, incomplete) the whole
    neighborhood of a minimum-degree node.
    """
    if g.n < 2:
        raise GraphError("need a graph with at least 2 nodes")
    profile = metric_profile(g)
    if profile.radius != profile.diameter:
        return NodeSet(profile.center.members[:1])
    if is_complete(g):
        return NodeSet(range(g.n))
    v = min(range(g.n), key=lambda x: (len(g.adj[x]), x))
    return NodeSet(g.adj[v])


def brute_force_min_delta_enabling(g: Graph, delta: int, size_cap: int | None = None) -> NodeSet:
    """Smallest delta-enabling set by size-ordered exhaustive search.

    ``delta`` must be at least 2 (tying to all nodes always reaches diameter
    2, so an answer exists; below 2 none may).  Lexicographically first
    minimum; :class:`CapExceededError` when ``size_cap`` cuts the search off.

    The host's balls of radius 0..delta are computed once.  A subset S is
    then tested with the augmentation law d_H(x, y) = min(d(x, y),
    d(x, S) + 2 + d(S, y)), where the t-ball of S is the OR of its members'
    t-balls: the newcomer reaches every node within delta iff the
    (delta-1)-ball of S is full, and a node x with d(x, S) = a reaches every
    node within delta iff the nodes farther than delta from x in the host
    all lie in the (delta-2-a)-ball of S.
    """
    if delta < 2:
        raise GraphError(f"target diameter must be >= 2, got {delta}")
    metric_profile(g)  # rejects disconnected input
    n = g.n
    _, balls = _balls(g.adj, range(delta + 1), delta)
    full = (1 << n) - 1
    # each node's balls of radius 0..delta-1 in one int, radius t at bit
    # offset t*n, so one OR over S's members yields all of S's t-balls
    packed = [sum(balls[t][v] << (t * n) for t in range(delta)) for v in range(n)]
    # per node x with ecc > delta, and per a = 0..delta-2: the bit that says
    # d(x, S) <= a, and the nodes farther than delta from x placed in the
    # (delta-2-a)-ball layer, all of which that layer must contain
    far = [
        [(1 << (a * n + x), (full ^ b) << ((delta - 2 - a) * n)) for a in range(delta - 1)]
        for x, b in enumerate(balls[delta])
        if b != full
    ]
    cap = n if size_cap is None else min(size_cap, n)
    for subset, s_balls in _covering_subsets(packed, (delta - 1) * n, cap):
        if _far_pairs_bridged(s_balls, far):
            return NodeSet(subset)
    raise CapExceededError(f"no delta-enabling set of size <= {cap} found")


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


def _check_reduction_args(profile: MetricProfile, delta: int) -> None:
    if not 2 <= delta <= profile.diameter:
        raise GraphError(
            f"target diameter {delta} outside valid range 2..{profile.diameter}"
        )


def _peripheral_pairs(g: Graph, profile: MetricProfile) -> list[tuple[int, int]]:
    """All unordered node pairs at distance exactly diam(g), ascending."""
    near = _balls_of_radius(g.adj, profile.diameter - 1)
    periphery = profile.periphery.members
    return [
        (a, b)
        for i, a in enumerate(periphery)
        for b in periphery[i + 1:]
        if not near[a] >> b & 1
    ]


def periphery_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """Reduce the combined diameter to <= delta by absorbing peripheral pairs.

    Each round picks a uniformly random pair at maximal distance in the
    current combined graph, ties the newcomer to both endpoints, and
    recomputes the diameter.  A chosen pair drops to distance 2 and can never
    be peripheral again, so the loop terminates.  Deterministic per seed.
    """
    profile = metric_profile(g)
    _check_reduction_args(profile, delta)
    rng = random.Random(seed)
    u = g.n
    s: set[int] = set()
    cur, cur_profile = g, profile
    iterations = 0
    while True:
        candidates = []
        for a, b in _peripheral_pairs(cur, cur_profile):
            addable = [x for x in (a, b) if x != u and x not in s]
            if addable:
                candidates.append(addable)
        if not candidates:
            raise RuntimeError("no addable peripheral pair despite oversized diameter")
        s.update(candidates[rng.randrange(len(candidates))])
        iterations += 1
        prev_diameter = cur_profile.diameter if iterations > 1 else None
        cur = augment(g, NodeSet(s))
        cur_profile = metric_profile(cur)
        if prev_diameter is not None and cur_profile.diameter > prev_diameter:
            raise RuntimeError("diameter increased")
        if cur_profile.diameter <= delta:
            return DeltaReport(NodeSet(s), len(s), cur_profile.diameter, iterations)


def cp_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """Reduce the combined diameter to <= delta via one center tie, then periphery ties.

    The first tie goes to a random center node of the original graph; each
    later round ties the newcomer to a random periphery node of the current
    combined graph that it is not yet tied to.  After every periphery tie the
    picked node's eccentricity is at most rad(g) + 2 (it reaches everything
    through the newcomer and the initial center tie), which is checked.
    Deterministic per seed.
    """
    profile = metric_profile(g)
    _check_reduction_args(profile, delta)
    rng = random.Random(seed)
    u = g.n
    centers = profile.center.members
    s: set[int] = {centers[rng.randrange(len(centers))]}
    cur = augment(g, NodeSet(s))
    cur_profile = metric_profile(cur)
    iterations = 1
    while cur_profile.diameter > delta:
        candidates = [w for w in cur_profile.periphery.members if w != u and w not in s]
        if not candidates:
            raise RuntimeError("periphery exhausted despite oversized diameter")
        w = candidates[rng.randrange(len(candidates))]
        s.add(w)
        iterations += 1
        prev_diameter = cur_profile.diameter
        cur = augment(g, NodeSet(s))
        cur_profile = metric_profile(cur)
        if cur_profile.diameter > prev_diameter:
            raise RuntimeError("diameter increased")
        if cur_profile.ecc[w] > profile.radius + 2:
            raise RuntimeError(
                f"picked periphery node {w} kept eccentricity {cur_profile.ecc[w]} "
                f"> original radius {profile.radius} + 2"
            )
    return DeltaReport(NodeSet(s), len(s), cur_profile.diameter, iterations)
