"""Heuristics and exact oracles for dropping a newcomer into a network's center.

A *broker set* S is a tie set that leaves the newcomer joined to exactly S
with eccentricity at most rad(G), i.e. as central as the best-placed host
node.  Every heuristic here returns a *sub-radius dominating* set (each node
outside S within rad(G)-1 hops of S), which is exactly the same condition
reached by an independent route; the brute-force oracles give exact minima
for small graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Iterable

from .graph import (
    Graph,
    GraphError,
    NodeSet,
    _balls_of_radius,
    _bfs,
    _bits,
    _covering_subsets,
    augment,
    betweenness,
    induced_subgraph,
    largest_connected_component,
    metric_profile,
    MetricProfile,
    validated_members,
)


class CapExceededError(RuntimeError):
    """A brute-force search hit its size cap before finding a witness."""


class BrokerHeuristic(str, Enum):
    """The eight tie-placement strategies.

    ``max``/``btw``/``ml`` greedily cover the graph while deleting covered
    nodes (metrics recomputed on the shrinking remainder); the ``s-`` variants
    evaluate every metric once on the original graph and only track the
    uncovered set; ``center``/``imp-center`` build around a center node.
    """

    MAX = "max"
    BTW = "btw"
    ML = "ml"
    S_MAX = "s-max"
    S_BTW = "s-btw"
    S_ML = "s-ml"
    CENTER = "center"
    IMP_CENTER = "imp-center"


@dataclass(frozen=True, slots=True)
class AlgorithmReport:
    """Outcome of one heuristic run.

    ``valid`` is the broker-set verification result, or None when the run was
    made with ``verify=False`` (useful on graphs too large to re-check).
    ``elapsed`` is the wall-clock time of the heuristic itself, in seconds.
    It excludes the metric profile and, for ``btw`` and ``s-btw``, the
    whole-graph betweenness: both are computed before the timer starts
    (betweenness once per graph, kept on it), so the time does not depend
    on which heuristic ran first, nor on how many processes that
    betweenness pass was split across.
    """

    heuristic: BrokerHeuristic
    s: NodeSet
    size: int
    valid: bool | None
    elapsed: float


def is_sub_radius_dominating(g: Graph, s: NodeSet | Iterable[int]) -> bool:
    """True iff every node outside ``s`` is within rad(g)-1 hops of some member (``g`` connected)."""
    members = validated_members(g, s)
    cover = _coverage_balls(g, metric_profile(g).radius)
    return reduce(or_, (cover[v] for v in members)) == (1 << g.n) - 1


def _coverage_balls(g: Graph, radius: int) -> list[int]:
    """Mask of the nodes each node covers: its (radius-1)-ball, or itself alone if radius <= 1."""
    return _balls_of_radius(g.adj, max(radius - 1, 0))


def is_broker_set(g: Graph, s: NodeSet | Iterable[int]) -> bool:
    """True iff a newcomer tied to exactly ``s`` becomes as central as the host's radius.

    Builds the combined graph and checks that the newcomer's eccentricity in
    it is at most rad(g), the guarantee the best-placed host node had.  Note
    the check is against the host radius, not the combined radius: new
    two-hop routes through the newcomer can shrink host distances, so
    demanding that the newcomer itself attain the combined minimum would
    reject sets that tie two mutually distant nodes together (and with it
    every coverage-based strategy).  Equivalent to sub-radius domination,
    computed by an independent route.
    """
    h = augment(g, s)  # a disconnected g has no radius: metric_profile raises
    return max(_bfs(h.adj, g.n)) <= metric_profile(g).radius


def is_dominating_set(g: Graph, s: NodeSet | Iterable[int]) -> bool:
    """True iff every node outside ``s`` is adjacent to a member of ``s``."""
    members = validated_members(g, s)
    covered = set(members)
    for v in members:
        covered.update(g.adj[v])
    return len(covered) == g.n


def run_heuristic(
    g: Graph,
    heuristic: BrokerHeuristic | str,
    *,
    verify: bool = True,
    profile: MetricProfile | None = None,
) -> AlgorithmReport:
    """Run one tie-placement heuristic and report the resulting set.

    The three metrics (degree, betweenness, leaf walk) are each a selection
    rule, run by one of two greedy cover loops: on the shrinking uncovered
    subgraph (``max``/``btw``/``ml``) or on ``g`` itself (the ``s-`` variants).
    Every strategy reads the radius and center from ``metric_profile(g)``.

    Args:
        g: connected graph with at least two nodes.
        heuristic: a :class:`BrokerHeuristic` or its string value; all eight
            strategies are deterministic.
        verify: re-check the output (sub-radius domination and the broker
            property); skip on graphs where the check itself is too slow.
        profile: ``g``'s own metric profile, if the caller holds it; anything
            else raises :class:`GraphError`.  ``g`` keeps its profile anyway,
            so this is only a consistency check.

    Returns:
        An :class:`AlgorithmReport`; its set is sub-radius dominating in
        ``g`` and therefore a broker set.
    """
    h = BrokerHeuristic(heuristic)
    if g.n < 2:
        raise GraphError("heuristics need a graph with at least 2 nodes")
    r = metric_profile(g).radius
    if profile is not None and profile != metric_profile(g):
        raise GraphError("profile is not the metric profile of this graph")
    if r > 1 and h in (BrokerHeuristic.BTW, BrokerHeuristic.S_BTW):
        betweenness(g)  # kept on g: the timed run reads it back
    t0 = time.perf_counter()
    if r == 1:
        # coverage radius r-1 = 0: each pick covers only itself, so the full
        # node set is the only possible (and correct) answer
        s = NodeSet(range(g.n))
    else:
        s = _STRATEGIES[h](g)
    elapsed = time.perf_counter() - t0
    valid = None
    if verify:
        valid = is_sub_radius_dominating(g, s) and is_broker_set(g, s)
    return AlgorithmReport(h, s, len(s), valid, elapsed)


# ---------------------------------------------------------------------------
# selection rules: rule(f, r) computes its metric on f once and returns a
# chooser that maps candidate node ids of f to the node to adopt

def _by_degree(f: Graph, r: int):
    degs = [len(row) for row in f.adj]
    return lambda candidates: max(candidates, key=degs.__getitem__)


def _by_betweenness(f: Graph, r: int):
    btw = betweenness(f)
    return lambda candidates: max(candidates, key=btw.__getitem__)


def _by_leaf_walk(f: Graph, r: int):
    """Walk from a min-degree candidate toward high degrees; choose the endpoint.

    Visits at most r nodes, never immediately backtracks, and stops early
    when the only neighbor is the predecessor.  The endpoint is therefore
    within r-1 hops of the start.
    """
    degs = [len(row) for row in f.adj]

    def choose(candidates) -> int:
        prev = -1
        cur = min(candidates, key=degs.__getitem__)
        for _ in range(r - 1):
            best = -1
            best_deg = -1
            for w in f.adj[cur]:
                if w != prev and degs[w] > best_deg:
                    best, best_deg = w, degs[w]
            if best < 0:
                break
            prev, cur = cur, best
        return cur

    return choose


# ---------------------------------------------------------------------------
# greedy cover loops

def _greedy_shrinking(g: Graph, rule) -> NodeSet:
    """Cover loop for the unsimplified strategies (``max``/``btw``/``ml``).

    Maintains the subgraph induced by the uncovered nodes; the rule's metric
    and the coverage ball (hop radius r-1) both live in that subgraph.
    """
    r = metric_profile(g).radius
    uncovered = list(range(g.n))
    chosen: list[int] = []
    while uncovered:
        f = induced_subgraph(g, uncovered)
        w_sub = rule(f, r)(range(f.n))
        chosen.append(uncovered[w_sub])
        dist = _bfs(f.adj, w_sub, r - 1)
        remaining = [uncovered[i] for i in range(f.n) if dist[i] < 0]
        if len(remaining) == len(uncovered):
            raise RuntimeError("cover iteration made no progress")
        uncovered = remaining
    return NodeSet(chosen)


def _greedy_uncovered(g: Graph, rule) -> NodeSet:
    """Cover loop for the simplified strategies (``s-max``/``s-btw``/``s-ml``).

    The rule's metric is computed once on ``g`` and chooses among the
    uncovered ids; the coverage ball uses original-graph distances strictly
    below r.  The uncovered set is a bitmask.
    """
    r = metric_profile(g).radius
    choose = rule(g, r)
    cover = _coverage_balls(g, r)
    uncovered = (1 << g.n) - 1
    chosen: list[int] = []
    while uncovered:
        w = choose(_bits(uncovered))
        chosen.append(w)
        newly = cover[w] & uncovered
        if not newly:
            raise RuntimeError("cover iteration made no progress")
        uncovered ^= newly
    return NodeSet(chosen)


# ---------------------------------------------------------------------------
# center-based strategies

def _min_degree_center(g: Graph) -> int:
    return min(metric_profile(g).center.members, key=lambda v: (len(g.adj[v]), v))


def _center_neighbors(g: Graph) -> NodeSet:
    return NodeSet(g.adj[_min_degree_center(g)])


def _imp_center(g: Graph) -> NodeSet:
    """Center strategy with component-aware substitutions.

    Consumes the chosen center's neighbors in decreasing-degree order, but
    whenever the largest uncovered component already has radius below
    rad(G)-1, adopts that component's center instead.  If the neighbor list
    runs out first, keeps adopting component centers, which always cover at
    least themselves.
    """
    r = metric_profile(g).radius
    v = _min_degree_center(g)
    neighbor_queue = sorted(g.adj[v], key=lambda x: (-len(g.adj[x]), x))
    cover = _coverage_balls(g, r)
    uncovered = (1 << g.n) - 1
    chosen: list[int] = []
    i = 0
    while uncovered:
        members = _bits(uncovered)
        comp, ids = largest_connected_component(induced_subgraph(g, members))
        comp_profile = metric_profile(comp)
        from_neighbors = False
        if comp_profile.radius < r - 1 or i >= len(neighbor_queue):
            # ids lists the component's positions in ``members``, ascending
            w = members[list(ids)[comp_profile.center.members[0]]]
        else:
            w = neighbor_queue[i]
            i += 1
            from_neighbors = True
        chosen.append(w)
        newly = cover[w] & uncovered
        if not newly and not from_neighbors:
            raise RuntimeError("cover iteration made no progress")
        uncovered ^= newly
    return NodeSet(chosen)


# BrokerHeuristic -> strategy(g): a metric's rule under one of the two cover
# loops, or a center strategy.  The entries are private and look public
# functions such as ``betweenness`` up by name when they run, so a rebound
# module attribute is seen.
_STRATEGIES = {
    BrokerHeuristic.MAX: lambda g: _greedy_shrinking(g, _by_degree),
    BrokerHeuristic.BTW: lambda g: _greedy_shrinking(g, _by_betweenness),
    BrokerHeuristic.ML: lambda g: _greedy_shrinking(g, _by_leaf_walk),
    BrokerHeuristic.S_MAX: lambda g: _greedy_uncovered(g, _by_degree),
    BrokerHeuristic.S_BTW: lambda g: _greedy_uncovered(g, _by_betweenness),
    BrokerHeuristic.S_ML: lambda g: _greedy_uncovered(g, _by_leaf_walk),
    BrokerHeuristic.CENTER: _center_neighbors,
    BrokerHeuristic.IMP_CENTER: _imp_center,
}


# ---------------------------------------------------------------------------
# exact search

def brute_force_min_broker(g: Graph, size_cap: int | None = None) -> NodeSet:
    """Smallest broker set, by exhaustive size-ordered subset search.

    Returns the lexicographically first minimum.  Intended for small graphs;
    ``size_cap`` bounds the subset size, and exceeding it raises
    :class:`CapExceededError` (on two or more nodes a broker set of size n
    always exists, so with an unbounded cap the search then succeeds).  A
    subset is a broker set iff its members' (radius-1)-balls cover every
    node, so each test is k ORs of masks computed once per graph.
    """
    radius = metric_profile(g).radius  # also rejects disconnected input
    cap = g.n if size_cap is None else min(size_cap, g.n)
    # a one-node graph has radius 0: no tie set makes the newcomer's ecc 0
    cover = _coverage_balls(g, radius) if radius else [0] * g.n
    for subset, _ in _covering_subsets(cover, 0, cap):
        return NodeSet(subset)
    raise CapExceededError(f"no broker set of size <= {cap} found")


def brute_force_min_dominating(g: Graph) -> NodeSet:
    """Smallest dominating set (its members' 1-balls cover every node), lexicographically first."""
    for subset, _ in _covering_subsets(_balls_of_radius(g.adj, 1), 0, g.n):
        return NodeSet(subset)
    return NodeSet(())  # n = 0 only


def broker_decision(g: Graph, k: int) -> bool:
    """Decide whether the graph has a broker set of size at most ``k``."""
    if k < 1:
        raise GraphError(f"target size must be >= 1, got {k}")
    try:
        brute_force_min_broker(g, size_cap=min(k, g.n))
    except CapExceededError:
        return False
    return True
