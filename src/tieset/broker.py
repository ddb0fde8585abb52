"""Heuristics and exact oracles for dropping a newcomer into a network's center.

A *broker set* S is a tie set that leaves the newcomer joined to exactly S
with eccentricity at most rad(G), i.e. as central as the best-placed host
node.  Every heuristic here returns a *sub-radius dominating* set (each node
outside S within rad(G)-1 hops of S), which on two or more nodes is exactly
the same condition reached by an independent route; on one node, {0} is
vacuously sub-radius dominating, but no broker set exists.  The brute-force
oracles give exact minima for small graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Callable, Iterable, NamedTuple

from .graph import (
    CapExceededError,
    Graph,
    GraphError,
    NodeSet,
    _balls_of_radius,
    _bfs,
    _bits,
    _min_cover,
    _size_cap,
    augment,
    betweenness,
    induced_subgraph,
    largest_connected_component,
    metric_profile,
    MetricProfile,
    validated_members,
)


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
    ``elapsed`` is the heuristic's own wall-clock time in seconds; the
    profile, and the coverage balls and betweenness the run reads, which
    :func:`_fill_untimed` keeps on the graph beforehand, are not in it.
    """

    heuristic: BrokerHeuristic
    s: NodeSet
    size: int
    valid: bool | None
    elapsed: float


def is_sub_radius_dominating(g: Graph, s: NodeSet | Iterable[int]) -> bool:
    """True iff every node outside ``s`` is within rad(g)-1 hops of some member (``g`` connected)."""
    members = validated_members(g, s)
    cover = _coverage_balls(g)
    return reduce(or_, (cover[v] for v in members)) == (1 << g.n) - 1


def _coverage_balls(g: Graph) -> tuple[int, ...]:
    """Mask of the nodes each node covers: its (radius-1)-ball, or itself alone if radius <= 1.

    The one owner of the coverage rule.  The first call for ``g`` runs the
    kernel to that radius and keeps the tuple on ``g``; every later call,
    from the heuristics, their verification or the broker oracle, returns
    the kept tuple.  Graphs no broker code reads keep none.  Raises
    :class:`NotConnectedError` on disconnected input.
    """
    if g._coverage is None:
        radius = metric_profile(g).radius
        object.__setattr__(g, "_coverage", tuple(_balls_of_radius(g.adj, max(radius - 1, 0))))
    return g._coverage


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
    dist = [h.n] * h.n
    _bfs(h.adj, dist, (g.n,))
    return max(dist) <= metric_profile(g).radius


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
    At radius 1 a pick covers only itself, so the one broker set, every
    node, is the answer whatever ``heuristic`` says (:func:`_strategy`).

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
    if profile is not None and profile != metric_profile(g):
        raise GraphError("profile is not the metric profile of this graph")
    _fill_untimed(g, h, verify)
    t0 = time.perf_counter()
    s = _strategy(g, h).run(g)
    elapsed = time.perf_counter() - t0
    valid = None
    if verify:
        valid = is_sub_radius_dominating(g, s) and is_broker_set(g, s)
    return AlgorithmReport(h, s, len(s), valid, elapsed)


def _fill_untimed(g: Graph, h: BrokerHeuristic, verify: bool) -> None:
    """Keep on ``g`` what a run of ``h`` reads but does not time.

    That is the metric profile, the coverage balls (:func:`_coverage_balls`)
    when the run verifies, and what :func:`_strategy` says the run reads,
    which is nothing at radius 1.  A run's ``elapsed`` and
    ``experiments.run_with_timeout``'s budget both leave them out, so no
    heuristic times a kernel run on ``g``.
    """
    if verify:
        _coverage_balls(g)
    for read in _strategy(g, h).reads:
        read(g)


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
            best = max((w for w in f.adj[cur] if w != prev), key=degs.__getitem__, default=-1)
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
        covered = set(_bfs(f.adj, [f.n] * f.n, (w_sub,), r - 1))
        remaining = [v for i, v in enumerate(uncovered) if i not in covered]
        if len(remaining) == len(uncovered):
            raise RuntimeError("cover iteration made no progress")
        uncovered = remaining
    return NodeSet(chosen)


def _cover(g: Graph, pick) -> NodeSet:
    """The mask cover loop of the ``s-`` strategies and ``imp-center``.

    The uncovered nodes are a bitmask.  ``pick(uncovered)`` returns the node
    to adopt and whether it may cover nothing new; the adopted node covers
    the uncovered part of its (radius-1)-ball in ``g``
    (:func:`_coverage_balls`), and any other pick that covers nothing new
    raises RuntimeError.
    """
    cover = _coverage_balls(g)
    uncovered = (1 << g.n) - 1
    chosen: list[int] = []
    while uncovered:
        w, exempt = pick(uncovered)
        chosen.append(w)
        newly = cover[w] & uncovered
        if not newly and not exempt:
            raise RuntimeError("cover iteration made no progress")
        uncovered ^= newly
    return NodeSet(chosen)


def _greedy_uncovered(g: Graph, rule) -> NodeSet:
    """The simplified strategies (``s-max``/``s-btw``/``s-ml``) on :func:`_cover`.

    The rule's metric is computed once on ``g`` and chooses among the
    uncovered ids; the coverage ball uses original-graph distances strictly
    below r.
    """
    choose = rule(g, metric_profile(g).radius)
    return _cover(g, lambda uncovered: (choose(_bits(uncovered)), False))


# ---------------------------------------------------------------------------
# center-based strategies

def _min_degree_center(g: Graph) -> int:
    return min(metric_profile(g).center, key=g.degree)


def _center_neighbors(g: Graph) -> NodeSet:
    return NodeSet(g.adj[_min_degree_center(g)])


def _imp_center(g: Graph) -> NodeSet:
    """Center strategy with component-aware substitutions.

    Consumes the chosen center's neighbors in decreasing-degree order, but
    whenever the largest uncovered component already has radius below
    rad(G)-1, adopts that component's center instead.  If the neighbor list
    runs out first, keeps adopting component centers, which always cover at
    least themselves.  Only the neighbor picks may cover nothing new.
    """
    r = metric_profile(g).radius
    v = _min_degree_center(g)
    neighbors = iter(sorted(g.adj[v], key=g.degree, reverse=True))

    def pick(uncovered: int) -> tuple[int, bool]:
        members = _bits(uncovered)
        comp, kept = largest_connected_component(induced_subgraph(g, members))
        comp_profile = metric_profile(comp)
        if comp_profile.radius >= r - 1 and (w := next(neighbors, None)) is not None:
            return w, True
        return members[kept[comp_profile.center[0]]], False  # kept: positions in ``members``

    return _cover(g, pick)


class _Strategy(NamedTuple):
    run: Callable[[Graph], NodeSet]
    reads: tuple[Callable[[Graph], object], ...] = ()  # what run(g) reads of g, kept before the timer


# BrokerHeuristic -> strategy: a metric's rule under one of the two cover
# loops, or a center strategy, and what it reads: the coverage balls on
# :func:`_cover`, the whole-graph betweenness under ``_by_betweenness``.  The
# entries are private and look public functions such as ``betweenness`` up
# by name when they run, so a rebound module attribute is seen.
_STRATEGIES = {
    BrokerHeuristic.MAX: _Strategy(lambda g: _greedy_shrinking(g, _by_degree)),
    BrokerHeuristic.BTW: _Strategy(lambda g: _greedy_shrinking(g, _by_betweenness), (lambda g: betweenness(g),)),
    BrokerHeuristic.ML: _Strategy(lambda g: _greedy_shrinking(g, _by_leaf_walk)),
    BrokerHeuristic.S_MAX: _Strategy(lambda g: _greedy_uncovered(g, _by_degree), (_coverage_balls,)),
    BrokerHeuristic.S_BTW: _Strategy(
        lambda g: _greedy_uncovered(g, _by_betweenness), (_coverage_balls, lambda g: betweenness(g))
    ),
    BrokerHeuristic.S_ML: _Strategy(lambda g: _greedy_uncovered(g, _by_leaf_walk), (_coverage_balls,)),
    BrokerHeuristic.CENTER: _Strategy(_center_neighbors),
    BrokerHeuristic.IMP_CENTER: _Strategy(_imp_center, (_coverage_balls,)),
}


def _strategy(g: Graph, h: BrokerHeuristic) -> _Strategy:
    """The strategy a run of ``h`` on ``g`` takes: its ``_STRATEGIES`` entry, or at radius 1 every node.

    At radius 1 the coverage radius is 0, so a pick covers only itself and
    the full node set is the one broker set; that strategy reads nothing.
    """
    return _Strategy(lambda f: NodeSet(range(f.n))) if metric_profile(g).radius == 1 else _STRATEGIES[h]


# ---------------------------------------------------------------------------
# exact search

def brute_force_min_broker(g: Graph, size_cap: int | None = None) -> NodeSet:
    """Smallest broker set, by exhaustive size-ordered subset search.

    Returns the lexicographically first minimum.  Intended for small graphs;
    ``size_cap`` bounds the subset size as :func:`_size_cap` says (on two or
    more nodes a broker set of size n always exists, so with an unbounded
    cap the search then succeeds), and a bad one is refused before the graph
    is profiled.  A subset is a broker set iff its members' (radius-1)-balls
    cover every node, so the n-bit ball masks :func:`_coverage_balls` keeps
    on the graph are :func:`_min_cover`'s cover bits, with no ``accept``
    test: its depth-first search ORs them, one per level, skips every
    subtree whose masks cannot cover, and takes the last pick only from
    the balls that hold the lowest uncovered node.  It starts at the
    size that nodes with pairwise disjoint sets of covering balls need, one
    pick each: on K_n, whose radius-0 coverage balls are single nodes, at n.
    """
    cap = _size_cap(size_cap, g.n)
    # a one-node graph has radius 0: no tie set makes the newcomer's ecc 0
    cover = _coverage_balls(g) if metric_profile(g).radius else [0] * g.n
    return _min_cover(cover, cap, "broker set")


def brute_force_min_dominating(g: Graph) -> NodeSet:
    """Smallest dominating set (its members' 1-balls cover every node), lexicographically first."""
    if not g.n:  # the empty set dominates the empty graph
        return NodeSet(())
    return _min_cover(_balls_of_radius(g.adj, 1), g.n, "dominating set")


def broker_decision(g: Graph, k: int) -> bool:
    """Decide whether the graph has a broker set of size at most ``k`` (at least 1)."""
    try:
        brute_force_min_broker(g, size_cap=k)
    except CapExceededError:
        return False
    return True
