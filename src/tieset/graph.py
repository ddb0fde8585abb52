"""Immutable undirected graphs and their hop-distance metrics.

Nodes are dense integer ids 0..n-1.  Graphs are simple (no self-loops, no
parallel edges) and never mutated after construction, so every algorithm in
this package is a pure function of its inputs.  All tie-breaking picks the
smallest node id.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator

UNREACHABLE = math.inf
"""Distance reported for node pairs with no connecting path."""


class GraphError(Exception):
    """Malformed graph input: bad node ids, empty tie set, invalid edges."""


class NotConnectedError(GraphError):
    """Raised by metric operations that require a connected graph."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph: ``n`` nodes, sorted adjacency, ``m`` edges.

    Construct through :func:`build_graph`, which cleans the edge list and
    establishes the invariants (symmetric adjacency, sorted neighbor lists,
    no self-loops or duplicates).  Connectedness is *not* an invariant;
    operations that need it check it.  The graph never changes, so
    :func:`metric_profile` and :func:`betweenness` keep their results on it;
    those slots take no part in equality, hashing or the repr.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int
    _profile: MetricProfile | None = field(default=None, init=False, repr=False, compare=False)
    _betweenness: tuple[float, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (a, b) with a < b, ascending."""
        for a in range(self.n):
            for b in self.adj[a]:
                if a < b:
                    yield (a, b)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class NodeSet:
    """Sorted, duplicate-free collection of node ids.

    Used for tie sets, dominating sets, centers and peripheries.  Accepts
    any iterable of ints; order and duplicates are normalized away.
    """

    __slots__ = ("members",)

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int]):
        object.__setattr__(self, "members", tuple(sorted(set(members))))
        if self.members and self.members[0] < 0:
            raise GraphError(f"negative node id {self.members[0]}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NodeSet is immutable")

    def __reduce__(self):  # through __init__: the default slot restore would hit __setattr__
        return (NodeSet, (self.members,))

    def __repr__(self) -> str:
        return f"NodeSet({list(self.members)})"


@dataclass(frozen=True, slots=True)
class MetricProfile:
    """Per-node eccentricities with the derived radius/diameter/center/periphery."""

    ecc: tuple[int, ...]
    radius: int
    diameter: int
    center: NodeSet
    periphery: NodeSet


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple undirected graph on nodes 0..n-1 from an edge list.

    Self-loops are dropped and duplicate edges deduplicated; ``m`` counts the
    surviving undirected edges.  Raises :class:`GraphError` for ids outside
    0..n-1, naming the offending pair.
    """
    if n < 0:
        raise GraphError(f"node count must be non-negative, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if not 0 <= a < n:
            raise GraphError(f"node id {a} out of range in edge ({a}, {b})")
        if not 0 <= b < n:
            raise GraphError(f"node id {b} out of range in edge ({a}, {b})")
        if a == b:
            continue
        nbrs[a].add(b)
        nbrs[b].add(a)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    m = sum(len(row) for row in adj) // 2
    return Graph(n, adj, m)


def _bfs(adj: tuple[tuple[int, ...], ...], source: int, bound: int | None = None) -> list[int]:
    """Hop distances from source, up to ``bound`` hops if given; -1 marks nodes not reached."""
    limit = len(adj) if bound is None else bound
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque((source,))
    pop = queue.popleft
    push = queue.append
    while queue:
        v = pop()
        dv = dist[v] + 1
        if dv > limit:
            continue
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv
                push(w)
    return dist


def _balls(
    adj: tuple[tuple[int, ...], ...],
    keep: Iterable[int] = (),
    rounds: int | None = None,
) -> tuple[list[int], dict[int, list[int]]]:
    """Bit-parallel BFS from every node at once (Akiba, Iwata & Yoshida 2013).

    Node v's r-ball is a Python int with bit w set iff d(v, w) <= r.  Round
    r+1 computes ball_{r+1}[v] = ball_r[v] | OR of ball_r[w] over w in N(v).
    Returns ``(ecc, kept)``: ``ecc[v]`` is the first round at which v's mask
    is full (-1 if it never is within the rounds run, e.g. on disconnected
    input), and ``kept[r]`` is the list of r-ball masks for each r in
    ``keep`` (at most ``rounds``).  Runs until every mask is full or a round
    changes nothing, or for at most ``rounds`` rounds; a kept radius past
    the last round gets the final, stable generation.

    Memory is up to n^2/8 bytes per mask generation: two while running, plus
    one per kept radius.  Full masks share one int object, so a node whose
    ball is complete costs a pointer.
    """
    n = len(adj)
    full = (1 << n) - 1
    rounds = n if rounds is None else rounds  # n-1 rounds reach every node
    keep = set(keep)
    kept: dict[int, list[int]] = {}
    ecc = [-1] * n
    ball = [1 << v for v in range(n)]
    pending = list(range(n))
    r = 0
    while True:
        still = []
        for v in pending:
            if ball[v] == full:
                ecc[v] = r
                ball[v] = full
            else:
                still.append(v)
        pending = still
        if r in keep:
            kept[r] = ball
        if not pending or r >= rounds:
            break
        grown = ball[:]
        changed = False
        for v in pending:
            b = ball[v]
            for w in adj[v]:
                b |= ball[w]
            if b != ball[v]:
                grown[v] = b
                changed = True
        if not changed:
            break
        ball = grown
        r += 1
    for k in keep:
        kept.setdefault(k, ball)
    return ecc, kept


def _balls_of_radius(adj: tuple[tuple[int, ...], ...], radius: int) -> list[int]:
    """Every node's ``radius``-ball mask (see :func:`_balls`)."""
    return _balls(adj, (radius,), radius)[1][radius]


def _bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of ``mask``."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _covering_subsets(masks: list[int], shift: int, cap: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(subset, union)`` for each subset of at most ``cap`` of the n = len(masks) nodes
    whose masks' OR, ``union``, has all n bits set from bit ``shift`` up; smallest subsets
    first, lexicographic within a size, so the first is the lexicographically first minimum.
    """
    n = len(masks)
    full = (1 << n) - 1
    for k in range(1, cap + 1):
        for subset, chosen in zip(combinations(range(n), k), combinations(masks, k)):
            union = reduce(or_, chosen)
            if union >> shift == full:
                yield subset, union


def validated_members(g: Graph, s: NodeSet | Iterable[int]) -> tuple[int, ...]:
    """Normalize a node-set argument against a host graph."""
    members = s.members if isinstance(s, NodeSet) else NodeSet(s).members
    if not members:
        raise GraphError("node set must be non-empty")
    if members[-1] >= g.n:
        raise GraphError(f"node id {members[-1]} out of range for graph with n={g.n}")
    return members


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Shortest-path hop count from source to every node (UNREACHABLE if none)."""
    if not 0 <= source < g.n:
        raise GraphError(f"source node {source} out of range for graph with n={g.n}")
    return [UNREACHABLE if d < 0 else d for d in _bfs(g.adj, source)]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return min(_bfs(g.adj, 0)) >= 0


def metric_profile(g: Graph) -> MetricProfile:
    """Eccentricity of every node plus radius, diameter, center and periphery.

    Grows every node's ball at once with the bit-parallel kernel
    :func:`_balls`, one round per hop, once per graph: the immutable profile
    is kept on ``g`` and every later call returns that same object.  Raises
    :class:`NotConnectedError` on disconnected input, on every call;
    callers wanting the giant component should apply
    :func:`largest_connected_component` first.
    """
    if g._profile is None:
        if g.n == 0:
            raise NotConnectedError("graph not connected: no nodes")
        ecc, _ = _balls(g.adj)
        if min(ecc) < 0:
            raise NotConnectedError("graph not connected")
        radius = min(ecc)
        diameter = max(ecc)
        center = NodeSet(v for v in range(g.n) if ecc[v] == radius)
        periphery = NodeSet(v for v in range(g.n) if ecc[v] == diameter)
        object.__setattr__(g, "_profile", MetricProfile(tuple(ecc), radius, diameter, center, periphery))
    return g._profile


def is_diametrically_uniform(g: Graph) -> bool:
    """True iff every node has the same eccentricity (radius equals diameter)."""
    profile = metric_profile(g)
    return profile.radius == profile.diameter


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as ascending id lists, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for v in range(g.n):
        if seen[v]:
            continue
        dist = _bfs(g.adj, v)
        comp = [w for w in range(g.n) if dist[w] >= 0 and not seen[w]]
        for w in comp:
            seen[w] = True
        comps.append(comp)
    return comps


def induced_subgraph(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph induced by ``members``, relabeled to 0..k-1 in ascending id order.

    Members that are exactly 0..n-1 give ``g`` itself, with whatever it keeps.
    Raises :class:`GraphError` for an id outside 0..n-1.
    """
    ordered = sorted(set(members))
    if ordered and not (ordered[0] >= 0 and ordered[-1] < g.n):
        bad = ordered[0] if ordered[0] < 0 else ordered[-1]
        raise GraphError(f"node id {bad} out of range for graph with n={g.n}")
    if ordered == list(range(g.n)):
        return g
    index = {v: i for i, v in enumerate(ordered)}
    adj = tuple(
        tuple(index[w] for w in g.adj[v] if w in index)
        for v in ordered
    )
    m = sum(len(row) for row in adj) // 2
    return Graph(len(ordered), adj, m)


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Largest component as a relabeled graph plus the old-id -> new-id mapping.

    Ties between equal-size components go to the one containing the smallest
    original id.  New ids follow ascending original-id order.
    """
    if g.n == 0:
        return g, {}
    comps = connected_components(g)
    best = max(comps, key=len)  # first maximal component has the smallest ids
    mapping = {old: new for new, old in enumerate(best)}
    return induced_subgraph(g, best), mapping


def betweenness(g: Graph) -> list[float]:
    """Shortest-path betweenness score of every node, as a fresh list.

    A node scores, for each unordered pair of other nodes, the fraction of
    the pair's shortest paths that pass through it (endpoints excluded).
    Brandes' accumulation (2001), run once per graph and kept on it.
    """
    if g._betweenness is None:
        object.__setattr__(g, "_betweenness", _brandes(g.n, g.adj))
    return list(g._betweenness)


def _brandes(n: int, adj: tuple[tuple[int, ...], ...]) -> tuple[float, ...]:
    """Brandes from every source, without predecessor lists.

    A level-synchronous BFS counts shortest paths; the backward pass finds
    w's predecessors by scanning adj[w] for nodes one level up.  Each
    dependency still receives its additions in reverse BFS order, so the
    scores match the predecessor-list form to the last bit.
    """
    score = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        levels = []
        frontier = [s]
        d = 0
        while frontier:
            levels.append(frontier)
            d += 1
            nxt = []
            for v in frontier:
                sv = sigma[v]
                for w in adj[v]:
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = d
                        sigma[w] = sv
                        nxt.append(w)
                    elif dw == d:
                        sigma[w] += sv
            frontier = nxt
        delta = [0.0] * n
        for up in range(len(levels) - 2, -1, -1):
            for w in reversed(levels[up + 1]):
                dep = delta[w]
                coeff = (1.0 + dep) / sigma[w]
                for v in adj[w]:
                    if dist[v] == up:
                        delta[v] += sigma[v] * coeff
                score[w] += dep
    # each unordered pair was accumulated from both endpoints
    return tuple(x / 2.0 for x in score)


def augment(g: Graph, s: NodeSet | Iterable[int]) -> Graph:
    """Join a newcomer node to the graph, tied to exactly the members of ``s``.

    The newcomer gets id ``g.n``; the original adjacency is unchanged.
    ``s`` must be non-empty and within range.
    """
    members = validated_members(g, s)
    u = g.n
    mset = set(members)
    rows = [g.adj[v] + (u,) if v in mset else g.adj[v] for v in range(g.n)]
    rows.append(members)
    return Graph(g.n + 1, tuple(rows), g.m + len(members))
