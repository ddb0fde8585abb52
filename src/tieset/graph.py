"""Immutable undirected graphs and their hop-distance metrics.

Nodes are dense integer ids 0..n-1.  Graphs are simple (no self-loops, no
parallel edges) and never mutated after construction, so every algorithm in
this package is a pure function of its inputs.  All tie-breaking picks the
smallest node id.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import add, or_
from typing import BinaryIO, Iterable, Iterator

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


def _bfs(
    adj: tuple[tuple[int, ...], ...], dist: list[int], sources: Iterable[int], bound: int | None = None
) -> list[int]:
    """Lower ``dist`` in place to each node's hop distance from ``sources``; return the lowered nodes.

    The package's one scalar BFS.  A fresh search passes ``[n] * n`` (n stays
    on the nodes it does not reach); one that follows earlier searches on the
    same list leaves the distance from all their sources.  Only nodes whose
    distance drops are expanded: one that stays put already bounds its
    neighbors' by one more.  Nodes more than ``bound`` hops away keep their
    entry.  The lowered nodes come back in BFS order, by nondecreasing distance.
    """
    limit = len(adj) if bound is None else bound
    lowered = []
    for v in sources:
        if dist[v] > 0:
            dist[v] = 0
            lowered.append(v)
    for v in lowered:  # the queue: the loop also visits the nodes appended while it runs
        dv = dist[v] + 1
        if dv > limit:
            break
        for w in adj[v]:
            if dist[w] > dv:
                dist[w] = dv
                lowered.append(w)
    return lowered


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
    dist = [g.n] * g.n
    _bfs(g.adj, dist, (source,))
    return [UNREACHABLE if d == g.n else d for d in dist]


def is_connected(g: Graph) -> bool:
    return g.n > 0 and len(_bfs(g.adj, [g.n] * g.n, (0,))) == g.n


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
    """Connected components as ascending id lists, ordered by smallest member.

    One :func:`_bfs` per component, from its smallest id, all lowering one
    shared distance list: a node still at n is unreached, and a search
    expands only its own component, so the sweep is linear in n + m.
    """
    dist = [g.n] * g.n
    return [sorted(_bfs(g.adj, dist, (v,))) for v in range(g.n) if dist[v] == g.n]


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

    A large pass is split by source across the CPUs this process may run on
    (Bader & Madduri, 2006; see :func:`_brandes`), and the scores are the same
    to the last bit whatever the number of processes.  It stays in-process
    when ``os.fork`` is missing, when another thread is running, or when
    n·(n + 2m) is below :data:`FORK_MIN_WORK`.  Called in a forked process,
    such as experiment 3's timed worker, it may fork one level further.
    """
    if g._betweenness is None:
        object.__setattr__(g, "_betweenness", _brandes(g.n, g.adj))
    return list(g._betweenness)


FORK_MIN_WORK = 100_000
"""Smallest pass, in n·(n + 2m), that :func:`betweenness` splits across processes.

Below it a fork costs more than it saves.  On a 2-CPU VM (Python 3.11.7)
two processes broke even at n·(n + 2m) of about 30,000–60,000 in a 16 MB
process and 110,000–200,000 in a 185 MB one (a fork copies the page tables);
a BA graph with n=1000 and m≈2000 (5,000,000) took 0.61 s instead of 1.08 s.
"""


def _workers(n: int, adj: tuple[tuple[int, ...], ...]) -> int:
    """Processes for a Brandes pass: the usable CPUs, or 1 where a fork does not pay or is unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if n * (n + sum(map(len, adj))) < FORK_MIN_WORK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(body, args, inherited=()) -> tuple[int, BinaryIO]:
    """Run ``body(write_end, *args)`` in a forked child; return ``(pid, read_end)``.

    The package's one call of ``os.fork``.  The child closes its read end and
    ``inherited`` (earlier workers' read ends), runs ``body``, flushes, and
    leaves only through ``os._exit``: 0 when ``body`` returns, 1 on any
    exception.  The parent closes the write end, or both ends if the fork fails.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for f in inherited:
                f.close()
            with os.fdopen(w, "wb") as out:
                body(out, *args)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _brandes(n: int, adj: tuple[tuple[int, ...], ...], k: int | None = None) -> tuple[float, ...]:
    """Brandes from every source, the sources dealt round-robin to ``k`` processes.

    One source's dependency vector (:func:`_dependencies`) is one unit of
    work.  Source s goes to worker s % k: worker 0 is this process, and
    workers 1..k-1 are :func:`_fork` children that send their vectors over
    its pipe as packed doubles.  Whichever worker computed it, each vector is
    added into the scores in source order 0..n-1, so every score receives
    the same IEEE additions in the same order for every k, and k = 1 is the
    one-process pass.  A child blocks once its pipe is full, so it runs at
    most one pipe buffer ahead of the sum and memory does not grow with n.

    ``k`` defaults to :func:`_workers` and is capped at n.  A child that
    exits before sending all its vectors makes this raise RuntimeError naming
    its exit status.  Every child is reaped before this returns or raises.
    """
    k = max(1, min(_workers(n, adj) if k is None else k, n))
    score = [0.0] * n
    readers = {}
    children = {}
    try:
        for j in range(1, k):
            children[j], readers[j] = _fork(_send_dependencies, (j, k, n, adj), readers.values())
        for s in range(n):
            j = s % k
            if j == 0:
                vector = _dependencies(s, n, adj)
            else:
                vector = array("d")
                try:
                    vector.fromfile(readers[j], n)
                except EOFError:
                    status = os.waitstatus_to_exitcode(os.waitpid(children.pop(j), 0)[1])
                    raise RuntimeError(
                        f"betweenness worker {j} exited with status {status} "
                        f"before sending the dependencies of source {s}"
                    ) from None
            score = list(map(add, score, vector))
    finally:
        for reader in readers.values():
            reader.close()
        for pid in children.values():
            os.waitpid(pid, 0)
    # each unordered pair was accumulated from both endpoints
    return tuple(x / 2.0 for x in score)


def _send_dependencies(out: BinaryIO, j: int, k: int, n: int, adj: tuple[tuple[int, ...], ...]) -> None:
    """Body of worker j (see :func:`_fork`): write the vectors of sources j, j+k, ... to ``out``."""
    for s in range(j, n, k):
        out.write(array("d", _dependencies(s, n, adj)))
        out.flush()


def _dependencies(s: int, n: int, adj: tuple[tuple[int, ...], ...]) -> list[float]:
    """Source ``s``'s Brandes dependency on every node, without predecessor lists.

    A level-synchronous BFS counts shortest paths; the backward pass finds
    w's predecessors by scanning adj[w] for nodes one level up.  Each
    dependency still receives its additions in reverse BFS order, so the
    scores match the predecessor-list form to the last bit.  The entries of
    ``s`` itself and of nodes it does not reach are 0.0.
    """
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
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in adj[w]:
                if dist[v] == up:
                    delta[v] += sigma[v] * coeff
    delta[s] = 0.0
    return delta


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
