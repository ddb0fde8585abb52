"""Immutable undirected graphs and their hop-distance metrics.

Nodes are dense integer ids 0..n-1.  Graphs are simple (no self-loops, no
parallel edges) and never mutated after construction, so every algorithm in
this package is a pure function of its inputs.  All tie-breaking picks the
smallest node id: ids are scanned in ascending order, where ``min`` and
``max`` keep the first extremum and ``sorted`` (``reverse`` too) keeps
equal keys in that order, so a key never names the id.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import dataclass, field
from itertools import count
from operator import add, index
from typing import Callable, Iterable, Iterator, Sequence

UNREACHABLE = math.inf
"""Distance reported for node pairs with no connecting path."""


class GraphError(Exception):
    """Malformed graph input: bad node ids, empty tie set, invalid edges."""


class NotConnectedError(GraphError):
    """Raised by metric operations that require a connected graph."""


class CapExceededError(RuntimeError):
    """A brute-force search hit its size cap before finding a witness."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph: ``n`` nodes, sorted adjacency, ``m`` edges.

    Construct through :func:`build_graph`, which cleans an edge list from
    outside the package (``datasets.load_edge_list`` reads one from a file)
    into neighbor sets (symmetric, no self-loops or duplicates), or through
    ``_from_sets``, which takes such sets as they are, as the package's own
    builds, ``generators.generate`` and ``generators.reduction_gadget``,
    do.  ``build_graph`` ends in ``_from_sets``, which sorts each neighbor
    list and counts ``m``; :func:`induced_subgraph` and :func:`augment`
    derive their sorted rows from a graph directly.  Connectedness is *not* an invariant; operations
    that need it check it.  The graph never changes, so
    :func:`metric_profile` keeps its profile on it, :func:`betweenness` its
    scores and ``broker._coverage_balls`` the coverage balls, on graphs the
    broker side reads; those slots take no part in equality, hashing or the
    repr.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int
    _profile: MetricProfile | None = field(default=None, init=False, repr=False, compare=False)
    _betweenness: tuple[float, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _coverage: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (a, b) with a < b, ascending."""
        for a in range(self.n):
            for b in self.adj[a]:
                if a < b:
                    yield (a, b)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class NodeSet(tuple):
    """Sorted, duplicate-free tuple of node ids.

    Used for tie sets, dominating sets, centers and peripheries.  Accepts
    any iterable of integers (anything ``operator.index`` takes, stored as
    its int); order and duplicates are normalized away, and a member that
    is not an integer or is negative raises :class:`GraphError`.  Being a
    tuple, a NodeSet equals, and hashes as, the plain tuple of its members.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[int]):
        ids = set()
        for v in members:
            try:
                ids.add(index(v))
            except TypeError:
                _integer(v, "node id")  # raises, as index refused v
        self = super().__new__(cls, sorted(ids))
        if self and self[0] < 0:
            raise GraphError(f"negative node id {self[0]}")
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NodeSet is immutable")

    def __repr__(self) -> str:
        return f"NodeSet({list(self)})"


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

    The cleaner of edge lists from outside the package: the package's one
    caller is ``datasets.load_edge_list``, while the generators, whose sets
    are clean by construction, call ``_from_sets`` directly.  Self-loops are
    dropped and duplicate edges deduplicated; ``m`` counts the surviving
    undirected edges.  Raises :class:`GraphError` for ids outside
    0..n-1, naming the offending pair.  ``edges`` is read once, so a
    generator serves.  The cleaned neighbor sets become the graph through
    :func:`_from_sets`.
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
    return _from_sets(nbrs)


def _from_sets(nbrs: Sequence[set[int]]) -> Graph:
    """The graph whose node v has the neighbors ``nbrs[v]``; ``m`` is half the degree sum.

    The one place neighbor sets become a :class:`Graph`: the end of
    :func:`build_graph`, and the route of ``generators.generate`` and
    ``generators.reduction_gadget``, which fill one set per node.  The sets
    must be clean already: symmetric (w in nbrs[v] iff v in nbrs[w]), with
    ids in 0..len(nbrs)-1 and no self-loops.  Nothing is checked.
    """
    return Graph(len(nbrs), tuple(tuple(sorted(s)) for s in nbrs), sum(map(len, nbrs)) // 2)


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


def _balls(adj: tuple[tuple[int, ...], ...], keep: Iterable[int] = ()) -> tuple[list[int], dict[int, list[int]]]:
    """Bit-parallel BFS from every node at once (Akiba, Iwata & Yoshida 2013).

    Node v's r-ball is a Python int with bit w set iff d(v, w) <= r.  Round
    r+1 computes ball_{r+1}[v] = ball_r[v] | OR of ball_r[w] over w in N(v),
    in one walk over the nodes that skips the retired ones, grows every other
    mask and retires each that comes out full.  The kernel stops on two
    rules: at the largest radius in ``keep``, or after a round that changes
    nothing, which is also how it ends once every mask is full.

    Returns ``(ecc, kept)``.  ``ecc[v]`` is the first round at which v's
    mask is full, or -1 if it is not full by the last round run (as on
    disconnected input).  ``kept[r]`` is the list of r-ball masks for each r
    in ``keep``; a radius past the last round gets the final, stable
    generation.  The kernel keeps nothing else: a caller that wants some
    generation names its radius in ``keep``.

    Memory is up to n^2/8 bytes per mask generation: two while running, plus
    one per kept radius.  Full masks share one int object, so a node whose
    ball is complete costs a pointer.
    """
    n = len(adj)
    full = (1 << n) - 1
    keep = set(keep)
    last = max(keep, default=n)  # n-1 rounds reach every node
    kept: dict[int, list[int]] = {}
    ecc = [0 if n == 1 else -1] * n  # before the first round, only a one-node graph's mask is full
    ball = [1 << v for v in range(n)]
    for r in count():
        if r in keep:
            kept[r] = ball
        if r >= last:
            break
        grown = ball[:]
        for v in range(n):
            if ecc[v] >= 0:  # retired: its mask is full
                continue
            b = ball[v]
            for w in adj[v]:
                b |= ball[w]
            if b == full:
                ecc[v] = r + 1
                grown[v] = full
            else:
                grown[v] = b
        if grown == ball:
            break
        ball = grown
    for k in keep:
        kept.setdefault(k, ball)
    return ecc, kept


def _balls_of_radius(adj: tuple[tuple[int, ...], ...], radius: int) -> list[int]:
    """Every node's ``radius``-ball mask (see :func:`_balls`)."""
    return _balls(adj, (radius,))[1][radius]


def _bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of ``mask``."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _size_cap(size_cap: int | None, n: int) -> int:
    """The exhaustive oracles' one cap rule, for a search over n nodes.

    A cap of None means n, a larger one is cut to n, and one that is not an
    integer or is below 1 raises :class:`GraphError`.  Each oracle calls it
    before any kernel run, so a bad cap is refused before the graph is read.
    """
    return n if size_cap is None else min(_integer(size_cap, "size cap", 1), n)


def _integer(value: object, what: str, low: int | None = None) -> int:
    """``value`` as an int, as ``operator.index`` gives it; anything it refuses, or an int
    below ``low`` when one is given, raises :class:`GraphError`.  The one owner of both messages.
    """
    try:
        number = index(value)
    except TypeError:
        raise GraphError(f"{what} {value!r} is not an integer") from None
    if low is not None and number < low:
        raise GraphError(f"{what} must be >= {low}, got {value}")
    return number


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer, or a negative one: ``random.Random(-s)`` seeds
    exactly as ``random.Random(s)``.
    """
    _integer(seed, "seed", 0)


def _min_cover(
    masks: Sequence[int], cap: int, what: str, accept: Callable[[int], bool] | None = None
) -> NodeSet:
    """The lexicographically first smallest subset of at most ``cap`` of the n = len(masks)
    nodes whose masks' OR has its low n bits set and passes ``accept``.

    Bit x of a mask, for x < n, says that the candidate covers node x; any higher bits are
    read only by ``accept``.  A depth-first search tries the subsets in ``combinations``
    order, smallest first and lexicographic within a size, so the first subset found is the
    one the whole enumeration would find first.  ``covers[x]`` has bit c set iff candidate
    c's mask covers node x.  At each depth but the last the search stops at the first
    candidate c for which the union so far OR'd with the masks of c..n-1 fails the cover
    test or ``accept``: no later candidate there can do better, as both tests are monotone
    (``accept`` must be: a union that passes it keeps passing as bits are added).  No other
    cutoff is needed: past the highest coverer of the lowest uncovered node the cover test
    fails, and a c that leaves fewer candidates than picks still to make would pass only if
    a smaller subset covered, one that an earlier size returned.  The last pick is taken
    only from the coverers of the lowest uncovered node, lowest bit first, as every other
    candidate leaves that node uncovered; a union that covers already, and failed only
    ``accept``, tries every later candidate.  Sizes below a packing bound are skipped: nodes
    whose coverer sets are pairwise disjoint, taken from the fewest coverers up, each need a
    pick of their own (a node with no coverer counts too: then nothing covers).  ``cap`` is
    one that :func:`_size_cap` resolved.  When no subset is left, at once if the bound is
    above ``cap``, it raises :class:`CapExceededError`, naming the ``what`` it sought.
    """
    n = len(masks)
    full = (1 << n) - 1
    suffix = [0] * (n + 1)  # suffix[c]: the OR of masks[c:]
    covers = [0] * n + [full]  # covers[x]: bit c set iff masks[c] covers node x; x = n: every candidate
    for c in range(n - 1, -1, -1):
        suffix[c] = masks[c] | suffix[c + 1]
        for x in _bits(masks[c] & full):
            covers[x] |= 1 << c
    bound = taken = 0  # a node whose coverers are not yet taken needs a pick of its own
    for cx in sorted(covers[:n], key=int.bit_count):
        if not cx & taken:
            bound += 1
            taken |= cx
    for k in range(bound, cap + 1):
        stack = []  # (pick, union before it) for each depth above the current one
        c = union = 0
        while True:
            if len(stack) == k - 1:  # the last pick: walk the coverers of the lowest unset bit from c up
                y = union & full
                todo = covers[(~y & (y + 1)).bit_length() - 1] >> c << c
                while todo:
                    low = todo & -todo
                    u = union | masks[low.bit_length() - 1]
                    if u & full == full and (accept is None or accept(u)):
                        return NodeSet([pick for pick, _ in stack] + [low.bit_length() - 1])
                    todo ^= low
            elif c < n and (u := union | suffix[c]) & full == full and (accept is None or accept(u)):
                stack.append((c, union))
                union |= masks[c]
                c += 1
                continue
            if not stack:
                break
            c, union = stack.pop()
            c += 1
    raise CapExceededError(f"no {what} of size <= {cap} found")


def validated_members(g: Graph, s: NodeSet | Iterable[int]) -> NodeSet:
    """Normalize a node-set argument against a host graph."""
    members = s if isinstance(s, NodeSet) else NodeSet(s)
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
    """True iff ``g`` has a node and one :func:`_bfs` from node 0 reaches every node: O(n + m)."""
    return g.n > 0 and len(_bfs(g.adj, [g.n] * g.n, (0,))) == g.n


def metric_profile(g: Graph) -> MetricProfile:
    """Eccentricity of every node plus radius, diameter, center and periphery.

    Grows every node's ball at once with the bit-parallel kernel
    :func:`_balls`, one round per hop, once per graph: the immutable profile
    is kept on ``g`` and every later call returns that same object.  The run
    keeps no mask generation: the coverage balls are
    ``broker._coverage_balls``' own, so a graph that is only profiled holds
    none.  A graph with no nodes, or more than one component, has no radius
    or diameter: one linear :func:`is_connected` search refuses it with
    :class:`NotConnectedError` before the kernel runs, on every call, and
    keeps nothing.  Callers wanting the giant component should apply
    :func:`largest_connected_component` first.
    """
    if g._profile is None:
        if not is_connected(g):
            raise NotConnectedError("graph not connected" if g.n else "graph not connected: no nodes")
        ecc, _ = _balls(g.adj)
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


def largest_connected_component(g: Graph) -> tuple[Graph, list[int]]:
    """Largest component as a relabeled graph plus its members' old ids, ascending.

    New id i is old id ``members[i]``, the relabeling of
    :func:`induced_subgraph`.  Ties between equal-size components go to the
    one containing the smallest original id.  A graph with no nodes has no
    component and comes back as itself, with no members.
    """
    members = max(connected_components(g), key=len, default=[])  # first maximal component has the smallest ids
    return induced_subgraph(g, members), members


def betweenness(g: Graph) -> list[float]:
    """Shortest-path betweenness score of every node, as a fresh list.

    A node scores, for each unordered pair of other nodes, the fraction of
    the pair's shortest paths that pass through it (endpoints excluded).
    Brandes' accumulation (2001), run once per graph and kept on it.

    A large pass is split by source across the CPUs this process may run on
    (Bader & Madduri, 2006; see :func:`_brandes`), and the scores are the same
    to the last bit whatever the number of processes.  It stays in-process
    when ``os.fork`` is missing, when another thread is running, or when
    n·(n + 2m) is below :data:`FORK_MIN_WORK`.
    """
    if g._betweenness is None:
        object.__setattr__(g, "_betweenness", _brandes(g.n, g.adj))
    return list(g._betweenness)


FORK_MIN_WORK = 100_000
"""Smallest pass, in n·(n + 2m), that :func:`betweenness` splits across processes.

Below it a fork costs more than it saves.  On a 2-CPU VM (Python 3.11.7)
two processes broke even at n·(n + 2m) of about 30,000–60,000 in a 16 MB
process and 110,000–200,000 in a 185 MB one (a fork copies the page tables);
a BA graph with n=1000 and m≈2000 (5,000,000) took 0.27 s in two processes
against 0.48 s in one (medians of alternating runs, Python 3.11.7).
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


def _brandes(n: int, adj: tuple[tuple[int, ...], ...]) -> tuple[float, ...]:
    """Brandes from every source, the sources dealt round-robin to k processes.

    One source's dependency vector (:func:`_dependencies`) is one unit of
    work.  Source s goes to worker s % k: worker 0 is this process, and
    workers 1..k-1 are children it forks itself, in the package's one call
    of ``os.fork``.  Worker j holds only the write end of its own pipe,
    sends the vectors of sources j, j+k, ... over it as packed doubles, and
    leaves only through ``os._exit``: 0 after its last vector, 1 on any
    exception.  Whichever worker computed it, each vector is added into the
    scores in source order 0..n-1, so every score receives the same IEEE
    additions in the same order for every k, and k = 1 is the one-process
    pass.  A child blocks once its pipe is full, so it runs at most one
    pipe buffer ahead of the sum and memory does not grow with n.

    k is :func:`_workers`' count, capped at n.  A child that exits before
    sending all its vectors makes this raise RuntimeError naming its exit
    status.  Every child is reaped before this returns or raises.
    """
    k = max(1, min(_workers(n, adj), n))
    score = [0.0] * n
    readers = {}
    children = {}
    try:
        for j in range(1, k):
            r, w = os.pipe()
            readers[j] = os.fdopen(r, "rb")
            with os.fdopen(w, "wb") as out:  # closes this process's write end after the fork, or a failed one
                children[j] = os.fork()
                if children[j] == 0:  # worker j
                    status = 1
                    try:
                        for reader in readers.values():  # its own read end and the earlier workers'
                            reader.close()
                        for s in range(j, n, k):
                            out.write(array("d", _dependencies(s, n, adj)))
                            out.flush()
                        status = 0
                    finally:
                        os._exit(status)
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


def _dependencies(s: int, n: int, adj: tuple[tuple[int, ...], ...]) -> list[float]:
    """Source ``s``'s Brandes dependency on every node, without predecessor lists.

    A level-synchronous BFS counts shortest paths.  An unreached node's
    distance is n, above every level (a BFS has at most n of them), so an
    arc into an earlier or the same level fails one test, ``dist[w] >= d``,
    and only arcs into the next level or to new nodes take a second.  The
    BFS also records ``parent[w]``, the frontier node that first reached w.

    The backward pass walks the levels from the deepest up to level 2.  A
    node w whose path count equals its parent's has that parent as its one
    predecessor (path counts are exact ints, each at least 1), and gives it
    its share directly; any other w finds its predecessors by scanning
    adj[w] for nodes one level up.  Level 1's one predecessor is ``s``, so
    the pass stops above it.  Each predecessor still receives one addition
    per successor, with the same operands, in reverse BFS order, so the
    scores match the predecessor-list form to the last bit.  The entries of
    ``s`` itself and of nodes it does not reach are 0.0.
    """
    dist = [n] * n
    sigma = [0] * n
    parent = [s] * n
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
                if dist[w] >= d:  # the next level, or unreached (distance n)
                    if dist[w] == d:
                        sigma[w] += sv
                    else:
                        dist[w] = d
                        sigma[w] = sv
                        parent[w] = v
                        nxt.append(w)
        frontier = nxt
    delta = [0.0] * n
    for up in range(len(levels) - 2, 0, -1):  # level 1's one predecessor is s, whose entry stays 0.0
        for w in reversed(levels[up + 1]):
            sw = sigma[w]
            coeff = (1.0 + delta[w]) / sw
            p = parent[w]
            if sigma[p] == sw:  # p is w's one predecessor
                delta[p] += sw * coeff
                continue
            for v in adj[w]:
                if dist[v] == up:
                    delta[v] += sigma[v] * coeff
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
