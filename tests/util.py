"""Shared graph builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's BFS machinery: distances
come from Floyd-Warshall over the raw edge list, betweenness from literal
enumeration of all shortest paths, so they can vouch for the fast paths.
``ref_dependencies`` is the textbook predecessor-list Brandes accumulation
from one source, and ``ref_brandes`` its sum over the sources, kept as the
exact (bit-for-bit) references for the library's per-source kernel and its
whole pass.
``ref_periphery_algorithm`` and ``ref_cp_algorithm`` are the diameter
reductions that build the combined graph and profile it every round, kept as
the exact reference (same ties, same reports, same errors) for the library's
versions, which read the combined graph through the augmentation law.  They
share no check with ``diameter.py``: ``_ref_check_delta`` states the target
range on its own, so a bad delta compares two independent refusals.
``ref_min_cover`` is the size-ordered ``combinations`` enumeration that the
exhaustive oracles' depth-first search must agree with.  ``ref_gen_nws``
draws each NWS shortcut from the listed free ids, the exact reference for
the draw by rank behind ``generators.generate``; ``ref_gen_ba`` and
``ref_reduction_gadget`` collect every BA and gadget edge in a list and
clean it with ``build_graph``, the exact references for the library's
builds straight into neighbor sets.  ``ref_heuristic`` is each of the eight broker
heuristics written out with sets and Floyd-Warshall distances, the shrinking
loop on explicitly built induced subgraphs, every tie to the smallest id by
an explicit key, and betweenness from ``ref_brandes``.
``_count_forks``, ``_assert_no_child_left`` and ``open_descriptors`` watch
the processes and descriptors a forking call leaves behind.
"""

from __future__ import annotations

import os
import random
from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from tieset.broker import is_dominating_set
from tieset.diameter import DeltaReport
from tieset.generators import BA, GadgetMap, RandomModelParams
from tieset.graph import Graph, GraphError, NodeSet, _balls_of_radius, augment, build_graph, metric_profile

INF = 10 ** 9


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected(n: int, extra: int, seed: int) -> Graph:
    """Random spanning tree plus ``extra`` random non-tree edges."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = {tuple(sorted(e)) for e in edges}
    candidates = [e for e in combinations(range(n), 2) if e not in present]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra])
    return build_graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    return random_connected(n, 0, seed)


def _count_forks(monkeypatch) -> list[int]:
    """Record the pid of every child ``os.fork`` starts from here on."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors() -> int:
    """Number of file descriptors this process has open."""
    return len(os.listdir("/proc/self/fd"))


def fw_distances(g: Graph) -> list[list[int]]:
    """All-pairs hop distances by Floyd-Warshall (INF when unreachable)."""
    n = g.n
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for a, b in g.edges():
        d[a][b] = d[b][a] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def fw_eccentricities(g: Graph) -> list[int]:
    return [max(row) for row in fw_distances(g)]


def ref_min_cover(masks, cap: int, accept=None) -> tuple[int, ...] | None:
    """First subset, in ``combinations`` order by size up to ``cap``, whose masks' OR has its
    low n = len(masks) bits set and passes ``accept``; None if there is none."""
    full = (1 << len(masks)) - 1
    for k in range(1, cap + 1):
        for subset in combinations(range(len(masks)), k):
            union = reduce(or_, (masks[i] for i in subset))
            if union & full == full and (accept is None or accept(union)):
                return subset
    return None


def ref_gen_nws(params: RandomModelParams) -> Graph:
    """NWS graph whose shortcut targets are drawn from the list of free ids, with the
    same random calls as ``generators.generate`` makes for NWS."""
    rng = random.Random(params.seed)
    n, k, p = params.n, params.nws_k, params.nws_p
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    for u, _ in list(edges):
        if rng.random() >= p:
            continue
        candidates = [w for w in range(n) if w != u and w not in adjacent[u]]
        if not candidates:
            continue
        w = candidates[rng.randrange(len(candidates))]
        edges.append((u, w))
        adjacent[u].add(w)
        adjacent[w].add(u)
    return build_graph(n, edges)


def ref_gen_ba(params: RandomModelParams) -> Graph:
    """BA graph whose edges are collected in a list and cleaned by ``build_graph``, with
    the same random calls as ``generators.generate`` makes for BA."""
    if params.model != BA:
        raise GraphError(f"expected ba params, got {params.model!r}")
    rng = random.Random(params.seed)
    m = params.ba_m
    edges = [(0, i) for i in range(1, m + 1)]
    # one entry per incident edge end, so index-uniform draws are
    # degree-proportional
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, params.n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in sorted(targets):
            edges.append((source, t))
            repeated.append(t)
        repeated.extend([source] * m)
    return build_graph(params.n, edges)


def ref_reduction_gadget(g: Graph) -> tuple[Graph, GadgetMap]:
    """``generators.reduction_gadget`` from the list of all its edges, cleaned by
    ``build_graph``, with the same refusals."""
    profile = metric_profile(g)  # also rejects disconnected input
    if profile.radius < 2:
        raise GraphError(f"gadget needs radius >= 2, got radius {profile.radius}")
    n = g.n
    edges = []
    for v in range(n):
        edges.append((v, n + v))
        edges.append((n + v, 2 * n + v))
    for v in range(n):
        for w in range(v + 1, n):
            edges.append((v, w))
    for a, b in g.edges():
        edges.append((n + a, n + b))
    return build_graph(3 * n, edges), GadgetMap(n)


def fw_min_delta_enabling(g: Graph, delta: int, cap: int | None = None) -> NodeSet | None:
    """Lexicographically first smallest S of at most ``cap`` (default n) members with
    diam(augment(g, S)) <= delta, or None.

    Every candidate is checked by Floyd-Warshall on the augmented graph.
    """
    for k in range(1, min(g.n, cap or g.n) + 1):
        for combo in combinations(range(g.n), k):
            if max(fw_eccentricities(augment(g, combo))) <= delta:
                return NodeSet(combo)
    return None


def brute_betweenness(g: Graph) -> list[float]:
    """Betweenness by enumerating every shortest path with plain DFS.

    Exponential; only for tiny graphs.  Each unordered pair contributes, per
    interior node, the fraction of the pair's shortest paths through it.
    """
    d = fw_distances(g)
    score = [0.0] * g.n

    def all_paths(a: int, b: int) -> list[list[int]]:
        if a == b:
            return [[a]]
        out = []
        for w in g.adj[a]:
            if d[w][b] == d[a][b] - 1:
                out.extend([[a] + rest for rest in all_paths(w, b)])
        return out

    for a, b in combinations(range(g.n), 2):
        if d[a][b] >= INF:
            continue
        paths = all_paths(a, b)
        for p in paths:
            for v in p[1:-1]:
                score[v] += 1.0 / len(paths)
    return score


def ref_dependencies(g: Graph, s: int) -> list[float]:
    """Source ``s``'s Brandes dependency on every node, from per-source predecessor lists.

    The textbook form: a queue BFS records each node's predecessors, and the
    accumulation walks the nodes in reverse BFS order.  The entries of ``s``
    itself and of nodes it does not reach are 0.0, as in the library's
    ``graph._dependencies``, which must match it bit for bit.
    """
    n = g.n
    adj = g.adj
    dist = [-1] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[s] = 0
    sigma[s] = 1
    queue = deque((s,))
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
            if dist[w] == dv:
                sigma[w] += sv
                preds[w].append(v)
    delta = [0.0] * n
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    delta[s] = 0.0
    return delta


def ref_brandes(g: Graph) -> list[float]:
    """Betweenness by Brandes' accumulation with per-source predecessor lists.

    Sums :func:`ref_dependencies` over the sources in order 0..n-1, the
    library's sum order, so results must match exactly, not just
    approximately.
    """
    score = [0.0] * g.n
    for s in range(g.n):
        score = [x + y for x, y in zip(score, ref_dependencies(g, s))]
    # each unordered pair was accumulated from both endpoints
    return [x / 2.0 for x in score]


def ref_connected_components(g: Graph) -> list[list[int]]:
    """Components by a full-length BFS from each unseen node plus an O(n) scan per component."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for v in range(g.n):
        if seen[v]:
            continue
        dist = [-1] * g.n
        dist[v] = 0
        queue = deque((v,))
        while queue:
            x = queue.popleft()
            for w in g.adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        comp = [w for w in range(g.n) if dist[w] >= 0 and not seen[w]]
        for w in comp:
            seen[w] = True
        comps.append(comp)
    return comps


def grow_to_sub_radius_dominating(g: Graph, radius: int, rng: random.Random) -> NodeSet:
    """Random set grown node by node until it covers everything within radius-1."""
    members = set(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 3))))
    d = fw_distances(g)
    while True:
        uncovered = [
            v for v in range(g.n)
            if v not in members and min(d[v][w] for w in members) >= radius
        ]
        if not uncovered:
            return NodeSet(members)
        members.add(rng.choice(uncovered))


def ref_min_dominating(g: Graph) -> NodeSet:
    """Smallest dominating set by a size-ordered search with the set-based checker."""
    nodes = range(g.n)
    for k in range(1, g.n + 1):
        for combo in combinations(nodes, k):
            if is_dominating_set(g, combo):
                return NodeSet(combo)
    return NodeSet(nodes)  # n = 0 only


def _ref_induced(g: Graph, nodes) -> tuple[Graph, list[int]]:
    """The subgraph of ``g`` on ``nodes``, built edge by edge, and its ids' nodes of ``g`` (ascending)."""
    ordered = sorted(nodes)
    position = {v: i for i, v in enumerate(ordered)}
    edges = [(position[a], position[b]) for a, b in g.edges() if a in position and b in position]
    return build_graph(len(ordered), edges), ordered


def _ref_chooser(f: Graph, metric: str, r: int):
    """Candidates of ``f`` -> the node a metric adopts; every tie goes to the smallest id.

    ``max`` takes the highest degree, ``btw`` the highest ``ref_brandes``
    score, and ``ml`` walks from the lowest-degree candidate for at most
    r - 1 steps, each to the highest-degree neighbour other than the one it
    came from, and takes where it stops.
    """
    degree = [len(row) for row in f.adj]
    if metric == "max":
        return lambda candidates: min(candidates, key=lambda v: (-degree[v], v))
    if metric == "btw":
        score = ref_brandes(f)
        return lambda candidates: min(candidates, key=lambda v: (-score[v], v))

    def leaf_walk(candidates):
        prev, cur = None, min(candidates, key=lambda v: (degree[v], v))
        for _ in range(r - 1):
            steps = [w for w in f.adj[cur] if w != prev]
            if not steps:
                break
            prev, cur = cur, min(steps, key=lambda w: (-degree[w], w))
        return cur

    return leaf_walk


def ref_heuristic(g: Graph, heuristic: str) -> NodeSet:
    """The set broker heuristic ``heuristic`` (a ``BrokerHeuristic`` value) ties to, on connected ``g``.

    A node covers the nodes within r - 1 of it, r = rad(g).  At radius 1
    that is itself alone, so the answer is every node, whatever the
    heuristic.  ``max``/``btw``/``ml`` adopt their metric's pick in the
    subgraph induced by the uncovered nodes and cover within r - 1 there;
    the ``s-`` variants rank on ``g`` and pick among the uncovered nodes,
    covering within r - 1 in ``g``.  ``center`` ties to the neighbours of
    the lowest-degree center node.  ``imp-center`` takes those neighbours
    by decreasing degree while the largest component of the uncovered
    nodes (ties: the one with the smallest node) has radius at least r - 1,
    and otherwise, or once they run out, that component's first center.
    """
    d = fw_distances(g)
    ecc = [max(row) for row in d]
    r = min(ecc)
    if r == 1:
        return NodeSet(range(g.n))
    uncovered = set(range(g.n))
    chosen = set()
    metric = heuristic.removeprefix("s-")
    if heuristic in ("max", "btw", "ml"):
        while uncovered:
            f, ids = _ref_induced(g, uncovered)
            w = _ref_chooser(f, metric, r)(range(f.n))
            chosen.add(ids[w])
            uncovered -= {ids[x] for x, dx in enumerate(fw_distances(f)[w]) if dx <= r - 1}
        return NodeSet(chosen)
    if heuristic in ("s-max", "s-btw", "s-ml"):
        choose = _ref_chooser(g, metric, r)
        while uncovered:
            w = choose(sorted(uncovered))
            chosen.add(w)
            uncovered -= {x for x in range(g.n) if d[w][x] <= r - 1}
        return NodeSet(chosen)
    v = min((x for x in range(g.n) if ecc[x] == r), key=lambda x: (g.degree(x), x))
    if heuristic == "center":
        return NodeSet(g.adj[v])
    if heuristic != "imp-center":
        raise ValueError(f"unknown heuristic {heuristic!r}")
    neighbors = sorted(g.adj[v], key=lambda x: (-g.degree(x), x))
    while uncovered:
        f, ids = _ref_induced(g, uncovered)
        df = fw_distances(f)
        components = {frozenset(y for y in range(f.n) if df[x][y] < INF) for x in range(f.n)}
        component = min(components, key=lambda c: (-len(c), min(c)))
        comp_ecc = {x: max(df[x][y] for y in component) for x in component}
        comp_radius = min(comp_ecc.values())
        if comp_radius >= r - 1 and neighbors:
            w = neighbors.pop(0)
        else:
            w = ids[min(x for x in component if comp_ecc[x] == comp_radius)]
        chosen.add(w)
        uncovered -= {x for x in range(g.n) if d[w][x] <= r - 1}
    return NodeSet(chosen)


def _ref_peripheral_pairs(g: Graph) -> list[tuple[int, int]]:
    """All unordered node pairs at distance exactly diam(g), ascending."""
    profile = metric_profile(g)
    near = _balls_of_radius(g.adj, profile.diameter - 1)
    periphery = profile.periphery
    return [
        (a, b)
        for i, a in enumerate(periphery)
        for b in periphery[i + 1:]
        if not near[a] >> b & 1
    ]


def _ref_check_delta(g: Graph, delta: int) -> None:
    """Refuse a target below 2, then one above diam(g), as both reductions do."""
    if delta < 2:  # before g is profiled
        raise GraphError(f"target diameter must be >= 2, got {delta}")
    diameter = metric_profile(g).diameter  # also rejects disconnected input
    if delta > diameter:
        raise GraphError(f"target diameter {delta} outside valid range 2..{diameter}")


def _ref_tie(g: Graph, s: set[int], prev: Graph | None = None) -> Graph:
    """``g`` joined with a newcomer tied to ``s``; refuses a diameter above ``prev``'s."""
    cur = augment(g, NodeSet(s))
    if prev is not None and metric_profile(cur).diameter > metric_profile(prev).diameter:
        raise RuntimeError("diameter increased")
    return cur


def ref_periphery_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """``periphery_algorithm`` with the combined graph built and profiled every round."""
    _ref_check_delta(g, delta)
    rng = random.Random(seed)
    u = g.n
    s: set[int] = set()
    cur = g
    iterations = 0
    while True:
        candidates = []
        for a, b in _ref_peripheral_pairs(cur):
            addable = [x for x in (a, b) if x != u and x not in s]
            if addable:
                candidates.append(addable)
        if not candidates:
            raise RuntimeError("no addable peripheral pair despite oversized diameter")
        s.update(candidates[rng.randrange(len(candidates))])
        # the first tie may lengthen the diameter through the newcomer itself
        cur = _ref_tie(g, s, cur if iterations else None)
        iterations += 1
        if metric_profile(cur).diameter <= delta:
            return DeltaReport(NodeSet(s), len(s), metric_profile(cur).diameter, iterations)


def ref_cp_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """``cp_algorithm`` with the combined graph built and profiled every round."""
    _ref_check_delta(g, delta)
    rng = random.Random(seed)
    u = g.n
    radius = metric_profile(g).radius
    centers = metric_profile(g).center
    s: set[int] = {centers[rng.randrange(len(centers))]}
    cur = _ref_tie(g, s)
    iterations = 1
    while metric_profile(cur).diameter > delta:
        candidates = [w for w in metric_profile(cur).periphery if w != u and w not in s]
        if not candidates:
            raise RuntimeError("periphery exhausted despite oversized diameter")
        w = candidates[rng.randrange(len(candidates))]
        s.add(w)
        iterations += 1
        cur = _ref_tie(g, s, cur)
        if metric_profile(cur).ecc[w] > radius + 2:
            raise RuntimeError(
                f"picked periphery node {w} kept eccentricity {metric_profile(cur).ecc[w]} "
                f"> original radius {radius} + 2"
            )
    return DeltaReport(NodeSet(s), len(s), metric_profile(cur).diameter, iterations)
