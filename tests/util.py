"""Shared graph builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's BFS machinery: distances
come from Floyd-Warshall over the raw edge list, betweenness from literal
enumeration of all shortest paths, so they can vouch for the fast paths.
``ref_brandes`` is the textbook predecessor-list Brandes accumulation, kept
as the exact (bit-for-bit) reference for the library's betweenness kernel.
``ref_periphery_algorithm`` and ``ref_cp_algorithm`` are the diameter
reductions that build the combined graph and profile it every round, kept as
the exact reference (same ties, same reports, same errors) for the library's
versions, which read the combined graph through the augmentation law.
``_count_forks``, ``_assert_no_child_left`` and ``open_descriptors`` watch
the processes and descriptors a forking call leaves behind.
"""

from __future__ import annotations

import os
import random
from collections import deque
from itertools import combinations

import pytest

from tieset.broker import is_dominating_set
from tieset.diameter import DeltaReport, _check_reduction_args
from tieset.graph import Graph, NodeSet, _balls_of_radius, augment, build_graph, metric_profile

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


def fw_min_delta_enabling(g: Graph, delta: int) -> NodeSet | None:
    """Lexicographically first smallest S with diam(augment(g, S)) <= delta, or None.

    Every candidate is checked by Floyd-Warshall on the augmented graph.
    """
    for k in range(1, g.n + 1):
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


def ref_brandes(g: Graph) -> list[float]:
    """Betweenness by Brandes' accumulation with per-source predecessor lists.

    Same sum order as the library's kernel, so results must match exactly,
    not just approximately.
    """
    n = g.n
    adj = g.adj
    score = [0.0] * n
    for s in range(n):
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
            if w != s:
                score[w] += delta[w]
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


def _ref_peripheral_pairs(g: Graph) -> list[tuple[int, int]]:
    """All unordered node pairs at distance exactly diam(g), ascending."""
    profile = metric_profile(g)
    near = _balls_of_radius(g.adj, profile.diameter - 1)
    periphery = profile.periphery.members
    return [
        (a, b)
        for i, a in enumerate(periphery)
        for b in periphery[i + 1:]
        if not near[a] >> b & 1
    ]


def _ref_tie(g: Graph, s: set[int], prev: Graph | None = None) -> Graph:
    """``g`` joined with a newcomer tied to ``s``; refuses a diameter above ``prev``'s."""
    cur = augment(g, NodeSet(s))
    if prev is not None and metric_profile(cur).diameter > metric_profile(prev).diameter:
        raise RuntimeError("diameter increased")
    return cur


def ref_periphery_algorithm(g: Graph, delta: int, seed: int = 0) -> DeltaReport:
    """``periphery_algorithm`` with the combined graph built and profiled every round."""
    _check_reduction_args(g, delta)
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
    _check_reduction_args(g, delta)
    rng = random.Random(seed)
    u = g.n
    radius = metric_profile(g).radius
    centers = metric_profile(g).center.members
    s: set[int] = {centers[rng.randrange(len(centers))]}
    cur = _ref_tie(g, s)
    iterations = 1
    while metric_profile(cur).diameter > delta:
        candidates = [w for w in metric_profile(cur).periphery.members if w != u and w not in s]
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
