import copy
import errno
import math
import os
import pickle
import threading
import time

import pytest

from tieset import graph
from tieset.broker import _coverage_balls, is_broker_set, run_heuristic
from tieset.diameter import periphery_algorithm
from tieset.generators import BA, NWS, RandomModelParams, generate
from tieset.graph import (
    FORK_MIN_WORK,
    GraphError,
    NodeSet,
    NotConnectedError,
    UNREACHABLE,
    augment,
    betweenness,
    bfs_distances,
    build_graph,
    connected_components,
    induced_subgraph,
    is_complete,
    is_connected,
    is_diametrically_uniform,
    largest_connected_component,
    metric_profile,
)

from util import (
    _assert_no_child_left,
    _count_forks,
    brute_betweenness,
    complete_graph,
    cycle_graph,
    fw_distances,
    open_descriptors,
    path_graph,
    random_connected,
    ref_brandes,
    star_graph,
)


def test_build_graph_drops_self_loops_and_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 0)])
    assert g.m == 1
    assert g.adj[0] == (1,)
    assert g.adj[1] == (0,)


def test_build_graph_path():
    g = path_graph(5)
    assert (g.n, g.m) == (5, 4)
    assert g.adj[2] == (1, 3)


def test_build_graph_rejects_out_of_range_ids():
    with pytest.raises(GraphError, match=r"node id 3 out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError, match=r"node id 3 out of range in edge \(3, 0\)"):
        build_graph(3, [(3, 0)])
    with pytest.raises(GraphError, match=r"node id -1 out of range in edge \(-1, 0\)"):
        build_graph(3, [(-1, 0)])
    with pytest.raises(GraphError, match="node count must be non-negative, got -1"):
        build_graph(-1, [])


def test_graph_edges_listing_is_sorted():
    g = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_nodeset_normalizes_and_is_immutable():
    s = NodeSet([3, 1, 3, 2])
    assert len(s) == 3 and 2 in s
    assert isinstance(s, tuple) and s == (1, 2, 3) and hash(s) == hash((1, 2, 3))
    with pytest.raises(AttributeError):
        s.members = ()
    assert s == NodeSet((2, 1, 3))
    with pytest.raises(GraphError, match="negative node id -1"):
        NodeSet([2, -1])


def test_nodeset_refuses_a_member_that_is_not_an_integer():
    # caught before a float reaches a row of augment or an index in is_broker_set
    for members, bad in (([0.5, 2], "0.5"), ([1, "a"], "'a'")):
        with pytest.raises(GraphError, match=f"^node id {bad} is not an integer$"):
            NodeSet(members)
    g = path_graph(3)
    for call in (lambda: augment(g, [1.0]), lambda: is_broker_set(g, [1.0])):
        with pytest.raises(GraphError, match="^node id 1.0 is not an integer$"):
            call()


def test_bfs_distances_path_and_cycle():
    assert bfs_distances(path_graph(5), 0) == [0, 1, 2, 3, 4]
    assert bfs_distances(cycle_graph(6), 0) == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_unreachable_sentinel():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, UNREACHABLE, UNREACHABLE]
    assert math.isinf(UNREACHABLE)


def test_bfs_distances_source_out_of_range():
    with pytest.raises(GraphError):
        bfs_distances(path_graph(3), 5)


def test_metric_profile_path5():
    p = metric_profile(path_graph(5))
    assert p.ecc == (4, 3, 2, 3, 4)
    assert (p.radius, p.diameter) == (2, 4)
    assert p.center == NodeSet([2])
    assert p.periphery == NodeSet([0, 4])


def test_metric_profile_cycle6_vertex_transitive():
    p = metric_profile(cycle_graph(6))
    assert set(p.ecc) == {3}
    assert p.radius == p.diameter == 3
    assert p.center == p.periphery == NodeSet(range(6))


def test_metric_profile_rejects_disconnected(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the ball kernel ran on a graph that is not connected")

    monkeypatch.setattr(graph, "_balls", no_kernel)  # the refusal is one BFS, before any kernel run
    cases = [
        (build_graph(4, [(0, 1), (2, 3)]), "graph not connected"),
        (build_graph(4, [(0, 1), (1, 2)]), "graph not connected"),  # a path plus an isolated node
        (build_graph(0, []), "graph not connected: no nodes"),
    ]
    for g, message in cases:
        with pytest.raises(NotConnectedError) as raised:
            metric_profile(g)
        assert str(raised.value) == message
        assert g._profile is None


def test_metric_profile_is_computed_once_and_kept():
    g = random_connected(15, 8, 4)
    assert metric_profile(g) is metric_profile(g)
    assert metric_profile(g) == metric_profile(random_connected(15, 8, 4))


def test_disconnected_graph_raises_on_every_profile_call():
    g = build_graph(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(NotConnectedError, match="not connected"):
            metric_profile(g)


def test_node_sets_and_reports_survive_pickle_and_deepcopy():
    g = path_graph(5)
    values = [NodeSet([2, 1]), metric_profile(g), run_heuristic(g, "s-max"), periphery_algorithm(g, 3, seed=7)]
    for value in values:
        twins = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*twins, copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    twin = copy.deepcopy(values[0])
    assert twin == (1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        twin.members = (3,)


def test_uniformity_and_completeness_flags():
    assert is_diametrically_uniform(cycle_graph(6)) and not is_complete(cycle_graph(6))
    assert is_diametrically_uniform(complete_graph(4)) and is_complete(complete_graph(4))
    assert not is_diametrically_uniform(path_graph(5)) and not is_complete(path_graph(5))


def test_largest_connected_component_tie_break():
    g = build_graph(4, [(0, 1), (2, 3)])
    lcc, members = largest_connected_component(g)
    assert lcc.n == 2 and lcc.m == 1
    assert members == [0, 1]  # equal sizes: smallest contained id wins


def test_largest_connected_component_identity_on_connected():
    g = path_graph(5)
    lcc, members = largest_connected_component(g)
    assert lcc == g
    assert members == list(range(5))


def test_largest_connected_component_of_the_empty_graph_is_itself():
    g = build_graph(0, [])
    lcc, members = largest_connected_component(g)
    assert lcc is g and members == []


def test_connected_components_order():
    g = build_graph(6, [(4, 5), (1, 2), (2, 3)])
    assert connected_components(g) == [[0], [1, 2, 3], [4, 5]]


@pytest.mark.parametrize("edges", [[], [(v, v + 1) for v in range(19_999)]], ids=["isolated", "path"])
def test_connected_components_is_linear_on_20000_nodes(edges):
    # one search per component over a shared distance list; a sweep that
    # rescans the unlabeled nodes per component took 2.7 s at 8,000 nodes
    g = build_graph(20_000, edges)
    t0 = time.perf_counter()
    comps = connected_components(g)
    assert time.perf_counter() - t0 < 2.0
    assert comps == ([[v] for v in range(20_000)] if not edges else [list(range(20_000))])


def test_induced_subgraph_relabels_in_order():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 4])
    assert sub.n == 3
    assert list(sub.edges()) == [(0, 1), (0, 2)]  # 0-1 and 0-4 survive


def test_induced_subgraph_on_every_node_is_the_graph_itself():
    g = random_connected(12, 6, 3)
    assert induced_subgraph(g, range(g.n)) is g
    assert induced_subgraph(g, reversed([*range(g.n), 0, 5])) is g
    empty = build_graph(0, [])
    assert induced_subgraph(empty, []) is empty


@pytest.mark.parametrize("members, bad", [([-1, 0], -1), ([0, 4], 4), ([9], 9), ([-2, 1, 7], -2)])
def test_induced_subgraph_rejects_ids_out_of_range(members, bad):
    g = path_graph(4)
    with pytest.raises(GraphError, match=rf"node id {bad} out of range for graph with n=4"):
        induced_subgraph(g, members)
    assert induced_subgraph(g, [3, 0]).n == 2  # both ends in range


def test_induced_subgraph_with_duplicates_still_relabels():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [4, 0, 4, 1])
    assert sub == induced_subgraph(g, [0, 1, 4])
    # n members, but not 0..n-1: must not be mistaken for the whole graph
    sub = induced_subgraph(g, [0, 0, 1, 2, 3])
    assert sub is not g
    assert sub == build_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_betweenness_interior_of_path3():
    assert betweenness(build_graph(3, [(0, 1), (1, 2)])) == [0.0, 1.0, 0.0]


def test_betweenness_star_center_counts_leaf_pairs():
    # 3 leaf pairs, one shortest path each, all through the hub
    assert betweenness(star_graph(3)) == [3.0, 0.0, 0.0, 0.0]


def test_betweenness_cycle4_split_pairs():
    # each antipodal pair has two shortest paths, half credit to each side
    assert betweenness(cycle_graph(4)) == [0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("seed", range(6))
def test_betweenness_matches_path_enumeration(seed):
    g = random_connected(7, seed % 4, seed)
    fast = betweenness(g)
    slow = brute_betweenness(g)
    assert fast == pytest.approx(slow, abs=1e-9)


@pytest.mark.parametrize("params", [
    RandomModelParams(BA, 300, 11, ba_m=2),
    RandomModelParams(NWS, 300, 12, nws_k=4, nws_p=0.1),
    RandomModelParams(NWS, 120, 13, nws_k=6, nws_p=0.05),
], ids=lambda p: f"{p.model}-n{p.n}")
def test_betweenness_equals_reference_bit_for_bit(params):
    g = generate(params)
    assert betweenness(g) == ref_brandes(g)


# the split pass: forks, the cutoff and the failure paths

ABOVE_CUTOFF = RandomModelParams(BA, 300, 11, ba_m=2)


def test_betweenness_first_pass_above_the_cutoff_forks_one_child_per_extra_cpu(monkeypatch):
    g = generate(ABOVE_CUTOFF)
    assert g.n * (g.n + 2 * g.m) >= FORK_MIN_WORK
    k = min(len(os.sched_getaffinity(0)), g.n)
    pids = _count_forks(monkeypatch)
    assert betweenness(g) == ref_brandes(g)
    assert len(pids) == k - 1
    _assert_no_child_left()
    # the second call reads the kept result; btw's shrinking subgraphs are below the cutoff
    assert betweenness(g) == ref_brandes(g)
    assert run_heuristic(g, "btw").valid
    assert len(pids) == k - 1


@pytest.mark.parametrize("case", ["below-cutoff", "thread-running", "no-fork"])
def test_betweenness_stays_in_process(monkeypatch, case):
    g = generate(ABOVE_CUTOFF)
    pids = _count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    if case == "below-cutoff":
        g = generate(RandomModelParams(BA, 120, 11, ba_m=2))
        assert g.n * (g.n + 2 * g.m) < FORK_MIN_WORK
    elif case == "thread-running":
        thread.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        assert betweenness(g) == ref_brandes(g)
        assert run_heuristic(g, "btw").valid
    finally:
        stop.set()
        if case == "thread-running":
            thread.join(timeout=10)
    assert pids == []
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus, workers", [(None, 1), (4, 4)])
def test_workers_fall_back_on_the_cpu_count_without_an_affinity_mask(monkeypatch, cpus, workers):
    g = generate(ABOVE_CUTOFF)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert graph._workers(g.n, g.adj) == workers


def _failing_dependencies(monkeypatch, in_child: bool):
    """Make ``_dependencies`` fail from source 40 on, in the children or in this process."""
    parent = os.getpid()
    kernel = graph._dependencies

    def failing(s, n, adj):
        if s >= 40 and (os.getpid() != parent) == in_child:
            if in_child:
                os._exit(3)
            raise ValueError(f"source {s} failed")
        return kernel(s, n, adj)

    monkeypatch.setattr(graph, "_dependencies", failing)
    monkeypatch.setattr(graph, "_workers", lambda n, adj: 3)


COUNTS_DESCRIPTORS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd"
)


@COUNTS_DESCRIPTORS
def test_betweenness_split_in_three_gives_each_worker_only_its_own_pipe(monkeypatch, tmp_path):
    g = generate(ABOVE_CUTOFF)
    monkeypatch.setattr(graph, "_workers", lambda n, adj: 3)
    log = tmp_path / "descriptors"
    kernel = graph._dependencies

    def counting(s, n, adj):
        if s in (1, 2):  # the first source of workers 1 and 2, each in its own process
            count = open_descriptors()
            with open(log, "a") as f:
                f.write(f"{s} {count}\n")
        return kernel(s, n, adj)

    monkeypatch.setattr(graph, "_dependencies", counting)
    pids = _count_forks(monkeypatch)
    before = open_descriptors()
    assert betweenness(g) == ref_brandes(g)
    assert len(pids) == 2
    assert open_descriptors() == before
    _assert_no_child_left()
    counts = dict(line.split() for line in log.read_text().splitlines())
    assert counts.keys() == {"1", "2"}
    assert counts["1"] == counts["2"]  # worker 2 closed worker 1's read end as well as its own


@COUNTS_DESCRIPTORS
def test_betweenness_worker_that_dies_raises_and_leaves_no_child(monkeypatch):
    g = generate(ABOVE_CUTOFF)
    _failing_dependencies(monkeypatch, in_child=True)
    pids = _count_forks(monkeypatch)
    before = open_descriptors()
    with pytest.raises(RuntimeError, match="exited with status 3"):
        betweenness(g)
    assert len(pids) == 2
    assert g._betweenness is None
    assert open_descriptors() == before
    _assert_no_child_left()


@COUNTS_DESCRIPTORS
def test_betweenness_failing_parent_source_reaps_every_child(monkeypatch):
    g = generate(ABOVE_CUTOFF)
    _failing_dependencies(monkeypatch, in_child=False)
    pids = _count_forks(monkeypatch)
    before = open_descriptors()
    with pytest.raises(ValueError, match="source 42 failed"):
        betweenness(g)
    assert len(pids) == 2
    assert g._betweenness is None
    assert open_descriptors() == before
    _assert_no_child_left()


@COUNTS_DESCRIPTORS
def test_betweenness_failing_second_fork_reaps_the_first_and_closes_every_pipe(monkeypatch):
    g = generate(ABOVE_CUTOFF)
    monkeypatch.setattr(graph, "_workers", lambda n, adj: 3)
    pids = _count_forks(monkeypatch)
    counting_fork = os.fork

    def second_fork_fails():
        if pids:
            raise OSError(errno.EAGAIN, "fork refused")
        return counting_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    before = open_descriptors()
    with pytest.raises(OSError, match="fork refused"):
        betweenness(g)
    assert len(pids) == 1
    assert g._betweenness is None
    assert open_descriptors() == before
    _assert_no_child_left()


def test_betweenness_returns_a_fresh_list():
    g = random_connected(15, 8, 4)
    first = betweenness(g)
    first[0] = -1.0
    first.append(7.0)
    assert betweenness(g) == ref_brandes(g)
    assert betweenness(g) is not betweenness(g)


def test_kept_betweenness_leaves_equality_hash_repr_and_pickle_alone():
    # covers all three kept slots: the betweenness scores, the metric profile
    # and the broker side's coverage balls
    g, twin = random_connected(20, 10, 99), random_connected(20, 10, 99)
    before = (repr(g), hash(g), pickle.dumps(g))
    scores = betweenness(g)
    profile = metric_profile(g)
    coverage = _coverage_balls(g)
    assert g._coverage is coverage and len(coverage) == g.n and twin._coverage is None
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert (repr(g), hash(g)) == before[:2]
    for blob in (before[2], pickle.dumps(g)):
        loaded = pickle.loads(blob)
        assert loaded == g and hash(loaded) == hash(g) and repr(loaded) == repr(g)
        assert betweenness(loaded) == scores
        assert metric_profile(loaded) == profile
        assert _coverage_balls(loaded) == coverage


@pytest.mark.parametrize("seed", range(5))
def test_bfs_matrix_matches_floyd_warshall(seed):
    g = random_connected(9, 3, seed)
    fw = fw_distances(g)
    for v in range(g.n):
        assert bfs_distances(g, v) == fw[v]


def test_augment_adds_newcomer_with_exact_ties():
    g = path_graph(5)
    h = augment(g, NodeSet([1, 3]))
    assert (h.n, h.m) == (6, 6)
    assert h.adj[5] == (1, 3)
    assert h.adj[1] == (0, 2, 5)
    assert h.adj[0] == (1,)  # untouched
    assert metric_profile(h).ecc[5] == 2


def test_augment_with_all_nodes_centers_newcomer():
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        h = augment(g, range(g.n))
        p = metric_profile(h)
        assert p.ecc[g.n] == 1
        assert p.radius == 1
        if not is_complete(g):
            assert p.diameter == 2


def test_augment_single_node_graph_gives_edge():
    g = build_graph(1, [])
    h = augment(g, [0])
    assert (h.n, h.m) == (2, 1)
    assert h.adj == ((1,), (0,))


def test_augment_rejects_empty_and_out_of_range():
    g = path_graph(3)
    with pytest.raises(GraphError, match="non-empty"):
        augment(g, [])
    with pytest.raises(GraphError, match="out of range"):
        augment(g, [7])


def test_graph_value_equality_and_determinism():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert build_graph(4, edges) == build_graph(4, list(reversed(edges)))
    g = random_connected(20, 10, 99)
    assert metric_profile(g) == metric_profile(g)
    assert betweenness(g) == betweenness(random_connected(20, 10, 99))


def test_is_connected():
    assert is_connected(path_graph(2))
    assert not is_connected(build_graph(3, [(0, 1)]))
    assert not is_connected(build_graph(0, []))
