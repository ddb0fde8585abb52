import random
import sys
from itertools import combinations

import pytest

from tieset import broker, diameter, graph
from tieset.broker import (
    AlgorithmReport,
    BrokerHeuristic,
    CapExceededError,
    broker_decision,
    brute_force_min_broker,
    brute_force_min_dominating,
    is_broker_set,
    is_dominating_set,
    is_sub_radius_dominating,
    run_heuristic,
)
from tieset.generators import BA, RandomModelParams, generate
from tieset.graph import GraphError, NodeSet, NotConnectedError, build_graph, metric_profile

from util import complete_graph, cycle_graph, path_graph, random_connected, star_graph

P5 = path_graph(5)
C6 = cycle_graph(6)
K4 = complete_graph(4)
STAR4 = star_graph(4)


def test_sub_radius_domination_examples():
    assert is_sub_radius_dominating(P5, [1, 3])       # r=2: reduces to domination
    assert not is_sub_radius_dominating(P5, [2])      # 0 and 4 sit at distance 2
    assert not is_sub_radius_dominating(C6, [0])      # node 3 at distance 3 = r


def test_broker_check_examples():
    assert is_broker_set(P5, [1, 3])
    assert not is_broker_set(P5, [2])
    assert is_broker_set(STAR4, range(5))


def test_star_has_no_smaller_broker_set():
    for k in range(1, 5):
        for combo in combinations(range(5), k):
            assert not is_broker_set(STAR4, combo)


def test_broker_check_agrees_with_sub_radius_domination():
    # same predicate reached by two independent routes (augment + newcomer BFS
    # versus bounded multi-source BFS); they must never disagree
    rng = random.Random(7)
    for trial in range(60):
        g = random_connected(rng.randint(2, 12), rng.randint(0, 8), trial)
        members = rng.sample(range(g.n), rng.randint(1, g.n))
        assert is_broker_set(g, members) == is_sub_radius_dominating(g, members)


def test_checks_reject_disconnected_or_bad_sets():
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        is_sub_radius_dominating(disconnected, [0])
    with pytest.raises(GraphError):
        is_broker_set(P5, [])
    with pytest.raises(GraphError):
        is_broker_set(P5, [9])


HAND_TRACED_P5 = {
    BrokerHeuristic.MAX: [1, 3],        # degree tie -> 1, remainder is edge 3-4
    BrokerHeuristic.BTW: [0, 2, 4],     # 2 covers middle, endpoints left isolated
    BrokerHeuristic.ML: [1, 4],         # leaf 0 walks to 1; leaf 3 walks to 4
    BrokerHeuristic.S_MAX: [1, 3],
    BrokerHeuristic.S_BTW: [0, 2, 4],
    BrokerHeuristic.S_ML: [1, 3],
    BrokerHeuristic.CENTER: [1, 3],     # neighbors of the unique center 2
    BrokerHeuristic.IMP_CENTER: [1, 3],
}


@pytest.mark.parametrize("heuristic,expected", sorted(HAND_TRACED_P5.items()))
def test_heuristics_on_path5_match_hand_traces(heuristic, expected):
    report = run_heuristic(P5, heuristic)
    assert report.s == NodeSet(expected)
    assert report.size == len(expected)
    assert report.valid is True


@pytest.mark.parametrize("heuristic", list(BrokerHeuristic))
def test_radius_one_graphs_return_everything(heuristic):
    for g in (STAR4, K4, build_graph(2, [(0, 1)])):
        report = run_heuristic(g, heuristic)
        assert report.s == NodeSet(range(g.n))
        assert report.valid is True


def test_heuristic_accepts_string_or_enum():
    a = run_heuristic(P5, "imp-center")
    b = run_heuristic(P5, BrokerHeuristic.IMP_CENTER)
    assert a.s == b.s == NodeSet([1, 3])


def test_heuristic_preconditions():
    with pytest.raises(GraphError):
        run_heuristic(build_graph(1, []), "max")
    with pytest.raises(NotConnectedError):
        run_heuristic(build_graph(4, [(0, 1), (2, 3)]), "max")
    with pytest.raises(ValueError):
        run_heuristic(P5, "does-not-exist")


def test_unverified_run_reports_none():
    report = run_heuristic(P5, "center", verify=False)
    assert report.valid is None
    assert report.s == NodeSet([1, 3])


# each cover loop refuses a pick that covers nothing, which no real pick does

def test_the_shrinking_cover_refuses_a_pick_that_covers_nothing(monkeypatch):
    # a coverage BFS that reaches no node leaves the uncovered subgraph as it was
    monkeypatch.setattr(broker, "_bfs", lambda *args: [])
    with pytest.raises(RuntimeError, match="^cover iteration made no progress$"):
        run_heuristic(P5, "max", verify=False)


def test_the_mask_cover_refuses_a_pick_that_covers_nothing(monkeypatch):
    # an s- rule that always picks node 0, whose 1-ball {0, 1} the first pick covers
    monkeypatch.setattr(broker, "_by_degree", lambda f, r: lambda candidates: 0)
    with pytest.raises(RuntimeError, match="^cover iteration made no progress$"):
        run_heuristic(P5, "s-max", verify=False)


@pytest.mark.parametrize("heuristic", ["btw", "s-btw"])
def test_whole_graph_betweenness_is_computed_before_the_timer(monkeypatch, heuristic):
    g = random_connected(20, 6, 1)
    events = []
    kernel = broker.betweenness
    monkeypatch.setattr(broker, "betweenness", lambda f: events.append(f is g) or kernel(f))
    monkeypatch.setattr(broker.time, "perf_counter", lambda: events.append("clock") or 0.0)
    run_heuristic(g, heuristic, verify=False)
    assert events[:2] == [True, "clock"]


@pytest.mark.parametrize("heuristic, verify, kept", [
    *[(h, False, False) for h in ("max", "btw", "ml", "center")],
    *[(h, False, True) for h in ("s-max", "s-btw", "s-ml", "imp-center")],
    *[(h.value, True, True) for h in BrokerHeuristic],
])
def test_coverage_balls_are_kept_only_by_runs_that_read_them(heuristic, verify, kept):
    # the s- covers and imp-center read them, and so does every verification
    g = random_connected(20, 6, 1)
    assert metric_profile(g).radius > 1
    run_heuristic(g, heuristic, verify=verify)
    assert (g._coverage is not None) == kept


def test_a_profile_of_another_graph_is_refused():
    with pytest.raises(GraphError, match="profile"):
        run_heuristic(P5, "s-max", profile=metric_profile(path_graph(9)))
    # g's own profile, or an equal copy of it, is accepted
    assert run_heuristic(P5, "s-max", profile=metric_profile(path_graph(5))).valid is True


def test_s_btw_runs_betweenness_once_whatever_the_number_of_picks(monkeypatch):
    g = random_connected(40, 10, 3)
    events = []
    kernel = broker.betweenness
    monkeypatch.setattr(broker, "betweenness", lambda f: events.append("btw") or kernel(f))
    monkeypatch.setattr(broker.time, "perf_counter", lambda: events.append("clock") or 0.0)
    report = run_heuristic(g, "s-btw", verify=False)
    assert report.size > 2
    # one warm-up before the timer, then one for the whole timed cover loop
    assert events == ["btw", "clock", "btw", "clock"]


def test_coverage_readers_share_one_kernel_run(monkeypatch):
    g = random_connected(14, 4, 5)
    radius = metric_profile(g).radius  # the profile's run, which keeps no coverage balls
    assert radius > 1
    events = []
    kernel = graph._balls

    def counting(adj, keep=()):
        if adj is g.adj:
            events.append(tuple(keep))
        return kernel(adj, keep)

    monkeypatch.setattr(graph, "_balls", counting)
    monkeypatch.setattr(broker.time, "perf_counter", lambda: events.append("clock") or 0.0)
    for h in BrokerHeuristic:
        assert run_heuristic(g, h, verify=True).valid is True
    assert is_broker_set(g, brute_force_min_broker(g))
    # the first coverage read runs the kernel to radius - 1, before any timer
    # starts, and keeps it on g; imp-center's later component profiles run
    # the kernel on subgraphs only
    assert events == [(radius - 1,)] + ["clock"] * (2 * len(BrokerHeuristic))


def test_min_broker_path5():
    s = brute_force_min_broker(P5)
    assert s == NodeSet([0, 3])  # lexicographically first of the size-2 minima
    assert is_broker_set(P5, s)
    for combo in combinations(range(5), 1):
        assert not is_broker_set(P5, combo)


def test_min_broker_star_and_complete_need_everything():
    assert brute_force_min_broker(STAR4) == NodeSet(range(5))
    assert brute_force_min_broker(K4) == NodeSet(range(4))


def test_min_broker_on_a_complete_graph_deeper_than_the_recursion_limit():
    # radius 1 gives singleton coverage masks, so the packing bound is n and
    # the search starts at size n, n levels deep
    n = sys.getrecursionlimit() + 100
    assert brute_force_min_broker(complete_graph(n)) == NodeSet(range(n))


# radius-2 BA graphs whose minima lie deep in the size-ordered enumeration
# (n = 42 took 5.5 s when every subset was tried), answers recorded by it
@pytest.mark.parametrize("n, seed, expected", [
    (30, 19, [0, 2, 11, 15, 16, 19]),
    (36, 20, [0, 4, 5, 9, 10, 15, 22]),
    (42, 20, [0, 4, 5, 9, 10, 15, 22]),
])
def test_min_broker_on_radius_two_ba_graphs_keeps_its_recorded_answer(n, seed, expected):
    g = generate(RandomModelParams(BA, n, seed))
    assert metric_profile(g).radius == 2
    assert brute_force_min_broker(g) == NodeSet(expected)


def test_min_broker_on_one_node_raises():
    # radius 0: no tie set gives the newcomer eccentricity 0, so no mask covers node 0
    with pytest.raises(CapExceededError, match="^no broker set of size <= 1 found$"):
        brute_force_min_broker(build_graph(1, []))


def test_min_broker_cap_exceeded_is_distinct(monkeypatch):
    with pytest.raises(CapExceededError):
        brute_force_min_broker(P5, size_cap=1)
    with pytest.raises(GraphError):
        brute_force_min_broker(build_graph(3, [(0, 1)]))
    for cap in (0, -1):  # no search is made at all
        with pytest.raises(GraphError, match="size cap must be >= 1"):
            brute_force_min_broker(P5, size_cap=cap)

    def no_kernel(*args):
        raise AssertionError("ball kernel run before the size cap was checked")

    # nor any kernel run: a fresh graph, since P5 may already keep its profile
    monkeypatch.setattr(graph, "_balls", no_kernel)
    monkeypatch.setattr(diameter, "_balls", no_kernel)
    with pytest.raises(GraphError, match="^size cap must be >= 1, got 0$"):
        brute_force_min_broker(path_graph(5), size_cap=0)
    with pytest.raises(GraphError, match="^size cap 2.5 is not an integer$"):
        brute_force_min_broker(path_graph(5), size_cap=2.5)


def test_min_dominating_examples():
    assert brute_force_min_dominating(P5) == NodeSet([0, 3])
    assert len(brute_force_min_dominating(P5)) == 2
    assert brute_force_min_dominating(K4) == NodeSet([0])
    assert brute_force_min_dominating(C6) == NodeSet([0, 3])


def test_is_dominating_set():
    assert is_dominating_set(P5, [1, 3])
    assert not is_dominating_set(P5, [0, 1])
    assert is_dominating_set(K4, [2])


def test_broker_decision():
    assert not broker_decision(P5, 1)
    assert broker_decision(P5, 2)
    assert not broker_decision(STAR4, 4)
    assert broker_decision(STAR4, 5)
    with pytest.raises(GraphError):
        broker_decision(P5, 0)


@pytest.mark.parametrize("heuristic", list(BrokerHeuristic))
def test_every_heuristic_is_valid_on_random_graphs(heuristic):
    rng = random.Random(13)
    for trial in range(12):
        g = random_connected(rng.randint(6, 40), rng.randint(0, 30), 1000 + trial)
        report = run_heuristic(g, heuristic)
        assert report.valid is True, (heuristic, trial)


def test_all_heuristics_valid_at_n500():
    from tieset.generators import BA, NWS, RandomModelParams, generate

    for params in (
        RandomModelParams(BA, 500, 77, ba_m=2),
        RandomModelParams(NWS, 500, 78, nws_k=4, nws_p=0.1),
    ):
        g = generate(params)
        profile = metric_profile(g)
        for h in BrokerHeuristic:
            assert run_heuristic(g, h, profile=profile).valid is True


def test_heuristics_never_undershoot_the_oracle():
    rng = random.Random(5)
    for trial in range(25):
        g = random_connected(rng.randint(2, 8), rng.randint(0, 6), 400 + trial)
        best = len(brute_force_min_broker(g))
        for h in BrokerHeuristic:
            assert run_heuristic(g, h).size >= best


def test_report_is_frozen():
    report = run_heuristic(P5, "max")
    assert isinstance(report, AlgorithmReport)
    with pytest.raises(AttributeError):
        report.size = 0
