import random
from itertools import combinations

import pytest

from tieset import broker
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


@pytest.mark.parametrize("heuristic", ["btw", "s-btw"])
def test_whole_graph_betweenness_is_computed_before_the_timer(monkeypatch, heuristic):
    g = random_connected(20, 6, 1)
    events = []
    kernel = broker.betweenness
    monkeypatch.setattr(broker, "betweenness", lambda f: events.append(f is g) or kernel(f))
    monkeypatch.setattr(broker.time, "perf_counter", lambda: events.append("clock") or 0.0)
    run_heuristic(g, heuristic, verify=False)
    assert events[:2] == [True, "clock"]


def test_min_broker_path5():
    s = brute_force_min_broker(P5)
    assert s == NodeSet([0, 3])  # lexicographically first of the size-2 minima
    assert is_broker_set(P5, s)
    for combo in combinations(range(5), 1):
        assert not is_broker_set(P5, combo)


def test_min_broker_star_and_complete_need_everything():
    assert brute_force_min_broker(STAR4) == NodeSet(range(5))
    assert brute_force_min_broker(K4) == NodeSet(range(4))


def test_min_broker_cap_exceeded_is_distinct():
    with pytest.raises(CapExceededError):
        brute_force_min_broker(P5, size_cap=1)
    with pytest.raises(GraphError):
        brute_force_min_broker(build_graph(3, [(0, 1)]))


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
