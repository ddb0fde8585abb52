"""Property-based checks of the library's structural invariants."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from tieset import broker
from tieset.broker import (
    BrokerHeuristic,
    CapExceededError,
    brute_force_min_broker,
    brute_force_min_dominating,
    is_broker_set,
    is_sub_radius_dominating,
    run_heuristic,
)
from tieset.diameter import (
    _diameter_at_most,
    brute_force_min_delta_enabling,
    cp_algorithm,
    is_delta_enabling,
    periphery_algorithm,
    preserve_diameter,
)
from tieset.generators import BA, NWS, RandomModelParams, generate, reduction_gadget
from tieset.graph import (
    Graph,
    NodeSet,
    NotConnectedError,
    _balls,
    _brandes,
    augment,
    betweenness,
    bfs_distances,
    build_graph,
    connected_components,
    metric_profile,
)

from util import (
    complete_graph,
    cycle_graph,
    fw_distances,
    fw_eccentricities,
    fw_min_delta_enabling,
    grow_to_sub_radius_dominating,
    path_graph,
    random_connected,
    random_tree,
    ref_brandes,
    ref_connected_components,
    ref_min_dominating,
)


@st.composite
def connected_graphs(draw, min_n=2, max_n=9):
    """Random connected graph: spanning tree plus a sprinkle of extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pool = [e for e in combinations(range(n), 2) if e not in {tuple(sorted(x)) for x in edges}]
    extra = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)) if pool else []
    return build_graph(n, edges + extra)


@st.composite
def graphs_with_node_sets(draw):
    g = draw(connected_graphs())
    members = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    return g, NodeSet(members)


@given(connected_graphs())
def test_distances_are_symmetric_and_triangular(g):
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            assert dist[a][b] == dist[b][a]
            for c in range(g.n):
                assert dist[a][c] <= dist[a][b] + dist[b][c]


@given(connected_graphs())
def test_radius_diameter_sandwich(g):
    p = metric_profile(g)
    assert p.radius <= p.diameter <= 2 * p.radius
    assert p.center and p.periphery
    assert all(p.ecc[v] == p.radius for v in p.center)
    assert all(p.ecc[v] == p.diameter for v in p.periphery)


@given(graphs_with_node_sets())
def test_augmentation_distance_law(gs):
    g, s = gs
    h = augment(g, s)
    u = g.n
    base = [bfs_distances(g, v) for v in range(g.n)]
    combined = [bfs_distances(h, v) for v in range(h.n)]
    for v in range(g.n):
        assert combined[u][v] == 1 + min(base[w][v] for w in s)
    for v in range(g.n):
        for w in range(g.n):
            assert combined[v][w] == min(base[v][w], combined[v][u] + combined[u][w])


@given(st.integers(2, 10), st.integers(0, 2 ** 31))
def test_betweenness_mass_on_trees(n, seed):
    # every pair contributes one unit per interior node of its unique path
    g = random_tree(n, seed)
    d = fw_distances(g)
    expected = sum(d[a][b] - 1 for a, b in combinations(range(n), 2))
    assert sum(betweenness(g)) == pytest.approx(expected)


@given(graphs_with_node_sets())
def test_sub_radius_domination_iff_broker(gs):
    g, s = gs
    assert is_sub_radius_dominating(g, s) == is_broker_set(g, s)


@given(connected_graphs(), st.integers(0, 2 ** 31))
def test_grown_dominating_sets_are_broker_sets(g, seed):
    r = metric_profile(g).radius
    s = grow_to_sub_radius_dominating(g, r, random.Random(seed))
    assert is_sub_radius_dominating(g, s)
    assert is_broker_set(g, s)


@settings(max_examples=40)
@given(connected_graphs(min_n=2, max_n=24))
def test_every_heuristic_emits_a_valid_set(g):
    profile = metric_profile(g)
    for h in BrokerHeuristic:
        report = run_heuristic(g, h, profile=profile)
        assert report.valid is True
        assert report.size == len(report.s) >= 1


@settings(max_examples=25)
@given(connected_graphs(min_n=2, max_n=7))
def test_oracle_is_minimal_and_below_heuristics(g):
    best = brute_force_min_broker(g)
    assert is_broker_set(g, best)
    for combo in combinations(range(g.n), len(best) - 1):
        assert not is_broker_set(g, combo)
    for h in BrokerHeuristic:
        assert run_heuristic(g, h, profile=None).size >= len(best)


@settings(max_examples=30)
@given(connected_graphs(min_n=2, max_n=10))
def test_preserve_diameter_output_is_enabling(g):
    p = metric_profile(g)
    s = preserve_diameter(g)
    assert is_delta_enabling(g, s, p.diameter)
    if p.radius != p.diameter:
        assert len(s) == 1


@settings(max_examples=20, deadline=None)
@given(connected_graphs(min_n=4, max_n=16), st.integers(0, 2 ** 31))
def test_reduction_heuristics_terminate_and_hit_target(g, seed):
    p = metric_profile(g)
    delta = p.diameter - 1
    if delta < 2:
        return
    for fn in (periphery_algorithm, cp_algorithm):
        report = fn(g, delta, seed)
        assert report.achieved_diameter <= delta
        assert is_delta_enabling(g, report.s, delta)


@settings(max_examples=15, deadline=None)
@given(connected_graphs(min_n=4, max_n=6), st.integers(0, 2 ** 31))
def test_gadget_equality_on_random_graphs(g, seed):
    del seed
    profile = metric_profile(g)
    if profile.radius < 2:
        return
    h, gm = reduction_gadget(g)
    from tieset.broker import brute_force_min_dominating

    dom = brute_force_min_dominating(g)
    assert len(brute_force_min_broker(h)) == len(dom)
    assert is_broker_set(h, [gm.copy_node(v) for v in dom])


@given(st.sampled_from([BA, NWS]), st.integers(10, 40), st.integers(0, 2 ** 63))
def test_generators_are_deterministic_and_connected(model, n, seed):
    if model == BA:
        params = RandomModelParams(BA, n, seed, ba_m=2)
    else:
        params = RandomModelParams(NWS, n, seed, nws_k=4, nws_p=0.1)
    g = generate(params)
    assert g == generate(params)
    assert min(bfs_distances(g, 0)) >= 0  # connected: everything reachable
    assert isinstance(g, Graph)


# ---------------------------------------------------------------------------
# differential checks of the bit-parallel ball kernel and the mask-based
# oracles against Floyd-Warshall and the augment+BFS verifier

@st.composite
def family_graphs(draw, min_n=1, max_n=25):
    """Connected graph from one of five families: random, tree, path, cycle, complete."""
    n = draw(st.integers(min_n, max_n))
    family = draw(st.sampled_from(["random", "tree", "path", "cycle", "complete"]))
    if family == "random":
        return random_connected(n, draw(st.integers(0, n)), draw(st.integers(0, 2 ** 31)))
    if family == "tree":
        return random_tree(n, draw(st.integers(0, 2 ** 31)))
    return {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}[family](n)


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    return build_graph(a.n + b.n, list(a.edges()) + [(x + a.n, y + a.n) for x, y in b.edges()])


@settings(max_examples=60)
@given(family_graphs(), st.integers(0, 6))
def test_kernel_matches_floyd_warshall(g, r):
    ecc, kept = _balls(g.adj, keep=(r,))
    assert ecc == fw_eccentricities(g)
    d = fw_distances(g)
    for v in range(g.n):
        assert kept[r][v] == sum(1 << w for w in range(g.n) if d[v][w] <= r)


@settings(max_examples=30)
@given(family_graphs(max_n=12), family_graphs(max_n=12))
def test_kernel_marks_disconnected_nodes(a, b):
    g = _disjoint_union(a, b)
    ecc, _ = _balls(g.adj)
    assert ecc == [-1] * g.n
    with pytest.raises(NotConnectedError, match="graph not connected"):
        metric_profile(g)


@settings(max_examples=60)
@given(family_graphs(), st.data())
def test_diameter_at_most_matches_floyd_warshall(g, data):
    s = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    bound = data.draw(st.integers(0, g.n + 1))
    h = augment(g, s)
    assert _diameter_at_most(h, bound) == (max(fw_eccentricities(h)) <= bound)


def _min_broker_by_verifier(g: Graph) -> NodeSet | None:
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_broker_set(g, combo):
                return NodeSet(combo)
    return None


def _min_broker_or_none(g: Graph) -> NodeSet | None:
    try:
        return brute_force_min_broker(g)
    except CapExceededError:
        return None


@settings(max_examples=40, deadline=None)
@given(family_graphs(max_n=10))
def test_mask_broker_oracle_matches_verifier_search(g):
    assert _min_broker_or_none(g) == _min_broker_by_verifier(g)


@settings(max_examples=10, deadline=None)
@given(family_graphs(min_n=3, max_n=5))
def test_mask_broker_oracle_matches_verifier_search_on_gadgets(g):
    if metric_profile(g).radius < 2:
        return
    h, _ = reduction_gadget(g)
    assert _min_broker_or_none(h) == _min_broker_by_verifier(h)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        family_graphs(max_n=9),
        st.tuples(family_graphs(max_n=4), family_graphs(max_n=5)).map(lambda ab: _disjoint_union(*ab)),
    )
)
@example(build_graph(0, []))
def test_mask_dominating_oracle_matches_set_based_search(g):
    assert brute_force_min_dominating(g) == ref_min_dominating(g)


@settings(max_examples=100, deadline=None)
@given(family_graphs(max_n=8), st.data())
def test_mask_delta_oracle_matches_floyd_warshall_search(g, data):
    delta = data.draw(st.integers(2, max(2, metric_profile(g).diameter + 1)))
    assert brute_force_min_delta_enabling(g, delta) == fw_min_delta_enabling(g, delta)


@settings(max_examples=60)
@given(st.lists(st.one_of(family_graphs(max_n=8), st.integers(0, 3).map(lambda k: build_graph(k, []))),
                max_size=5), st.randoms(use_true_random=False))
def test_connected_components_match_per_component_bfs(parts, rnd):
    g = build_graph(0, [])
    for part in parts:
        g = _disjoint_union(g, part)
    # relabel, so a component's ids interleave with the others'
    order = list(range(g.n))
    rnd.shuffle(order)
    g = build_graph(g.n, [(order[a], order[b]) for a, b in g.edges()])
    assert connected_components(g) == ref_connected_components(g)


# ---------------------------------------------------------------------------
# the betweenness kernel against the predecessor-list reference, bit for bit

# k processes deal the sources, including k > n: the in-order sum is the same
WORKERS = st.sampled_from([1, 2, 3])


@settings(max_examples=80, deadline=None)
@given(family_graphs(min_n=0, max_n=40), WORKERS)
@example(build_graph(0, []), 3)
@example(path_graph(2), 3)
def test_betweenness_equals_reference_exactly(g, k):
    expected = ref_brandes(g)
    assert betweenness(g) == expected
    assert list(_brandes(g.n, g.adj, k)) == expected


@settings(max_examples=40, deadline=None)
@given(family_graphs(max_n=15), family_graphs(max_n=15), st.integers(0, 3), WORKERS)
def test_betweenness_equals_reference_on_disconnected_graphs(a, b, isolated, k):
    g = _disjoint_union(_disjoint_union(a, build_graph(isolated, [])), b)
    expected = ref_brandes(g)
    assert betweenness(g) == expected
    assert list(_brandes(g.n, g.adj, k)) == expected


@settings(max_examples=40, deadline=None)
@given(family_graphs(min_n=2, max_n=40))
def test_betweenness_equals_reference_on_the_graphs_btw_ranks(g):
    seen = []
    kernel = broker.betweenness

    def spy(f):
        seen.append(f)
        return kernel(f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(broker, "betweenness", spy)
        for h in (BrokerHeuristic.BTW, BrokerHeuristic.S_BTW):
            run_heuristic(g, h, verify=False)
    # btw's first pick ranks g itself, so it shares s-btw's pass
    assert all(f is g for f in seen if f.n == g.n)
    for f in seen:
        assert kernel(f) == ref_brandes(f)
