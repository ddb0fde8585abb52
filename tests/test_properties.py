"""Property-based checks of the library's structural invariants."""

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

import tieset
from tieset import broker, diameter, graph
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
    _Joined,
    brute_force_min_delta_enabling,
    cp_algorithm,
    is_delta_enabling,
    periphery_algorithm,
    preserve_diameter,
)
from tieset.generators import BA, NWS, RandomModelParams, generate, reduction_gadget
from tieset.graph import (
    Graph,
    GraphError,
    NodeSet,
    NotConnectedError,
    _balls,
    _balls_of_radius,
    _bfs,
    _brandes,
    _min_cover,
    _size_cap,
    augment,
    betweenness,
    bfs_distances,
    build_graph,
    connected_components,
    metric_profile,
)

from util import (
    INF,
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
    ref_cp_algorithm,
    ref_dependencies,
    ref_heuristic,
    ref_min_cover,
    ref_min_dominating,
    ref_periphery_algorithm,
    star_graph,
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
@given(family_graphs())
def test_kernel_matches_floyd_warshall(g):
    ecc, kept = _balls(g.adj)  # keeping nothing, it runs until every ball is full
    assert ecc == fw_eccentricities(g) and kept == {}
    d = fw_distances(g)
    coverage_radius = max(min(ecc) - 1, 0)
    cover = broker._coverage_balls(g)
    for v in range(g.n):
        assert cover[v] == sum(1 << w for w in range(g.n) if d[v][w] <= coverage_radius)


@settings(max_examples=60)
@given(family_graphs(), st.integers(0, 6))
def test_kernel_stops_at_the_largest_kept_radius(g, r):
    ecc, kept = _balls(g.adj, keep=(r,))
    fw_ecc = fw_eccentricities(g)
    assert ecc == [e if e <= r else -1 for e in fw_ecc]  # a ball first full past r is never seen
    assert list(kept) == [r]
    d = fw_distances(g)
    for v in range(g.n):
        assert kept[r][v] == sum(1 << w for w in range(g.n) if d[v][w] <= r)


@settings(max_examples=60)
@given(family_graphs())
@example(path_graph(1))
@example(path_graph(2))
@example(path_graph(9))
@example(cycle_graph(8))
@example(star_graph(6))
@example(complete_graph(5))
def test_coverage_balls_are_kept_by_their_first_read_not_by_the_profile(g):
    radius = metric_profile(g).radius
    assert g._coverage is None
    cover = broker._coverage_balls(g)
    assert cover == tuple(_balls_of_radius(g.adj, max(radius - 1, 0)))
    assert g._coverage is cover and broker._coverage_balls(g) is cover


def _spider(legs: int, length: int) -> Graph:
    """``legs`` paths of ``length`` nodes hung from node 0: radius ``length``."""
    edges = []
    for leg in range(legs):
        path = [0, *range(1 + leg * length, 1 + (leg + 1) * length)]
        edges += zip(path, path[1:])
    return build_graph(1 + legs * length, edges)


@settings(max_examples=80, deadline=None)
@given(family_graphs(min_n=2, max_n=9))  # radii 1 to 4
@example(complete_graph(2))
@example(star_graph(5))
@example(path_graph(9))
@example(cycle_graph(9))
# the shrinking subgraphs disconnect: the first pick leaves the leg tips apart
@example(_spider(3, 3))
@example(_spider(4, 4))
@example(random_tree(9, 5))
def test_every_heuristic_equals_its_reference(g):
    for h in BrokerHeuristic:
        assert run_heuristic(g, h, verify=False).s == ref_heuristic(g, h.value), h.value


@settings(max_examples=30)
@given(family_graphs(max_n=12), family_graphs(max_n=12))
def test_kernel_marks_disconnected_nodes(a, b):
    g = _disjoint_union(a, b)
    ecc, kept = _balls(g.adj)
    assert ecc == [-1] * g.n and kept == {}
    for read in (metric_profile, broker._coverage_balls):
        with pytest.raises(NotConnectedError, match="graph not connected"):
            read(g)
    assert g._profile is None and g._coverage is None  # the failed reads keep nothing


# several kept radii at once (as _Joined and the delta oracle keep them), radii
# past the last round, and the kept generations of a disconnected graph
@settings(max_examples=100)
@given(st.one_of(family_graphs(), st.builds(_disjoint_union, family_graphs(max_n=8), family_graphs(max_n=8))),
       st.data())
def test_kernel_keeps_every_named_radius_with_full_masks_shared(g, data):
    keep = data.draw(st.lists(st.integers(0, g.n + 1), max_size=4, unique=True))
    ecc, kept = _balls(g.adj, keep)
    d = fw_distances(g)
    last = max(keep, default=g.n)
    assert ecc == [e if e <= last else -1 for e in fw_eccentricities(g)]  # INF on a disconnected graph
    assert sorted(kept) == sorted(keep)
    full = (1 << g.n) - 1
    for t, balls in kept.items():
        assert balls == [sum(1 << w for w in range(g.n) if d[v][w] <= t) for v in range(g.n)]
        assert len({id(mask) for mask in balls if mask == full}) <= 1  # full masks are one int object


@settings(max_examples=60)
@given(family_graphs(), st.data())
def test_diameter_at_most_matches_floyd_warshall(g, data):
    s = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    bound = data.draw(st.integers(0, g.n + 1))
    assert is_delta_enabling(g, s, bound) == (max(fw_eccentricities(augment(g, s))) <= bound)


@settings(max_examples=300)
@given(st.data())
def test_min_cover_finds_the_enumerations_first_subset_under_the_one_cap_rule(data):
    n = data.draw(st.integers(1, 12))
    extra = data.draw(st.integers(0, 3))  # bits above the n node bits, read only by accept
    if data.draw(st.booleans()):
        masks = data.draw(st.lists(st.integers(0, (1 << (n + extra)) - 1), min_size=n, max_size=n))
    else:  # sparse: a few bits and, at random, the candidate's own node bit; so nodes with
        # few or no coverers, and sizes below the packing bound, occur often
        bits = st.lists(st.integers(0, n + extra - 1), max_size=3).map(lambda bs: sum({1 << b for b in bs}))
        masks = [data.draw(st.booleans()) << i | data.draw(bits) for i in range(n)]
    cap = data.draw(st.none() | st.integers(-1, n + 2))
    if cap is not None and cap < 1:
        with pytest.raises(GraphError, match=f"^size cap must be >= 1, got {cap}$"):
            _size_cap(cap, n)
        return
    limit = _size_cap(cap, n)
    assert limit == (n if cap is None else min(cap, n))
    # a monotone accept: the union holds every bit of a drawn mask
    needed = data.draw(st.none() | st.integers(0, (1 << (n + extra)) - 1))
    accept = None if needed is None else (lambda union: union & needed == needed)
    expected = ref_min_cover(masks, limit, accept)
    if expected is None:
        with pytest.raises(CapExceededError, match=f"^no widget of size <= {limit} found$"):
            _min_cover(masks, limit, "widget", accept)
    else:
        assert _min_cover(masks, limit, "widget", accept) == expected


def test_min_cover_refuses_a_cap_below_its_packing_bound_without_a_search():
    # the 1-balls of P9: nodes 0, 3 and 8 have pairwise disjoint coverers, so
    # every cover has 3 picks; below that no union is formed, so accept is never asked
    masks = _balls_of_radius(path_graph(9).adj, 1)
    asked = []
    with pytest.raises(CapExceededError, match="^no widget of size <= 2 found$"):
        _min_cover(masks, 2, "widget", lambda union: asked.append(union) or True)
    assert asked == []
    assert _min_cover(masks, 3, "widget") == ref_min_cover(masks, 3) == (1, 4, 7)


def test_min_cover_tries_a_non_coverer_once_the_union_covers_and_only_accept_fails():
    # mask 0 covers all three nodes (bits 0-2) but lacks bit 3, which accept
    # needs; mask 1 covers no node, so the last pick is not a coverer
    def has_bit_3(union):
        return union & 0b1000 == 0b1000

    masks = [0b0111, 0b1000, 0b0000]
    assert _min_cover(masks, 3, "widget", has_bit_3) == ref_min_cover(masks, 3, has_bit_3) == (0, 1)


def test_min_cover_backtracks_to_a_cover_made_of_the_last_candidates():
    # only the last three candidates cover: 5 alone holds nodes 3-4, 6 nodes
    # 2 and 5, 7 nodes 6-7; each earlier one holds node 0 or 1 and bit 8,
    # which no cover needs, so every subtree that starts lower is walked and left
    masks = [0b1_0000_0001, 0b1_0000_0010, 0b1_0000_0011, 0b1_0000_0001, 0b1_0000_0010,
             0b0_0001_1011, 0b0_0010_0100, 0b0_1100_0000]
    for cap in range(1, 9):
        expected = ref_min_cover(masks, cap)
        if expected is None:
            with pytest.raises(CapExceededError, match=f"^no widget of size <= {cap} found$"):
                _min_cover(masks, cap, "widget")
        else:
            assert _min_cover(masks, cap, "widget") == expected == (5, 6, 7)


def test_cap_exceeded_error_is_one_class_on_every_import_path():
    assert broker.CapExceededError is tieset.CapExceededError is tieset.graph.CapExceededError


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
    cap = data.draw(st.none() | st.integers(1, g.n + 1))
    expected = fw_min_delta_enabling(g, delta, cap)
    if expected is None:
        limit = _size_cap(cap, g.n)
        with pytest.raises(CapExceededError, match=f"^no delta-enabling set of size <= {limit} found$"):
            brute_force_min_delta_enabling(g, delta, cap)
    else:
        assert brute_force_min_delta_enabling(g, delta, cap) == expected


def _delta_search_inputs(g: Graph, delta: int):
    """The masks and accept test that the delta oracle hands its search."""
    handed = []

    def search(masks, cap, what, accept):
        handed.append((masks, accept))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diameter, "_min_cover", search)
        brute_force_min_delta_enabling(g, delta)
    return handed[0]


# the search stops at a candidate once the union with every later mask fails
# accept, which is sound only if a tie set's superset bridges what it bridges
@settings(max_examples=100, deadline=None)
@given(family_graphs(max_n=8), st.data())
def test_far_pairs_bridged_holds_for_every_superset(g, data):
    delta = data.draw(st.integers(2, max(2, metric_profile(g).diameter + 1)))
    masks, bridged = _delta_search_inputs(g, delta)
    t = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    s = data.draw(st.lists(st.sampled_from(t), min_size=1, unique=True))
    union_s, union_t = (reduce(or_, (masks[v] for v in members)) for members in (s, t))
    # the packed union's two tests are the delta check
    full = (1 << g.n) - 1
    assert (union_s & full == full and bridged(union_s)) == is_delta_enabling(g, s, delta)
    assert bridged(union_t) or not bridged(union_s)


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
# the scalar BFS against Floyd-Warshall: fresh, bounded and lowered in steps

def _lowered_from(g, dist, sources, bound):
    """Run _bfs on ``dist`` and check what it returns: each node it changed, once, by new distance."""
    before = list(dist)
    lowered = _bfs(g.adj, dist, sources, bound)
    assert sorted(lowered) == [v for v in range(g.n) if dist[v] != before[v]]
    assert all(dist[v] < before[v] for v in lowered)
    assert [dist[v] for v in lowered] == sorted(dist[v] for v in lowered)


@settings(max_examples=80)
@given(
    st.one_of(
        family_graphs(),
        st.tuples(family_graphs(max_n=10), family_graphs(max_n=10)).map(lambda ab: _disjoint_union(*ab)),
    ),
    st.data(),
)
def test_bfs_matches_floyd_warshall(g, data):
    nodes = st.lists(st.integers(0, g.n - 1), max_size=4)  # repeats allowed; empty is a no-op
    a, b = data.draw(nodes), data.draw(nodes)
    bound = data.draw(st.none() | st.integers(0, g.n))
    d = fw_distances(g)

    def expected(sources):
        near = [min((d[s][v] for s in sources), default=INF) for v in range(g.n)]
        return [x if x <= (g.n if bound is None else bound) else g.n for x in near]

    dist = [g.n] * g.n
    _lowered_from(g, dist, a, bound)
    assert dist == expected(a)
    _lowered_from(g, dist, b, bound)
    assert dist == expected(a + b)
    union = [g.n] * g.n
    _lowered_from(g, union, a + b, bound)
    assert union == dist


# ---------------------------------------------------------------------------
# the betweenness kernel against the predecessor-list reference, bit for bit

# k processes deal the sources, including k > n: the in-order sum is the same
WORKERS = st.sampled_from([1, 2, 3])


def _split_pass(g: Graph, k: int) -> list[float]:
    """``_brandes`` on ``g`` with ``graph._workers`` fixed at k."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_workers", lambda n, adj: k)
        return list(_brandes(g.n, g.adj))


@settings(max_examples=80, deadline=None)
@given(family_graphs(min_n=0, max_n=40), WORKERS)
@example(build_graph(0, []), 3)
@example(path_graph(2), 3)
def test_betweenness_equals_reference_exactly(g, k):
    expected = ref_brandes(g)
    assert betweenness(g) == expected
    assert _split_pass(g, k) == expected


@settings(max_examples=40, deadline=None)
@given(family_graphs(max_n=15), family_graphs(max_n=15), st.integers(0, 3), WORKERS)
def test_betweenness_equals_reference_on_disconnected_graphs(a, b, isolated, k):
    g = _disjoint_union(_disjoint_union(a, build_graph(isolated, [])), b)
    expected = ref_brandes(g)
    assert betweenness(g) == expected
    assert _split_pass(g, k) == expected


@pytest.mark.parametrize("m", [1, 5])
def test_betweenness_at_fork_size_equals_reference_in_every_split(m):
    # BA(m = 1) is a tree, where every node has one predecessor from every
    # source; in BA(m = 5) most nodes have several
    g = generate(RandomModelParams(BA, 300, 11, ba_m=m))
    assert g.n * (g.n + 2 * g.m) >= graph.FORK_MIN_WORK
    assert (g.m == g.n - 1) == (m == 1)
    expected = ref_brandes(g)
    assert betweenness(g) == expected
    for k in (1, 2, 3):
        assert _split_pass(g, k) == expected


def _grid(rows: int, cols: int) -> Graph:
    ids = [[r * cols + c for c in range(cols)] for r in range(rows)]
    across = [(row[c], row[c + 1]) for row in ids for c in range(cols - 1)]
    down = [(ids[r][c], ids[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, across + down)


def _assert_dependencies_match_reference(g: Graph) -> None:
    for s in range(g.n):
        assert graph._dependencies(s, g.n, g.adj) == ref_dependencies(g, s), f"source {s}"


@pytest.mark.parametrize("g", [
    # nodes with two or more predecessors, whose path counts differ on the grid
    build_graph(7, [(a, b) for a in range(3) for b in range(3, 7)]),
    build_graph(16, [(v, v ^ 1 << i) for v in range(16) for i in range(4)]),
    _grid(4, 5),
    # every node has one predecessor
    star_graph(6),
    path_graph(7),
    build_graph(1, []),
], ids=["K3,4", "4-cube", "grid4x5", "star", "path", "isolated"])
def test_betweenness_dependencies_equal_reference_from_every_source(g):
    _assert_dependencies_match_reference(g)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    family_graphs(max_n=30),
    st.tuples(family_graphs(max_n=10), st.integers(0, 3), family_graphs(max_n=10)).map(
        lambda parts: _disjoint_union(_disjoint_union(parts[0], build_graph(parts[1], [])), parts[2])
    ),
))
def test_betweenness_dependencies_equal_reference_on_family_graphs(g):
    _assert_dependencies_match_reference(g)


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


@settings(max_examples=80, deadline=None)
@given(
    family_graphs(min_n=3),
    st.integers(0, 2 ** 16),
    st.lists(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3), min_size=1, max_size=4),
)
# P11 at delta 9: radius 5, yet only radii delta - 1 = 8..10 are kept, none for cp's bound rad + 2 = 7
@example(path_graph(11), 7, [[5], [0], [10]])
@example(cycle_graph(12), 0, [[0, 6], [3]])
def test_joined_reaches_equals_floyd_warshall_on_the_combined_graph(g, delta_draw, ties):
    profile = metric_profile(g)
    if profile.diameter < 2:
        return
    delta = 2 + delta_draw % (profile.diameter - 1)
    joined = _Joined(g, delta)
    assert set(joined.balls) == set(range(delta - 1, profile.diameter + 1))
    s = set()
    for members in [[]] + [[x % g.n for x in tie] for tie in ties]:  # before the first tie, H is g
        if members:
            joined.tie(members)
            s.update(members)
        d = fw_distances(augment(g, s) if s else g)
        farthest = [max(row[:g.n]) for row in d[:g.n]]  # r(x): host nodes only
        # far keeps r(x): from ecc >= delta before the first tie, r(x) > delta after each
        assert joined.far == {x: r for x, r in enumerate(farthest) if r > delta or r == delta and not s}, sorted(s)
        for x in range(g.n):
            for t in joined.balls:  # the host nodes within t of x in H, the mask the partner draw counts
                within = sum(1 << y for y in range(g.n) if d[x][y] <= t)
                assert joined._reach(x, t) == within, (sorted(s), x, t)


def _outcome(fn, *args):
    """A run's report, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=50, deadline=None)
@given(family_graphs(min_n=2, max_n=40), st.lists(st.integers(0, 2 ** 31), min_size=3, max_size=3))
@example(path_graph(40), [0, 1, 2])
@example(cycle_graph(9), [0, 1, 2])
# both reductions end below delta = 5 on C13 at seed 0, and below delta = 6
# on P13 at seed 2, so the kernel run on the final combined graph is compared
@example(cycle_graph(13), [0, 1, 2])
@example(path_graph(13), [0, 1, 2])
def test_reductions_equal_the_per_round_reference(g, seeds):
    # every target 2..diam, plus one on each side of that range
    for delta in range(1, metric_profile(g).diameter + 2):
        for seed in seeds:
            for fn, ref in ((periphery_algorithm, ref_periphery_algorithm), (cp_algorithm, ref_cp_algorithm)):
                assert _outcome(fn, g, delta, seed) == _outcome(ref, g, delta, seed), (fn.__name__, delta, seed)
