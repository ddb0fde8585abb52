import pytest
from hypothesis import example, given, settings, strategies as st

from tieset.broker import brute_force_min_broker, brute_force_min_dominating, is_broker_set
from tieset.generators import (
    BA,
    NWS,
    GadgetMap,
    RandomModelParams,
    generate,
    reduction_gadget,
)
from tieset.graph import GraphError, NodeSet, NotConnectedError, build_graph, is_connected, metric_profile

from util import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected,
    ref_gen_ba,
    ref_gen_nws,
    ref_reduction_gadget,
)


def test_params_validation():
    with pytest.raises(GraphError):
        RandomModelParams("er", 10, 1)
    with pytest.raises(GraphError):
        RandomModelParams(BA, 10, 1, ba_m=0)
    with pytest.raises(GraphError):
        RandomModelParams(BA, 10, 1, ba_m=10)
    with pytest.raises(GraphError):
        RandomModelParams(NWS, 10, 1, nws_k=3, nws_p=0.1)
    with pytest.raises(GraphError):
        RandomModelParams(NWS, 10, 1, nws_k=4, nws_p=1.5)
    for model in (BA, NWS):  # Random(-s) seeds as Random(s): a negative seed would repeat a graph
        with pytest.raises(GraphError, match="^seed must be >= 0, got -5$"):
            RandomModelParams(model, 50, -5)
        with pytest.raises(GraphError, match="^seed 1.5 is not an integer$"):
            RandomModelParams(model, 50, 1.5)


@pytest.mark.parametrize("args, kwargs, message", [
    ((BA, 10.0, 1), {}, "n 10.0 is not an integer"),
    ((NWS, 10.0, 1), {}, "n 10.0 is not an integer"),
    ((BA, 10, 1), {"ba_m": 2.0}, "ba_m 2.0 is not an integer"),
    ((NWS, 10, 1), {"nws_k": 4.0}, "nws_k 4.0 is not an integer"),
])
def test_params_refuse_a_size_or_model_integer_that_is_not_an_integer(args, kwargs, message):
    # refused when built, so no graph is drawn from them and no label names ba(m=2.0)
    with pytest.raises(GraphError, match=f"^{message}$"):
        RandomModelParams(*args, **kwargs)


def test_ba_single_attachment_grows_a_tree():
    g = generate(RandomModelParams(BA, 10, 42, ba_m=1))
    assert (g.n, g.m) == (10, 9)
    assert is_connected(g)


def test_ba_edge_count_by_construction():
    # star seed on 3 nodes plus 97 nodes attaching twice each
    g = generate(RandomModelParams(BA, 100, 7, ba_m=2))
    assert (g.n, g.m) == (100, 2 * 97 + 2)
    assert is_connected(g)


def test_ba_determinism_and_seed_sensitivity():
    p = RandomModelParams(BA, 60, 11, ba_m=2)
    assert generate(p) == generate(p)
    assert generate(p) != generate(RandomModelParams(BA, 60, 12, ba_m=2))


def test_nws_degenerate_p_zero_is_the_ring():
    assert generate(RandomModelParams(NWS, 8, 1, nws_k=2, nws_p=0.0)) == cycle_graph(8)
    lattice = generate(RandomModelParams(NWS, 8, 1, nws_k=4, nws_p=0.0))
    assert lattice.m == 16
    assert lattice.adj[0] == (1, 2, 6, 7)


def test_ba_at_minimum_size_is_just_the_star():
    g = generate(RandomModelParams(BA, 3, 5, ba_m=2))
    assert (g.n, g.m) == (3, 2)
    assert g.adj[0] == (1, 2)


def test_nws_dense_ring_reaches_complete_without_duplicates():
    # k = n-1 rounded down to even: every pair is within the lattice reach
    g = generate(RandomModelParams(NWS, 5, 2, nws_k=4, nws_p=1.0))
    assert (g.n, g.m) == (5, 10)


def test_nws_shortcuts_only_add_edges():
    p = RandomModelParams(NWS, 50, 3, nws_k=4, nws_p=0.3)
    g = generate(p)
    assert g.n == 50
    assert g.m >= 100
    assert is_connected(g)
    assert generate(p) == g


@st.composite
def nws_params(draw):
    n = draw(st.integers(3, 60))
    k = 2 * draw(st.integers(1, (n - 1) // 2))
    p = draw(st.floats(0.0, 1.0))
    return RandomModelParams(NWS, n, draw(st.integers(0, 2 ** 64)), nws_k=k, nws_p=p)


@settings(max_examples=300, deadline=None)
@given(nws_params())
@example(RandomModelParams(NWS, 3, 0, nws_k=2, nws_p=0.0))
@example(RandomModelParams(NWS, 60, 1, nws_k=2, nws_p=1.0))
@example(RandomModelParams(NWS, 40, 2, nws_k=20, nws_p=1.0))
def test_nws_draw_by_rank_gives_the_listed_draws_graph(params):
    for seed in range(params.seed, params.seed + 3):
        same = RandomModelParams(NWS, params.n, seed, nws_k=params.nws_k, nws_p=params.nws_p)
        assert generate(same) == ref_gen_nws(same)


@pytest.mark.parametrize("n", range(3, 61))
def test_nws_draw_by_rank_in_the_dense_corner(n):
    # p = 1 and the largest even k < n: nodes run out of free ids, and are skipped without a draw
    for seed in range(4):
        params = RandomModelParams(NWS, n, seed, nws_k=(n - 1) // 2 * 2, nws_p=1.0)
        assert generate(params) == ref_gen_nws(params)


@pytest.mark.parametrize("n", [*range(2, 40), 100, 257, 1000])
def test_ba_built_into_neighbor_sets_gives_the_edge_list_graph(n):
    for m in [m for m in (1, 2, 3, 5) if m < n]:
        for seed in range(4):
            params = RandomModelParams(BA, n, seed, ba_m=m)
            assert generate(params) == ref_gen_ba(params)


@pytest.mark.parametrize("n, m", [(4158, 13122), (8638, 27215)])
def test_nws_dataset_sized_stand_ins(n, m):
    g = generate(RandomModelParams(NWS, n, 7, nws_k=6, nws_p=0.05))
    assert (g.n, g.m) == (n, m)


@pytest.mark.parametrize("n, seed", [(12, 5), (100, 3)])
def test_model_params_default_to_the_experiment_values(n, seed):
    assert RandomModelParams(BA, n, seed) == RandomModelParams(BA, n, seed, ba_m=2)
    assert RandomModelParams(NWS, n, seed) == RandomModelParams(NWS, n, seed, nws_k=4, nws_p=0.1)
    assert RandomModelParams(BA, n, seed).label() == "ba(m=2)"
    assert RandomModelParams(NWS, n, seed).label() == "nws(k=4, p=0.1)"


@pytest.mark.parametrize(
    "model, params, label",
    [
        (BA, dict(ba_m=5), "ba(m=5)"),
        (NWS, dict(nws_k=6, nws_p=0.05), "nws(k=6, p=0.05)"),
        (NWS, dict(nws_p=1.0), "nws(k=4, p=1.0)"),
        (NWS, dict(nws_p=0), "nws(k=4, p=0)"),
        (BA, dict(nws_k=6, nws_p=0.5), "ba(m=2)"),  # another model's parameters are not named
    ],
)
def test_label_names_the_model_and_only_its_own_parameters(model, params, label):
    assert RandomModelParams(model, 20, 1, **params).label() == label


def test_generate_dispatches_on_model():
    assert generate(RandomModelParams(BA, 12, 5, ba_m=2)).n == 12
    assert generate(RandomModelParams(NWS, 12, 5, nws_k=4, nws_p=0.2)).n == 12


def test_gadget_layout_path4():
    h, gm = reduction_gadget(path_graph(4))
    assert h.n == 12
    assert metric_profile(h).radius == 3
    # layer one is a clique
    for v in range(4):
        for w in range(v + 1, 4):
            assert w in h.adj[v]
    # layer two copies the input graph, layer three hangs off it
    assert 5 in h.adj[4] and 6 in h.adj[5] and 6 not in h.adj[4]
    for v in range(4):
        assert 4 + v in h.adj[v] and 8 + v in h.adj[4 + v]
        assert h.degree(8 + v) == 1


def test_gadget_cycle6():
    h, gm = reduction_gadget(cycle_graph(6))
    assert h.n == 18
    assert metric_profile(h).radius == 3


def test_gadget_rejects_radius_one():
    with pytest.raises(GraphError, match="radius >= 2"):
        reduction_gadget(complete_graph(3))


def _gadget_or_refusal(build, g):
    try:
        return build(g)
    except GraphError as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", range(5, 25))
def test_gadget_built_into_neighbor_sets_gives_the_edge_list_gadget(n):
    # NWS(k = 2, p = 0.3) graphs are connected; one of these, whose shortcuts give a node
    # every other as neighbor, has radius 1 and is refused by both
    for seed in range(3):
        g = generate(RandomModelParams(NWS, n, seed, nws_k=2, nws_p=0.3))
        assert _gadget_or_refusal(reduction_gadget, g) == _gadget_or_refusal(ref_reduction_gadget, g)


@pytest.mark.parametrize("g, refusal", [
    pytest.param(complete_graph(4), (GraphError, "gadget needs radius >= 2, got radius 1"), id="radius-1"),
    pytest.param(build_graph(4, [(0, 1), (2, 3)]), (NotConnectedError, "graph not connected"), id="disconnected"),
])
def test_gadget_and_its_reference_refuse_alike(g, refusal):
    assert _gadget_or_refusal(reduction_gadget, g) == _gadget_or_refusal(ref_reduction_gadget, g) == refusal


def test_gadget_map_triples_and_projection():
    gm = GadgetMap(4)
    assert gm.triple(2) == (2, 6, 10)
    assert list(gm.copy_layer()) == [4, 5, 6, 7]
    assert gm.project([0, 6, 11]) == NodeSet([0, 2, 3])


@pytest.mark.parametrize("g", [path_graph(4), path_graph(6), cycle_graph(5), cycle_graph(6)])
def test_gadget_minimum_matches_domination_number(g):
    h, gm = reduction_gadget(g)
    assert len(brute_force_min_broker(h)) == len(brute_force_min_dominating(g))


def test_dominating_set_lift_is_broker_set():
    for seed in range(5):
        g = random_connected(7, seed, seed)
        if metric_profile(g).radius < 2:
            continue
        h, gm = reduction_gadget(g)
        dom = brute_force_min_dominating(g)
        lift = [gm.copy_node(v) for v in dom]
        assert is_broker_set(h, lift)


def test_ba_degree_skew_is_logged_not_asserted():
    # soft expectation only: preferential attachment concentrates degree
    for n in (50, 200, 800):
        g = generate(RandomModelParams(BA, n, 31, ba_m=2))
        print(f"ba n={n}: max degree {max(g.degree(v) for v in range(n))}")
