import dataclasses
from itertools import combinations

import pytest

from tieset import cli, diameter, experiments, graph
from tieset.broker import CapExceededError
from tieset.datasets import write_edge_list
from tieset.diameter import (
    DeltaReport,
    REDUCTIONS,
    brute_force_min_delta_enabling,
    cp_algorithm,
    is_delta_enabling,
    periphery_algorithm,
    preserve_diameter,
)
from tieset.generators import BA, RandomModelParams, generate
from tieset.graph import GraphError, NodeSet, augment, build_graph, metric_profile

from util import complete_graph, cycle_graph, path_graph, random_connected, random_tree, ref_cp_algorithm


P5 = path_graph(5)
C6 = cycle_graph(6)
K4 = complete_graph(4)


def test_delta_enabling_examples():
    assert is_delta_enabling(P5, [0, 4], 3)
    assert is_delta_enabling(P5, [2], 4)
    assert not is_delta_enabling(C6, [0], 3)  # newcomer ends 4 hops from node 3


def test_preserve_diameter_non_uniform_single_node():
    s = preserve_diameter(P5)
    assert s == NodeSet([2])
    assert is_delta_enabling(P5, s, 4)


def test_preserve_diameter_complete_needs_everything():
    assert preserve_diameter(K4) == NodeSet(range(4))
    assert is_delta_enabling(K4, range(4), 1)


def test_preserve_diameter_uniform_incomplete_uses_neighborhood():
    s = preserve_diameter(C6)
    assert s == NodeSet([1, 5])  # neighbors of the smallest min-degree node
    assert is_delta_enabling(C6, s, 3)
    assert metric_profile(augment(C6, s)).diameter == 3


def test_preserve_diameter_rejects_tiny_graph():
    with pytest.raises(GraphError):
        preserve_diameter(build_graph(1, []))


def test_min_delta_enabling_cycle6():
    s = brute_force_min_delta_enabling(C6, 3)
    assert len(s) == 2
    assert s == NodeSet([0, 1])  # lexicographically first size-2 witness
    for combo in combinations(range(6), 1):
        assert not is_delta_enabling(C6, combo, 3)


def test_min_delta_enabling_path5():
    s = brute_force_min_delta_enabling(P5, 4)
    assert s == NodeSet([1])


def test_min_delta_enabling_rejects_delta_below_two():
    with pytest.raises(GraphError, match=">= 2"):
        brute_force_min_delta_enabling(K4, 1)


def test_min_delta_enabling_cap_exceeded(monkeypatch):
    with pytest.raises(CapExceededError):
        brute_force_min_delta_enabling(C6, 3, size_cap=1)
    for cap in (0, -1):  # no search is made at all
        with pytest.raises(GraphError, match="size cap must be >= 1"):
            brute_force_min_delta_enabling(C6, 3, size_cap=cap)

    def no_kernel(*args):
        raise AssertionError("ball kernel run before the size cap was checked")

    # nor any kernel run: a fresh graph, since C6 may already keep its profile
    monkeypatch.setattr(graph, "_balls", no_kernel)
    monkeypatch.setattr(diameter, "_balls", no_kernel)
    with pytest.raises(GraphError, match="^size cap must be >= 1, got 0$"):
        brute_force_min_delta_enabling(cycle_graph(6), 3, size_cap=0)
    with pytest.raises(GraphError, match="^target diameter must be >= 2, got 1$"):  # delta is checked first
        brute_force_min_delta_enabling(cycle_graph(6), 1, size_cap=0)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_periphery_on_path5_uses_the_unique_pair(seed):
    report = periphery_algorithm(P5, 3, seed)
    assert report.s == NodeSet([0, 4])
    assert report.edges_added == 2
    assert report.achieved_diameter == 3
    assert report.iterations == 1


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_cp_on_path5_center_then_both_ends(seed):
    report = cp_algorithm(P5, 3, seed)
    assert report.s == NodeSet([0, 2, 4])
    assert report.edges_added == 3
    assert report.achieved_diameter == 3


def test_cp_on_cycle6_needs_at_least_two_ties():
    # no single tie keeps the combined diameter at 3
    for v in range(6):
        assert not is_delta_enabling(C6, [v], 3)
    for seed in range(4):
        report = cp_algorithm(C6, 3, seed)
        assert report.edges_added >= 2
        assert report.achieved_diameter <= 3


def test_reduction_preconditions(monkeypatch):
    # a bad target is refused before the kernel run on g, and one below 2 before g is profiled
    monkeypatch.setattr(diameter, "_balls", lambda *args: pytest.fail("kernel run before the check"))
    profile = diameter.metric_profile
    for fn in (periphery_algorithm, cp_algorithm):
        monkeypatch.setattr(diameter, "metric_profile", lambda *args: pytest.fail("g profiled before the check"))
        with pytest.raises(GraphError, match="^target diameter must be >= 2, got 1$"):
            fn(P5, 1, 0)
        monkeypatch.setattr(diameter, "metric_profile", profile)
        with pytest.raises(GraphError, match="target diameter 5 outside valid range 2..4"):
            fn(P5, 5, 0)  # above diam(P5)=4
        with pytest.raises(GraphError):
            fn(build_graph(4, [(0, 1), (2, 3)]), 2, 0)


@pytest.mark.parametrize("alg", REDUCTIONS)
def test_reductions_refuse_a_negative_seed_before_any_other_check(monkeypatch, alg):
    # Random(-1) seeds as Random(1); the refusal comes before g is profiled or delta checked
    def no_profile(*args, **kwargs):
        raise AssertionError("the reduction profiled g despite a negative seed")

    monkeypatch.setattr(diameter, "metric_profile", no_profile)
    with pytest.raises(GraphError, match="^seed must be >= 0, got -1$"):
        REDUCTIONS[alg](P5, 1, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: periphery_algorithm(P5, 3.0), "target diameter 3.0 is not an integer"),
        (lambda: cp_algorithm(P5, 3, 1.5), "seed 1.5 is not an integer"),
        (lambda: periphery_algorithm(P5, 3, "7"), "seed '7' is not an integer"),
        (lambda: brute_force_min_delta_enabling(P5, 2.0), "target diameter 2.0 is not an integer"),
        (lambda: brute_force_min_delta_enabling(P5, 3, size_cap=2.5), "size cap 2.5 is not an integer"),
    ],
    ids=["periphery-delta", "cp-seed", "periphery-seed-str", "oracle-delta", "oracle-cap"],
)
def test_integer_arguments_that_are_not_integers_are_refused_before_g_is_profiled(monkeypatch, call, message):
    monkeypatch.setattr(diameter, "metric_profile", lambda *args: pytest.fail("g profiled before the check"))
    with pytest.raises(GraphError, match=f"^{message}$"):
        call()


def test_reduction_reports_are_deterministic_per_seed():
    g = random_connected(40, 20, 3)
    delta = metric_profile(g).diameter - 1
    if delta >= 2:
        for fn in (periphery_algorithm, cp_algorithm):
            assert fn(g, delta, 42) == fn(g, delta, 42)


@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_a_reduction_report_carries_the_time_of_the_whole_call(name, monkeypatch):
    first, second = (REDUCTIONS[name](path_graph(9), 3, 5) for _ in range(2))
    assert first.elapsed > 0 and second.elapsed > 0
    # the time is left out of equality: the same ties compare equal
    assert first == second == dataclasses.replace(first, elapsed=first.elapsed + 1.0)
    # the clock is read on entry, before g is profiled, and once more for the report
    events = []
    clock = iter([10.0, 11.25])
    profile = diameter.metric_profile
    monkeypatch.setattr(diameter, "metric_profile", lambda f: events.append("profile") or profile(f))
    monkeypatch.setattr(diameter.time, "perf_counter", lambda: events.append("clock") or next(clock))
    assert REDUCTIONS[name](path_graph(9), 3, 5).elapsed == 1.25
    assert events[0] == events[-1] == "clock" and events.count("clock") == 2 and "profile" in events


@pytest.mark.parametrize("trial", range(8))
def test_reductions_reach_the_target_on_random_graphs(trial):
    g = random_connected(20 + 5 * trial, trial, 900 + trial)
    profile = metric_profile(g)
    delta = profile.diameter - 1
    if delta < 2:
        pytest.skip("diameter too small to reduce")
    for fn in (periphery_algorithm, cp_algorithm):
        for seed in range(3):
            report = fn(g, delta, seed)
            assert isinstance(report, DeltaReport)
            assert report.achieved_diameter <= delta
            assert report.edges_added == len(report.s) >= 1
            assert is_delta_enabling(g, report.s, delta)


def test_delta_equal_to_diameter_is_allowed():
    # preserving case: the loop may need several ties on uniform graphs
    report = periphery_algorithm(C6, 3, 0)
    assert report.achieved_diameter <= 3
    assert report.edges_added >= 1


def test_tying_to_whole_periphery_never_increases_but_may_not_shrink():
    # absorbing every peripheral node kills all distance-diam pairs, yet the
    # newcomer itself can keep the diameter: in this spider, node 5 sits at
    # distance diam-1 from both peripheral tips, so ecc(newcomer) = diam
    spider = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    p = metric_profile(spider)
    assert p.diameter == 4 and p.periphery == NodeSet([0, 4])
    after = metric_profile(augment(spider, p.periphery))
    assert after.diameter == 4  # not smaller: the claim fails here
    for seed in range(12):
        g = random_connected(8 + seed, seed, 60 + seed)
        prof = metric_profile(g)
        if prof.diameter <= 2:
            continue
        combined = metric_profile(augment(g, prof.periphery))
        assert combined.diameter <= prof.diameter


@pytest.mark.parametrize("g, delta", [
    pytest.param(path_graph(20), 2, id="p20-2"),
    pytest.param(random_connected(80, 40, 2), 3, id="r80-3"),
    pytest.param(cycle_graph(13), 5, id="c13-5"),
])
def test_cp_makes_one_bfs_per_tie(g, delta, monkeypatch):
    # the ecc <= rad + 2 check reads only how many distance layers there
    # are, so only the tie's own search lowers distances
    calls = []
    bfs = diameter._bfs
    monkeypatch.setattr(diameter, "_bfs", lambda *args: calls.append(1) or bfs(*args))
    report = cp_algorithm(g, delta, 1)
    assert report.iterations >= 3
    assert len(calls) == report.iterations


# P11: radius 5, diameter 10, so at delta 9 the check's bound rad + 2 = 7
# lies below the reduction's kept radii 8..10, and the check reads no ball
P11 = path_graph(11)


@pytest.mark.parametrize("seed", range(10))
def test_cp_checks_the_radius_below_the_reduction_radii(seed):
    report = cp_algorithm(P11, 9, seed)
    assert report == ref_cp_algorithm(P11, 9, seed)
    assert report.iterations == 2 and 5 in report.s


@pytest.mark.parametrize("seed", range(4))
def test_cp_check_refuses_a_picked_node_beyond_radius_plus_two(seed, monkeypatch):
    (w,) = [x for x in cp_algorithm(P11, 9, seed).s if x != 5]  # the tie after the center
    profile = diameter.metric_profile
    monkeypatch.setattr(diameter, "metric_profile", lambda f: dataclasses.replace(profile(f), radius=1))
    # w is 7 from the far end of the path, past the claimed radius 1 + 2
    with pytest.raises(RuntimeError, match=rf"picked periphery node {w} .*original radius 1 \+ 2"):
        cp_algorithm(P11, 9, seed)


@pytest.mark.parametrize("seed", range(4))
def test_cp_check_catches_distance_layers_that_place_a_node_too_far(seed, monkeypatch):
    # after each tie the layers record node 0 one hop farther from S than it
    # is; the picked node's host (rad + 2)-ball holds node 0 whenever the
    # pick is node 0 itself (seeds 1-3), so only the layers' length shows it
    tie = diameter._Joined.tie

    def one_layer_too_far(self, members):
        tie(self, members)
        self.near = self.near[:-1] + [self.near[-1] & ~1, self.full]

    monkeypatch.setattr(diameter._Joined, "tie", one_layer_too_far)
    bound = r"has no original radius 5 \+ 2 bound: some node is farther than 5 from the tie set$"
    with pytest.raises(RuntimeError, match=rf"^picked periphery node (0|10) {bound}"):
        cp_algorithm(P11, 9, seed)


# the reduction loop's other invariants, each reached by breaking the one piece that keeps it

def test_periphery_refuses_a_draw_from_an_empty_periphery(monkeypatch):
    monkeypatch.setattr(diameter._Joined, "periphery", lambda self: [])
    with pytest.raises(RuntimeError, match="^no addable peripheral pair despite oversized diameter$"):
        periphery_algorithm(P11, 9)


def test_cp_refuses_an_empty_periphery_after_the_center_tie(monkeypatch):
    monkeypatch.setattr(diameter._Joined, "periphery", lambda self: [])
    with pytest.raises(RuntimeError, match="^periphery exhausted despite oversized diameter$"):
        cp_algorithm(P11, 9)


def test_a_tie_after_the_first_that_lengthens_the_diameter_is_refused(monkeypatch):
    tie = diameter._Joined.tie

    def lengthening(self, members):
        first, before = not self.near, self.diameter
        tie(self, members)
        if not first:  # the first tie may lengthen diam(H), through the newcomer
            self.diameter = before + 1

    monkeypatch.setattr(diameter._Joined, "tie", lengthening)
    # cp on P11 at delta 9 ties twice: the center, then a periphery node
    with pytest.raises(RuntimeError, match="^diameter increased$"):
        cp_algorithm(P11, 9)


@pytest.mark.parametrize("g", [
    pytest.param(path_graph(11), id="p11"),
    pytest.param(generate(RandomModelParams(BA, 300, 7, ba_m=2)), id="ba300"),
])
@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_at_delta_diam_minus_one_a_tie_tests_each_far_node_once(g, name, monkeypatch):
    # a tie lowers each far node's r(x) from its kept value, and at delta =
    # diam - 1 that value is at most delta + 1, so one test settles it
    calls = []  # per running tie, the _reach calls made inside it
    counts = []  # per tie: (_reach calls inside it, far's size before it)
    tie, reach = diameter._Joined.tie, diameter._Joined._reach

    def counting_tie(joined, members):
        calls.append(0)
        before = len(joined.far)
        tie(joined, members)
        counts.append((calls.pop(), before))

    def counting_reach(joined, x, t):
        if calls:  # at_delta and the pair draw read outside a tie, uncounted
            calls[-1] += 1
        return reach(joined, x, t)

    monkeypatch.setattr(diameter._Joined, "tie", counting_tie)
    monkeypatch.setattr(diameter._Joined, "_reach", counting_reach)
    REDUCTIONS[name](g, metric_profile(g).diameter - 1, 0)
    assert counts and all(made <= before for made, before in counts), counts


# (graph, delta, seed, whether both reductions end below delta)
@pytest.mark.parametrize("g, delta, seed, overshoots", [
    pytest.param(path_graph(20), 2, 1, False, id="g0-2"),
    pytest.param(random_tree(60, 5), 3, 1, False, id="g1-3"),
    pytest.param(random_connected(80, 40, 2), 3, 1, False, id="g2-3"),
    pytest.param(cycle_graph(13), 5, 0, True, id="overshoot-c13-5"),
    pytest.param(path_graph(13), 6, 2, True, id="overshoot-p13-6"),
])
def test_reductions_run_the_kernel_a_fixed_number_of_times_whatever_the_rounds(g, delta, seed, overshoots, monkeypatch):
    metric_profile(g)  # kept on g, as every caller's check leaves it
    runs = []
    kernel = graph._balls

    def counting(adj, keep=()):
        runs.append(len(adj))
        return kernel(adj, keep)

    profiled = []
    profile = diameter.metric_profile
    monkeypatch.setattr(graph, "_balls", counting)
    monkeypatch.setattr(diameter, "_balls", counting)
    monkeypatch.setattr(diameter, "metric_profile", lambda f: profiled.append(f) or profile(f))
    for fn in (periphery_algorithm, cp_algorithm):
        runs.clear()
        profiled.clear()
        report = fn(g, delta, seed)
        assert report.iterations >= 3
        assert (report.achieved_diameter < delta) == overshoots, fn.__name__
        # g's balls from radius delta-1 up; a diameter below delta then takes
        # one run on the final combined graph, delta itself is read without one
        assert runs == ([g.n, g.n + 1] if overshoots else [g.n]), fn.__name__
        # the diameter is exact either way, and no graph but g is profiled
        assert report.achieved_diameter == metric_profile(augment(g, report.s)).diameter
        assert profiled and all(f is g for f in profiled), fn.__name__


@pytest.mark.parametrize("fn", [periphery_algorithm, cp_algorithm])
def test_at_delta_reads_the_nodes_whose_host_eccentricity_is_exactly_delta(fn, monkeypatch):
    # on C6 every node has eccentricity 3 = delta, so only they can keep H's diameter at
    # delta; skipping them would call it less and take a second kernel run for the exact value
    runs = []
    kernel = graph._balls

    def counting(adj, keep=()):
        runs.append(len(adj))
        return kernel(adj, keep)

    monkeypatch.setattr(diameter, "_balls", counting)
    report = fn(C6, 3, 0)
    assert report.achieved_diameter == metric_profile(augment(C6, report.s)).diameter == 3
    assert runs == [6]


@pytest.mark.parametrize("run", ["periphery", "cp", "stats", "experiment-4"])
def test_the_network_expansion_side_keeps_no_coverage_balls(run, tmp_path, monkeypatch):
    # every graph profiled on the way keeps its profile, but only a broker
    # read keeps the coverage balls, and none happens here
    profiled = []
    profile = graph.metric_profile
    for module in (diameter, cli, experiments):
        monkeypatch.setattr(module, "metric_profile", lambda f: profiled.append(f) or profile(f))
    g = random_connected(40, 10, 3)
    if run in REDUCTIONS:
        REDUCTIONS[run](g, profile(g).diameter - 1, 0)
    elif run == "stats":
        write_edge_list(tmp_path / "g.txt", g)
        assert cli.main(["stats", str(tmp_path / "g.txt")]) == cli.EXIT_OK
    else:
        experiments.run_experiment_4(tmp_path / "e4.csv", models=(BA,), sizes=(30,), count=2)
    assert profiled
    assert all(f._profile is not None and f._coverage is None for f in profiled)
