"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as they
complete.  Criteria touching the four public datasets only run when
TIESET_DATA_DIR points at a directory holding <name>.txt edge lists; they are
skipped (not failed) otherwise.
"""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from statistics import fmean

import pytest

from tieset.broker import (
    BrokerHeuristic,
    brute_force_min_broker,
    brute_force_min_dominating,
    is_broker_set,
    is_sub_radius_dominating,
    run_heuristic,
)
from tieset.datasets import KNOWN_STATS, load_edge_list
from tieset.diameter import (
    brute_force_min_delta_enabling,
    cp_algorithm,
    is_delta_enabling,
    periphery_algorithm,
    preserve_diameter,
)
from tieset.experiments import split_seed
from tieset.generators import BA, NWS, RandomModelParams, generate, reduction_gadget
from tieset.graph import (
    NodeSet,
    is_complete,
    is_diametrically_uniform,
    metric_profile,
)

from util import (
    complete_graph,
    cycle_graph,
    grow_to_sub_radius_dominating,
    path_graph,
    random_connected,
)


def _passed(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _random_model_graphs(count, sizes, master_seed):
    """Alternate BA(m=2) and NWS(k=4, p=0.1) graphs over the size ladder."""
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        seed = split_seed(master_seed, i)
        if i % 2 == 0:
            params = RandomModelParams(BA, n, seed, ba_m=2)
        else:
            params = RandomModelParams(NWS, n, seed, nws_k=4, nws_p=0.1)
        out.append(generate(params))
    return out


def test_criterion_1_all_heuristics_emit_valid_sets():
    sizes = list(range(20, 201, 20))
    failures = 0
    for g in _random_model_graphs(200, sizes, master_seed=101):
        profile = metric_profile(g)
        for h in BrokerHeuristic:
            report = run_heuristic(g, h, verify=False, profile=profile)
            ok = is_sub_radius_dominating(g, report.s) and is_broker_set(g, report.s)
            if not ok:
                failures += 1
    assert failures == 0
    _passed(1, "validity of all eight heuristics on 200 random graphs")


def test_criterion_2_sub_radius_domination_implies_broker():
    rng = random.Random(202)
    exceptions = 0
    for i in range(1000):
        g = random_connected(rng.randint(4, 40), rng.randint(0, 30), seed=split_seed(202, i))
        radius = metric_profile(g).radius
        s = grow_to_sub_radius_dominating(g, radius, rng)
        assert is_sub_radius_dominating(g, s)
        if not is_broker_set(g, s):
            exceptions += 1
    assert exceptions == 0
    _passed(2, "sub-radius dominating implies broker on 1000 pairs")


def test_criterion_3_oracle_soundness_on_small_graphs():
    graphs = [path_graph(n) for n in range(2, 9)]
    graphs += [cycle_graph(n) for n in range(3, 9)]
    rng = random.Random(303)
    graphs += [
        random_connected(rng.randint(2, 8), rng.randint(0, 10), seed=split_seed(303, i))
        for i in range(200)
    ]
    for g in graphs:
        profile = metric_profile(g)
        best = brute_force_min_broker(g)
        assert is_broker_set(g, best)
        for combo in combinations(range(g.n), len(best) - 1):
            assert not is_broker_set(g, combo)
        for h in BrokerHeuristic:
            assert run_heuristic(g, h, verify=False, profile=profile).size >= len(best)
    _passed(3, "heuristics never beat the exact oracle on 213 small graphs")


def test_criterion_4_gadget_minimum_equals_domination_number():
    graphs = [path_graph(n) for n in range(4, 9)]
    graphs += [cycle_graph(n) for n in range(4, 9)]
    rng = random.Random(404)
    attempts = 0
    while len(graphs) < 50 and attempts < 4000:
        g = random_connected(rng.randint(4, 8), rng.randint(0, 8), seed=split_seed(404, attempts))
        attempts += 1
        if metric_profile(g).radius >= 2:
            graphs.append(g)
    assert len(graphs) >= 50
    for g in graphs:
        h, gm = reduction_gadget(g)
        dom = brute_force_min_dominating(g)
        assert len(brute_force_min_broker(h)) == len(dom)
        lift = [gm.copy_node(v) for v in dom]
        assert is_broker_set(h, lift)
    _passed(4, f"gadget minimum equals domination number on {len(graphs)} graphs")


def test_criterion_5_diameter_preservation_cases():
    rng = random.Random(505)
    # (a) non-uniform graphs: one node suffices
    non_uniform = [path_graph(n) for n in range(3, 9)]
    attempts = 0
    while len(non_uniform) < 60 and attempts < 4000:
        g = random_connected(rng.randint(3, 9), rng.randint(0, 10), seed=split_seed(505, attempts))
        attempts += 1
        if not is_diametrically_uniform(g):
            non_uniform.append(g)
    for g in non_uniform:
        s = preserve_diameter(g)
        assert len(s) == 1
        assert is_delta_enabling(g, s, metric_profile(g).diameter)
    # (b) complete graphs: everything
    for n in range(2, 9):
        assert preserve_diameter(complete_graph(n)) == NodeSet(range(n))
    # (c) uniform incomplete graphs: 1 < delta-minimum <= min degree
    uniform = [cycle_graph(n) for n in range(4, 9)]
    attempts = 0
    while len(uniform) < 25 and attempts < 20000:
        g = random_connected(rng.randint(4, 8), rng.randint(1, 14), seed=split_seed(506, attempts))
        attempts += 1
        if is_diametrically_uniform(g) and not is_complete(g):
            uniform.append(g)
    assert len(uniform) >= 25
    for g in uniform:
        profile = metric_profile(g)
        min_degree = min(g.degree(v) for v in range(g.n))
        exact = brute_force_min_delta_enabling(g, profile.diameter)
        assert 1 < len(exact) <= min_degree
        s = preserve_diameter(g)
        assert len(s) <= min_degree
        assert is_delta_enabling(g, s, profile.diameter)
    _passed(5, f"diameter preservation on {len(non_uniform)}+7+{len(uniform)} graphs")


def test_criterion_6_reduction_heuristics_terminate_and_respect_bound():
    sizes = list(range(20, 201, 20))
    usable = 0
    i = 0
    while usable < 100 and i < 400:
        g = _random_model_graphs(1, [sizes[i % len(sizes)]], master_seed=606 + i)[0]
        i += 1
        profile = metric_profile(g)
        delta = profile.diameter - 1
        if delta < 2:
            continue
        usable += 1
        for seed in range(5):
            p = periphery_algorithm(g, delta, seed)
            assert p.achieved_diameter <= delta
            c = cp_algorithm(g, delta, seed)  # asserts ecc(w) <= rad(G)+2 per tie
            assert c.achieved_diameter <= delta
    assert usable >= 100
    _passed(6, "periphery and cp reach diam-1 on 100 graphs x 5 seeds")


def test_criterion_7_simplified_variants_do_not_lose_on_average():
    pairs = {
        BrokerHeuristic.MAX: BrokerHeuristic.S_MAX,
        BrokerHeuristic.BTW: BrokerHeuristic.S_BTW,
        BrokerHeuristic.ML: BrokerHeuristic.S_ML,
    }
    sizes = (50, 100, 150, 200)
    outputs = {h: [] for pair in pairs.items() for h in pair}
    for i in range(100):
        n = sizes[i % len(sizes)]
        g = generate(RandomModelParams(BA, n, split_seed(707, i), ba_m=2))
        profile = metric_profile(g)
        for h in outputs:
            outputs[h].append(run_heuristic(g, h, verify=False, profile=profile).size)
    for plain, simplified in pairs.items():
        mean_plain = fmean(outputs[plain])
        mean_simplified = fmean(outputs[simplified])
        assert mean_simplified <= mean_plain * 1.05, (plain, mean_plain, mean_simplified)
    _passed(7, "simplified variants at least match their counterparts on 100 BA graphs")


def _dataset_path(name):
    root = os.environ.get("TIESET_DATA_DIR")
    if not root:
        return None
    path = Path(root) / f"{name}.txt"
    return path if path.is_file() else None


@pytest.mark.parametrize("name", sorted(KNOWN_STATS))
def test_criterion_7_dataset_stats_match_published(name):
    path = _dataset_path(name)
    if path is None:
        pytest.skip(f"dataset {name} not supplied (set TIESET_DATA_DIR)")
    expected = KNOWN_STATS[name]
    g_full, _ = load_edge_list(path)
    g, _ = load_edge_list(path, giant=True)
    profile = metric_profile(g)
    assert (g_full.n, g_full.m, g.n) == (expected.n, expected.m, expected.lcc_n)
    assert (profile.diameter, profile.radius) == (expected.diameter, expected.radius)
    _passed(7, f"{name} stats match published values")


@pytest.mark.parametrize("name", ["enron", "col1", "col2"])
def test_criterion_7_imp_center_is_small_on_datasets(name):
    path = _dataset_path(name)
    if path is None:
        pytest.skip(f"dataset {name} not supplied (set TIESET_DATA_DIR)")
    g, _ = load_edge_list(path, giant=True)
    report = run_heuristic(g, BrokerHeuristic.IMP_CENTER, verify=False)
    assert report.size <= 3
    _passed(7, f"imp-center returns {report.size} <= 3 ties on {name}")


def test_criterion_7_periphery_needs_few_edges_on_facebook():
    path = _dataset_path("facebook")
    if path is None:
        pytest.skip("dataset facebook not supplied (set TIESET_DATA_DIR)")
    g, _ = load_edge_list(path, giant=True)
    report = periphery_algorithm(g, 7, seed=0)
    assert report.edges_added <= 4
    _passed(7, f"periphery reduces facebook to diameter 7 with {report.edges_added} edges")


@pytest.mark.parametrize("name", ["col1", "col2"])
def test_criterion_7_collaboration_nets_shrink_by_four_cheaply(name):
    path = _dataset_path(name)
    if path is None:
        pytest.skip(f"dataset {name} not supplied (set TIESET_DATA_DIR)")
    g, _ = load_edge_list(path, giant=True)
    diameter = metric_profile(g).diameter
    best = min(
        fn(g, diameter - 4, seed=0).edges_added
        for fn in (periphery_algorithm, cp_algorithm)
    )
    assert best < 19
    _passed(7, f"{name} diameter improves by four with {best} < 19 edges")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tieset", *args],
        capture_output=True,
        text=True,
        check=True,
    )


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    invocations = [
        ["gen", "--model", "ba", "--n", "60", "--seed", "17", "--out"],
        ["experiment", "1", "--models", "ba,nws", "--sizes", "30", "--count", "3", "--seed", "41", "--out"],
        ["experiment", "2", "--models", "ba", "--sizes", "8", "--count", "4", "--seed", "42", "--out"],
        ["experiment", "4", "--models", "nws", "--sizes", "40", "--count", "2", "--seed", "43", "--out"],
    ]
    for k, base in enumerate(invocations):
        first, second = tmp_path / f"run{k}a.out", tmp_path / f"run{k}b.out"
        _cli(*base, str(first))
        _cli(*base, str(second))
        assert first.read_bytes() == second.read_bytes(), base
    _passed(8, "repeated CLI invocations produce byte-identical files")
