import contextlib
import errno
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tieset import cli
from tieset.broker import BrokerHeuristic, brute_force_min_broker
from tieset.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, main
from tieset.datasets import write_edge_list
from tieset.graph import build_graph, is_connected, metric_profile

from util import complete_graph, path_graph, random_connected


def _edge_file(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    write_edge_list(path, g)
    return str(path)


def test_stats_roundtrip(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["stats", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n: 5" in out and "radius: 2" in out and "diameter: 4" in out


def test_stats_disconnected_is_a_precondition_error(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n2 3\n")
    assert main(["stats", str(path)]) == EXIT_PRECONDITION
    assert main(["stats", str(path), "--giant"]) == EXIT_OK


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.txt")]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_malformed_file_is_an_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\noops\n")
    assert main(["stats", str(path)]) == EXIT_INPUT


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe0 1\n")
    assert main(["stats", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_directory_is_an_input_error(tmp_path):
    assert main(["stats", str(tmp_path)]) == EXIT_INPUT


@pytest.mark.parametrize("exc", [
    PermissionError(errno.EACCES, "Permission denied"),
    OSError(errno.EIO, "Input/output error"),
])
def test_os_errors_on_input_are_input_errors(tmp_path, monkeypatch, capsys, exc):
    def refuse(path, *, giant=False):
        raise exc

    monkeypatch.setattr(cli, "load_edge_list", refuse)
    path = _edge_file(tmp_path, path_graph(3))
    assert main(["stats", path]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_bad_flag_is_an_input_error(tmp_path, capsys):
    assert main(["broker", "x", "--alg", "definitely-not"]) == EXIT_INPUT


def test_broker_subcommand_with_verification(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["broker", path, "--alg", "imp-center", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "size: 2" in out and "set: 1 3" in out and "valid: true" in out


def test_diam_subcommand(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["diam", path, "--delta", "3", "--alg", "periphery", "--seed", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "edges added: 2" in out and "achieved diameter: 3" in out


def test_diam_rejects_bad_delta(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["diam", path, "--delta", "1", "--alg", "cp"]) == EXIT_PRECONDITION


def test_gen_then_stats(tmp_path, capsys):
    out = str(tmp_path / "gen.txt")
    assert main(["gen", "--model", "nws", "--n", "30", "--nws-k", "4", "--nws-p", "0.2",
                 "--seed", "9", "--out", out]) == EXIT_OK
    assert main(["stats", out]) == EXIT_OK
    assert "n: 30" in capsys.readouterr().out


def test_gen_rejects_bad_params(tmp_path):
    out = str(tmp_path / "gen.txt")
    assert main(["gen", "--model", "ba", "--n", "5", "--ba-m", "7", "--seed", "1", "--out", out]) == EXIT_PRECONDITION


def test_gadget_subcommand(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(4))
    out = str(tmp_path / "gadget.txt")
    assert main(["gadget", path, "--out", out]) == EXIT_OK
    assert main(["stats", out]) == EXIT_OK
    stats = capsys.readouterr().out
    assert "n: 12" in stats and "radius: 3" in stats


def test_gadget_rejects_radius_one(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n0 2\n1 2\n")
    out = str(tmp_path / "h.txt")
    assert main(["gadget", str(path), "--out", out]) == EXIT_PRECONDITION


def test_oracle_subcommands(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["oracle", path, "--target", "broker"]) == EXIT_OK
    assert "size: 2" in capsys.readouterr().out
    assert main(["oracle", path, "--target", "dom"]) == EXIT_OK
    assert "set: 0 3" in capsys.readouterr().out
    assert main(["oracle", path, "--target", "delta", "--delta", "4"]) == EXIT_OK
    assert "size: 1" in capsys.readouterr().out


def test_oracle_cap_exit_code(tmp_path):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["oracle", path, "--target", "broker", "--cap", "1"]) == EXIT_CAP


def test_oracle_delta_requires_delta(tmp_path):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["oracle", path, "--target", "delta"]) == EXIT_PRECONDITION


def test_experiment_subcommand_writes_csv(tmp_path):
    out = tmp_path / "e1.csv"
    assert main(["experiment", "1", "--models", "ba", "--sizes", "25", "--count", "2",
                 "--heuristics", "max,center", "--seed", "5", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.startswith("# tool: tieset")
    assert "max" in text and "center" in text


def test_experiment_3_cli_with_dataset_spec(tmp_path):
    data = _edge_file(tmp_path, random_connected(20, 12, 3), name="tiny.txt")
    out = tmp_path / "e3.csv"
    assert main(["experiment", "3", "--dataset", f"tiny={data}", "--heuristics", "center",
                 "--out", str(out)]) == EXIT_OK
    assert "tiny" in out.read_text()


def test_experiment_3_rejects_bad_dataset_spec(tmp_path):
    out = tmp_path / "e3.csv"
    assert main(["experiment", "3", "--dataset", "no-equals-sign", "--out", str(out)]) == EXIT_INPUT


# a count below one, or an empty list of sizes, depths or datasets, leaves nothing to run;
# experiment 2 also refuses graphs too large for its exhaustive oracle, and experiment 3
# a budget that is not 0 or a finite number of seconds up to 2,147,483.647 (the CLI contract)
EMPTY_EXPERIMENTS = [
    *(pytest.param([number, "--sizes", "8", "--count", count], "count", id=f"{count}-{number}")
      for number in ("1", "2", "4") for count in ("0", "-1")),
    *(pytest.param([number, "--sizes", ","], "sizes", id=f"no-sizes-{number}") for number in ("1", "2", "4")),
    *(pytest.param([number], "datasets", id=f"no-dataset-{number}") for number in ("3", "5")),
    pytest.param(["5", "--dataset", "d=missing.txt", "--i-range", ","], "i-range", id="no-i-range-5"),
    pytest.param(["2", "--sizes", "8,15"], "sizes must stay <= 14", id="oracle-size-2"),
    *(pytest.param(["3", "--dataset", "d=missing.txt", "--timeout", timeout], "timeout must be",
                   id=f"timeout-{timeout}-3")
      for timeout in ("inf", "1e400", "1e9", "1e20", "2147483.648", "nan", "-5")),
]


@pytest.mark.parametrize("argv, reason", EMPTY_EXPERIMENTS)
def test_experiment_count_below_one_is_a_precondition_error(tmp_path, capsys, argv, reason):
    out = tmp_path / "e.csv"
    assert main(["experiment", *argv, "--out", str(out)]) == EXIT_PRECONDITION
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, unused", [
    (["4", "--heuristics", "bogus", "--i-range", "9", "--timeout", "5"], "--heuristics, --timeout, --i-range"),
    (["3", "--dataset", "d=missing.txt", "--count", "0"], "--count"),
    (["1", "--dataset", "d=missing.txt", "--seed", "3"], "--dataset"),
    (["5", "--dataset", "d=missing.txt", "--oracle-cap", "3", "--timings"], "--oracle-cap"),
    (["2", "--verify-stats", "--models", "ba"], "--verify-stats"),
])
def test_experiment_flags_the_runner_does_not_take_are_input_errors(tmp_path, capsys, argv, unused):
    out = tmp_path / "e.csv"
    assert main(["experiment", *argv, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"tieset: experiment {argv[0]} takes no {unused}\n"
    assert not out.exists()


@st.composite
def edge_list_files(draw):
    """(graph or None, file text): self-loops only, one edge, K_n, two pieces, or connected.

    Node ids are written as distinct random labels, so loading relabels them.
    """
    kind = draw(st.sampled_from(["self-loops", "pair", "complete", "disconnected", "connected"]))
    if kind == "self-loops":
        labels = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
        return None, "".join(f"{v} {v}\n" for v in labels)
    if kind == "pair":
        g = build_graph(2, [(0, 1)])
    elif kind == "complete":
        g = complete_graph(draw(st.integers(3, 6)))
    elif kind == "connected":
        n, extra, seed = draw(st.integers(3, 9)), draw(st.integers(0, 6)), draw(st.integers(0, 999))
        g = random_connected(n, extra, seed)
    else:
        a = random_connected(draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 999)))
        b = random_connected(draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 999)))
        g = build_graph(a.n + b.n, [*a.edges(), *((x + a.n, y + a.n) for x, y in b.edges())])
    labels = draw(st.lists(st.integers(0, 10 ** 6), min_size=g.n, max_size=g.n, unique=True))
    return g, "# edge-case input\n" + "".join(f"{labels[x]} {labels[y]}\n" for x, y in g.edges())


@settings(max_examples=60, deadline=None)
@given(
    case=edge_list_files(),
    alg=st.sampled_from([h.value for h in BrokerHeuristic]),
    reduction=st.sampled_from(["periphery", "cp"]),
    delta=st.integers(-1, 10),
    cap=st.integers(1, 4),
)
def test_exit_codes_follow_the_contract_on_edge_case_inputs(case, alg, reduction, delta, cap):
    g, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

        def run(command, *flags):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return main([command, path, *flags])

        codes = {
            "stats": run("stats"),
            "broker": run("broker", "--alg", alg, "--verify"),
            "diam": run("diam", "--delta", str(delta), "--alg", reduction),
            "oracle broker": run("oracle", "--target", "broker", "--cap", str(cap)),
            "oracle delta": run("oracle", "--target", "delta", "--delta", str(delta)),
        }
        if g is None:  # nothing survives cleaning
            assert set(codes.values()) == {EXIT_INPUT}
        elif not is_connected(g):
            assert set(codes.values()) == {EXIT_PRECONDITION}
            assert run("stats", "--giant") == EXIT_OK
        else:
            diameter = metric_profile(g).diameter
            assert codes == {
                "stats": EXIT_OK,
                "broker": EXIT_OK,
                "diam": EXIT_OK if 2 <= delta <= diameter else EXIT_PRECONDITION,
                "oracle broker": EXIT_OK if len(brute_force_min_broker(g)) <= cap else EXIT_CAP,
                "oracle delta": EXIT_OK if delta >= 2 else EXIT_PRECONDITION,
            }
