import errno

import pytest

from tieset import cli
from tieset.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, main
from tieset.datasets import write_edge_list

from util import path_graph, random_connected


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
