import contextlib
import errno
import io
import os
import tempfile
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from tieset import __version__, cli, diameter, experiments, graph
from tieset.broker import BrokerHeuristic, brute_force_min_broker
from tieset.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, main
from tieset.datasets import KNOWN_STATS, write_edge_list
from tieset.generators import DEFAULT_BA_M, DEFAULT_NWS_K, DEFAULT_NWS_P
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


@pytest.mark.parametrize("argv", [
    pytest.param(["stats"], id="stats"),
    pytest.param(["broker", "--alg", "center"], id="broker"),
    pytest.param(["diam", "--delta", "2", "--alg", "cp"], id="diam"),
    pytest.param(["oracle", "--target", "broker"], id="oracle-broker"),
    pytest.param(["oracle", "--target", "delta", "--delta", "2"], id="oracle-delta"),
    pytest.param(["gadget", "--out", "h.txt"], id="gadget"),
])
def test_stats_disconnected_is_a_precondition_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.txt").write_text("0 1\n2 3\n")
    command, *flags = argv

    def no_kernel(*args, **kwargs):
        raise AssertionError("the ball kernel ran on a graph that is not connected")

    with monkeypatch.context() as patch:
        patch.setattr(graph, "_balls", no_kernel)  # refused by one BFS, before any kernel run
        assert main([command, "two.txt", *flags]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == "tieset: graph not connected\n" and captured.out == ""
    assert not (tmp_path / "h.txt").exists()
    assert main(["stats", "two.txt", "--giant"]) == EXIT_OK


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


def test_help_and_version_succeed(capsys):
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: tieset")
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"tieset {__version__}\n"


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


@pytest.mark.parametrize("alg", ["periphery", "cp"])
def test_diam_prints_the_time_its_report_carries(tmp_path, capsys, monkeypatch, alg):
    path = _edge_file(tmp_path, path_graph(5))
    clock = iter([10.0, 11.25])
    monkeypatch.setattr(diameter.time, "perf_counter", lambda: next(clock))
    assert main(["diam", path, "--delta", "3", "--alg", alg, "--seed", "4"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "elapsed-s: 1.250\n"
    assert captured.out.startswith(f"algorithm: {alg}\n") and "elapsed" not in captured.out


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


@pytest.mark.parametrize("model", ["ba", "nws"])
def test_gen_negative_seed_is_a_precondition_error_that_writes_nothing(tmp_path, capsys, monkeypatch, model):
    monkeypatch.setattr(cli, "generate", _refuse)
    out = tmp_path / "neg.txt"
    assert main(["gen", "--model", model, "--n", "10", "--seed", "-5", "--out", str(out)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == "tieset: seed must be >= 0, got -5\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("alg", ["periphery", "cp"])
def test_diam_negative_seed_is_a_precondition_error(tmp_path, capsys, monkeypatch, alg):
    path = _edge_file(tmp_path, path_graph(5))
    monkeypatch.setattr(diameter, "metric_profile", _refuse)
    assert main(["diam", path, "--delta", "3", "--alg", alg, "--seed", "-1"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == "tieset: seed must be >= 0, got -1\n" and captured.out == ""


@pytest.mark.parametrize("argv, error", [
    pytest.param(["diam", "--alg", "cp", "--delta", "1"], "target diameter must be >= 2, got 1", id="diam-delta"),
    pytest.param(["diam", "--alg", "periphery", "--delta", "-2"], "target diameter must be >= 2, got -2", id="diam-neg"),
    pytest.param(["diam", "--alg", "cp", "--delta", "3", "--seed", "-1"], "seed must be >= 0, got -1", id="diam-seed"),
    pytest.param(
        ["diam", "--alg", "cp", "--delta", "1", "--seed", "-1"], "seed must be >= 0, got -1", id="diam-seed-first"
    ),
    pytest.param(["oracle", "--target", "delta", "--delta", "1"], "target diameter must be >= 2, got 1", id="oracle"),
    pytest.param(
        ["oracle", "--target", "delta", "--delta", "0", "--cap", "2"], "target diameter must be >= 2, got 0",
        id="oracle-cap",
    ),
])
def test_bad_arguments_are_refused_before_the_file_is_read(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.setattr(cli, "load_edge_list", _refuse)
    command, *flags = argv
    assert main([command, str(tmp_path / "never-read.txt"), *flags]) == EXIT_PRECONDITION
    assert capsys.readouterr() == ("", f"tieset: {error}\n")


@pytest.mark.parametrize("model, flags, unused", [
    pytest.param("ba", ["--nws-k", "3", "--nws-p", "7"], "--nws-k, --nws-p", id="ba-nws-k-p"),
    pytest.param("ba", ["--ba-m", "2", "--nws-k", "4"], "--nws-k", id="ba-nws-k"),
    pytest.param("ba", ["--nws-p", "0.2"], "--nws-p", id="ba-nws-p"),
    pytest.param("nws", ["--ba-m", "2"], "--ba-m", id="nws-ba-m"),
    pytest.param("nws", ["--ba-m", "2", "--nws-k", "4", "--nws-p", "0.2"], "--ba-m", id="nws-ba-m-k-p"),
])
def test_gen_flags_of_the_other_model_are_input_errors(tmp_path, capsys, model, flags, unused):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--model", model, "--n", "10", *flags, "--seed", "1", "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"tieset: gen --model {model} takes no {unused}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("model, flags", [
    ("ba", ["--ba-m", str(DEFAULT_BA_M)]),
    ("nws", ["--nws-k", str(DEFAULT_NWS_K), "--nws-p", str(DEFAULT_NWS_P)]),
])
def test_gen_flags_left_out_take_the_model_defaults(tmp_path, model, flags):
    files = [tmp_path / "left-out.txt", tmp_path / "given.txt"]
    for out, given in zip(files, ([], flags)):
        assert main(["gen", "--model", model, "--n", "30", *given, "--seed", "9", "--out", str(out)]) == EXIT_OK
    assert files[0].read_bytes() == files[1].read_bytes()


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


@pytest.mark.parametrize(
    "target", [["broker"], ["delta", "--delta", "3"], ["delta", "--delta", "1"]], ids=["broker", "delta", "delta-1"]
)
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_below_one_is_a_precondition_error(tmp_path, capsys, target, cap):
    # the cap is refused before the file is read, and before the oracle sees a delta below 2
    for path in (_edge_file(tmp_path, path_graph(5)), str(tmp_path / "never-read.txt")):
        assert main(["oracle", path, "--target", *target, "--cap", cap]) == EXIT_PRECONDITION
        assert capsys.readouterr() == ("", f"tieset: size cap must be >= 1, got {cap}\n")


@pytest.mark.parametrize("flags, target, unused", [
    pytest.param(["--cap", "1"], "dom", "--cap", id="dom-cap"),
    pytest.param(["--delta", "3"], "dom", "--delta", id="dom-delta"),
    pytest.param(["--delta", "3", "--cap", "2"], "dom", "--delta, --cap", id="dom-delta-cap"),
    pytest.param(["--delta", "3"], "broker", "--delta", id="broker-delta"),
    pytest.param(["--delta", "3", "--cap", "2"], "broker", "--delta", id="broker-delta-cap"),
])
def test_oracle_flags_the_target_does_not_read_are_input_errors(tmp_path, capsys, flags, target, unused):
    missing = str(tmp_path / "never-read.txt")  # refused before the file is read
    assert main(["oracle", missing, "--target", target, *flags]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"tieset: oracle --target {target} takes no {unused}\n" and captured.out == ""


def test_oracle_delta_requires_delta(tmp_path, capsys):
    path = _edge_file(tmp_path, path_graph(5))
    assert main(["oracle", path, "--target", "delta"]) == EXIT_PRECONDITION
    capsys.readouterr()
    missing = str(tmp_path / "never-read.txt")  # refused before the file is read
    assert main(["oracle", missing, "--target", "delta"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err == "tieset: --delta is required for --target delta\n" and captured.out == ""


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


@pytest.mark.parametrize("number", ["3", "5"])
def test_experiment_dataset_path_that_is_a_directory_is_an_input_error(tmp_path, capsys, number):
    folder = tmp_path / "adir"
    folder.mkdir()
    out = tmp_path / "e.csv"
    assert main(["experiment", number, "--dataset", f"a={folder}", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"tieset: input error: [Errno {errno.EISDIR}] Is a directory: '{folder}'\n"
    assert not out.exists()


def test_experiment_3_rejects_bad_dataset_spec(tmp_path):
    out = tmp_path / "e3.csv"
    assert main(["experiment", "3", "--dataset", "no-equals-sign", "--out", str(out)]) == EXIT_INPUT


# a count below one, or an empty list of sizes, depths or datasets, leaves nothing to run;
# experiment 2 also refuses graphs too large for its exhaustive oracle and an oracle cap
# below one, experiment 5 a negative depth, and experiment 3 a budget that is not 0 or a
# finite number of seconds up to 2,147,483.647 (the CLI contract)
EMPTY_EXPERIMENTS = [
    *(pytest.param([number, "--sizes", "8", "--count", count], "count", id=f"{count}-{number}")
      for number in ("1", "2", "4") for count in ("0", "-1")),
    *(pytest.param([number, "--sizes", ","], "sizes", id=f"no-sizes-{number}") for number in ("1", "2", "4")),
    *(pytest.param([number], "datasets", id=f"no-dataset-{number}") for number in ("3", "5")),
    pytest.param(["5", "--dataset", "d=missing.txt", "--i-range", ","], "i-range", id="no-i-range-5"),
    pytest.param(["2", "--sizes", "8,15"], "sizes must stay <= 14", id="oracle-size-2"),
    *(pytest.param(["2", "--oracle-cap", cap], f"size cap must be >= 1, got {cap}", id=f"oracle-cap-{cap}-2")
      for cap in ("0", "-1")),
    pytest.param(["5", "--dataset", "d=missing.txt", "--i-range", "1,-1"], "--i-range", id="negative-i-5"),
    *(pytest.param([number, "--models", "ba,nws,ba", "--sizes", "8", "--count", "1"], "models must not repeat ba",
                   id=f"repeated-model-{number}") for number in ("1", "2", "4")),
    *(pytest.param([number, "--sizes", "8,9,8", "--count", "1"], "sizes must not repeat 8",
                   id=f"repeated-size-{number}") for number in ("1", "2", "4")),
    *(pytest.param([number, *dataset, "--heuristics", "max,s-max,max"], "heuristics must not repeat max",
                   id=f"repeated-heuristic-{number}")
      for number, dataset in (("1", ()), ("2", ()), ("3", ("--dataset", "d=missing.txt")))),
    pytest.param(["5", "--dataset", "d=missing.txt", "--i-range", "1,2,1"], "i-range must not repeat 1",
                 id="repeated-i-5"),
    *(pytest.param([number, "--dataset", "a=a.txt", "--dataset", "b=b.txt", "--dataset", "a=a.txt"],
                   "datasets must not repeat a", id=f"repeated-dataset-{number}") for number in ("3", "5")),
    *(pytest.param([number, "--models", ","], "models must not be empty", id=f"no-models-{number}")
      for number in ("1", "2", "4")),
    *(pytest.param([number, *dataset, "--heuristics", ","], "heuristics must not be empty",
                   id=f"no-heuristics-{number}")
      for number, dataset in (("1", ()), ("2", ()), ("3", ("--dataset", "d=missing.txt")))),
    # every (model, size) cell is checked before the first graph is drawn
    *(pytest.param([number, "--models", "ba,nws", "--sizes", "12,4", "--count", "3"],
                   "nws needs even 2 <= nws_k < n, got nws_k=4, n=4", id=f"bad-last-cell-{number}")
      for number in ("1", "2", "4")),
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


# a comma-separated list flag drops its empty parts
@pytest.mark.parametrize("argv, same", [
    pytest.param(["1", "--heuristics", "max,"], ["1", "--heuristics", "max"], id="heuristics-trailing"),
    pytest.param(["1", "--models", "ba,,nws"], ["1", "--models", "ba,nws"], id="models-double"),
    pytest.param(["4", "--sizes", ",20,,24,"], ["4", "--sizes", "20,24"], id="sizes-empty-parts"),
    pytest.param(["2", "--heuristics", ",center,,max"], ["2", "--heuristics", "center,max"], id="heuristics-leading"),
])
def test_experiment_list_flags_drop_empty_parts(tmp_path, argv, same):
    small = ["--sizes", "8", "--count", "2"] if "--sizes" not in argv else ["--count", "2"]
    files = [tmp_path / "spelled.csv", tmp_path / "clean.csv"]
    for out, spelling in zip(files, (argv, same)):
        assert main(["experiment", *spelling, *small, "--out", str(out)]) == EXIT_OK
    assert files[0].read_bytes() == files[1].read_bytes()


def test_experiment_list_flag_with_a_bad_part_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["experiment", "4", "--sizes", "20,x", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith("error: argument --sizes: invalid comma_list value: '20,x'\n")
    assert not out.exists()


def _refuse(*args, **kwargs):
    pytest.fail("a graph was drawn or a dataset read")


# gen and gadget check their --out as experiment does, before a graph is drawn or read: an --out whose
# folder is missing, or that is itself a directory, is refused with the error that writing it raises
_BAD_OUT_ARGV = {
    "1": ["experiment", "1", "--models", "ba", "--sizes", "200", "--count", "5"],
    "2": ["experiment", "2", "--sizes", "8"],
    "4": ["experiment", "4"],
    **{number: ["experiment", number, "--dataset", "d=DATA"] for number in ("3", "5")},
    "gen": ["gen", "--model", "ba", "--n", "10", "--seed", "1"],
    "gadget": ["gadget", "DATA"],
}


@pytest.mark.parametrize("argv, code", [
    pytest.param(argv, code, id=name + suffix)
    for name, argv in _BAD_OUT_ARGV.items()
    for code, suffix in ((errno.ENOENT, ""), (errno.EISDIR, "-directory"))
])
def test_experiment_output_folder_that_does_not_exist_is_refused_first(tmp_path, capsys, monkeypatch, argv, code):
    data = _edge_file(tmp_path, path_graph(6))
    for module, name in [(experiments, "generate"), (experiments, "load_edge_list"), (cli, "generate"),
                         (cli, "load_edge_list"), (cli, "reduction_gadget")]:
        monkeypatch.setattr(module, name, _refuse)
    if code == errno.ENOENT:
        out = tmp_path / "missing" / "e.csv"
    else:
        out = tmp_path / "existing"
        out.mkdir()
    argv = [arg.replace("DATA", data) for arg in argv]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"tieset: input error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    if code == errno.ENOENT:
        assert not out.parent.exists()
    else:
        assert not any(out.iterdir())


@pytest.mark.parametrize("number", ["3", "5"])
def test_experiment_dataset_stats_are_checked_before_the_first_run(tmp_path, capsys, monkeypatch, number):
    first = _edge_file(tmp_path, random_connected(20, 12, 3), name="a.txt")
    second = _edge_file(tmp_path, path_graph(6), name="facebook.txt")
    ran = lambda *args, **kwargs: pytest.fail("a heuristic or reduction ran")
    monkeypatch.setattr(experiments, "_heuristic_rows", ran)
    monkeypatch.setattr(experiments, "_reduction_rows", ran)
    out = tmp_path / "e.csv"
    argv = ["experiment", number, "--dataset", f"a={first}", "--dataset", f"facebook={second}", "--verify-stats"]
    assert main([*argv, "--out", str(out)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"tieset: dataset facebook: stats (6, 5, 6, 5, 3) do not match published "
        f"{astuple(KNOWN_STATS['facebook'])} (n, m, lcc_n, diameter, radius)\n"
    )
    assert not out.exists()


# a ',' would read as two names in the '# datasets:' line, and a line break or
# another unprintable character would break the '#' block
@pytest.mark.parametrize("number", ["3", "5"])
@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "tab\there", "bell\x07"])
def test_experiment_dataset_names_that_break_the_metadata_are_refused(tmp_path, capsys, monkeypatch, number, name):
    data = _edge_file(tmp_path, path_graph(6))
    monkeypatch.setattr(experiments, "load_edge_list", _refuse)
    out = tmp_path / "e.csv"
    assert main(["experiment", number, "--dataset", f"{name}={data}", "--out", str(out)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"tieset: dataset name {name!r} must not hold a ',' or a character that is not printable\n"
    )
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
        if g is None:  # nothing survives cleaning: only a delta below 2 is refused before the file is read
            early = {"diam", "oracle delta"} if delta < 2 else set()
            assert codes == {name: EXIT_PRECONDITION if name in early else EXIT_INPUT for name in codes}
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
