import pytest

from tieset.datasets import (
    DatasetDescriptor,
    EdgeListFormatError,
    KNOWN_STATS,
    load_edge_list,
    write_edge_list,
)
from tieset.experiments import _giant
from tieset.graph import Graph, GraphError, build_graph
from util import random_connected


def _write(tmp_path, text, name="edges.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_triangle_with_comment(tmp_path):
    g, mapping = load_edge_list(_write(tmp_path, "0 1\n1 2\n# comment\n2 0\n"))
    assert (g.n, g.m) == (3, 3)
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_self_loop_only_file_is_empty(tmp_path):
    with pytest.raises(EdgeListFormatError, match="empty graph after cleaning"):
        load_edge_list(_write(tmp_path, "7 7\n"))


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(EdgeListFormatError, match=r":3:"):
        load_edge_list(_write(tmp_path, "0 1\n1 2\n2 3 4\n"))
    with pytest.raises(EdgeListFormatError, match="non-integer"):
        load_edge_list(_write(tmp_path, "0 x\n"))
    with pytest.raises(EdgeListFormatError, match="negative"):
        load_edge_list(_write(tmp_path, "0 -2\n"))


@pytest.mark.parametrize("text, what", [
    pytest.param("1_0 2\n10 3\n", "non-integer", id="underscore"),
    pytest.param("\u0661 2\n1 3\n", "non-integer", id="arabic-indic-digit"),
    pytest.param("\uff11 2\n", "non-integer", id="fullwidth-digit"),
    pytest.param("+1 2\n", "non-integer", id="plus-sign"),
    pytest.param("1 +2\n", "non-integer", id="plus-sign-second"),
    pytest.param("- 2\n", "non-integer", id="bare-minus"),
    pytest.param("-0 2\n", "negative", id="minus-zero"),
    pytest.param("3 -2\n", "negative", id="minus-second"),
])
def test_labels_must_be_ascii_decimal_digits(tmp_path, text, what):
    # int() reads each of these, so distinct labels could become one node
    with pytest.raises(EdgeListFormatError, match=rf":1: {what} node label in"):
        load_edge_list(_write(tmp_path, text))


def test_labels_remap_in_ascending_order(tmp_path):
    g, mapping = load_edge_list(_write(tmp_path, "10 30\n30 20\n"))
    assert mapping == {10: 0, 20: 1, 30: 2}
    assert list(g.edges()) == [(0, 2), (1, 2)]


def test_duplicate_edges_collapse(tmp_path):
    g, _ = load_edge_list(_write(tmp_path, "1 2\n2 1\n1 2\n2 3\n"))
    assert g.m == 2


def test_giant_component_extraction(tmp_path):
    # component {0,1,2} beats {5,6}; labels outside it drop from the mapping
    g, mapping = load_edge_list(_write(tmp_path, "0 1\n1 2\n5 6\n"), giant=True)
    assert (g.n, g.m) == (3, 2)
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_write_then_load_roundtrip(tmp_path):
    g = random_connected(15, 10, 4)
    out = tmp_path / "round.txt"
    write_edge_list(out, g, header_lines=("made for the roundtrip test",))
    loaded, mapping = load_edge_list(out)
    assert loaded == g
    assert mapping == {i: i for i in range(15)}
    assert out.read_text().startswith("# made for")


@pytest.mark.parametrize("edges, mapping", [([(0, 1)], {0: 0, 1: 1}), ([(0, 2)], {0: 0, 2: 1})])
def test_a_node_with_no_edge_does_not_survive_the_roundtrip(tmp_path, edges, mapping):
    # the format has a line per edge and none per node: node 2, or node 1, is not written,
    # and the labels left are renumbered densely
    out = tmp_path / "isolated.txt"
    write_edge_list(out, build_graph(3, edges))
    loaded, read_mapping = load_edge_list(out)
    assert loaded == build_graph(2, [(0, 1)])
    assert read_mapping == mapping


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_edge_list(tmp_path / "nope.txt")


def test_descriptor_attaches_known_stats(tmp_path):
    tiny = tmp_path / "tiny.txt"
    write_edge_list(tiny, random_connected(24, 30, 8))
    with pytest.raises(GraphError, match="do not match published"):
        _giant(DatasetDescriptor("Facebook", str(tiny)), True)
    assert isinstance(_giant(DatasetDescriptor("mystery", str(tiny)), True), Graph)


def test_known_stats_shape():
    assert set(KNOWN_STATS) == {"facebook", "enron", "col1", "col2"}
    for stats in KNOWN_STATS.values():
        assert stats.lcc_n <= stats.n
        assert stats.radius <= stats.diameter <= 2 * stats.radius
