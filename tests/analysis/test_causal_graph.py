"""Tests for causal-graph construction and critical paths."""

import pytest

from repro.analysis.causal import CausalHop, CausalPath
from repro.analysis.causal_graph import critical_path, critical_path_ms, path_to_graph
from repro.common.errors import AnalysisError


def nested_path():
    """apache calls tomcat; tomcat runs two mysql queries."""
    hops = [
        CausalHop("apache", 0, 10_000, 1_000, 9_000),
        CausalHop("tomcat", 1_200, 8_800, 2_000, 8_000),
        CausalHop("mysql", 2_200, 3_200, None, None),
        CausalHop("mysql", 5_000, 7_800, None, None),
    ]
    return CausalPath("R0A000000001", hops)


def test_graph_nodes_and_weights():
    graph = path_to_graph(nested_path())
    assert len(graph.nodes) == 4
    tiers = {node.tier for node in graph.nodes.values()}
    assert tiers == {"apache", "tomcat", "mysql"}
    weights = [node.local_ms for node in graph.nodes.values()]
    assert weights == pytest.approx([2.0, 1.6, 1.0, 2.8])


def test_graph_structure_calls_and_then():
    graph = path_to_graph(nested_path())
    relations = {
        (graph.nodes[u].tier, graph.nodes[v].tier, relation)
        for u, v, relation in graph.edges
    }
    assert relations == {
        ("apache", "tomcat", "calls"),
        ("tomcat", "mysql", "calls"),
        ("mysql", "mysql", "then"),
    }


def test_graph_is_dag():
    graph = path_to_graph(nested_path())
    position = {node: i for i, node in enumerate(graph.topological_order)}
    assert sorted(position) == sorted(graph.nodes)
    assert all(position[u] < position[v] for u, v, _ in graph.edges)


def test_cycle_rejected():
    # Two zero-length downstream windows over the same span contain
    # each other, so each becomes the other's parent.
    twin = CausalHop("tomcat", 1_000, 2_000, 1_000, 2_000)
    with pytest.raises(AnalysisError, match="cycle"):
        path_to_graph(CausalPath("R0A000000005", [twin, twin._replace()]))


def test_critical_path_prefers_heavy_chain():
    path = nested_path()
    nodes = critical_path(path)
    # The chain runs apache -> tomcat -> q1 -> q2 (sequential queries).
    assert len(nodes) == 4
    assert nodes[0].endswith("apache")
    assert nodes[-1].endswith("mysql")


def test_critical_path_ms_sums_local_times():
    path = nested_path()
    total = critical_path_ms(path)
    # apache local 2ms + tomcat local 1.6ms + mysql 1ms + mysql 2.8ms
    assert total == pytest.approx(2.0 + 1.6 + 1.0 + 2.8)


def test_single_hop_path():
    path = CausalPath("R0A000000002", [CausalHop("apache", 0, 5_000, None, None)])
    assert critical_path(path) == ["0:apache"]
    assert critical_path_ms(path) == pytest.approx(5.0)


def test_empty_path_rejected():
    with pytest.raises(AnalysisError):
        path_to_graph(CausalPath("R0A000000003", []))


def test_innermost_parent_chosen():
    # A deep chain: apache > tomcat > cjdbc > mysql; mysql's parent must
    # be cjdbc (the smallest containing hop), not apache.
    hops = [
        CausalHop("apache", 0, 20_000, 1_000, 19_000),
        CausalHop("tomcat", 1_500, 18_500, 2_000, 18_000),
        CausalHop("cjdbc", 2_500, 17_500, 3_000, 17_000),
        CausalHop("mysql", 3_500, 16_500, None, None),
    ]
    graph = path_to_graph(CausalPath("R0A000000004", hops))
    (mysql_parent,) = [
        graph.nodes[u].tier
        for u, v, _ in graph.edges
        if graph.nodes[v].tier == "mysql"
    ]
    assert mysql_parent == "cjdbc"
