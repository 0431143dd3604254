"""Causal graphs over reconstructed execution paths.

Builds the happens-before DAG of a request's tier visits: nodes are
visits, edges are happens-before relations (caller → callee for
downstream calls, sequential order between sibling visits).  The
weighted longest path is the request's *critical path* — the chain of
local times that actually determined its response time, which is where
optimization effort should go.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from repro.analysis.causal import CausalHop, CausalPath
from repro.common.errors import AnalysisError
from repro.common.timebase import Micros

__all__ = [
    "CausalEdge",
    "CausalGraph",
    "CausalNode",
    "path_to_graph",
    "critical_path",
    "critical_path_ms",
]


class CausalNode(NamedTuple):
    """One tier visit, weighted by its local time."""

    tier: str
    local_ms: float
    arrival_us: Micros
    departure_us: Micros


class CausalEdge(NamedTuple):
    """``source`` happens before ``target``: ``"calls"`` or ``"then"``."""

    source: str
    target: str
    relation: str


@dataclasses.dataclass(frozen=True, slots=True)
class CausalGraph:
    """The happens-before DAG of one request."""

    request_id: str
    #: Node id → visit, in arrival order.
    nodes: dict[str, CausalNode]
    edges: list[CausalEdge]
    #: Node ids, every edge's source before its target.
    topological_order: list[str]


def _node_id(index: int, hop: CausalHop) -> str:
    return f"{index}:{hop.tier}"


def _topological_order(
    request_id: str, nodes: list[str], edges: list[CausalEdge]
) -> list[str]:
    """Kahn's algorithm, one generation of in-degree-0 nodes at a time."""
    successors: dict[str, list[str]] = {node: [] for node in nodes}
    indegree = dict.fromkeys(nodes, 0)
    for edge in edges:
        successors[edge.source].append(edge.target)
        indegree[edge.target] += 1
    order: list[str] = []
    generation = [node for node in nodes if indegree[node] == 0]
    while generation:
        order.extend(generation)
        ready = []
        for node in generation:
            for child in successors[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        generation = ready
    if len(order) != len(nodes):
        raise AnalysisError(f"request {request_id} graph has a cycle")
    return order


def path_to_graph(path: CausalPath) -> CausalGraph:
    """Build the happens-before DAG of one request.

    A hop *contains* another when the other's span nests inside its
    downstream window; contained hops become children.  Hops that
    share a parent are ordered sequentially by arrival.
    """
    if not path.hops:
        raise AnalysisError(f"request {path.request_id} has no hops")
    ordered = sorted(path.hops, key=lambda h: h.upstream_arrival_us)
    ids = [_node_id(i, hop) for i, hop in enumerate(ordered)]
    nodes = {
        node: CausalNode(
            tier=hop.tier,
            local_ms=hop.local_time_ms(),
            arrival_us=hop.upstream_arrival_us,
            departure_us=hop.upstream_departure_us,
        )
        for node, hop in zip(ids, ordered)
    }

    def contains(parent: CausalHop, child: CausalHop) -> bool:
        if parent is child:
            return False
        if (
            parent.downstream_sending_us is None
            or parent.downstream_receiving_us is None
        ):
            return False
        return (
            parent.downstream_sending_us <= child.upstream_arrival_us
            and child.upstream_departure_us <= parent.downstream_receiving_us
        )

    # Parent = the *smallest* containing hop (innermost caller).
    parents: dict[int, int | None] = {}
    for i, hop in enumerate(ordered):
        candidates = [
            j
            for j, other in enumerate(ordered)
            if contains(other, hop)
        ]
        if candidates:
            parents[i] = min(
                candidates,
                key=lambda j: ordered[j].upstream_departure_us
                - ordered[j].upstream_arrival_us,
            )
        else:
            parents[i] = None

    # Edges: parent -> child, plus sequential edges between siblings.
    children: dict[int | None, list[int]] = {}
    for i, parent in parents.items():
        children.setdefault(parent, []).append(i)
    edges: list[CausalEdge] = []
    for parent, kids in children.items():
        kids.sort(key=lambda i: ordered[i].upstream_arrival_us)
        if parent is not None:
            edges.append(CausalEdge(ids[parent], ids[kids[0]], "calls"))
        for a, b in zip(kids, kids[1:]):
            edges.append(CausalEdge(ids[a], ids[b], "then"))
    return CausalGraph(
        request_id=path.request_id,
        nodes=nodes,
        edges=edges,
        topological_order=_topological_order(path.request_id, ids, edges),
    )


def _critical_chain(graph: CausalGraph) -> tuple[float, list[str]]:
    """Weight and node ids of the node-weighted longest chain."""
    predecessors: dict[str, list[str]] = {node: [] for node in graph.nodes}
    for edge in graph.edges:
        predecessors[edge.target].append(edge.source)
    best: dict[str, tuple[float, list[str]]] = {}
    for node in graph.topological_order:
        incoming = [best[pred] for pred in predecessors[node]]
        if incoming:
            base_weight, base_chain = max(incoming, key=lambda wc: wc[0])
        else:
            base_weight, base_chain = 0.0, []
        best[node] = (base_weight + graph.nodes[node].local_ms, base_chain + [node])
    return max(best.values(), key=lambda wc: wc[0])


def critical_path(path: CausalPath) -> list[str]:
    """Node ids of the node-weighted longest chain through the DAG."""
    return _critical_chain(path_to_graph(path))[1]


def critical_path_ms(path: CausalPath) -> float:
    """Total local time along the critical path (ms)."""
    return _critical_chain(path_to_graph(path))[0]
