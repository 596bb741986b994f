"""Version-collapsed ecosystem dependency graph.

Nodes are project coordinates; one snapshot per corpus project contributes
its deduplicated dependency targets as outgoing edges. Dependency targets
not present in the corpus become stub leaf nodes without outgoing edges.
The graph is immutable once built; every query is read-only.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

from .model import ProjectCoordinate, ReleaseSnapshot

DEFAULT_SCOPE_FILTER = frozenset({"test", "provided"})

Node = TypeVar("Node", bound=Hashable)


class GraphError(ValueError):
    pass


class UnknownCoordinateError(GraphError):
    def __init__(self, coordinate: ProjectCoordinate):
        super().__init__(f"unknown coordinate: {coordinate.key()}")
        self.coordinate = coordinate


@dataclass(eq=False)
class EcosystemGraph:
    nodes: frozenset[ProjectCoordinate]
    edges: frozenset[tuple[ProjectCoordinate, ProjectCoordinate]]
    corpus_members: frozenset[ProjectCoordinate]
    # Canonical SCC identifier: the least coordinate of the component, so
    # ids are independent of construction order.
    scc_id: dict[ProjectCoordinate, ProjectCoordinate]
    reverse_index: dict[ProjectCoordinate, frozenset[ProjectCoordinate]]
    out_edges: dict[ProjectCoordinate, frozenset[ProjectCoordinate]]
    _scc_members: dict[ProjectCoordinate, frozenset[ProjectCoordinate]] = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EcosystemGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.corpus_members == other.corpus_members
            and self.scc_id == other.scc_id
        )


def strongly_connected_components(roots: Iterable[Node],
                                  successors: Callable[[Node], Iterable[Node]]) -> list[list[Node]]:
    """Iterative Tarjan over every node reachable from `roots`; corpus chains
    can exceed the recursion limit.

    Components come out in reverse topological order: each one after every
    component it reaches.
    """
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            descended = False
            for succ in pending:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if descended:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def effective_targets(snapshot: ReleaseSnapshot,
                      scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER,
                      ) -> frozenset[ProjectCoordinate]:
    """The out-edges a snapshot contributes: targets of dependencies whose
    scope is not filtered, minus the project's own module and submodule
    coordinates."""
    own_modules = {snapshot.coordinate}
    for manifest in snapshot.manifests:
        own_modules.add(manifest.coordinate)
        own_modules.update(manifest.submodule_coordinates)
    return frozenset(
        dep.target
        for manifest in snapshot.manifests
        for dep in manifest.declared_dependencies
        if dep.scope not in scope_filter and dep.target not in own_modules
    )


def build_graph(snapshots: list[ReleaseSnapshot] | tuple[ReleaseSnapshot, ...],
                scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER) -> EcosystemGraph:
    """Construct the ecosystem graph from one snapshot per corpus project."""
    scope_filter = frozenset(scope_filter)

    out: dict[ProjectCoordinate, frozenset[ProjectCoordinate]] = {}
    for snapshot in snapshots:
        if snapshot.coordinate in out:
            raise GraphError(f"duplicate snapshot for coordinate {snapshot.coordinate.key()}")
        out[snapshot.coordinate] = effective_targets(snapshot, scope_filter)

    corpus_members = frozenset(out)
    nodes = set(corpus_members)
    for targets in out.values():
        nodes.update(targets)
    for node in nodes:
        out.setdefault(node, frozenset())  # external stubs: no outgoing edges

    edges = frozenset((source, target) for source, targets in out.items() for target in targets)

    reverse: dict[ProjectCoordinate, set[ProjectCoordinate]] = {node: set() for node in nodes}
    for source, target in edges:
        if source in corpus_members:
            reverse[target].add(source)

    sorted_nodes = sorted(nodes)
    adjacency = {node: tuple(sorted(out[node])) for node in sorted_nodes}
    components = strongly_connected_components(sorted_nodes, adjacency.__getitem__)

    scc_id: dict[ProjectCoordinate, ProjectCoordinate] = {}
    members_by_id: dict[ProjectCoordinate, frozenset[ProjectCoordinate]] = {}
    for component in components:
        canonical = min(component)
        members_by_id[canonical] = frozenset(component)
        for member in component:
            scc_id[member] = canonical

    return EcosystemGraph(
        nodes=frozenset(nodes),
        edges=edges,
        corpus_members=corpus_members,
        scc_id=scc_id,
        reverse_index={node: frozenset(dependents) for node, dependents in reverse.items()},
        out_edges=out,
        _scc_members=members_by_id,
    )


def scc_members(graph: EcosystemGraph, node: ProjectCoordinate) -> frozenset[ProjectCoordinate]:
    """All nodes mutually reachable with `node`, including `node` itself."""
    if node not in graph.nodes:
        raise UnknownCoordinateError(node)
    return graph._scc_members[graph.scc_id[node]]


def reverse_dependents(graph: EcosystemGraph, target: ProjectCoordinate) -> frozenset[ProjectCoordinate]:
    """Corpus projects with a direct edge into `target`."""
    if target not in graph.nodes:
        raise UnknownCoordinateError(target)
    return graph.reverse_index[target]


def condensation_depth(graph: EcosystemGraph, start: ProjectCoordinate) -> int:
    """Longest dependency chain from `start`, measured in edges.

    Over all paths in the condensation DAG starting at start's component:
    max(sum of component sizes along the path) - 1. Cycle members each
    contribute one level; a dependency-free project scores 0.
    """
    if start not in graph.nodes:
        raise UnknownCoordinateError(start)
    root = graph.scc_id[start]

    component_adjacency: dict[ProjectCoordinate, set[ProjectCoordinate]] = {}
    for source, target in graph.edges:
        cs, ct = graph.scc_id[source], graph.scc_id[target]
        if cs != ct:
            component_adjacency.setdefault(cs, set()).add(ct)

    best: dict[ProjectCoordinate, int] = {}
    stack: list[tuple[ProjectCoordinate, bool]] = [(root, False)]
    while stack:
        component, ready = stack.pop()
        if component in best:
            continue
        successors = component_adjacency.get(component, ())
        if ready:
            tail = max((best[s] for s in successors), default=0)
            best[component] = len(graph._scc_members[component]) + tail
        else:
            stack.append((component, True))
            stack.extend((s, False) for s in sorted(successors) if s not in best)
    return best[root] - 1


def edges_csv(graph: EcosystemGraph) -> str:
    """Debug dump: one `dependent,dependency` line per edge, sorted."""
    lines = sorted(f"{source.key()},{target.key()}" for source, target in graph.edges)
    return "".join(line + "\n" for line in lines)
