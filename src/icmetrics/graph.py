"""Building blocks of the version-collapsed ecosystem dependency graph.

Nodes are project coordinates; one snapshot per corpus project contributes
its deduplicated dependency targets as outgoing edges. Dependency targets
not present in the corpus become stub leaf nodes without outgoing edges.
The graph itself lives in ``pipeline.build_series``, which keeps it up to
date over time, memoizes each node's DIT chain and component size, and
drops only the memos of a changed node and of the nodes that reach it.
``strongly_connected_components`` is run on a memo miss, over the nodes
whose values are not memoized.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import TypeVar

from .model import ProjectCoordinate, ReleaseSnapshot

DEFAULT_SCOPE_FILTER = frozenset({"test", "provided"})

Node = TypeVar("Node", bound=Hashable)


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
