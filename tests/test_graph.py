import random

from conftest import coord, graph_snapshots, make_manifest, make_snapshot, sweep_vectors

from icmetrics.pipeline import strongly_connected_components
from icmetrics.model import DependencyDecl, UsageRecord


# --------------------------------------------------------------------------
# brute-force oracles (shared with the acceptance suite)


def oracle_reachability(nodes, edges):
    """O(n^3) transitive closure."""
    reach = {u: {u} for u in nodes}
    for u, v in edges:
        reach[u].add(v)
    changed = True
    while changed:
        changed = False
        for u in nodes:
            for v in list(reach[u]):
                before = len(reach[u])
                reach[u] |= reach[v]
                changed = changed or len(reach[u]) > before
    return reach


def oracle_same_scc(reach, u, v):
    return v in reach[u] and u in reach[v]


def oracle_scc_members(nodes, reach, u):
    return {v for v in nodes if oracle_same_scc(reach, u, v)}


def oracle_depth(nodes, edges, start, reach=None):
    """Exhaustive enumeration of paths in the condensation."""
    if reach is None:
        reach = oracle_reachability(nodes, edges)
    components = {}
    for u in nodes:
        components[u] = frozenset(oracle_scc_members(nodes, reach, u))
    comp_edges = {}
    for u, v in edges:
        if components[u] != components[v]:
            comp_edges.setdefault(components[u], set()).add(components[v])

    best = 0
    stack = [(components[start], len(components[start]))]
    while stack:
        comp, total = stack.pop()
        best = max(best, total)
        for succ in comp_edges.get(comp, ()):
            stack.append((succ, total + len(succ)))
    return best - 1


def random_edge_map(rng, max_nodes=12, max_density=0.5):
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    density = rng.uniform(0.0, max_density)
    return {
        u: [v for v in names if v != u and rng.random() < density]
        for u in names
    }


def components_of(edge_map):
    """Each node's component, by strongly_connected_components."""
    adjacency = {coord(u): [coord(v) for v in targets] for u, targets in edge_map.items()}
    components = strongly_connected_components(sorted(adjacency), lambda node: adjacency.get(node, ()))
    return {member: frozenset(component) for component in components for member in component}


def assert_matches_oracles(edge_map):
    """build_series' WMC/NOC/CBO/DIT for every project of one corpus, and
    strongly_connected_components' pairwise membership, equal the oracles."""
    nodes = [coord(n) for n in edge_map]
    edges = [(coord(u), coord(v)) for u, targets in edge_map.items() for v in targets]
    reach = oracle_reachability(nodes, edges)
    vectors = sweep_vectors(graph_snapshots(edge_map))
    component = components_of(edge_map)
    for u in nodes:
        members = oracle_scc_members(nodes, reach, u)
        assert vectors[u].wmc == len({t for s, t in edges if s == u})
        assert vectors[u].noc == len({s for s, t in edges if t == u})
        assert vectors[u].cbo == len(members) - 1
        assert vectors[u].dit == oracle_depth(nodes, edges, u, reach=reach)
        assert component[u] == members
        for v in nodes:
            assert (component[u] == component[v]) == oracle_same_scc(reach, u, v)


# --------------------------------------------------------------------------
# construction: what a release's out-set holds, seen through build_series


def test_single_project_no_dependencies():
    vectors = sweep_vectors([make_snapshot("p")])
    assert list(vectors) == [coord("p")]
    assert (vectors[coord("p")].wmc, vectors[coord("p")].dit) == (0, 0)


def test_module_references_and_duplicates_collapse_to_one_edge():
    # m2 is a submodule of p; both modules declare X; m1 also references m2.
    # WMC 1 with LCOM1 0 against a usage of {x} pins the out-set to {x}.
    manifests = (
        make_manifest("p", deps=["x", "m2"], submodules=["m2"]),
        make_manifest("m2", deps=["x"]),
    )
    snapshot = make_snapshot("p", manifests=manifests, usage=UsageRecord(frozenset({coord("x")})))
    vector = sweep_vectors([snapshot])[coord("p")]
    assert (vector.wmc, vector.lcom1) == (1, 0)


def test_external_targets_become_stub_leaves():
    vectors = sweep_vectors(graph_snapshots({"p": ["ext"]}))
    assert list(vectors) == [coord("p")]  # a stub has no series of its own
    assert (vectors[coord("p")].wmc, vectors[coord("p")].dit) == (1, 1)  # and no out-edges


def test_scope_filter_defaults_to_test_and_provided():
    deps = (
        DependencyDecl(target=coord("kept")),
        DependencyDecl(target=coord("t"), scope="test"),
        DependencyDecl(target=coord("p2"), scope="provided"),
    )
    snapshot = make_snapshot("p", deps=deps, usage=UsageRecord(frozenset({coord("kept")})))
    vector = sweep_vectors([snapshot])[coord("p")]
    assert (vector.wmc, vector.lcom1) == (1, 0)


def test_scope_filter_override():
    deps = (DependencyDecl(target=coord("t"), scope="test"),)
    snapshot = make_snapshot("p", deps=deps, usage=UsageRecord(frozenset({coord("t")})))
    vector = sweep_vectors([snapshot], scope_filter=frozenset())[coord("p")]
    assert (vector.wmc, vector.lcom1) == (1, 0)


def test_construction_is_order_independent():
    snapshots = graph_snapshots({"a": ["b", "c"], "b": ["c"], "c": ["a"], "d": []})
    forward = sweep_vectors(snapshots)
    backward = sweep_vectors(list(reversed(snapshots)))
    assert list(forward.items()) == list(backward.items())


# --------------------------------------------------------------------------
# strongly connected components


def test_mutual_dependency_shares_one_scc():
    component = components_of({"a": ["b"], "b": ["a"]})
    assert component[coord("a")] == component[coord("b")]


def test_three_cycle_members():
    component = components_of({"a": ["b"], "b": ["c"], "c": ["a"]})
    assert component[coord("a")] == {coord("a"), coord("b"), coord("c")}


def test_acyclic_node_is_a_singleton():
    component = components_of({"a": ["b"], "b": []})
    assert component[coord("a")] == {coord("a")}


def test_disjoint_two_cycles_stay_separate():
    component = components_of({"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]})
    assert component[coord("a")] == {coord("a"), coord("b")}
    assert component[coord("c")] == {coord("c"), coord("d")}


# --------------------------------------------------------------------------
# depth and dependents


def _dit(edge_map, name):
    return sweep_vectors(graph_snapshots(edge_map))[coord(name)].dit


def test_depth_isolated_node_is_zero():
    assert _dit({"solo": []}, "solo") == 0


def test_depth_of_chain_counts_edges():
    chain = {"a": ["b"], "b": ["c"], "c": []}
    assert [_dit(chain, name) for name in "abc"] == [2, 1, 0]


def test_depth_of_two_cycle_is_one():
    assert _dit({"a": ["b"], "b": ["a"]}, "a") == 1


def test_depth_cycle_plus_tail():
    assert _dit({"a": ["b"], "b": ["a", "c"], "c": []}, "a") == 2


def test_depth_branching_takes_the_longest_path():
    assert _dit({"a": ["b", "c"], "b": [], "c": ["d"], "d": []}, "a") == 2


def test_reverse_dependents_empty():
    assert sweep_vectors(graph_snapshots({"p": []}))[coord("p")].noc == 0


def test_reverse_dependents_direct_only():
    vectors = sweep_vectors(graph_snapshots({"q": ["p"], "r": ["p"], "s": ["q"], "p": []}))
    assert vectors[coord("p")].noc == 2


def test_reverse_dependents_dedupes_modules():
    manifests = (
        make_manifest("q", deps=["p"], submodules=["q2"]),
        make_manifest("q2", deps=["p"]),
    )
    vectors = sweep_vectors([make_snapshot("q", manifests=manifests), make_snapshot("p")])
    assert vectors[coord("p")].noc == 1


# --------------------------------------------------------------------------
# randomized oracle check (the acceptance suite runs the full 1000 seeds)


def test_random_graphs_match_oracles():
    rng = random.Random(20260810)
    for _ in range(150):
        assert_matches_oracles(random_edge_map(rng))
