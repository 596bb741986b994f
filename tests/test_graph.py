from types import SimpleNamespace

from conftest import coord, graph_snapshots, make_manifest, make_snapshot, sweep_vectors

from icmetrics.pipeline import strongly_connected_components
from icmetrics.model import DependencyDecl, UsageRecord
from oracle import _State


# --------------------------------------------------------------------------
# the reference: perfbench/oracle.py's bitset closure (shared with the
# acceptance suite and the sweep property)


def oracle_state(out_sets):
    """perfbench/oracle.py's ``_State`` over ``out_sets`` (member -> targets)."""
    return _State({member: SimpleNamespace(targets=frozenset(targets)) for member, targets in out_sets.items()})


def components_of(edge_map):
    """Each node's component, by strongly_connected_components."""
    adjacency = {coord(u): [coord(v) for v in targets] for u, targets in edge_map.items()}
    components = strongly_connected_components(sorted(adjacency), lambda node: adjacency.get(node, ()))
    return {member: frozenset(component) for component in components for member in component}


def assert_matches_oracles(edge_map):
    """build_series' WMC/DIT/NOC/CBO for every project of one corpus, and
    strongly_connected_components' membership, equal the oracle's."""
    state = oracle_state({coord(u): {coord(v) for v in targets} for u, targets in edge_map.items()})
    vectors = sweep_vectors(graph_snapshots(edge_map))
    component = components_of(edge_map)
    for u, i in state.index.items():
        assert (vectors[u].wmc, vectors[u].dit, vectors[u].noc, vectors[u].cbo) == state.values(u)
        members = state._component(i)
        assert component[u] == {v for v, j in state.index.items() if members >> j & 1}


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
