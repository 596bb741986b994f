import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coord, graph_snapshots, make_manifest, make_snapshot, sweep_vectors

from icmetrics.metrics import ic_lcom1, ic_rfc
from icmetrics.model import ApiSurface, MetricVector, UsageRecord


def _vector(edge_map, name):
    return sweep_vectors(graph_snapshots(edge_map))[coord(name)]


class TestWmc:
    def test_zero_dependency_project(self):
        assert sweep_vectors([make_snapshot("p")])[coord("p")].wmc == 0

    def test_modules_dedupe(self):
        manifests = (
            make_manifest("p", deps=["x"], submodules=["m2"]),
            make_manifest("m2", deps=["x", "y"]),
        )
        assert sweep_vectors([make_snapshot("p", manifests=manifests)])[coord("p")].wmc == 2

    def test_counts_corpus_members_and_stubs_alike(self):
        assert _vector({"p": ["inside", "outside"], "inside": []}, "p").wmc == 2


class TestDit:
    def test_isolated(self):
        assert sweep_vectors([make_snapshot("p")])[coord("p")].dit == 0

    def test_branching(self):
        assert _vector({"a": ["b", "c"], "b": [], "c": ["d"], "d": []}, "a").dit == 2

    def test_cycle_with_tail(self):
        assert _vector({"a": ["b"], "b": ["a", "c"], "c": []}, "a").dit == 2

    def test_stub_contributes_one_level(self):
        assert _vector({"p": ["ext"]}, "p").dit == 1


class TestNoc:
    def test_leaf(self):
        assert sweep_vectors([make_snapshot("p")])[coord("p")].noc == 0

    def test_direct_dependents_only(self):
        assert _vector({"q": ["p"], "r": ["p"], "s": ["q"], "p": []}, "p").noc == 2

    def test_multi_module_dependent_counts_once(self):
        manifests = (
            make_manifest("q", deps=["p"], submodules=["q2"]),
            make_manifest("q2", deps=["p"]),
        )
        vectors = sweep_vectors([make_snapshot("q", manifests=manifests), make_snapshot("p")])
        assert vectors[coord("p")].noc == 1


class TestCbo:
    def test_acyclic_is_zero(self):
        assert _vector({"a": ["b"], "b": []}, "a").cbo == 0

    def test_two_cycle(self):
        assert _vector({"a": ["b"], "b": ["a"]}, "a").cbo == 1

    def test_three_cycle(self):
        assert _vector({"a": ["b"], "b": ["c"], "c": ["a"]}, "a").cbo == 2


class TestRfc:
    def test_empty_surface(self):
        assert ic_rfc(ApiSurface({})) == 0

    def test_union_of_methods_and_callees(self):
        surface = ApiSurface({"f": frozenset({"x", "y"}), "g": frozenset({"y", "z"})})
        assert ic_rfc(surface) == 5

    def test_self_call_absorbed(self):
        assert ic_rfc(ApiSurface({"f": frozenset({"f"})})) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=6), st.frozensets(st.text(min_size=1, max_size=6), max_size=4), max_size=5),
        st.text(min_size=1, max_size=6),
        st.text(min_size=1, max_size=6),
    )
    def test_adding_a_callee_never_decreases(self, methods, method, callee):
        before = ic_rfc(ApiSurface(methods))
        grown = dict(methods)
        grown[method] = grown.get(method, frozenset()) | {callee}
        assert ic_rfc(ApiSurface(grown)) >= before


class TestLcom1:
    def test_all_referenced(self):
        deps = {coord("a"), coord("b")}
        assert ic_lcom1(deps, UsageRecord(frozenset(deps))) == 0

    def test_set_difference(self):
        deps = {coord("a"), coord("b"), coord("c")}
        assert ic_lcom1(deps, UsageRecord(frozenset({coord("a")}))) == 2

    def test_undeclared_reference_ignored(self):
        deps = {coord("a")}
        usage = UsageRecord(frozenset({coord("a"), coord("d")}))
        assert ic_lcom1(deps, usage) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.frozensets(st.integers(0, 20), max_size=10),
        st.frozensets(st.integers(0, 20), max_size=10),
    )
    def test_bounded_by_declared_count(self, declared_ids, used_ids):
        declared = {coord(f"d{i}") for i in declared_ids}
        usage = UsageRecord(frozenset(coord(f"d{i}") for i in used_ids))
        value = ic_lcom1(declared, usage)
        assert 0 <= value <= len(declared)
        if not (usage.referenced_coordinates & declared):
            assert value == len(declared)


class TestComputeVector:
    """The whole vector of a release, as build_series computes it."""

    def test_optionals_absent_without_inputs(self):
        vector = sweep_vectors([make_snapshot("p")])[coord("p")]
        assert (vector.wmc, vector.dit, vector.noc, vector.cbo) == (0, 0, 0, 0)
        assert vector.rfc is None
        assert vector.lcom1 is None
        assert vector.loc is None

    def test_full_snapshot_matches_individual_ops(self):
        surface = ApiSurface({"f": frozenset({"x", "y"}), "g": frozenset({"y", "z"})})
        usage = UsageRecord(frozenset({coord("b")}))
        snapshot = make_snapshot("a", deps=["b", "ext"], api_surface=surface, usage=usage, loc=123)
        vector = sweep_vectors([snapshot, make_snapshot("b", deps=["a"])])[coord("a")]
        assert vector.rfc == ic_rfc(surface)
        assert vector.lcom1 == ic_lcom1({coord("b"), coord("ext")}, usage)
        # ext declared but unused: LCOM1 1
        assert vector == MetricVector(wmc=2, dit=2, noc=1, cbo=1, rfc=5, lcom1=1, loc=123)

    def test_repeated_calls_identical(self):
        snapshots = [make_snapshot("p", deps=["q"]), make_snapshot("q")]
        assert sweep_vectors(snapshots) == sweep_vectors(snapshots)


# --------------------------------------------------------------------------
# structural properties


def _random_edge_map(rng, acyclic=False):
    n = rng.randint(1, 10)
    names = [f"n{i}" for i in range(n)]
    density = rng.uniform(0.0, 0.5)
    if acyclic:
        return {
            names[i]: [names[j] for j in range(i + 1, n) if rng.random() < density]
            for i in range(n)
        }
    return {u: [v for v in names if v != u and rng.random() < density] for u in names}


def test_cbo_is_zero_on_every_random_dag():
    rng = random.Random(11)
    for _ in range(100):
        vectors = sweep_vectors(graph_snapshots(_random_edge_map(rng, acyclic=True)))
        assert all(vector.cbo == 0 for vector in vectors.values())


def test_wmc_zero_iff_dit_zero():
    rng = random.Random(12)
    for _ in range(100):
        for vector in sweep_vectors(graph_snapshots(_random_edge_map(rng))).values():
            assert (vector.wmc == 0) == (vector.dit == 0)


def test_handshake_identity():
    rng = random.Random(13)
    for _ in range(100):
        edge_map = _random_edge_map(rng)
        edge_map["p"] = ["outside0", "outside1"]  # force some stubs
        vectors = sweep_vectors(graph_snapshots(edge_map))
        edges = sum(len(targets) for targets in edge_map.values())
        noc_total = sum(vector.noc for vector in vectors.values())
        stub_in_edges = sum(1 for targets in edge_map.values() for target in targets if target not in edge_map)
        assert noc_total + stub_in_edges == edges
        assert sum(vector.wmc for vector in vectors.values()) == edges
