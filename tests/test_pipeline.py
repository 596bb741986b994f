import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coord, make_corpus, make_manifest, make_snapshot, snapshot_lists, sweep_vectors
from test_graph import oracle_depth, oracle_reachability, oracle_scc_members

from icmetrics.ingest import DEFAULT_SCOPE_FILTER
from icmetrics.metrics import METRIC_ORDER
from icmetrics.model import ApiSurface, DependencyDecl, MetricVector, UsageRecord
from icmetrics.pipeline import (
    REJECT_MIN_VERSIONS,
    REJECT_PARSE_RATIO,
    REJECT_ZERO_BUGS,
    ProjectSeries,
    ReleasePoint,
    build_series,
    classify_activity,
    correlate_pooled,
    correlate_project,
    select_projects,
    summarize_project,
)


def _release_run(name, count, bugs=1, parsed_from=0):
    return [
        make_snapshot(name, version=f"{i}.0", timestamp=100 * (i + 1), bugs=bugs)
        for i in range(parsed_from, count)
    ]


class TestSelectProjects:
    def test_nine_releases_rejected_for_min_versions(self):
        corpus = make_corpus({"p": _release_run("p", 9, bugs=5)})
        selected, rejected = select_projects(corpus)
        assert selected == set()
        assert rejected[coord("p")] == REJECT_MIN_VERSIONS

    def test_eleven_of_twelve_parsed_is_selected(self):
        corpus = make_corpus({"p": _release_run("p", 11, bugs=4)}, failed={"p": 1})
        selected, rejected = select_projects(corpus)
        assert coord("p") in selected
        assert rejected == {}

    def test_seven_of_ten_parsed_rejected_for_parse_ratio(self):
        corpus = make_corpus({"p": _release_run("p", 7, bugs=4)}, failed={"p": 3})
        _, rejected = select_projects(corpus)
        assert rejected[coord("p")] == REJECT_PARSE_RATIO

    @pytest.mark.parametrize("n_parsed, n_failed", [(9, 1), (8, 2), (12, 3)])
    def test_at_the_thresholds_is_selected(self, n_parsed, n_failed):
        # Exactly MIN_RELEASES counting failures (9 + 1), and a parse ratio
        # of exactly MIN_PARSE_RATIO (8 of 10, 12 of 15), both pass.
        corpus = make_corpus({"p": _release_run("p", n_parsed, bugs=2)}, failed={"p": n_failed})
        selected, rejected = select_projects(corpus)
        assert selected == {coord("p")}
        assert rejected == {}

    @pytest.mark.parametrize("n_parsed, n_failed, reason", [
        (8, 1, REJECT_MIN_VERSIONS),  # 9 releases, counting the failure
        (11, 3, REJECT_PARSE_RATIO),  # 11 of 14 is just under 0.80
    ])
    def test_just_past_the_thresholds_is_rejected(self, n_parsed, n_failed, reason):
        corpus = make_corpus({"p": _release_run("p", n_parsed, bugs=2)}, failed={"p": n_failed})
        selected, rejected = select_projects(corpus)
        assert selected == set()
        assert rejected == {coord("p"): reason}

    def test_zero_total_bugs_rejected(self):
        corpus = make_corpus({"p": _release_run("p", 12, bugs=0)})
        _, rejected = select_projects(corpus)
        assert rejected[coord("p")] == REJECT_ZERO_BUGS

    def test_first_failing_criterion_wins(self):
        # 5 releases AND zero bugs: min-versions is checked first.
        corpus = make_corpus({"p": _release_run("p", 5, bugs=0)})
        _, rejected = select_projects(corpus)
        assert rejected[coord("p")] == REJECT_MIN_VERSIONS

    def test_monotone_under_added_good_release(self):
        base = _release_run("p", 10, bugs=3)
        selected_before, _ = select_projects(make_corpus({"p": base}))
        extra = make_snapshot("p", version="99.0", timestamp=10**6, bugs=1)
        selected_after, _ = select_projects(make_corpus({"p": base + [extra]}))
        assert coord("p") in selected_before
        assert coord("p") in selected_after

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 16),
        st.integers(0, 4),
        st.lists(st.integers(0, 9), min_size=16, max_size=16),
    )
    def test_monotone_property(self, n_parsed, n_failed, bug_draws):
        parsed = [
            make_snapshot("p", version=f"{i:02d}.0", timestamp=100 + i, bugs=bug_draws[i])
            for i in range(n_parsed)
        ]
        before, _ = select_projects(make_corpus({"p": parsed}, failed={"p": n_failed}))
        extra = make_snapshot("p", version="99.0", timestamp=10**6, bugs=1)
        after, _ = select_projects(make_corpus({"p": parsed + [extra]}, failed={"p": n_failed}))
        if coord("p") in before:
            assert coord("p") in after


class TestBuildSeries:
    def test_single_release_series(self):
        corpus = make_corpus({"p": [make_snapshot("p", bugs=2)]})
        series = build_series(corpus)
        assert len(series[coord("p")].releases) == 1

    def test_failed_releases_stay_out_of_the_series(self):
        corpus = make_corpus({"p": _release_run("p", 2, bugs=1)}, failed={"p": 1})
        series = build_series(corpus)
        assert [point.version_label for point in series[coord("p")].releases] == ["0.0", "1.0"]

    def test_vectors_match_independent_computation(self):
        projects = {
            "a": [make_snapshot("a", deps=["b"], version="1.0", timestamp=100, bugs=1)],
            "b": [make_snapshot("b", version="1.0", timestamp=50, bugs=2)],
        }
        series = build_series(make_corpus(projects))
        expected = _oracle_vectors(snapshot_lists(projects), DEFAULT_SCOPE_FILTER)[(coord("a"), "1.0")]
        assert series[coord("a")].releases[0].vector == expected

    def test_graph_uses_other_projects_snapshot_at_or_before(self):
        # At a's t=100 release, b's state is its t=90 snapshot (one dep);
        # at a's t=200 release, b has moved to t=190 (no deps).
        corpus = make_corpus({
            "a": [
                make_snapshot("a", deps=["b"], version="1.0", timestamp=100, bugs=1),
                make_snapshot("a", deps=["b"], version="2.0", timestamp=200, bugs=1),
            ],
            "b": [
                make_snapshot("b", deps=["c"], version="1.0", timestamp=90, bugs=1),
                make_snapshot("b", version="2.0", timestamp=190, bugs=1),
            ],
            "c": [make_snapshot("c", version="1.0", timestamp=0, bugs=1)],
        })
        series = build_series(corpus)
        dits = [p.vector.dit for p in series[coord("a")].releases]
        assert dits == [2, 1]


PROJECT_NAMES = [f"p{i}" for i in range(5)]
TARGET_NAMES = PROJECT_NAMES + ["stub0", "stub1"]


def _own_module(name):
    return f"{name}-core"


@st.composite
def _release(draw, name, version):
    """One release of `name`: a root manifest and optionally a module
    manifest, with dependencies on corpus projects, stubs, the project's own
    coordinates and filtered scopes."""
    target_names = TARGET_NAMES + [name, _own_module(name)]
    deps = draw(st.lists(
        st.builds(
            lambda target, scope: DependencyDecl(target=coord(target), scope=scope),
            st.sampled_from(target_names),
            st.sampled_from([None, "compile", "runtime", "test", "provided"]),
        ),
        max_size=5,
    ))
    module = _own_module(name)
    if draw(st.booleans()):  # the dependencies split over the root and its module
        split = draw(st.integers(0, len(deps)))
        manifests = [make_manifest(name, deps[:split], version, submodules=[module]),
                     make_manifest(module, deps[split:], version)]
    else:
        manifests = [make_manifest(name, deps, version, submodules=[module])]
    usage = draw(st.none() | st.builds(
        lambda names: UsageRecord(frozenset(coord(n) for n in names)),
        st.sets(st.sampled_from(target_names), max_size=4),
    ))
    surface = draw(st.none() | st.builds(
        lambda n: ApiSurface({f"m{k}": frozenset({f"c{k % 2}"}) for k in range(n)}),
        st.integers(0, 3),
    ))
    return make_snapshot(
        name, version=version, timestamp=draw(st.integers(0, 6)), bugs=draw(st.integers(0, 3)),
        api_surface=surface, usage=usage, loc=draw(st.none() | st.integers(0, 50)),
        manifests=manifests,
    )


@st.composite
def _corpora(draw):
    names = draw(st.lists(st.sampled_from(PROJECT_NAMES), min_size=1, max_size=5, unique=True))
    projects = {}
    for name in names:
        count = draw(st.integers(1, 4))
        projects[name] = [draw(_release(name, f"{i}.0")) for i in range(count)]
    # A project with no parsed release is only ever a dependency target.
    failed = {name: 1 for name in PROJECT_NAMES if name not in names and draw(st.booleans())}
    return projects, failed


def _oracle_out_set(snapshot, scope_filter):
    """Declared targets whose scope is not filtered, minus the project's
    own coordinate and its manifests' and submodules' coordinates."""
    own = {snapshot.coordinate}
    declared = set()
    for manifest in snapshot.manifests:
        own.add(manifest.coordinate)
        own.update(manifest.submodule_coordinates)
        declared.update(d.target for d in manifest.declared_dependencies if d.scope not in scope_filter)
    return declared - own


def _oracle_vectors(snapshot_lists, scope_filter):
    """The ecosystem state per release by bisect (earliest snapshot when none
    precede), then every metric from that state's out-sets by brute force."""
    vectors = {}
    for coordinate, snapshots in snapshot_lists.items():
        for release in snapshots:
            state = {coordinate: release}
            for other, others in snapshot_lists.items():
                if other == coordinate or not others:
                    continue
                index = bisect.bisect_right([s.timestamp for s in others], release.timestamp)
                state[other] = others[index - 1] if index else others[0]
            out = {member: _oracle_out_set(snapshot, scope_filter) for member, snapshot in state.items()}
            nodes = set(out).union(*out.values())
            edges = [(u, v) for u, targets in out.items() for v in targets]
            reach = oracle_reachability(nodes, edges)
            surface, usage = release.api_surface, release.usage
            vectors[(coordinate, release.version_label)] = MetricVector(
                wmc=len(out[coordinate]),
                dit=oracle_depth(nodes, edges, coordinate, reach=reach),
                noc=sum(coordinate in targets for targets in out.values()),
                cbo=len(oracle_scc_members(nodes, reach, coordinate)) - 1,
                rfc=None if surface is None else len(set(surface.methods).union(*surface.methods.values())),
                lcom1=None if usage is None else len(out[coordinate] - usage.referenced_coordinates),
                loc=release.loc,
            )
    return vectors


class TestSweepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(_corpora(), st.sampled_from([DEFAULT_SCOPE_FILTER, frozenset(), frozenset({"runtime"})]))
    def test_series_equals_per_release_graph_rebuild(self, drawn, scope_filter):
        projects, failed = drawn
        corpus = make_corpus(projects, failed, scope_filter)
        errors = []
        series = build_series(corpus, errors=errors)
        assert errors == []
        assert list(series) == sorted(corpus.facts)
        expected = _oracle_vectors(snapshot_lists(projects), scope_filter)
        got = {
            (coordinate, point.version_label): point.vector
            for coordinate, project in series.items()
            for point in project.releases
        }
        assert got == expected
        for coordinate, project in series.items():
            assert [(p.timestamp, p.version_label, p.bugs_fixed) for p in project.releases] == [
                (s.timestamp, s.version_label, s.bugs_fixed) for s in corpus.facts[coordinate]
            ]

    def test_same_timestamp_ties_apply_before_measuring(self):
        # b's two releases and a's release share t=100: a sees b's last tie
        # (b 2.0, which depends on c), and b 1.0 is measured as itself.
        projects = {
            "a": [make_snapshot("a", deps=["b"], version="1.0", timestamp=100)],
            "b": [
                make_snapshot("b", version="1.0", timestamp=100),
                make_snapshot("b", deps=["c"], version="2.0", timestamp=100),
            ],
            "c": [make_snapshot("c", deps=["a"], version="1.0", timestamp=500)],
        }
        series = build_series(make_corpus(projects))
        a = series[coord("a")].releases[0].vector
        assert (a.dit, a.cbo) == (2, 2)  # c's earliest snapshot closes a->b->c->a
        b1, b2 = series[coord("b")].releases
        assert (b1.vector.wmc, b1.vector.noc, b1.vector.cbo) == (0, 1, 0)
        assert (b2.vector.wmc, b2.vector.cbo) == (1, 2)

    def test_low_out_set_change_reaches_untouched_ancestor(self):
        # Only c changes (t=200); a and b keep their out-sets, yet a's next
        # release sees the longer chain a->b->c->d.
        projects = {
            "a": [make_snapshot("a", deps=["b"], version="1.0", timestamp=100),
                  make_snapshot("a", deps=["b"], version="2.0", timestamp=300)],
            "b": [make_snapshot("b", deps=["c"], version="1.0", timestamp=50)],
            "c": [make_snapshot("c", version="1.0", timestamp=0),
                  make_snapshot("c", deps=["d"], version="2.0", timestamp=200)],
            "d": [make_snapshot("d", version="1.0", timestamp=0)],
        }
        series = build_series(make_corpus(projects))
        assert [p.vector.dit for p in series[coord("a")].releases] == [2, 3]
        assert [p.vector.dit for p in series[coord("c")].releases] == [0, 1]
        _assert_matches_oracle(projects, series)

    def test_cycle_closed_then_opened_again(self):
        # b's t=200 release closes a->b->a; its t=400 release opens it.
        projects = {
            "a": [make_snapshot("a", deps=["b"], version=f"{i}.0", timestamp=t)
                  for i, t in enumerate((100, 300, 500))],
            "b": [make_snapshot("b", version="1.0", timestamp=0),
                  make_snapshot("b", deps=["a"], version="2.0", timestamp=200),
                  make_snapshot("b", version="3.0", timestamp=400)],
        }
        series = build_series(make_corpus(projects))
        assert [(p.vector.cbo, p.vector.dit) for p in series[coord("a")].releases] == [(0, 1), (1, 1), (0, 1)]
        assert [(p.vector.cbo, p.vector.noc) for p in series[coord("b")].releases] == [(0, 1), (1, 1), (0, 1)]
        _assert_matches_oracle(projects, series)

    def test_tie_inside_a_cycle_is_measured_then_undone(self):
        # b 1.0 and b 2.0 tie at t=100. b 1.0 closes a->b->a only for its
        # own measurement; b 2.0 (the applied tie) and a's later release
        # see b->c.
        projects = {
            "a": [make_snapshot("a", deps=["b"], version="1.0", timestamp=100),
                  make_snapshot("a", deps=["b"], version="2.0", timestamp=200)],
            "b": [make_snapshot("b", deps=["a"], version="1.0", timestamp=100),
                  make_snapshot("b", deps=["c"], version="2.0", timestamp=100)],
            "c": [make_snapshot("c", version="1.0", timestamp=0)],
        }
        series = build_series(make_corpus(projects))
        assert [(p.vector.cbo, p.vector.dit) for p in series[coord("a")].releases] == [(0, 2), (0, 2)]
        assert [(p.vector.cbo, p.vector.dit) for p in series[coord("b")].releases] == [(1, 1), (0, 1)]
        _assert_matches_oracle(projects, series)

    def test_later_project_in_the_group_sees_the_last_tie(self):
        # b 1.0, b 2.0 and c 1.0 tie at t=100, and c depends on b. b's ties
        # are measured one after the other, so c sees b 2.0 (b->d), not b 1.0.
        projects = {
            "b": [make_snapshot("b", version="1.0", timestamp=100),
                  make_snapshot("b", deps=["d"], version="2.0", timestamp=100)],
            "c": [make_snapshot("c", deps=["b"], version="1.0", timestamp=100)],
            "d": [make_snapshot("d", version="1.0", timestamp=0)],
        }
        series = build_series(make_corpus(projects))
        assert series[coord("c")].releases[0].vector.dit == 2
        _assert_matches_oracle(projects, series)

    def test_failing_release_is_reported_not_fatal(self):
        class Broken:  # facts without rfc, lcom1 or loc
            version_label = "9.9"
            timestamp = 100
            targets = frozenset()

        corpus = make_corpus({"a": _release_run("a", 2, bugs=1), "b": _release_run("b", 2, bugs=1)})
        corpus.facts[coord("b")].append(Broken())
        errors = []
        series = build_series(corpus, errors=errors)
        assert len(errors) == 1 and errors[0].startswith("org.fixture:b/9.9: ")
        assert len(series[coord("a")].releases) == 2
        assert len(series[coord("b")].releases) == 2


def _assert_matches_oracle(projects, series):
    got = {(c, p.version_label): p.vector for c, project in series.items() for p in project.releases}
    assert got == _oracle_vectors(snapshot_lists(projects), DEFAULT_SCOPE_FILTER)


def _series(name, metric_values, bug_values, rfc_values=None, loc_values=None):
    points = []
    for i, (wmc, bugs) in enumerate(zip(metric_values, bug_values)):
        snapshot = make_snapshot(
            name,
            deps=[f"dep{j}" for j in range(wmc)],
            version=f"{i}.0",
            timestamp=100 * (i + 1),
            bugs=bugs,
            api_surface=None if rfc_values is None else ApiSurface(
                {f"m{k}": frozenset() for k in range(rfc_values[i])}
            ),
            loc=None if loc_values is None else loc_values[i],
        )
        vector = sweep_vectors([snapshot])[snapshot.coordinate]
        points.append(ReleasePoint(snapshot.version_label, snapshot.timestamp, bugs, vector))
    return ProjectSeries(coordinate=coord(name), releases=tuple(points))


class TestCorrelateProject:
    def test_constant_bugs_yield_nan_one_for_every_metric(self):
        series = _series("p", [1, 2, 3, 4], [7, 7, 7, 7])
        for result in correlate_project(series):
            assert math.isnan(result.r)
            assert result.p_two_tailed == 1.0

    def test_metric_equal_to_bugs_gives_unit_r(self):
        series = _series("p", [1, 2, 3, 5], [1, 2, 3, 5])
        by_name = {r.metric_name: r for r in correlate_project(series)}
        assert by_name["IC-WMC"].r == 1.0
        assert by_name["IC-WMC"].p_two_tailed == 0.0

    def test_metric_absent_in_one_release_is_skipped(self):
        series = _series("p", [1, 2, 3], [1, 2, 3], rfc_values=[4, 5, 6])
        with_rfc = {r.metric_name for r in correlate_project(series)}
        assert "IC-RFC" in with_rfc

        mixed = ProjectSeries(
            coordinate=series.coordinate,
            releases=series.releases[:1]
            + tuple(
                ReleasePoint(p.version_label, p.timestamp, p.bugs_fixed,
                             type(p.vector)(wmc=p.vector.wmc, dit=p.vector.dit,
                                            noc=p.vector.noc, cbo=p.vector.cbo))
                for p in series.releases[1:]
            ),
        )
        assert "IC-RFC" not in {r.metric_name for r in correlate_project(mixed)}

    def test_short_series_raises(self):
        series = _series("p", [1], [1])
        with pytest.raises(ValueError, match="at least 2"):
            correlate_project(series)

    def test_input_order_is_canonicalized(self):
        # Bug counts of mixed magnitude: a plain float sum over them depends
        # on the order of its terms, a correctly rounded one does not. So
        # no stage needs to sort releases or series before the statistics.
        big = 2 ** 60
        all_series = [
            _series("p", [1, 2, 3, 5, 4, 6], [big, 3, big + 512, 7, big + 1024, 5], loc_values=[9, 4, 7, 1, 8, 2]),
            _series("q", [2, 1, 4, 3, 6, 5], [3, big + 256, 1, big, 9, big + 768], loc_values=[3, 8, 1, 9, 2, 6]),
            _series("r", [1, 2, 3, 5], [2, 1, 4, 9], loc_values=[5, 5, 6, 7]),
        ]
        rng = random.Random(0)
        for _ in range(10):
            permuted = [ProjectSeries(series.coordinate, tuple(rng.sample(series.releases, len(series.releases))))
                        for series in all_series]
            for series, shuffled in zip(all_series, permuted):
                assert correlate_project(shuffled) == correlate_project(series)
                assert summarize_project(shuffled) == summarize_project(series)
            rng.shuffle(permuted)
            assert correlate_pooled(permuted) == correlate_pooled(all_series)

    def test_results_satisfy_invariants(self):
        series = _series("p", [1, 2, 2, 1], [3, 1, 4, 1])
        for result in correlate_project(series):
            if math.isnan(result.r):
                assert result.p_two_tailed == 1.0
            assert 0.0 <= result.p_two_tailed <= 1.0


class TestCorrelatePooled:
    def test_single_project_equals_per_project(self):
        series = _series("p", [1, 2, 3, 5], [2, 1, 4, 9], rfc_values=[5, 6, 7, 8])
        pooled = correlate_pooled([series])
        assert pooled == correlate_project(series)
        # Report row order is set here: the emitters keep the order they get.
        names = [result.metric_name for result in pooled]
        assert names == [name for name in METRIC_ORDER if name in names] and len(names) == 5
        assert [result.metric_name for result in summarize_project(series).correlations] == names

    def test_two_identical_projects_same_r_larger_n(self):
        a = _series("a", [1, 2, 3, 5], [2, 1, 4, 9])
        b = _series("b", [1, 2, 3, 5], [2, 1, 4, 9])
        single = {r.metric_name: r for r in correlate_pooled([a])}
        double = {r.metric_name: r for r in correlate_pooled([a, b])}
        for name, one in single.items():
            two = double[name]
            assert two.n == 2 * one.n
            if not math.isnan(one.r):
                assert two.r == pytest.approx(one.r, abs=1e-12)
                assert two.p_two_tailed <= one.p_two_tailed + 1e-15

    def test_metric_without_points_is_omitted(self):
        series = _series("p", [1, 2, 3], [1, 2, 3])  # no rfc/lcom1/loc anywhere
        names = {r.metric_name for r in correlate_pooled([series])}
        assert names == {"IC-WMC", "IC-DIT", "IC-NOC", "IC-CBO"}

    def test_pooled_skips_absent_releases_pointwise(self):
        with_loc = _series("a", [1, 2, 3], [1, 2, 3], loc_values=[10, 20, 30])
        without_loc = _series("b", [1, 2, 3], [1, 2, 3])
        by_name = {r.metric_name: r for r in correlate_pooled([with_loc, without_loc])}
        assert by_name["LOC"].n == 3
        assert by_name["IC-WMC"].n == 6


class TestSummaries:
    def test_summary_activity_and_medians(self):
        series = _series("p", [1, 2, 3, 4], [5, 5, 5, 5], loc_values=[10, 20, 30, 40])
        summary = summarize_project(series)
        assert summary.n_releases == 4
        assert summary.n_bugs_total == 20
        assert summary.activity == pytest.approx(0.2)
        assert summary.medians["IC-WMC"] == pytest.approx(2.5)
        assert summary.medians["LOC"] == pytest.approx(25.0)
        assert "IC-RFC" not in summary.medians

    def test_classify_activity_partition(self):
        low = summarize_project(_series("low", [1, 2, 3], [100, 100, 100]))
        high = summarize_project(_series("high", [1, 2, 3], [1, 1, 1]))
        below, above = classify_activity([high, low], threshold=0.1)
        assert [s.coordinate for s in below] == [coord("low")]
        assert [s.coordinate for s in above] == [coord("high")]

    def test_classify_activity_empty_side(self):
        high = summarize_project(_series("high", [1, 2, 3], [1, 1, 1]))
        below, above = classify_activity([high], threshold=0.1)
        assert below == ()
        assert [s.coordinate for s in above] == [coord("high")]

    def test_classify_activity_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            classify_activity([], threshold=0.0)
