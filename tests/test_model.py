
import pytest
from conftest import coord, make_manifest, make_snapshot

from icmetrics.model import (
    ApiSurface,
    DependencyDecl,
    ProjectCoordinate,
    ProjectManifest,
    ReleaseSnapshot,
    UsageRecord,
    validate_snapshot,
)


class TestProjectCoordinate:
    def test_ordering_is_lexicographic_on_group_then_artifact(self):
        assert ProjectCoordinate("a", "z") < ProjectCoordinate("b", "a")
        assert ProjectCoordinate("a", "b") < ProjectCoordinate("a", "c")

    def test_equality_excludes_version(self):
        a = DependencyDecl(target=coord("x"), version_text="1.0")
        b = DependencyDecl(target=coord("x"), version_text="2.0")
        assert a.target == b.target

    def test_key_round_trip(self):
        c = ProjectCoordinate("org.example", "widget")
        assert ProjectCoordinate.from_key(c.key()) == c

    def test_from_key_requires_colon(self):
        with pytest.raises(ValueError):
            ProjectCoordinate.from_key("no-colon-here")

    def test_frozen(self):
        # A named tuple's fields are read-only properties; assigning one raises
        # AttributeError, the base class of dataclasses.FrozenInstanceError.
        with pytest.raises(AttributeError):
            coord("x").group = "other"


def test_api_surface_keeps_an_exact_frozenset_object():
    # A record stores the objects it is given, so a shared callee set stays shared.
    callees = frozenset({"A.g()V"})
    assert ApiSurface({"A.f()V": callees}).methods["A.f()V"] is callees


class TestValidateSnapshot:
    def test_well_formed_snapshot_has_no_violations(self):
        assert validate_snapshot(make_snapshot("p", deps=["x"], loc=10, bugs=2)) == []

    def test_empty_manifests_names_the_field(self):
        snapshot = ReleaseSnapshot(coord("p"), "1.0", 0, ())
        violations = validate_snapshot(snapshot)
        assert len(violations) == 1
        assert violations[0].startswith("manifests")

    def test_foreign_manifest_coordinate_is_a_violation(self):
        snapshot = make_snapshot("p", manifests=(make_manifest("p"), make_manifest("stranger")))
        violations = validate_snapshot(snapshot)
        assert len(violations) == 1
        assert "stranger" in violations[0]

    def test_declared_submodule_manifest_is_allowed(self):
        parent = make_manifest("p", submodules=["mod"])
        snapshot = make_snapshot("p", manifests=(parent, make_manifest("mod")))
        assert validate_snapshot(snapshot) == []

    def test_nested_submodule_closure(self):
        # p declares mid; mid's manifest declares leaf; leaf's manifest is fine.
        manifests = (
            make_manifest("p", submodules=["mid"]),
            make_manifest("mid", submodules=["leaf"]),
            make_manifest("leaf"),
        )
        assert validate_snapshot(make_snapshot("p", manifests=manifests)) == []

    def test_manifest_listing_itself_as_submodule(self):
        snapshot = make_snapshot("p", manifests=(make_manifest("p", submodules=["p"]),))
        assert any("itself" in v for v in validate_snapshot(snapshot))

    def test_whitespace_in_coordinate(self):
        snapshot = make_snapshot("bad name")
        assert any("whitespace" in v for v in validate_snapshot(snapshot))

    def test_empty_group(self):
        snapshot = make_snapshot("p", group="")
        assert any("group" in v and "non-empty" in v for v in validate_snapshot(snapshot))

    def test_negative_bugs(self):
        snapshot = make_snapshot("p", bugs=-1)
        assert any(v.startswith("bugs_fixed") for v in validate_snapshot(snapshot))

    def test_negative_loc(self):
        snapshot = make_snapshot("p", loc=-5)
        assert any(v.startswith("loc") for v in validate_snapshot(snapshot))

    def test_bad_dependency_target_named_by_path(self):
        snapshot = make_snapshot("p", deps=[coord("has space")])
        violations = validate_snapshot(snapshot)
        assert any("dependencies[0].target" in v for v in violations)

    def test_deterministic(self):
        snapshot = make_snapshot("p", deps=[coord("a b"), coord("")], bugs=-3)
        assert validate_snapshot(snapshot) == validate_snapshot(snapshot)

    def test_violation_text_and_order_are_pinned(self):
        # Bad values of every kind in every place a coordinate is checked: the
        # exact list, so that no check may skip, reorder or reword a message.
        p = ProjectCoordinate
        root = ProjectManifest(
            p("org.x", "p"),  # equal to the project coordinate, not the same object
            "1",
            (
                DependencyDecl(p("org.d", "ok")),
                DependencyDecl(p("org.d", " lead")),
                DependencyDecl(p("", "empty-group")),
                DependencyDecl(p("org.d", 7)),
                DependencyDecl(p("org.d", "tab\there")),
                DependencyDecl(p(" g", "ok")),
                DependencyDecl(p(" ", "")),
            ),
            frozenset({p("org.x", "m b"), p("org.x", ""), p("org.w", None), p("org.x", "mod"), p("org.z", "ok")}),
        )
        module = ProjectManifest(p("org.x", "mod"), "1", (DependencyDecl(p(None, "a")),), frozenset({p("org.x", "mod")}))
        stray = ProjectManifest(p("org.y", "stray "), "1")
        usage = UsageRecord(frozenset({p("u", "fine"), p("u", "a b"), p("u", ""), p("v", 3), p("w\n", "x")}))
        snapshot = ReleaseSnapshot(p("org.x", "p"), "1", 0, (root, module, stray), usage=usage)
        assert validate_snapshot(snapshot) == [
            "manifests[0].submodule[org.w:None].artifact: must be a non-empty string",
            "manifests[0].submodule[org.x:].artifact: must be a non-empty string",
            "manifests[0].submodule[org.x:m b].artifact: must not contain whitespace",
            "manifests[0].dependencies[1].target.artifact: must not contain whitespace",
            "manifests[0].dependencies[2].target.group: must be a non-empty string",
            "manifests[0].dependencies[3].target.artifact: must be a non-empty string",
            "manifests[0].dependencies[4].target.artifact: must not contain whitespace",
            "manifests[0].dependencies[5].target.group: must not contain whitespace",
            "manifests[0].dependencies[6].target.group: must not contain whitespace",
            "manifests[0].dependencies[6].target.artifact: must be a non-empty string",
            "manifests[1].submodule_coordinates: manifest lists itself as a submodule",
            "manifests[1].dependencies[0].target.group: must be a non-empty string",
            "manifests[2].coordinate.artifact: must not contain whitespace",
            "manifests[2].coordinate: org.y:stray  is neither the project coordinate nor a declared submodule",
            "usage[u:].artifact: must be a non-empty string",
            "usage[u:a b].artifact: must not contain whitespace",
            "usage[v:3].artifact: must be a non-empty string",
            "usage[w\n:x].group: must not contain whitespace",
        ]
