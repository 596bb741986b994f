import pytest

from icmetrics.ingest import load_corpus, load_release_history
from icmetrics.pipeline import build_series, correlate_pooled, select_projects
from icmetrics.synth import synth_ecosystem


def _tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_same_seed_is_byte_identical(tmp_path):
    synth_ecosystem(tmp_path / "one", seed=42, n_projects=3, n_releases=4, coupling=1.0, noise=0.5)
    synth_ecosystem(tmp_path / "two", seed=42, n_projects=3, n_releases=4, coupling=1.0, noise=0.5)
    assert _tree_bytes(tmp_path / "one") == _tree_bytes(tmp_path / "two")


def test_different_seed_differs(tmp_path):
    synth_ecosystem(tmp_path / "one", seed=1, n_projects=3, n_releases=4, coupling=1.0, noise=0.5)
    synth_ecosystem(tmp_path / "two", seed=2, n_projects=3, n_releases=4, coupling=1.0, noise=0.5)
    assert _tree_bytes(tmp_path / "one") != _tree_bytes(tmp_path / "two")


def test_generated_corpus_parses_with_zero_failures(tmp_path):
    corpus_dir, history_path = synth_ecosystem(
        tmp_path, seed=7, n_projects=4, n_releases=5, coupling=1.0, noise=0.5
    )
    history = load_release_history(history_path.read_text())
    corpus = load_corpus(corpus_dir, history)
    assert corpus.warnings == []
    assert all(not failures for failures in corpus.failed.values())
    assert sum(len(s) for s in corpus.snapshots.values()) == 20


def test_invalid_sizes_rejected(tmp_path):
    with pytest.raises(ValueError):
        synth_ecosystem(tmp_path, seed=0, n_projects=1, n_releases=5, coupling=1.0, noise=0.5)
    with pytest.raises(ValueError):
        synth_ecosystem(tmp_path, seed=0, n_projects=3, n_releases=2, coupling=1.0, noise=0.5)
    with pytest.raises(ValueError):
        synth_ecosystem(tmp_path, seed=0, n_projects=3, n_releases=5, coupling=1.0, noise=-1.0)


@pytest.mark.parametrize("coupling, noise", [(float("inf"), 0.5), (float("-inf"), 0.5), (float("nan"), 0.5),
                                             (1.0, float("inf")), (1.0, float("nan"))])
def test_non_finite_coupling_or_noise_rejected_before_writing(tmp_path, coupling, noise):
    with pytest.raises(ValueError, match="must be finite"):
        synth_ecosystem(tmp_path / "out", seed=0, n_projects=3, n_releases=5, coupling=coupling, noise=noise)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coupling, noise", [(1e308, 0.5), (-1e307, 0.5), (1.0, 1e308), (5e306, 1e307)])
def test_overflowing_coupling_or_noise_rejected_before_writing(tmp_path, coupling, noise):
    with pytest.raises(ValueError, match="overflow the bug counts"):
        synth_ecosystem(tmp_path / "out", seed=0, n_projects=3, n_releases=5, coupling=coupling, noise=noise)
    assert not (tmp_path / "out").exists()


def test_large_finite_coupling_and_noise_still_write(tmp_path):
    synth_ecosystem(tmp_path / "out", seed=0, n_projects=2, n_releases=3, coupling=1e300, noise=1e300)
    rows = (tmp_path / "out" / "releases.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all(int(row.rsplit(",", 1)[1]) >= 0 for row in rows)


def test_planted_coupling_is_recovered(tmp_path):
    corpus_dir, history_path = synth_ecosystem(
        tmp_path, seed=0, n_projects=10, n_releases=20, coupling=2.0, noise=0.1
    )
    corpus = load_corpus(corpus_dir, load_release_history(history_path.read_text()))
    selected, rejected = select_projects(corpus)
    assert rejected == {}
    series = build_series(corpus)
    pooled = {r.metric_name: r for r in correlate_pooled([series[c] for c in sorted(selected)])}
    assert pooled["IC-RFC"].r > 0.9
    assert pooled["IC-RFC"].p_two_tailed < 1e-6
