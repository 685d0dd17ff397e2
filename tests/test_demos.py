"""Tracked demo outputs stay current with the code that renders them."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _demo_matches_tracked_outputs(name, tmp_path, monkeypatch):
    """Run demos/<name>.py into tmp_path; it must write demos/out/<name>/ byte for byte."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / (name + ".py"))
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
    tracked = DEMOS / "out" / name
    names = sorted(p.name for p in tracked.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for fname in names:
        assert (tmp_path / fname).read_bytes() == (tracked / fname).read_bytes(), fname


def test_potential_fields_gallery_matches_tracked_svgs(tmp_path, monkeypatch):
    _demo_matches_tracked_outputs("potential_fields", tmp_path, monkeypatch)


def test_block_iteration_support_matches_tracked_svgs(tmp_path, monkeypatch):
    _demo_matches_tracked_outputs("block_iteration_support", tmp_path, monkeypatch)


def test_localized_eigenstates_matches_tracked_svgs(tmp_path, monkeypatch):
    _demo_matches_tracked_outputs("localized_eigenstates", tmp_path, monkeypatch)


def test_spectra_order_vs_disorder_matches_tracked_outputs(tmp_path, monkeypatch):
    _demo_matches_tracked_outputs("spectra_order_vs_disorder", tmp_path, monkeypatch)


def test_preconditioner_contraction_matches_tracked_svg(tmp_path, monkeypatch):
    _demo_matches_tracked_outputs("preconditioner_contraction", tmp_path, monkeypatch)
