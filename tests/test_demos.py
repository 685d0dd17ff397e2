"""Tracked demo outputs stay current with the code that renders them."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_potential_fields_gallery_matches_tracked_svgs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "potential_fields", DEMOS / "potential_fields.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "OUT", str(tmp_path))
    demo.main()
    tracked = DEMOS / "out" / "potential_fields"
    names = sorted(p.name for p in tracked.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (tracked / name).read_bytes(), name
