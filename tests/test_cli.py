"""CLI pipelines: exit codes, artifact determinism, manifest reruns.

Runs the entry point in process (main returns the exit code) except for one
console-script smoke test. Every pipeline writes into a pytest tmp_path, so
nothing leaks between tests.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys as _sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import schrodloc as sl
from schrodloc import cli, eig, reports, schwarz
from schrodloc.cli import COMMANDS, FIELD_KINDS, build_field, main
from schrodloc.schwarz import estimate_contraction

BASE_CFG = {
    "field": {"kind": "iid", "d": 1, "inv_eps": 16},
    "subgrid": {"m": 4},
    "iteration": {"tol": 0.01, "steps": 4},
    "analysis": {"n_ev": 6, "k_max": 6, "k_gap_max": 4, "samples": 5},
    "seed": 3,
}

# data files read back by load_field and by external tools, not records
UNSTAMPED = {"field.json", "A.txt", "K.txt", "M.txt", "MV.txt", "system.json"}


def _write_cfg(tmp_path, cfg=BASE_CFG, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def test_every_subcommand_runs_and_lists_artifacts(tmp_path):
    """A run leaves exactly the files its manifest lists, and every one of
    them but the data files carries the run's config hash: CSVs in their
    first line, SVGs in a comment, JSON records as a field."""
    cfg = _write_cfg(tmp_path)
    for sub in COMMANDS:
        out = tmp_path / sub
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0, sub
        man = _manifest(out)
        assert man["subcommand"] == sub
        h = man["config_hash"]
        assert h == reports.config_hash({"subcommand": sub, **man["config"]}), sub
        assert man["artifacts"], sub
        files = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert files == set(man["artifacts"]), sub
        for name in files - UNSTAMPED:
            text = (out / name).read_text()
            if name.endswith(".csv"):
                assert text.splitlines()[0] == "# config_hash: %s" % h, (sub, name)
            elif name.endswith(".svg"):
                assert "<!-- config_hash: %s -->" % h in text, (sub, name)
            else:
                assert name.endswith(".json"), (sub, name)
                assert json.loads(text)["config_hash"] == h, (sub, name)


def test_fig_pipelines(tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["fig1", "--out", str(out1)]) == 0
    assert main(["fig2", "--out", str(out2)]) == 0
    assert set(_manifest(out1)["artifacts"]) == {
        "decay.csv",
        "decay.json",
        "decay.svg",
        "potential.svg",
        "state.svg",
    }
    assert set(_manifest(out2)["artifacts"]) == {
        "gaps_random.json",
        "spectra.csv",
        "spectra.svg",
    }
    with open(out2 / "gaps_random.json") as fh:
        gaps = json.load(fh)
    assert gaps["met_target"] is True  # the disordered field has an early gap


def test_full_presets_resolve(tmp_path):
    """--full lays the full-resolution preset on the fig base config; a user
    section still wins over both (a small field keeps the runs short)."""
    for sub, inv_eps in (("fig1", 8), ("fig2", 64)):
        cfg = _write_cfg(tmp_path, {"field": {"inv_eps": inv_eps}}, sub + ".json")
        out = tmp_path / sub
        assert main([sub, "--full", "--config", cfg, "--out", str(out)]) == 0, sub
        resolved = _manifest(out)["config"]
        assert resolved["subgrid"]["m"] == 4, sub
        assert resolved["field"]["inv_eps"] == inv_eps, sub
    assert resolved["analysis"]["n_ev"] == 160
    assert resolved["analysis"]["k_gap_max"] == 16  # the fig2 base survives --full


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    for name in _manifest(a)["artifacts"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("sub", ["block", "pinvit"])
def test_shift_invert_rerun_is_byte_identical(sub, tmp_path, monkeypatch):
    """Above DENSE_LIMIT the oracle is ARPACK on the shared LU (block's
    pairs) or LOBPCG on the multigrid hierarchy (pinvit's ground pair), and
    a rerun still reproduces every artifact byte for byte."""
    monkeypatch.setattr(eig, "DENSE_LIMIT", 16)
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([sub, "--config", cfg, "--out", str(out)]) == 0
    for name in _manifest(a)["artifacts"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_rerun_reproduces_block(tmp_path):
    cfg = _write_cfg(tmp_path)
    first = tmp_path / "first"
    assert main(["block", "--config", cfg, "--out", str(first)]) == 0
    again = tmp_path / "again"
    assert main(["block", "--config", str(first / "manifest.json"), "--out", str(again)]) == 0
    for name in ("block.csv", "block.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    assert _manifest(first)["config_hash"] == _manifest(again)["config_hash"]
    with open(first / "block.json") as fh:
        rec = json.load(fh)
    assert rec["final_error"] <= 10 * BASE_CFG["iteration"]["tol"] * rec["err0"]


def test_block_and_pinvit_record_the_smoother_certificate(tmp_path):
    """block.json and pinvit.json carry the composed contraction the run
    relied on next to the Chebyshev degree that reaches it."""
    cfg = _write_cfg(tmp_path)
    for sub in ("block", "pinvit"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
    block = json.loads((tmp_path / "block" / "block.json").read_text())
    assert 0.0 < block["smoother_gamma"] <= block["gap"] ** block["k_outer"] * (1 + 1e-12)
    pinvit = json.loads((tmp_path / "pinvit" / "pinvit.json").read_text())
    assert 0.0 < pinvit["smoother_gamma"] <= 0.5  # the default target_gamma


def test_gen_artifacts_load_back(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    field = sl.load_field(str(out / "field.json"))
    assert field.kind == "iid"
    assert field.grid.inv_eps == 16


def test_config_hash_stamped_everywhere(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    h = _manifest(out)["config_hash"]
    first = (out / "spectrum.csv").read_text().splitlines()[0]
    assert first == "# config_hash: %s" % h
    assert ("config_hash: %s" % h) in (out / "spectrum.svg").read_text()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path)
    cfg11 = _write_cfg(tmp_path, dict(BASE_CFG, seed=11), "cfg11.json")
    a, b, c = tmp_path / "s3", tmp_path / "s11flag", tmp_path / "s11cfg"
    assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
    assert main(["gen", "--config", cfg, "--seed", "11", "--out", str(b)]) == 0
    assert main(["gen", "--config", cfg11, "--out", str(c)]) == 0
    assert (b / "field.json").read_bytes() == (c / "field.json").read_bytes()
    assert (b / "field.json").read_bytes() != (a / "field.json").read_bytes()
    assert _manifest(b)["config"]["seed"] == 11


def test_out_root_env(tmp_path, monkeypatch):
    """SCHRODLOC_OUT prefixes --out and the runs/<subcommand> default; a
    replayed manifest's out was prefixed when it was written, so the replay
    lands in the same directory with byte-identical artifacts."""
    cfg = _write_cfg(tmp_path)
    root = tmp_path / "root"
    monkeypatch.setenv("SCHRODLOC_OUT", str(root))
    assert main(["gen", "--config", cfg, "--out", "sub/dir"]) == 0
    assert (root / "sub" / "dir" / "field.json").is_file()
    assert main(["gen", "--config", cfg]) == 0
    assert (root / "runs" / "gen" / "field.json").is_file()
    # a relative root, replayed from the manifest it wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SCHRODLOC_OUT", "batch")
    assert main(["gen", "--config", cfg]) == 0
    first = tmp_path / "batch" / "runs" / "gen"
    before = {p.name: p.read_bytes() for p in first.iterdir()}
    assert main(["gen", "--config", str(first / "manifest.json")]) == 0
    assert not (tmp_path / "batch" / "batch").exists()
    assert {p.name: p.read_bytes() for p in first.iterdir()} == before


def test_manifest_replayed_under_another_subcommand_keeps_its_run(tmp_path, monkeypatch):
    """A manifest's out names its own run's directory. Replayed under
    another subcommand, the manifest gives the config alone: the new run
    goes to the runs/<subcommand> default, and the first run's artifacts and
    manifest stay as they were."""
    monkeypatch.delenv("SCHRODLOC_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, {"field": {"kind": "iid", "d": 1, "inv_eps": 16}})
    first = tmp_path / "runs" / "g1"
    assert main(["gen", "--config", cfg, "--out", str(first)]) == 0
    before = {p.name: p.read_bytes() for p in first.iterdir()}
    assert main(["geometry", "--config", str(first / "manifest.json")]) == 0
    assert {p.name: p.read_bytes() for p in first.iterdir()} == before
    replay = _manifest(tmp_path / "runs" / "geometry")
    assert replay["subcommand"] == "geometry"
    assert replay["config"] == _manifest(first)["config"]


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    """Configs that are no JSON object, a manifest whose out is no
    non-empty string, a top-level "out" key, --full off the fig presets and
    an --out that names a file (or a path under one) are all refused with
    exit 2 before anything is written."""
    manifest = {"subcommand": "gen", "config": BASE_CFG, "out": "x"}
    runs = [
        ["gen", "--config", str(tmp_path / "missing.json")],
        ["gen", "--config", _write_cfg(tmp_path, name="bad.json")],
        ["gen", "--config", _write_cfg(tmp_path, {"bogus_section": 1}, "unk.json")],
        ["gen", "--config", _write_cfg(tmp_path, {"field": {"kind": "perlin"}}, "kind.json")],
        ["gen", "--config", _write_cfg(tmp_path, {"field": {"inv_eps": 1}}, "eps.json")],
        ["gen", "--config", _write_cfg(tmp_path, BASE_CFG, "ok.json"), "--seed", "-1"],
        ["gen", "--config", _write_cfg(tmp_path, [1, 2], "list.json")],
        ["fig1", "--config", str(tmp_path / "list.json")],
        ["gen", "--config", _write_cfg(tmp_path, dict(BASE_CFG, out="x"), "outkey.json")],
        ["gen", "--config", _write_cfg(tmp_path, {"out": 7}, "out7.json")],
        ["gen", "--config", _write_cfg(tmp_path, dict(manifest, config=5), "man5.json")],
        ["gen", "--config", str(tmp_path / "ok.json"), "--full"],
        ["block", "--config", str(tmp_path / "ok.json"), "--full"],
    ]
    (tmp_path / "bad.json").write_text("{not json")
    runs = [argv + ["--out", str(tmp_path / "errout")] for argv in runs]
    # an --out path that runs into a file
    for out in ("ok.json", "ok.json/sub"):
        runs.append(["gen", "--config", str(tmp_path / "ok.json"), "--out", str(tmp_path / out)])
    # without --out, a manifest's out names the output directory
    for i, bad_out in enumerate((7, "")):
        man = _write_cfg(tmp_path, dict(manifest, out=bad_out), "man-out%d.json" % i)
        runs.append(["gen", "--config", man])
    monkeypatch.chdir(tmp_path)
    for argv in runs:
        assert main(argv) == 2, argv
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "errout").exists() and not (tmp_path / "runs").exists()


def test_oracle_asked_for_all_pairs_exits_2(tmp_path, capsys):
    """Shift-invert serves 1 to n - 1 pairs, and the oracle takes it at
    every size: all n pairs of a 2D field exit 2 with its message."""
    cfg = dict(BASE_CFG, field={"kind": "iid", "d": 2, "inv_eps": 8}, subgrid={"m": 2})
    cfg["analysis"] = {"n_ev": 256}
    argv = ["oracle", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: shift-invert needs n_ev in [1, 255], got 256" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("blocked", ["field.json", "manifest.json"])
def test_unwritable_artifact_exits_2(blocked, tmp_path, capsys):
    """A directory where gen writes an artifact (field.json) or the
    manifest ends in exit 2 and one line naming the path, not a traceback."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["gen", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1
    assert str(out / blocked) in err


@pytest.mark.parametrize(
    "sub, override",
    [
        ("spectra-compare", {"field_b": {"kind": "perlin"}}),
        ("spectra-compare", {"field_b": {"kind": "periodic", "d": 2}}),
        ("spectra-compare", {"field_b": {"kind": "periodic", "inv_eps": 32}}),
        ("gen", {"field": {"kind": "domino", "level_decay": "x"}}),
        ("gen", {"field": {"kind": "domino", "max_level": "x"}}),
        ("green-decay", {"preconditioner": {"mode": "theoretical", "c_stable": "x"}}),
        ("green-decay", {"preconditioner": {"c_stable": -1.0}}),
        ("gap-scan", {"analysis": {"gap_target": "x"}}),
        ("eigen-decay", {"analysis": {"centers": 5}}),
        ("eigen-decay", {"analysis": {"centers": [[1, 2]]}}),
        ("green-decay", {"analysis": {"source_cell": 3}}),
        ("green-decay", {"analysis": {"source_cell": [1, 2]}}),
        ("pinvit", {"field": {"d": True}}),
        ("gen", {"field": {"alpha": True}}),
        ("gen", {"subgrid": {"m": True}}),
        ("gen", {"seed": True}),
        ("green-decay", {"analysis": {"source_cell": [True]}}),
    ],
    ids=[
        "field_b.kind",
        "field_b.d",
        "field_b.inv_eps",
        "level_decay",
        "max_level",
        "c_stable-type",
        "c_stable-negative",
        "gap_target",
        "centers-type",
        "centers-length",
        "source_cell-type",
        "source_cell-length",
        "field.d-bool",
        "field.alpha-bool",
        "subgrid.m-bool",
        "seed-bool",
        "source_cell-bool",
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, sub, override):
    """Values of the wrong type or shape are refused up front, not run
    into a traceback or silently replaced (BASE_CFG is a d=1 field). JSON
    true/false are no numbers, although Python's bool subclasses int."""
    cfg = json.loads(json.dumps(BASE_CFG))
    for key, val in override.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    argv = [sub, "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    [{"kind": "planted", "widths": [16]}, {"kind": "domino", "max_level": 9}],
    ids=["planted-widths", "domino-max_level"],
)
def test_field_construction_failure_exits_2(tmp_path, capsys, field):
    """Values each valid alone that the generator refuses together (a
    planted width plus its gap above BASE_CFG's 16 cells, a domino level
    above inv_eps/2) exit 2 with the generator's reason."""
    cfg = dict(BASE_CFG, field=dict(BASE_CFG["field"], **field))
    argv = ["gen", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "config error: field construction failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, detail",
    [
        (MemoryError("Unable to allocate 58.2 TiB"), "Unable to allocate 58.2 TiB"),
        (MemoryError(), "allocation refused"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, exc, detail):
    """A config that asks for more memory than the machine has (a 3D grid
    at inv_eps 20,000, say) ends with exit 2 and a message, not a
    traceback. The test raises MemoryError instead of allocating."""

    def refuse(fcfg, seed):
        raise exc

    monkeypatch.setattr(cli, "build_field", refuse)
    argv = ["gen", "--config", _write_cfg(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: out of memory: %s\n" % detail
    assert "Traceback" not in err


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "field": {"kind": "periodic", "d": 1, "inv_eps": 16},
            "subgrid": {"m": 4},
            "iteration": {"tol": 1e-300},
            "analysis": {"k_gap_max": 2},
            "seed": 0,
        },
        "hopeless.json",
    )
    assert main(["block", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_block_without_a_gap_exits_3(tmp_path, capsys):
    """Two equal valleys far apart make E1/E2 equal to 1 within 1e-9; with
    no spectral gap to size its outer steps from, block exits 3."""
    raw = {
        "field": {"kind": "planted", "d": 1, "inv_eps": 32, "widths": [2, 2]},
        "subgrid": {"m": 4},
        "iteration": {"K": 1},
        "seed": 0,
    }
    _, sys = cli._assemble_from(cli.resolve_config(raw))
    e = sl.dense_oracle(sys, 2).values
    assert 1.0 - 1e-9 <= e[0] / e[1] <= 1.0
    cfg = _write_cfg(tmp_path, raw, "flat.json")
    assert main(["block", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: spectral gap E1/E(K+1)" in err and "degenerate" in err
    assert "Traceback" not in err


def test_draw_without_valleys_exits_3(tmp_path, capsys):
    """A draw whose factor row is all beta has an empty valley decomposition;
    that depends on the data, not on the config, so block exits 3."""
    field = {"kind": "tensor", "d": 1, "inv_eps": 16, "p_alpha": 0.1}
    cfg = _write_cfg(tmp_path, {"field": field, "subgrid": {"m": 2}, "seed": 4})
    assert main(["block", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "no valleys" in err


def _singular_splu(calls):
    def singular(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("Factor is exactly singular")

    return singular


@pytest.mark.parametrize("sub", ["friedrichs"])
def test_failed_factorization_exits_3(sub, tmp_path, capsys, monkeypatch):
    """SuperLU's RuntimeError becomes a NumericalError in sys.solve, so the
    pipelines that solve globally exit 3 with a message, not a traceback."""
    monkeypatch.setattr(spla, "splu", _singular_splu([]))
    cfg = _write_cfg(tmp_path)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: sparse LU of A failed" in err
    assert "exactly singular" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "failure, message",
    [
        ("cap", "ground-pair ARPACK failed"),
        ("nan", "ground-pair LOBPCG met a non-finite direction"),
        ("coarse", "ground-pair LOBPCG coarse start failed"),
    ],
    ids=["cap", "nan", "coarse"],
)
def test_ground_pair_failure_exits_3(failure, message, tmp_path, capsys, monkeypatch):
    """The ground pair raises NumericalError when ARPACK on the system's LU
    fails after LOBPCG reached its iteration cap, on a non-finite V-cycle
    output and when ARPACK fails on the coarse level, so eigen-decay exits 3
    with a message."""
    monkeypatch.setattr(eig, "DENSE_LIMIT", 16)
    if failure == "nan":
        monkeypatch.setattr(eig, "_vcycle", lambda levels, coarse, r: np.full_like(r, np.nan))
    else:
        eigsh, fine = spla.eigsh, BASE_CFG["field"]["inv_eps"] * BASE_CFG["subgrid"]["m"]

        def failing(A, *args, **kwargs):
            if failure == "coarse" or A.shape[0] == fine:
                raise spla.ArpackError(-9999)
            return eigsh(A, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", failing)
        monkeypatch.setattr(eig, "MAX_LOBPCG", 2)
    cfg = _write_cfg(tmp_path)
    assert main(["eigen-decay", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: " + message in err and "Traceback" not in err


def test_near_degenerate_periodic_ground_pair_exits_0(tmp_path):
    """The 1D periodic field at inv_eps 2048, m 4 (E2/E1 - 1 = 2.1e-6)
    stalls the V-cycle LOBPCG at its cap; the ground pair then comes from
    ARPACK on the system's LU, so eigen-decay exits 0."""
    cfg = {"field": {"kind": "periodic", "d": 1, "inv_eps": 2048}, "subgrid": {"m": 4}}
    out = tmp_path / "x"
    assert main(["eigen-decay", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "decay.json").exists()


def test_multi_pair_arpack_failure_exits_3(tmp_path, capsys, monkeypatch):
    """ARPACK failing on the system's own LU, for two or more pairs, is a
    NumericalError too, so gap-scan exits 3 with a message."""

    def failing(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(eig, "DENSE_LIMIT", 16)
    monkeypatch.setattr(spla, "eigsh", failing)
    cfg = _write_cfg(tmp_path)
    assert main(["gap-scan", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: shift-invert oracle failed" in err and "Traceback" not in err


def test_green_decay_makes_no_factorization(tmp_path, monkeypatch):
    """green-decay takes its reference from the patch-preconditioned CG: it
    never calls splu, so it exits 0 while every factorization would fail."""
    calls = []
    monkeypatch.setattr(spla, "splu", _singular_splu(calls))
    cfg = _write_cfg(tmp_path)
    assert main(["green-decay", "--config", cfg, "--out", str(tmp_path / "x")]) == 0
    assert len(calls) == 0
    rec = json.loads((tmp_path / "x" / "green.json").read_text())
    assert 0 < rec["pcg_iters"] < schwarz.MAX_PCG
    assert rec["pcg_ratio"] <= schwarz.PCG_STOP


def test_green_decay_records_the_wrapped_source_cell(tmp_path):
    """A source cell off the torus is solved at its cell mod inv_eps, and
    green.json records that cell, with the same results as asking for it."""
    recs = []
    for cell in ([-1, 18], [15, 2]):
        cfg = dict(BASE_CFG, field={"kind": "iid", "d": 2, "inv_eps": 16}, subgrid={"m": 2})
        cfg["analysis"] = dict(BASE_CFG["analysis"], source_cell=cell)
        out = tmp_path / ("c%d" % len(recs))
        assert main(["green-decay", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rec = json.loads((out / "green.json").read_text())
        del rec["config_hash"]
        recs.append(rec)
    assert recs[0]["source_cell"] == [15, 2]
    assert recs[0] == recs[1]


def test_eigen_decay_records_centers_on_the_torus(tmp_path):
    """Explicit centers off the torus are profiled at, and recorded as, their
    cells mod inv_eps: [[-1], [70]] gives the artifacts of [[63], [6]]."""
    recs, tables = [], []
    for centers in ([[-1], [70]], [[63], [6]]):
        cfg = dict(BASE_CFG, field={"kind": "iid", "d": 1, "inv_eps": 64})
        cfg["analysis"] = dict(BASE_CFG["analysis"], centers=centers)
        out = tmp_path / ("c%d" % len(recs))
        assert main(["eigen-decay", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        recs.append(json.loads((out / "decay.json").read_text()))
        tables.append((out / "decay.csv").read_text().splitlines()[1:])  # all but the hash
    assert recs[0]["centers"] == recs[1]["centers"] == [[63], [6]]
    assert tables[0] == tables[1]


def test_pcg_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(schwarz, "MAX_PCG", 1)
    cfg = _write_cfg(tmp_path)
    assert main(["green-decay", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: PCG stopped at the limit of 1 iterations" in err
    assert "Traceback" not in err


def test_fig1_3d_heatmaps_show_the_middle_layer(tmp_path):
    """potential.svg and state.svg of a 3D field show the same, middle, layer."""
    field = {"kind": "iid", "d": 3, "inv_eps": 4}
    out = tmp_path / "fig1"
    cfg = _write_cfg(tmp_path, {"field": field, "subgrid": {"m": 2}, "seed": 1})
    assert main(["fig1", "--config", cfg, "--out", str(out)]) == 0
    man = _manifest(out)
    f = build_field(man["config"]["field"], man["config"]["seed"])
    values = f.values()
    assert not np.array_equal(values[2], values[0])
    sys = sl.assemble(f, sl.SubgridSpec(f.grid, 2))
    assert sys.n == 512
    mass = sl.cell_mass(sys, sl.dense_oracle(sys, 1).vectors[:, 0])
    h = man["config_hash"]
    for name, layer, title in (
        ("potential.svg", values[2], "i.i.d. potential"),
        ("state.svg", mass[2], "state 0 cell mass"),
    ):
        reports.svg_heatmap(tmp_path / name, layer, title, h)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# six of these shades 255 * (1 - a) land exactly on k + 0.5 (rounded half
# to even); the negative value's shade, 382.5, is clipped to white
_HALF_SHADES = np.array(
    [
        [1.0, 0.5, 0.0],
        [1 - 31.5 / 255, 1 - 32.5 / 255, 1 - 63.5 / 255],
        [1 - 64.5 / 255, 0.25, -0.5],
    ]
)


@pytest.mark.parametrize(
    "values, digest",
    [
        (_HALF_SHADES, "c75e3b722820ccdf"),
        (np.linspace(0.0, 1.0, 7), "286a41d20e3a212d"),
        (np.zeros((3, 5)), "e26dafee3d63ac52"),
    ],
    ids=["half-shades-2d", "row-1d", "all-zero"],
)
def test_svg_heatmap_bytes_pinned(tmp_path, values, digest):
    if values is _HALF_SHADES:  # the maximum is 1, so the shades are 255 * (1 - a)
        assert np.count_nonzero(255 * (1.0 - values) % 1 == 0.5) == 6
    reports.svg_heatmap(tmp_path / "h.svg", values, "t", "abc")
    text = (tmp_path / "h.svg").read_text()
    components = [int(c) for c in re.findall(r"rgb\((\d+),\d+,\d+\)", text)]
    assert len(components) == np.size(values) and max(components) <= 255
    assert _sha256(tmp_path / "h.svg")[:16] == digest


def test_svg_heatmap_refuses_a_3d_array(tmp_path):
    with pytest.raises(ValueError, match="1D or 2D array, got ndim=3"):
        reports.svg_heatmap(tmp_path / "h.svg", np.ones((2, 2, 2)), "t", "abc")
    assert not (tmp_path / "h.svg").exists()


def test_jsonable_turns_numpy_values_into_json():
    """Numpy integers, bools and arrays (nested ones included) become plain
    Python, which the standard encoder accepts, and integer keys strings."""
    rec = {3: np.int64(7), "flag": np.bool_(True), "grid": np.arange(4).reshape(2, 2)}
    out = reports.jsonable(rec)
    assert json.dumps(out, sort_keys=True) == '{"3": 7, "flag": true, "grid": [[0, 1], [2, 3]]}'
    assert type(out["3"]) is int and type(out["flag"]) is bool


def test_write_json_spells_every_infinity_as_a_string(tmp_path):
    """Python and numpy infinities alike become "inf" and "-inf", so the
    file parses as standard JSON, with no Infinity token."""

    def refuse(token):
        raise ValueError("non-standard JSON constant %s" % token)

    rec = {"py": [math.inf, -math.inf], "np": [np.float64(np.inf), np.float32(-np.inf)]}
    reports.write_json(tmp_path / "r.json", dict(rec, arr=np.array([np.inf, 1.0])))
    out = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
    assert out == {"py": ["inf", "-inf"], "np": ["inf", "-inf"], "arr": ["inf", 1.0]}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svg_heatmap_refuses_non_finite_values(tmp_path, bad):
    values = np.ones((2, 3))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="not finite"):
        reports.svg_heatmap(tmp_path / "h.svg", values, "t", "abc")
    assert not (tmp_path / "h.svg").exists()


@pytest.mark.parametrize(
    "seed, field_json, field_svg",
    [
        (
            5,
            "08931b6193cfd6ead8ce095e61dc9be11aa9cac1e09840c3c52fe0f0abf78e0a",
            "a373f9b49ee24815d6d9f00d4425d51008b7f57c91877fa347c41a2d7b630fe8",
        ),
        (
            0,
            "bfc26679eb56e9b36fb6af1a1e2b24fb4dfaaf36644549adb4a172370b601a92",
            "3384903047bfae05c5193f1e48f72e99a735d823600d5318cfa452373c366658",
        ),
    ],
)
def test_gen_domino_2d_bytes_pinned(tmp_path, seed, field_json, field_svg):
    """gen at the domino-2d benchmark size writes pinned field bytes."""
    cfg = _write_cfg(tmp_path, {"field": {"kind": "domino", "d": 2, "inv_eps": 128}})
    out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
    assert _sha256(out / "field.json") == field_json
    assert _sha256(out / "field.svg") == field_svg


def test_theoretical_green_decay_reports_the_lanczos_contraction(tmp_path, capsys):
    """green-decay reports the preconditioner's step_gamma. On this 3D
    domino field the theoretical-mode power iteration stopped unconverged
    at its 80-step budget, read low and printed a warning; now the run is
    silent and gamma_pow_k is the reported factor's powers."""
    cfg = _write_cfg(
        tmp_path,
        {
            "field": {"kind": "domino", "d": 3, "inv_eps": 8},
            "subgrid": {"m": 2},
            "preconditioner": {"mode": "theoretical"},
            "seed": 2,
        },
    )
    out = tmp_path / "green"
    assert main(["green-decay", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rec = json.loads((out / "green.json").read_text())
    assert "gamma_converged" not in rec and 0.0 < rec["gamma_est"] < 1.0
    rows = np.loadtxt(out / "green.csv", delimiter=",", skiprows=3, ndmin=2)
    np.testing.assert_allclose(rows[:, 3], rec["gamma_est"] ** rows[:, 0], rtol=1e-12)


def test_block_and_pinvit_run_without_the_power_iteration(tmp_path, monkeypatch):
    """block, pinvit and green-decay read only the Lanczos extremes, in both modes."""

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_contraction called")

    # swap the function's code, so every reference to it refuses
    monkeypatch.setattr(estimate_contraction, "__code__", refuse.__code__)
    for mode in ("adaptive", "theoretical"):
        cfg = _write_cfg(tmp_path, {**BASE_CFG, "preconditioner": {"mode": mode}})
        for sub in ("block", "pinvit", "green-decay"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / mode / sub)]) == 0


def test_each_command_asks_the_oracle_for_the_pairs_it_reads(tmp_path, monkeypatch):
    """pinvit reads the ground pair only, block the K+1 pairs of its gap (the
    k_gap_max+1 of its scan when K is null), eigen-decay and fig1 the pairs
    up to state_index, oracle the pairs it writes and gap-scan the values it
    writes (eig._lowest_values, no vectors)."""
    asked = []

    def recording(solver):
        def wrapped(sys, n_ev):
            asked.append(n_ev)
            return solver(sys, n_ev)

        return wrapped

    monkeypatch.setattr(cli, "shift_invert_oracle", recording(sl.shift_invert_oracle))
    monkeypatch.setattr(cli, "_lowest_values", recording(eig._lowest_values))
    base = {
        "field": {"kind": "tensor", "d": 2, "inv_eps": 8},
        "subgrid": {"m": 2},
        "iteration": {"K": 2, "tol": 0.01, "steps": 2},
        "analysis": {"n_ev": 3, "k_max": 4, "k_gap_max": 4, "state_index": 1},
        "seed": 3,
    }
    cfg = _write_cfg(tmp_path, base)
    expect = {"pinvit": 1, "block": 3, "eigen-decay": 2, "fig1": 2, "oracle": 3, "gap-scan": 5}
    runs = [(sub, cfg, sub, n_ev) for sub, n_ev in expect.items()]
    scan = dict(base, iteration=dict(base["iteration"], K=None))
    runs.append(("block", _write_cfg(tmp_path, scan, "scan.json"), "block-scan", 5))
    for sub, path, out, n_ev in runs:
        asked.clear()
        assert main([sub, "--config", path, "--out", str(tmp_path / out)]) == 0, out
        assert asked == [n_ev], out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_geometry_every_kind_and_dimension(tmp_path, kind, d):
    """Fields without a valley decomposition report null valley tables."""
    cfg = _write_cfg(tmp_path, {"field": {"kind": kind, "d": d, "inv_eps": 8}, "seed": 3})
    out = tmp_path / "out"
    assert main(["geometry", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads((out / "geometry.json").read_text())
    for key in ("width_counts", "anisotropy"):
        assert (rec[key] is None) == (rec["n_valleys"] is None), key


@pytest.mark.parametrize("d, inv_eps", [(1, 16), (2, 8), (3, 4)])
@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_every_subcommand_exits_with_a_code_and_a_message(tmp_path, capsys, kind, d, inv_eps):
    """Every subcommand on every field kind ends in exit 0, 2 or 3, never a
    traceback, and says why when it refuses. friedrichs needs m % 4 == 0,
    so it runs at m=4 in d=1 and is refused elsewhere."""
    for sub in COMMANDS:
        m = 4 if (sub, d) == ("friedrichs", 1) else 2
        field = {"kind": kind, "d": d, "inv_eps": inv_eps, "max_level": 2}
        cfg = _write_cfg(tmp_path, {"field": field, "subgrid": {"m": m}, "seed": 3})
        code = main([sub, "--config", cfg, "--out", str(tmp_path / sub)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), sub
        assert code == 0 or err.strip(), sub
        if sub == "fig1":
            assert code == 0, err


def _console_script():
    """The installed entry point, else the module run from this checkout."""
    if shutil.which("schrodloc"):
        return ["schrodloc"], None
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [_sys.executable, "-m", "schrodloc.cli"], dict(os.environ, PYTHONPATH=path)


def test_console_script(tmp_path):
    cmd, env = _console_script()
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "console"
    proc = subprocess.run(
        cmd + ["gen", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "gen: wrote" in proc.stdout
    assert (out / "manifest.json").is_file()
    # an --out that names a file is a config error, not a traceback
    proc = subprocess.run(
        cmd + ["gen", "--config", cfg, "--out", cfg], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr
