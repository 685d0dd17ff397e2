"""Experiment runner: seeded pipelines from a JSON config to on-disk artifacts.

Every subcommand resolves its configuration the same way (defaults, then
config file, then flags), hashes the scientific part of it, runs serially,
and writes its artifacts plus a manifest.json into the output directory.
Passing a previously emitted manifest as --config reruns that pipeline; in
serial mode the artifacts come back byte-identical, which is the
reproducibility contract the tests pin down.

Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures (lost contraction, escaped support, oracle residuals).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, reports
from .eig import (
    _lowest_values,
    auto_oracle,
    build_start_valleys,
    inexact_block_iteration,
    outer_steps,
    pinvit,
)
from .errors import ConfigError, NumericalError
from .fem import (
    SubgridSpec,
    assemble,
    cell_mass,
    dump_system,
    mass_norm,
    system_digest,
)
from .potential import (
    GridSpec,
    analyze_geometry,
    gen_domino,
    gen_iid,
    gen_periodic,
    gen_planted,
    gen_tensor,
    make_rng,
    save_field,
)
from .schwarz import build_preconditioner, compose_smoother

OUT_ROOT_ENV = "SCHRODLOC_OUT"

DEFAULTS = {
    "field": {
        "kind": "iid",
        "d": 1,
        "inv_eps": 64,
        "alpha": 1.0,
        "beta": None,  # resolved to 8/eps^2
        "p_beta": 0.5,
        "p_alpha": 0.4,
        "widths": [2],
        "level_decay": 0.5,
        "max_level": 4,
    },
    "field_b": None,
    "subgrid": {"m": 4},
    "preconditioner": {"mode": "adaptive", "c_stable": 1.0, "target_gamma": 0.5},
    "iteration": {"K": None, "tol": 1e-3, "steps": 8},
    "analysis": {
        "n_ev": 6,
        "k_max": 10,
        "k_gap_max": 8,
        "gap_target": 0.5,
        "samples": 50,
        "schedule": "linear",
        "source_cell": None,
        "centers": "auto",
        "friedrichs_mode": "smooth",
        "state_index": 0,
    },
    "seed": 0,
}

FIELD_KINDS = ("periodic", "iid", "tensor", "planted", "domino")


# ---------------------------------------------------------------------------
# config plumbing


def _check(cond, path, msg):
    if not cond:
        raise ConfigError("config %s: %s" % (path, msg))


def _merge_section(base, given, path):
    if given is None:
        return copy.deepcopy(base)
    _check(isinstance(given, dict), path, "expected an object, got %s" % type(given).__name__)
    merged = copy.deepcopy(base)
    for key, val in given.items():
        _check(key in base, "%s.%s" % (path, key), "unknown key")
        merged[key] = val
    return merged


def resolve_config(raw) -> dict:
    """Apply defaults, validate types and ranges, fill derived values."""
    _check(isinstance(raw, dict), "<root>", "config must be a JSON object")
    for key in raw:
        _check(key in DEFAULTS, key, "unknown section")
    cfg = {
        key: _merge_section(DEFAULTS[key], raw.get(key), key)
        for key in ("field", "subgrid", "preconditioner", "iteration", "analysis")
    }
    cfg["seed"] = raw.get("seed", DEFAULTS["seed"])
    cfg["field_b"] = None
    if raw.get("field_b") is not None:
        # the comparison field lives on the same grid
        fb = cfg["field_b"] = _merge_section(DEFAULTS["field"], raw["field_b"], "field_b")
        for key in ("d", "inv_eps"):
            given = raw["field_b"].get(key, cfg["field"][key])
            _check(given == cfg["field"][key], "field_b." + key, "must equal field.%s" % key)
            fb[key] = cfg["field"][key]
    _validate(cfg)
    return cfg


def _is_number(x):
    # JSON true/false load as bool, a subclass of int; they are no numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x, lo):
    return isinstance(x, int) and not isinstance(x, bool) and x >= lo


def _is_cell(x, d):
    return isinstance(x, list) and len(x) == d and all(_is_int(c, -math.inf) for c in x)


def _validate(cfg):
    for sec in ("field", "field_b"):
        f = cfg[sec]
        if f is None:
            continue
        _check(f["kind"] in FIELD_KINDS, sec + ".kind", "must be one of %s" % (FIELD_KINDS,))
        _check(_is_int(f["d"], 1) and f["d"] <= 3, sec + ".d", "must be 1, 2 or 3")
        _check(_is_int(f["inv_eps"], 2), sec + ".inv_eps", "must be an integer >= 2")
        if f["beta"] is None:
            f["beta"] = 8.0 * f["inv_eps"] ** 2
        for name in ("alpha", "beta", "level_decay"):
            _check(_is_number(f[name]), "%s.%s" % (sec, name), "must be a number")
        _check(0 <= f["alpha"] < f["beta"], sec + ".alpha", "need 0 <= alpha < beta")
        for name in ("p_beta", "p_alpha"):
            _check(_is_number(f[name]) and 0 < f[name] < 1, sec + "." + name, "must lie in (0,1)")
        _check(
            isinstance(f["widths"], list)
            and f["widths"]
            and all(_is_int(w, 1) for w in f["widths"]),
            sec + ".widths",
            "must be a non-empty list of positive integers",
        )
        _check(_is_int(f["max_level"], -math.inf), sec + ".max_level", "must be an integer")
    d = cfg["field"]["d"]
    _check(_is_int(cfg["subgrid"]["m"], 1), "subgrid.m", "must be a positive integer")
    p = cfg["preconditioner"]
    _check(p["mode"] in ("adaptive", "theoretical"), "preconditioner.mode", "adaptive or theoretical")
    c = p["c_stable"]
    _check(_is_number(c) and c >= 0, "preconditioner.c_stable", "must be a number >= 0")
    g = p["target_gamma"]
    _check(_is_number(g) and 0 < g < 1, "preconditioner.target_gamma", "must lie in (0,1)")
    it = cfg["iteration"]
    if it["K"] is not None:
        _check(_is_int(it["K"], 1), "iteration.K", "must be a positive integer")
    _check(_is_number(it["tol"]) and 0 < it["tol"] < 1, "iteration.tol", "must lie in (0,1)")
    _check(_is_int(it["steps"], 1), "iteration.steps", "must be a positive integer")
    a = cfg["analysis"]
    for name in ("n_ev", "k_max", "k_gap_max", "samples", "state_index"):
        lo = 0 if name == "state_index" else 1
        _check(_is_int(a[name], lo), "analysis." + name, "must be an integer >= %d" % lo)
    _check(a["schedule"] in ("linear", "quadratic"), "analysis.schedule", "linear or quadratic")
    _check(
        a["friedrichs_mode"] in ("smooth", "white"),
        "analysis.friedrichs_mode",
        "smooth or white",
    )
    g = a["gap_target"]
    _check(_is_number(g) and 0 < g <= 1, "analysis.gap_target", "must lie in (0,1]")
    _check(
        a["centers"] == "auto"
        or (isinstance(a["centers"], list) and all(_is_cell(c, d) for c in a["centers"])),
        "analysis.centers",
        'must be "auto" or a list of cells of %d integers' % d,
    )
    _check(
        a["source_cell"] is None or _is_cell(a["source_cell"], d),
        "analysis.source_cell",
        "must be null or a list of %d integers" % d,
    )
    _check(_is_int(cfg["seed"], 0), "seed", "must be a non-negative integer")


def build_field(fcfg, seed):
    grid = GridSpec(d=fcfg["d"], inv_eps=fcfg["inv_eps"], seed=seed)
    kind = fcfg["kind"]
    try:
        if kind == "periodic":
            return gen_periodic(grid, fcfg["alpha"], fcfg["beta"])
        if kind == "iid":
            return gen_iid(grid, fcfg["alpha"], fcfg["beta"], fcfg["p_beta"])
        if kind == "tensor":
            return gen_tensor(grid, fcfg["alpha"], fcfg["beta"], fcfg["p_alpha"])
        if kind == "planted":
            return gen_planted(grid, fcfg["alpha"], fcfg["beta"], fcfg["widths"])
        if kind == "domino":
            return gen_domino(
                grid, fcfg["alpha"], fcfg["beta"], fcfg["level_decay"], fcfg["max_level"]
            )
    except ValueError as exc:
        raise ConfigError("field construction failed: %s" % exc)
    raise ConfigError("unknown field kind %r" % (kind,))


def _assemble_from(cfg):
    field = build_field(cfg["field"], cfg["seed"])
    sub = SubgridSpec(grid=field.grid, m=cfg["subgrid"]["m"])
    return field, assemble(field, sub)


def _preconditioner(cfg, sys):
    p = cfg["preconditioner"]
    return build_preconditioner(sys, mode=p["mode"], c_stable=p["c_stable"], seed=cfg["seed"] + 7)


# ---------------------------------------------------------------------------
# subcommands


class _Run:
    """One run's output directory: every artifact written through it is
    stamped with the config hash and listed for the manifest."""

    def __init__(self, outdir, h):
        self.dir, self.h, self.names = str(outdir), h, []
        try:
            os.makedirs(self.dir, exist_ok=True)
        except OSError as exc:  # a file on the path
            raise ConfigError("cannot create output directory %s: %s" % (self.dir, exc))

    def path(self, name):
        self.names.append(name)
        return str(Path(self.dir) / name)

    def json(self, name, rec):
        reports.write_json(self.path(name), dict(rec, config_hash=self.h))

    def csv(self, name, columns, rows, units):
        reports.write_csv(self.path(name), columns, rows, units, self.h)

    def heatmap(self, name, values, title):
        """Cell heatmap of a 1D or 2D array; the middle cell layer of a 3D one."""
        layer = values if values.ndim <= 2 else values[len(values) // 2]
        reports.svg_heatmap(self.path(name), layer, title, self.h)

    def line(self, name, series, title):
        reports.svg_line(self.path(name), series, title, self.h, log_y=True)

    def scatter(self, name, series, title):
        reports.svg_scatter(self.path(name), series, title, self.h)


def cmd_gen(cfg, out):
    field = build_field(cfg["field"], cfg["seed"])
    save_field(field, out.path("field.json"))
    out.heatmap("field.svg", field.values(), "potential field (%s)" % field.kind)


def cmd_geometry(cfg, out):
    field = build_field(cfg["field"], cfg["seed"])
    stats = analyze_geometry(field)
    rec = {
        "kind": field.kind,
        "d": stats.d,
        "max_width": stats.max_width,
        "cube_overlap": stats.cube_overlap,
        "n_maximal_cubes": len(stats.maximal_cubes),
        "width_counts": stats.width_counts,
        "anisotropy": stats.anisotropy,
        "n_valleys": None if stats.valleys is None else len(stats.valleys),
    }
    out.json("geometry.json", rec)
    if stats.valleys is not None:
        rows = [
            (i, " ".join(map(str, v.anchor)), " ".join(map(str, v.sides)), v.min_side)
            for i, v in enumerate(stats.valleys)
        ]
        columns = ["index", "anchor", "sides", "min_side"]
        out.csv("valleys.csv", columns, rows, "cell indices (eps units)")


def cmd_assemble(cfg, out):
    field, sys = _assemble_from(cfg)
    rec = {
        "digest": system_digest(sys),
        "ndof": sys.n,
        "nnz": int(sys.A.nnz),
        "m": sys.sub.m,
        "h": sys.sub.h,
        "dumped_matrices": sys.n <= 5000,
    }
    out.json("assemble.json", rec)
    if sys.n <= 5000:
        out.names.extend(dump_system(sys, out.dir))


def cmd_oracle(cfg, out):
    field, sys = _assemble_from(cfg)
    spec = auto_oracle(sys, cfg["analysis"]["n_ev"])
    rows = [(i, spec.values[i], spec.residuals[i]) for i in range(len(spec.values))]
    out.csv(
        "spectrum.csv",
        ["index", "eigenvalue", "residual"],
        rows,
        "eigenvalue: energy (1/length^2); residual: relative",
    )
    out.scatter(
        "spectrum.svg",
        [("E_k (%s)" % spec.method, np.arange(1, len(spec.values) + 1), spec.values, "circle")],
        "spectrum head (%s)" % field.kind,
    )


def _start_vector(cfg, field, sys):
    """Lowest valley mode when the field decomposes, else seeded noise."""
    stats = analyze_geometry(field)
    if stats.valleys:
        return build_start_valleys(sys, stats, 1).vectors[:, 0]
    rng = make_rng(cfg["seed"] + 101)
    v = rng.standard_normal(sys.n)
    return v / mass_norm(sys, v)


def cmd_pinvit(cfg, out):
    field, sys = _assemble_from(cfg)
    spec = auto_oracle(sys, 1)
    v0 = _start_vector(cfg, field, sys)
    prec = _preconditioner(cfg, sys)
    smoother = compose_smoother(prec, cfg["preconditioner"]["target_gamma"])
    state = pinvit(
        sys, smoother, spec.values[0], v0, cfg["iteration"]["steps"], u1=spec.vectors[:, 0]
    )
    hist = state.history
    rows = [
        (
            k + 1,
            hist["rayleigh"][k],
            hist["err"][k + 1],
            hist["rate"][k],
            hist["support_cells"][k],
        )
        for k in range(cfg["iteration"]["steps"])
    ]
    out.csv(
        "pinvit.csv",
        ["step", "rayleigh", "energy_error", "rate", "support_cells"],
        rows,
        "rayleigh: energy; error: energy norm; support: eps-cells",
    )
    out.line(
        "pinvit.svg",
        [("|||v-u1|||", np.arange(0, len(hist["err"])), np.asarray(hist["err"]), "circle")],
        "pinvit energy error",
    )
    out.json(
        "pinvit.json",
        {
            "e1": spec.values[0],
            "k_inner": smoother.k_inner,
            "smoother_gamma": smoother.gamma,
            "final_error": hist["err"][-1],
        },
    )


def cmd_block(cfg, out):
    field, sys = _assemble_from(cfg)
    stats = analyze_geometry(field)
    a, it = cfg["analysis"], cfg["iteration"]
    k_scan = it["K"] or a["k_gap_max"]
    spec = auto_oracle(sys, k_scan + 1)
    scan = analysis.gap_scan(spec.values, k_scan, a["gap_target"])
    K = it["K"] or scan.chosen_k
    gap, tol = float(scan.gaps[K - 1]), it["tol"]
    k_outer = outer_steps(tol, gap)
    start = build_start_valleys(sys, stats, K, oracle=spec)
    prec = _preconditioner(cfg, sys)
    smoother = compose_smoother(prec, gap ** k_outer)
    _, state = inexact_block_iteration(
        sys, smoother, spec.values[0], start, tol, gap, u1=spec.vectors[:, 0]
    )
    hist = state.history
    rows = [
        (k + 1, hist["err"][k + 1], hist["rate"][k], hist["support_cells"][k])
        for k in range(k_outer)
    ]
    out.csv(
        "block.csv",
        ["step", "energy_error", "rate", "support_cells"],
        rows,
        "error: energy norm of combined iterate vs u1; support: eps-cells",
    )
    out.json(
        "block.json",
        {
            "K": K,
            "gap": gap,
            "k_outer": k_outer,
            "k_inner": smoother.k_inner,
            "smoother_gamma": smoother.gamma,
            "c_inv_norm": start.c_inv_norm,
            "err0": hist["err"][0],
            "final_error": hist["err"][-1],
        },
    )


def cmd_green_decay(cfg, out):
    field, sys = _assemble_from(cfg)
    prec = _preconditioner(cfg, sys)
    a = cfg["analysis"]
    cell = a["source_cell"]
    if cell is None:
        cell = [field.grid.inv_eps // 2] * field.grid.d
    res = analysis.green_decay(sys, prec, tuple(cell), a["k_max"])
    prof = res.profile
    rows = [
        (
            int(prof.radii[i]),
            prof.annulus_energies[i],
            res.rel_errors[i],
            prec.step_gamma ** (i + 1),
        )
        for i in range(len(prof.radii))
    ]
    out.csv(
        "green.csv",
        ["radius_cells", "annulus_energy", "iteration_rel_error", "gamma_pow_k"],
        rows,
        "energy norms; radius in eps-cells",
    )
    out.line(
        "green.svg",
        [
            ("annulus |||u|||", prof.radii, np.maximum(prof.annulus_energies, 1e-300), "circle"),
            ("rel iter error", prof.radii, np.maximum(res.rel_errors, 1e-300), "cross"),
        ],
        "green's function decay",
    )
    out.json(
        "green.json",
        {
            "source_cell": list(prof.centers[0]),  # wrapped onto the torus
            "annulus_rate": prof.fitted_rate,
            "annulus_r2": prof.fit_quality,
            "iteration_rate": res.error_rate,
            "gamma_est": prec.step_gamma,
            "pcg_iters": res.pcg_iters,
            "pcg_ratio": res.pcg_ratio,
        },
    )


def cmd_eigen_decay(cfg, out):
    field, sys = _assemble_from(cfg)
    a = cfg["analysis"]
    spec = auto_oracle(sys, a["state_index"] + 1)
    state = spec.vectors[:, a["state_index"]]
    prof = analysis.eigen_decay(sys, state, a["centers"], a["k_max"], schedule=a["schedule"])
    rows = [
        (k + 1, int(prof.radii[k]), prof.annulus_energies[k]) for k in range(len(prof.radii))
    ]
    out.csv(
        "decay.csv",
        ["step", "radius_cells", "annulus_energy"],
        rows,
        "energy norm outside radius; radius in eps-cells",
    )
    out.json(
        "decay.json",
        {
            "state_index": a["state_index"],
            "eigenvalue": spec.values[a["state_index"]],
            "centers": [list(c) for c in prof.centers],
            "rate": prof.fitted_rate,
            "r2": prof.fit_quality,
            "degenerate": prof.degenerate,
            "schedule": a["schedule"],
        },
    )
    out.heatmap("state.svg", cell_mass(sys, state), "state %d cell mass" % a["state_index"])
    out.line(
        "decay.svg",
        [
            (
                "annulus energy",
                np.arange(1, len(prof.radii) + 1),
                np.maximum(prof.annulus_energies, 1e-300),
                "circle",
            )
        ],
        "eigenstate decay",
    )
    return field


def cmd_gap_scan(cfg, out):
    field, sys = _assemble_from(cfg)
    a = cfg["analysis"]
    values = _lowest_values(sys, max(a["n_ev"], a["k_gap_max"] + 1))
    rep = analysis.gap_scan(values, a["k_gap_max"], a["gap_target"])
    rows = [(k + 1, rep.gaps[k]) for k in range(len(rep.gaps))]
    out.csv("gaps.csv", ["K", "gap_E1_over_EK1"], rows, "dimensionless ratios")
    out.json(
        "gaps.json",
        {
            "chosen_k": rep.chosen_k,
            "gap": rep.gap,
            "target": rep.target,
            "met_target": rep.met_target,
            "head": list(rep.head),
        },
    )


def cmd_friedrichs(cfg, out):
    _, sys = _assemble_from(cfg)
    a = cfg["analysis"]
    rep = analysis.friedrichs_ratio(sys, a["samples"], cfg["seed"] + 23, a["friedrichs_mode"])
    rows = [(i, rep.ratios[i]) for i in range(len(rep.ratios))]
    out.csv("friedrichs.csv", ["sample", "ratio"], rows, "length units")
    out.json(
        "friedrichs.json",
        {
            "max_ratio": rep.max_ratio,
            "mean_ratio": rep.mean_ratio,
            "eps": rep.eps,
            "max_width": rep.max_width,
            "normalized_max": rep.normalized,
            "skipped": rep.skipped,
            "mode": rep.mode,
            "max_gradient": rep.max_gradient,
        },
    )


def cmd_spectra_compare(cfg, out):
    field_a = build_field(cfg["field"], cfg["seed"])
    bcfg = cfg["field_b"]
    if bcfg is None:
        bcfg = dict(cfg["field"], kind="periodic")
    field_b = build_field(bcfg, cfg["seed"] + 1)
    comp = analysis.spectra_compare(field_a, field_b, cfg["subgrid"]["m"], cfg["analysis"]["n_ev"])
    rows = [
        (i + 1, comp.values_a[i], comp.values_b[i]) for i in range(comp.n_ev)
    ]
    out.csv(
        "spectra.csv",
        ["index", "E_%s" % comp.kind_a, "E_%s" % comp.kind_b],
        rows,
        "energy (1/length^2)",
    )
    idx = np.arange(1, comp.n_ev + 1)
    out.scatter(
        "spectra.svg",
        [
            (comp.kind_b, idx, comp.values_b, "circle"),
            (comp.kind_a, idx, comp.values_a, "cross"),
        ],
        "spectra: %s vs %s" % (comp.kind_a, comp.kind_b),
    )
    return comp


def cmd_fig1(cfg, out):
    field = cmd_eigen_decay(cfg, out)
    out.heatmap("potential.svg", field.values(), "i.i.d. potential")


def cmd_fig2(cfg, out):
    comp = cmd_spectra_compare(cfg, out)
    a = cfg["analysis"]
    rep = analysis.gap_scan(comp.values_a, a["k_gap_max"], a["gap_target"])
    out.json(
        "gaps_random.json",
        {"chosen_k": rep.chosen_k, "gap": rep.gap, "met_target": rep.met_target},
    )


FIG1_BASE = {
    "field": {"kind": "iid", "d": 2, "inv_eps": 64, "alpha": 1.0, "beta": 4.0 * 64 ** 2, "p_beta": 0.5},
    "subgrid": {"m": 2},
    "analysis": {"k_max": 12, "state_index": 0},
    "seed": 5,
}

FIG2_BASE = {
    "field": {"kind": "iid", "d": 1, "inv_eps": 256, "alpha": 1.0, "beta": 8.0 * 256 ** 2, "p_beta": 0.5},
    "field_b": {"kind": "periodic"},
    "subgrid": {"m": 2},
    "analysis": {"n_ev": 144, "k_gap_max": 16},
    "seed": 5,
}

# canned fig configs: subcommand -> (base, what --full lays on it)
PRESETS = {
    "fig1": (FIG1_BASE, {"subgrid": {"m": 4}}),
    "fig2": (FIG2_BASE, {"subgrid": {"m": 4}, "analysis": {"n_ev": 160}}),
}


COMMANDS = {
    "gen": cmd_gen,
    "geometry": cmd_geometry,
    "assemble": cmd_assemble,
    "oracle": cmd_oracle,
    "pinvit": cmd_pinvit,
    "block": cmd_block,
    "green-decay": cmd_green_decay,
    "eigen-decay": cmd_eigen_decay,
    "gap-scan": cmd_gap_scan,
    "friedrichs": cmd_friedrichs,
    "spectra-compare": cmd_spectra_compare,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
}


def _load_raw_config(path):
    """(config object, output directory of a rerun manifest or None)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    out = None
    if isinstance(raw, dict) and "config" in raw and "subcommand" in raw:
        # a previously emitted manifest; rerun its pipeline
        raw, out = raw["config"], raw.get("out")
        _check(out is None or isinstance(out, str) and out, "out", "must be a non-empty string")
    _check(isinstance(raw, dict), "<root>", "config must be a JSON object")
    return raw, out


def _overlay(base, top):
    """base with top laid on: object sections update, other values replace."""
    merged = copy.deepcopy(base)
    for key, val in top.items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key].update(val)
        else:
            merged[key] = val
    return merged


def _resolve_out(args, manifest_out, subcommand):
    if args.out is None and manifest_out is not None:
        return manifest_out  # resolved when the manifest was written
    out = args.out or os.path.join("runs", subcommand)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schrodloc",
        description="seeded localization experiments on disorder potentials",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file or a previously emitted manifest")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--full", action="store_true", help="fig1/fig2 only: full subgrid resolution"
    )
    args = parser.parse_args(argv)

    try:
        _check(args.subcommand in PRESETS or not args.full, "--full", "fig1 and fig2 only")
        raw, manifest_out = ({}, None)
        if args.config:
            raw, manifest_out = _load_raw_config(args.config)
        if args.subcommand in PRESETS:
            base, full = PRESETS[args.subcommand]
            raw = _overlay(_overlay(base, full) if args.full else base, raw)
        cfg = resolve_config(raw)
        if args.seed is not None:
            _check(args.seed >= 0, "--seed", "must be non-negative")
            cfg["seed"] = args.seed
        h = reports.config_hash({"subcommand": args.subcommand, **cfg})
        out = _Run(_resolve_out(args, manifest_out, args.subcommand), h)
        COMMANDS[args.subcommand](cfg, out)
        manifest = {
            "subcommand": args.subcommand,
            "config": cfg,
            "config_hash": h,
            "out": out.dir,
            "artifacts": sorted(set(out.names)),
        }
        reports.write_json(Path(out.dir) / "manifest.json", manifest)
    except ValueError as exc:  # ConfigError included
        print("config error: %s" % exc, file=_sys.stderr)
        return 2
    except MemoryError as exc:  # the config asks for more than the machine has
        detail = str(exc) or "allocation refused"
        print("config error: out of memory: %s" % detail, file=_sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=_sys.stderr)
        return 3
    print("%s: wrote %d artifacts to %s (config %s)" % (
        args.subcommand, len(out.names) + 1, out.dir, h
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
