"""Workloads and the metric catalogue of the benchmark.

BENCHMARK.json at the repository root carries the names, units and
directions the benchmark contract asks for; this module carries the rest:
each workload's subcommands, configuration and seed pool, and the map from
every per-layer metric to the end-to-end metric and workload it should
move. `run.py` refuses to run when the two disagree.
"""

from __future__ import annotations

# The benchmark's --seed picks the schrodloc seed from a pool per workload.
# Pool seeds do the same work as seed 5, the default, as counted at the
# commit that added the benchmark: iterate-2d K=4 with k_outer*k_inner within
# 4% (any seed runs, but block's cost spans 20x across seeds 0-39);
# green-2d 9-10 power iterations; figures 51 shift-invert solves in fig1;
# domino-2d all 32 scanline tilings failing (~102k placement steps).
# Excluded: green-2d seed 25, whose adaptive theta gives gamma_est > 1 (the
# known under-estimate of the spectral extremes), and domino-2d seed 14, whose
# tiling succeeds on the 10th attempt. A traced run's counters show drift.
WORKLOADS = {
    "iterate-2d": {
        "subcommands": [["block"], ["pinvit"]],
        "config": {
            "field": {"kind": "tensor", "d": 2, "inv_eps": 32},
            "subgrid": {"m": 4},
        },
        "seed_pool": [5, 11, 13],
        "why": "block then pinvit on a 2D tensor field (n=16,384): patch kernel and "
        "Richardson loops dominate; masks fill the torus, so no active-set gain",
    },
    "green-2d": {
        "subcommands": [["green-decay"]],
        "config": {
            "field": {"kind": "tensor", "d": 2, "inv_eps": 128},
            "subgrid": {"m": 2},
            "analysis": {"k_max": 12},
        },
        "seed_pool": [5, 0, 1, 2, 3, 4, 6, 7, 8, 9],
        "why": "green-decay at n=65,536: preconditioner set-up and global LU dominate; "
        "the local Richardson stays on under 5% of the torus",
    },
    "figures": {
        "subcommands": [["fig1", "--full"], ["fig2", "--full"]],
        "config": None,
        "seed_pool": [5, 2, 13, 14, 15, 16, 17, 22, 24, 25],
        "why": "fig1 --full and fig2 --full: global oracles, annulus fit and SVG/CSV "
        "output, no Schwarz call (predict no change for patch-kernel work)",
    },
    "domino-2d": {
        "subcommands": [["gen"]],
        "config": {"field": {"kind": "domino", "d": 2, "inv_eps": 128}},
        "seed_pool": [5, 0, 1, 2, 3, 4, 6, 7, 8, 9],
        "why": "gen of a 2D domino field at inv_eps=128: the potential layer "
        "(scanline tiling retries) and the JSON/SVG writers",
    },
}


def workload_seed(workload, seed):
    """The schrodloc seed a benchmark --seed selects for a workload."""
    pool = WORKLOADS[workload]["seed_pool"]
    return pool[seed % len(pool)]


# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# name -> (unit, better, what it should move: "metric on workloads")
PER_LAYER = {
    "potential.gen_s": ("s", "lower", "wall_s, setup_s on domino-2d; ~0 elsewhere"),
    "potential.gen_calls": ("count", "lower", "setup_s everywhere: exposes regenerated fields"),
    "potential.geometry_s": ("s", "lower", "setup_s on iterate-2d, green-2d"),
    "potential.self_s": ("s", "lower", "wall_s on domino-2d"),
    "fem.assemble_s": ("s", "lower", "setup_s on green-2d, figures"),
    "fem.assemble_calls": ("count", "lower", "setup_s on figures: fig2 assembles field A twice"),
    "fem.ndof": ("count", "lower", "size of the largest system assembled in a pass"),
    "fem.lu_s": ("s", "lower", "wall_s on green-2d"),
    "fem.mask_s": ("s", "lower", "wall_s on iterate-2d"),
    "fem.mask_calls": ("count", "lower", "wall_s on iterate-2d"),
    "fem.self_s": ("s", "lower", "wall_s on iterate-2d, green-2d"),
    "schwarz.setup_s": ("s", "lower", "setup_s on green-2d (most), iterate-2d; none on figures"),
    "schwarz.build_patches_s": ("s", "lower", "setup_s on green-2d, iterate-2d"),
    "schwarz.patch_groups": ("count", "lower", "setup_s on green-2d, iterate-2d"),
    "schwarz.extremes_s": ("s", "lower", "setup_s on green-2d, iterate-2d"),
    "schwarz.contraction_s": ("s", "lower", "setup_s on green-2d, iterate-2d"),
    "schwarz.contraction_iters": ("count", "lower", "setup_s on green-2d, iterate-2d"),
    "schwarz.k_inner": ("count", "lower", "wall_s on iterate-2d"),
    "schwarz.richardson_s": ("s", "lower", "wall_s on green-2d"),
    "schwarz.patch_cols": ("count", "lower", "wall_s on iterate-2d"),
    "schwarz.apply_vec_ms": ("ms", "lower", "wall_s on iterate-2d, green-2d"),
    "schwarz.apply_blk8_ms": ("ms", "lower", "wall_s on iterate-2d"),
    "schwarz.apply_flops": ("flop", "lower", "computed, not measured: vector patch solve"),
    "schwarz.apply_bytes": ("B", "lower", "computed, not measured: vector patch solve"),
    "schwarz.apply_gflops": ("GFLOP/s", "higher", "wall_s on iterate-2d, green-2d"),
    "schwarz.self_s": ("s", "lower", "wall_s on iterate-2d, green-2d"),
    "eig.oracle_s": ("s", "lower", "wall_s on figures (most), iterate-2d; none on green-2d"),
    "eig.oracle_calls": ("count", "lower", "wall_s on figures"),
    "eig.oracle_pairs": ("count", "lower", "wall_s on figures"),
    "eig.start_s": ("s", "lower", "wall_s on iterate-2d"),
    "eig.block_s": ("s", "lower", "wall_s on iterate-2d"),
    "eig.block_oracle_s": ("s", "lower", "base of eig.block_over_oracle: oracle time of block"),
    "eig.block_over_oracle": ("ratio", "lower", "wall_s on iterate-2d: the ~10x target"),
    "eig.pinvit_s": ("s", "lower", "wall_s on iterate-2d"),
    "eig.K": ("count", "lower", "wall_s on iterate-2d"),
    "eig.k_outer": ("count", "lower", "wall_s on iterate-2d"),
    "eig.self_s": ("s", "lower", "wall_s on iterate-2d, figures"),
    "analysis.green_s": ("s", "lower", "wall_s on green-2d"),
    "analysis.eigen_decay_s": ("s", "lower", "wall_s on figures"),
    "analysis.spectra_s": ("s", "lower", "wall_s on figures"),
    "analysis.gap_scan_s": ("s", "lower", "wall_s on figures, iterate-2d"),
    "analysis.support_frac": ("frac", "lower", "where an active set can save: green-2d"),
    "analysis.self_s": ("s", "lower", "wall_s on green-2d, figures"),
    "reports.write_s": ("s", "lower", "wall_s on domino-2d, figures"),
    "reports.bytes": ("B", "lower", "wall_s on domino-2d, figures"),
    "reports.files": ("count", "lower", "wall_s on domino-2d, figures"),
    "reports.self_s": ("s", "lower", "wall_s on domino-2d, figures"),
    "cli.self_s": ("s", "lower", "pass time not covered by the layers; under 10% of wall"),
    "cli.import_s": ("s", "lower", "paid by every CLI call; not part of wall_s"),
    "trace.wall_s": ("s", "lower", "traced pass time, base of trace.overhead_frac"),
    "trace.base_wall_s": ("s", "lower", "untraced pass time in the traced run"),
    "trace.overhead_frac": ("frac", "lower", "cost of the tracing itself"),
}


def check_benchmark_json(doc):
    """Problems between BENCHMARK.json and this catalogue, as strings."""
    problems = []
    if sorted(w["name"] for w in doc.get("workloads", [])) != sorted(WORKLOADS):
        problems.append("workload names differ from spec.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m for m in doc.get(key, [])}
        if sorted(listed) != sorted(table):
            problems.append("%s names differ from spec" % key)
            continue
        for name, row in table.items():
            m = listed[name]
            if (m["unit"], m["better"]) != row[:2]:
                problems.append("%s: unit/better differ from spec" % name)
            if key == "end_to_end" and m["bound"] != row[2]:
                problems.append("%s: bound differs from spec" % name)
    return problems
