"""Per-layer metrics of one traced pass, and the patch-kernel micro-measurement.

Counters come from span hooks that read the arguments and return values of
the wrapped calls; the private patch kernel is not hooked, so
`schwarz.patch_cols` is derived from the iteration counts the public calls
return.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import tracing

ORACLES = {"eig.dense_oracle", "eig.shift_invert_oracle"}
GENERATORS = {
    "potential.gen_periodic",
    "potential.gen_iid",
    "potential.gen_tensor",
    "potential.gen_planted",
    "potential.gen_domino",
}
MASK_FNS = {"fem.dilate_cells", "fem.mask_allows", "fem.mask_of_vector"}
SCHWARZ_SETUP = {
    "schwarz.build_preconditioner",
    "schwarz.estimate_contraction",
    "schwarz.compose_smoother",
}
WRITERS = {
    "reports.write_json",
    "reports.write_csv",
    "reports.svg_heatmap",
    "reports.svg_scatter",
    "reports.svg_line",
}


class Capture:
    """Objects a traced pass leaves for the micro-measurement."""

    def __init__(self):
        self.system = None
        self.prec = None
        self.field = None

    def hooks(self):
        def on_gen(span, args, field):
            self.field = field

        def on_assemble(span, args, sys):
            span.info["ndof"] = sys.n
            if self.system is None or sys.n >= self.system.n:
                self.system, self.prec = sys, None

        def on_prec(span, args, prec):
            if args["sys"] is self.system:
                self.prec = prec

        def on_patches(span, args, patches):
            span.info["groups"] = len(patches.groups)

        def on_extremes(span, args, result):
            # Krylov length: the iteration budget, shorter only on breakdown
            span.info["cols"] = args["iters"]

        def on_contraction(span, args, est):
            span.info["iters"] = len(est.history)
            span.info["cols"] = len(est.history)

        def on_smoother(span, args, smoother):
            span.info["k_inner"] = smoother.k_inner

        def on_richardson(span, args, result):
            load = np.asarray(args["load"])
            span.info["cols"] = args["steps"] * (1 if load.ndim == 1 else load.shape[1])

        def on_oracle(span, args, spec):
            span.info["pairs"] = len(spec.values)

        def on_block(span, args, result):
            _, state = result
            K = state.block.shape[1]
            k_outer = len(state.history["support_cells"])
            k_inner = args["smoother"].k_inner
            n_cells = args["sys"].field.grid.n_cells
            span.info.update(
                K=K,
                k_outer=k_outer,
                cols=K * k_outer * k_inner,
                support_frac=max(int(m.sum()) for m in state.masks) / n_cells,
            )

        def on_pinvit(span, args, state):
            steps = len(state.history["rayleigh"])
            span.info["cols"] = steps * args["smoother"].k_inner
            span.info["support_frac"] = int(state.masks[0].sum()) / args["sys"].field.grid.n_cells

        def on_green(span, args, result):
            n_cells = args["sys"].field.grid.n_cells
            span.info["support_frac"] = result.support_cells[-1] / n_cells

        hooks = {name: on_gen for name in GENERATORS}
        hooks.update(
            {
                "fem.assemble": on_assemble,
                "schwarz.build_preconditioner": on_prec,
                "schwarz.build_patches": on_patches,
                "schwarz.spectral_extremes": on_extremes,
                "schwarz.estimate_contraction": on_contraction,
                "schwarz.compose_smoother": on_smoother,
                "schwarz.richardson_solve": on_richardson,
                "eig.dense_oracle": on_oracle,
                "eig.shift_invert_oracle": on_oracle,
                "eig.inexact_block_iteration": on_block,
                "eig.pinvit": on_pinvit,
                "analysis.green_decay": on_green,
            }
        )
        return hooks


def _info_sum(spans, names, key):
    return sum((s.info or {}).get(key, 0) for s in spans if s.name in names)


def _info_max(spans, names, key, default=0):
    vals = [(s.info or {})[key] for s in spans if s.name in names and key in (s.info or {})]
    return max(vals) if vals else default


def _descends_from(spans, i, root):
    p = spans[i].parent
    while p is not None:
        if p == root:
            return True
        p = spans[p].parent
    return False


def pass_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    t = tracing.outer_time
    count = lambda names: sum(s.name in names for s in spans)
    selfs = tracing.self_times(spans)

    block_s = t(spans, {"eig.inexact_block_iteration"})
    block_oracle_s = 0.0
    for i, s in enumerate(spans):
        if s.name == "cli.main" and s.info["subcommand"] == "block":
            block_oracle_s += sum(
                o.duration
                for j, o in enumerate(spans)
                if o.name in ORACLES and _descends_from(spans, j, i)
            )
    cols_names = {
        "schwarz.spectral_extremes",
        "schwarz.estimate_contraction",
        "schwarz.richardson_solve",
        "eig.inexact_block_iteration",
        "eig.pinvit",
    }
    support_names = {"eig.inexact_block_iteration", "eig.pinvit", "analysis.green_decay"}
    m = {
        "potential.gen_s": t(spans, GENERATORS),
        "potential.gen_calls": count(GENERATORS),
        "potential.geometry_s": t(spans, {"potential.analyze_geometry"}),
        "fem.assemble_s": t(spans, {"fem.assemble"}),
        "fem.assemble_calls": count({"fem.assemble"}),
        "fem.ndof": _info_max(spans, {"fem.assemble"}, "ndof"),
        "fem.lu_s": t(spans, {"fem.AssembledSystem.solve"}),
        "fem.mask_s": t(spans, MASK_FNS),
        "fem.mask_calls": count(MASK_FNS),
        "schwarz.setup_s": t(spans, SCHWARZ_SETUP),
        "schwarz.build_patches_s": t(spans, {"schwarz.build_patches"}),
        "schwarz.patch_groups": _info_max(spans, {"schwarz.build_patches"}, "groups"),
        "schwarz.extremes_s": t(spans, {"schwarz.spectral_extremes"}),
        "schwarz.contraction_s": t(spans, {"schwarz.estimate_contraction"}),
        "schwarz.contraction_iters": _info_sum(spans, {"schwarz.estimate_contraction"}, "iters"),
        "schwarz.k_inner": _info_max(spans, {"schwarz.compose_smoother"}, "k_inner"),
        "schwarz.richardson_s": t(spans, {"schwarz.richardson_solve"}),
        "schwarz.patch_cols": _info_sum(spans, cols_names, "cols"),
        "eig.oracle_s": t(spans, ORACLES),
        "eig.oracle_calls": count(ORACLES),
        "eig.oracle_pairs": _info_sum(spans, ORACLES, "pairs"),
        "eig.start_s": t(spans, {"eig.build_start_valleys", "eig.build_start_projection"}),
        "eig.block_s": block_s,
        "eig.block_oracle_s": block_oracle_s,
        "eig.block_over_oracle": block_s / block_oracle_s if block_oracle_s > 0 else 0.0,
        "eig.pinvit_s": t(spans, {"eig.pinvit"}),
        "eig.K": _info_max(spans, {"eig.inexact_block_iteration"}, "K"),
        "eig.k_outer": _info_max(spans, {"eig.inexact_block_iteration"}, "k_outer"),
        "analysis.green_s": t(spans, {"analysis.green_decay"}),
        "analysis.eigen_decay_s": t(spans, {"analysis.eigen_decay"}),
        "analysis.spectra_s": t(spans, {"analysis.spectra_compare"}),
        "analysis.gap_scan_s": t(spans, {"analysis.gap_scan"}),
        "analysis.support_frac": _info_max(spans, support_names, "support_frac", 0.0),
        "reports.write_s": t(spans, WRITERS),
        "trace.wall_s": wall_s,
    }
    for layer in tracing.LAYERS:
        m["%s.self_s" % layer] = selfs.get(layer, 0.0)
    return m


def patch_kernel(prec, sys, seed):
    """Time one patch-operator application on a vector and an 8-column block.

    Returns the medians in ms plus the computed flop and byte counts of the
    vector case: two triangular solves per patch (2 p^2 flop per column) and
    one scatter-add per patch node; bytes count the factor reads, the
    gathered loads with their indices, the scattered results and the zeroed
    output, and ignore cache effects.
    """
    from schrodloc.schwarz import schwarz_precondition

    rng = np.random.default_rng(seed)
    out = {}
    for key, shape in (("vec", (sys.n,)), ("blk8", (sys.n, 8))):
        load = rng.standard_normal(shape)
        schwarz_precondition(prec, sys, load)
        times = []
        t_end = time.perf_counter() + 0.3
        while len(times) < 15 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            schwarz_precondition(prec, sys, load)
            times.append(time.perf_counter() - t0)
        out["schwarz.apply_%s_ms" % key] = 1e3 * statistics.median(times)
    patches = prec.patches
    n_p, p = patches.n_patches, patches.patch_size
    flops = n_p * (2 * p * p + p)
    out["schwarz.apply_flops"] = flops
    out["schwarz.apply_bytes"] = 8 * (2 * len(patches.groups) * p * p + n_p * p * 4 + sys.n)
    out["schwarz.apply_gflops"] = flops / (out["schwarz.apply_vec_ms"] * 1e-3) / 1e9
    return out
