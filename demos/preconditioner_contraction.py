"""Measured vs predicted contraction of the overlapping Schwarz smoother.

For a handful of disorder kinds this builds the eps-local preconditioner,
runs the power iteration on the error propagator E = I - theta P A to get
the actual contraction factor, and compares it with the bound
K2 / (K1^{-1} + K2) computed from calibrated equivalence constants. The
calibration inverts the measured lambda_min, so the bound should sit just
above the measurement everywhere; the gap between the two columns is the
slack in the two-level theory, not noise.
"""

import os

import numpy as np

from schrodloc import (
    GridSpec,
    SubgridSpec,
    analyze_geometry,
    assemble,
    build_preconditioner,
    estimate_contraction,
    gen_domino,
    gen_iid,
    gen_periodic,
    gen_tensor,
    theoretical_constants,
)
from schrodloc.reports import config_hash, svg_scatter

INV_EPS = 64
M = 4
SEED = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "preconditioner_contraction")


def fields():
    grid = GridSpec(d=1, inv_eps=INV_EPS, seed=SEED)
    beta = 8.0 * INV_EPS ** 2
    yield "periodic", gen_periodic(grid, 1.0, beta)
    yield "iid", gen_iid(grid, 1.0, beta, p_beta=0.5)
    yield "tensor", gen_tensor(grid, 1.0, beta, p_alpha=0.5)
    yield "domino", gen_domino(grid, 1.0, beta)


def calibrated_bound(lam, stats):
    # invert lambda_min = (2^{d+1} (1 + c^2 L^2))^{-1} for the stability
    # constant, then push it back through the additive-Schwarz bound
    d = stats.d
    width = max(stats.max_width, 1)
    c2 = max(0.0, (1.0 / (2.0 ** (d + 1) * lam) - 1.0)) / width ** 2
    return theoretical_constants(d, width, c_stable=np.sqrt(c2)).bound


def main():
    os.makedirs(OUT, exist_ok=True)
    labels, measured, bounds = [], [], []
    print("kind      gamma_meas  gamma_bound  theta      lam_min")
    for kind, field in fields():
        sysm = assemble(field, SubgridSpec(field.grid, M))
        stats = analyze_geometry(field)
        prec = build_preconditioner(sysm, mode="adaptive")
        est = estimate_contraction(prec, sysm)
        lam = (1.0 - est.gamma) / prec.theta
        bound = calibrated_bound(lam, stats)
        print(
            "%-9s %10.4f  %11.4f  %9.4f  %8.4f"
            % (kind, est.gamma, bound, prec.theta, lam)
        )
        labels.append(kind)
        measured.append(est.gamma)
        bounds.append(min(bound, 1.0))
    xs = np.arange(len(labels), dtype=float)
    h = config_hash({"demo": "preconditioner_contraction", "inv_eps": INV_EPS, "seed": SEED})
    svg_scatter(
        os.path.join(OUT, "contraction.svg"),
        [
            ("measured gamma", xs, np.array(measured), "circle"),
            ("calibrated bound", xs, np.array(bounds), "cross"),
        ],
        "Schwarz contraction, x = " + ", ".join("%d:%s" % (i, k) for i, k in enumerate(labels)),
        h,
    )
    print("wrote %s" % os.path.join(OUT, "contraction.svg"))


if __name__ == "__main__":
    main()
