"""Quantitative experiments on assembled fields.

Everything here reduces a solver run to a handful of numbers that the
theory speaks about: annulus energy norms and their log-linear decay rate,
iteration error curves against a reference PCG solve (conjugate gradients
preconditioned by the patch solve, stopped once the preconditioned residual
norm sqrt(r'Br) has fallen to schwarz.PCG_STOP = 1e-24 of its start),
spectral-gap ratios, the Friedrichs constant of the cut-off, and
side-by-side spectra of ordered versus disordered fields.

Distances are counted in eps-cell layers with fem.dilate_cells, the ruler
the support certificates use, so "radius k" always means k cell layers (the
sup-norm distance on the torus). Annulus energies use the exact
per-cell split of the energy form, which makes the monotonicity and
partition identities hold to rounding rather than to quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import _lowest_values, _valley_mode
from .errors import NumericalError
from .fem import (
    SubgridSpec,
    assemble,
    build_cutoff,
    cell_energies,
    cell_mass,
    dilate_cells,
    energy_norm,
    mask_of_vector,
    mass_norm,
    rayleigh,
)
from .potential import _torus_boxes, analyze_geometry, make_rng
from .schwarz import pcg_solve, richardson_solve

__all__ = [
    "DecayProfile",
    "GapReport",
    "GreenDecayResult",
    "FriedrichsReport",
    "SpectraComparison",
    "CertificateReport",
    "annulus_energies",
    "find_centers",
    "green_decay",
    "eigen_decay",
    "gap_scan",
    "friedrichs_ratio",
    "spectra_compare",
    "minmax_certificate",
]

FIT_FLOOR = 1e-12
CENTER_THRESHOLD = 0.5  # least share of the top cell mass find_centers keeps


@dataclass
class DecayProfile:
    """Annulus decay record: centers, radii in cells, restricted energy norms.

    fitted_rate is c in the fit log(norm_k) = a - c*k over the radii whose
    annulus norm is above FIT_FLOOR relative to the total; fit_quality is
    the R^2 of that fit. A state whose mass sits entirely at the centers
    leaves nothing to fit and is flagged degenerate with rate +inf.
    """

    centers: list
    radii: np.ndarray
    annulus_energies: np.ndarray
    total_energy: float
    fitted_rate: float
    fit_quality: float
    degenerate: bool = False


@dataclass
class GapReport:
    """Head of the spectrum with the gap ratio E1/E^{K+1} for each K."""

    head: np.ndarray
    gaps: np.ndarray
    chosen_k: int
    gap: float
    target: float
    met_target: bool


def _radius_schedule(k_max: int, schedule: str):
    k = np.arange(1, k_max + 1)
    if schedule == "linear":
        return k
    if schedule == "quadratic":
        return k * k
    raise ValueError("schedule must be 'linear' or 'quadratic', got %r" % (schedule,))


def annulus_energies(sys, v, centers, k_max: int, schedule: str = "linear"):
    """Energy norms of v restricted outside cell balls of growing radius.

    The annulus at radius r keeps every cell outside dilate_cells(centers,
    r - 1), that is at least r cell layers from all centers, with r = k
    cells (linear schedule) or k^2 cells (quadratic schedule) at step k. The
    sequence is non-increasing by nesting and the value at r=0 would be the
    total energy norm.
    """
    per_cell = np.maximum(cell_energies(sys, v), 0.0)
    radii = _radius_schedule(k_max, schedule)
    inside = np.zeros(per_cell.shape, dtype=bool)
    for z in centers:
        inside[tuple(int(c) % n for c, n in zip(z, inside.shape))] = True
    norms, layers = np.empty(k_max), 0
    for i, r in enumerate(radii):
        inside = dilate_cells(inside, r - 1 - layers)
        layers = r - 1
        norms[i] = math.sqrt(float(per_cell[~inside].sum()))
    return norms


def _log_linear_fit(radii, norms, total):
    """Fit log(norm) = a - c*k on the points above the relative floor."""
    keep = norms > FIT_FLOOR * max(total, 1e-300)
    if keep.sum() < 3:
        return math.inf, 0.0, True
    x = np.asarray(radii, dtype=float)[keep]
    y = np.log(norms[keep])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2, False


def _profile(sys, v, centers, k_max, schedule="linear"):
    """DecayProfile of v around the centers, which it records on the torus."""
    centers = [tuple(int(c) % sys.field.grid.inv_eps for c in z) for z in centers]
    total = energy_norm(sys, v)
    norms = annulus_energies(sys, v, centers, k_max, schedule)
    rate, r2, degenerate = _log_linear_fit(np.arange(1, k_max + 1), norms, total)
    return DecayProfile(
        centers=centers,
        radii=_radius_schedule(k_max, schedule),
        annulus_energies=norms,
        total_energy=total,
        fitted_rate=rate,
        fit_quality=r2,
        degenerate=degenerate,
    )


def find_centers(sys, v):
    """Cells holding local maxima of the cellwise L2 mass above the threshold.

    A cell qualifies when its mass is at least every circular neighbor's and
    at least CENTER_THRESHOLD times the global maximum. Flat states make
    every cell qualify; callers wanting a meaningful profile on such states
    should pass explicit centers instead.
    """
    mass = cell_mass(sys, v)
    shape = mass.shape
    d = len(shape)
    neigh = np.full(shape, -np.inf)
    for offset in np.ndindex(*(3,) * d):
        off = tuple(o - 1 for o in offset)
        if all(o == 0 for o in off):
            continue
        neigh = np.maximum(neigh, np.roll(mass, off, axis=tuple(range(d))))
    top = float(mass.max())
    hits = np.argwhere((mass >= neigh) & (mass >= CENTER_THRESHOLD * top))
    return [tuple(int(c) for c in z) for z in hits]


@dataclass
class GreenDecayResult:
    """Green's-function experiment: decay of the reference PCG solve and of
    the iteration error around a single-cell source.

    pcg_iters and pcg_ratio are the reference solve's iteration count and
    its final ratio sqrt(r'Br / r0'Br0), at or below schwarz.PCG_STOP.
    """

    profile: DecayProfile
    rel_errors: np.ndarray
    error_rate: float
    support_cells: list
    pcg_iters: int
    pcg_ratio: float


def green_decay(sys, prec, source_cell, k_max: int) -> GreenDecayResult:
    """Solve with a mass-normalized single-cell indicator source and measure
    how fast both the solution and the patch-Richardson error decay.

    The reference u comes from schwarz.pcg_solve, conjugate gradients
    preconditioned by the patch solve and stopped once sqrt(r'Br / r0'Br0)
    <= schwarz.PCG_STOP = 1e-24; A is never factored. The iteration runs
    k_max damped steps with support tracking, so a mask escape raises
    rather than being averaged into the statistics.
    rel_errors[k-1] = |||u - u^(k)|||/|||u|||.
    """
    f = _cell_indicator(sys, source_cell)
    f = f / mass_norm(sys, f)
    load = sys.M @ f
    u, iters, ratio = pcg_solve(prec, sys, load)
    profile = _profile(sys, u, [source_cell], k_max)
    result = richardson_solve(
        prec,
        sys,
        load,
        steps=k_max,
        source_mask=mask_of_vector(sys.sub, f),
        reference=u,
    )
    rel = np.asarray(result.errors) / profile.total_energy
    err_rate, _, _ = _log_linear_fit(np.arange(1, k_max + 1), rel, 1.0)
    return GreenDecayResult(
        profile=profile,
        rel_errors=rel,
        error_rate=err_rate,
        support_cells=result.support_cells,
        pcg_iters=iters,
        pcg_ratio=ratio,
    )


def _cell_indicator(sys, cell):
    """1 on the closed nodes of a cell, the (m+1)-box from node cell*m."""
    m, vec = sys.sub.m, np.zeros(sys.n)
    vec[_torus_boxes(sys.sub.n_axis, [[c * m] for c in cell], m + 1)] = 1.0
    return vec


def eigen_decay(
    sys,
    state,
    centers="auto",
    k_max: int = 10,
    schedule: str = "linear",
) -> DecayProfile:
    """Annulus decay profile of an (M-normalized) eigenstate.

    centers="auto" picks the cells of dominant local L2 mass; an explicit
    list of cells overrides it, each cell taken mod inv_eps. schedule
    picks the annulus radii, k cells per step or k^2 cells per step; the
    fitted exponent is per step either way. All mass at the centers leaves
    an empty fit and comes back flagged degenerate with rate +inf.
    """
    v = np.asarray(state, dtype=float)
    nrm = mass_norm(sys, v)
    if nrm == 0.0:
        raise NumericalError("cannot profile the zero state")
    v = v / nrm
    if isinstance(centers, str):
        if centers != "auto":
            raise ValueError("centers must be 'auto' or a list of cells")
        centers = find_centers(sys, v)
    if not centers:
        raise ValueError("no centers found or given")
    return _profile(sys, v, centers, k_max, schedule)


def gap_scan(values, k_max: int, target: float = 0.5) -> GapReport:
    """Gap ratios E1/E^{K+1} for K=1..k_max from ascending eigenvalues;
    chooses the smallest K at or below the target ratio, or the best
    available K with a cleared flag."""
    values = np.asarray(values, dtype=float)
    if len(values) < k_max + 1:
        raise ValueError(
            "need %d eigenvalues for k_max=%d, got %d" % (k_max + 1, k_max, len(values))
        )
    head = values[: k_max + 1]
    gaps = head[0] / head[1:]
    meets = np.nonzero(gaps <= target)[0]
    if len(meets):
        chosen = int(meets[0]) + 1
        met = True
    else:
        chosen = int(np.argmin(gaps)) + 1
        met = False
    return GapReport(
        head=head,
        gaps=gaps,
        chosen_k=chosen,
        gap=float(gaps[chosen - 1]),
        target=target,
        met_target=met,
    )


@dataclass
class FriedrichsReport:
    """Observed ratios ||eta v|| / ||grad(eta v)||; normalized is max_ratio /
    (eps max_width), max_gradient the measured sup of |grad eta|."""

    ratios: np.ndarray
    max_ratio: float
    mean_ratio: float
    eps: float
    max_width: int
    normalized: float
    skipped: int
    mode: str
    max_gradient: float


def friedrichs_ratio(sys, samples: int, seed: int = 23, mode: str = "smooth") -> FriedrichsReport:
    """Sample the cut-off Friedrichs ratio over random fields of test states.

    eta is build_cutoff(sys.field, sys.sub) and max_width the field's
    analyze_geometry width. mode "smooth" draws white noise and passes it
    once through the inverse operator, which pushes the sample toward the low
    states whose ratio the valley width actually governs; mode "white" uses
    the raw noise, whose ratio is dominated by the finest oscillations and
    stays near h regardless of the field. Samples with a vanishing gradient
    are skipped.
    """
    if mode not in ("smooth", "white"):
        raise ValueError("mode must be 'smooth' or 'white', got %r" % (mode,))
    max_width = analyze_geometry(sys.field).max_width
    cutoff = build_cutoff(sys.field, sys.sub)
    rng = make_rng(seed)
    eta = cutoff.values
    ratios = []
    skipped = 0
    for _ in range(samples):
        g = rng.standard_normal(sys.n)
        v = sys.solve(sys.M @ g) if mode == "smooth" else g
        nrm = mass_norm(sys, v)
        if nrm == 0.0:
            skipped += 1
            continue
        w = eta * (v / nrm)
        grad2 = float(w @ (sys.K @ w))
        if grad2 <= 0.0:
            skipped += 1
            continue
        ratios.append(mass_norm(sys, w) / math.sqrt(grad2))
    if not ratios:
        raise NumericalError("all Friedrichs samples skipped; cut-off annihilates the field")
    ratios = np.asarray(ratios)
    eps = sys.field.grid.eps
    mx = float(ratios.max())
    return FriedrichsReport(
        ratios=ratios,
        max_ratio=mx,
        mean_ratio=float(ratios.mean()),
        eps=eps,
        max_width=max_width,
        normalized=mx / (eps * max_width),
        skipped=skipped,
        mode=mode,
        max_gradient=cutoff.max_gradient,
    )


@dataclass
class SpectraComparison:
    """Lowest eigenvalues of two fields on the same grid, side by side."""

    kind_a: str
    kind_b: str
    values_a: np.ndarray
    values_b: np.ndarray
    m: int
    n_ev: int


def spectra_compare(field_a, field_b, m: int, n_ev: int) -> SpectraComparison:
    """Lowest eigenvalues of two fields sharing a grid, for order-vs-disorder
    plots: values only, with no vectors or residuals, each by one of the
    three routes of eig._lowest_values (Bloch blocks for a
    translation-invariant field, LAPACK's banded solver for another 1D field
    up to DENSE_LIMIT dofs, shift_invert_oracle at any size otherwise;
    dense_oracle is only the tests' reference)."""
    ga, gb = field_a.grid, field_b.grid
    if (ga.d, ga.inv_eps) != (gb.d, gb.inv_eps):
        raise ValueError("fields live on different grids: %r vs %r" % (ga, gb))
    return SpectraComparison(
        kind_a=field_a.kind,
        kind_b=field_b.kind,
        values_a=_lowest_values(assemble(field_a, SubgridSpec(grid=ga, m=m)), n_ev),
        values_b=_lowest_values(assemble(field_b, SubgridSpec(grid=gb, m=m)), n_ev),
        m=m,
        n_ev=n_ev,
    )


@dataclass
class CertificateReport:
    """Min-max certificate from valley modes: the oracle must place at least
    `count` eigenvalues at or below `max_rayleigh`."""

    count: int
    max_rayleigh: float
    rayleighs: np.ndarray


def minmax_certificate(sys, ell: int) -> CertificateReport:
    """Rayleigh bound certifying E^(N*ell^d) via ell^d product modes per valley.

    The N valleys are analyze_geometry(sys.field)'s. The discrete sine
    modes of one valley diagonalize its local pencil, and modes of disjoint
    valleys never share an element, so the whole block is exactly orthogonal
    in both forms and the min-max bound needs no slack.
    """
    stats = analyze_geometry(sys.field)
    if stats.valleys is None or not stats.valleys:
        raise ValueError("valley decomposition unavailable or empty")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d, m = sys.field.grid.d, sys.sub.m
    rayleighs = []
    for valley in stats.valleys:
        if any(w * m - 1 < ell for w in valley.sides):
            raise ValueError(
                "valley %r too coarse for ell=%d at m=%d" % (valley, ell, m)
            )
        for q in np.ndindex(*(ell,) * d):
            vec = _valley_mode(sys, valley, tuple(x + 1 for x in q))
            rayleighs.append(rayleigh(sys, vec))
    rayleighs = np.asarray(rayleighs)
    return CertificateReport(
        count=len(rayleighs),
        max_rayleigh=float(rayleighs.max()),
        rayleighs=rayleighs,
    )
