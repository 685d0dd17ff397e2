"""Overlapping domain-decomposition preconditioner on vertex patches.

One patch per cell vertex z: the open box of side 2 eps centered at z, whose
interior subgrid nodes span a local space with exact zero boundary
conditions. The patch operator solves the local restriction of A on every
patch and sums the extensions,

    P v = sum_z E_z A_z^{-1} R_z (A v),

which is the sum of the a-orthogonal projections onto the patch spaces. Its
spectrum sits between 1/stable and overlap = 2**d (each element belongs to
exactly 2**d patches), so the damped Richardson iteration with step theta
contracts in the energy norm with a factor below 1 that is bounded
uniformly in the potential contrast: it falls as beta grows and saturates
once beta >> eps**-2. The Lanczos extremes of P (spectral_extremes) set
the adaptive theta and give the one-step contraction
g = ||id - theta P||_A = max(1 - theta lam_min, theta lam_max - 1)
(SchwarzPreconditioner.step_gamma): the factor the Green's-function
experiment reports, and the interval {lam : |1 - theta lam| <= g} on which
the eigen-iterations compose the same patch solve into a Chebyshev
semi-iteration (compose_smoother). The patch solve also preconditions
conjugate gradients (pcg_solve), the reference solve of that experiment.
The energy-norm power iteration on id - theta P (estimate_contraction) is
an independent measurement of the same factor, for checking the bounds.

Locality is exact rather than approximate: patch solves only write interior
patch nodes, zero loads produce bitwise-zero outputs, so one application
grows the cell-support mask by at most one layer and entries outside the
certified mask are exactly 0.0.

Patch matrices are dense (at most (2m-1)**d dofs) and inverted once per
local occupancy pattern: the restriction of A to a patch only depends on the
potential on the patch's 2**d cells, so patches sharing that pattern share
one explicit inverse. With the patches ordered by pattern, one application
is a single gather of the patch loads, one matrix product per pattern group
and a single sparse scatter-add of the local solutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NumericalError
from .fem import AssembledSystem, certify_support, energy_norm
from .potential import analyze_geometry, make_rng

__all__ = [
    "ContractionConstants",
    "theoretical_constants",
    "PatchSet",
    "build_patches",
    "SchwarzPreconditioner",
    "build_preconditioner",
    "schwarz_precondition",
    "schwarz_apply",
    "RichardsonResult",
    "richardson_solve",
    "pcg_solve",
    "ContractionEstimate",
    "estimate_contraction",
    "spectral_extremes",
    "ComposedSmoother",
    "compose_smoother",
]

MAX_INNER = 100_000  # most inner steps compose_smoother may ask for
CONTRACTION_ITERS, CONTRACTION_TOL, CONTRACTION_SEED = 80, 1e-4, 11  # estimate_contraction
# pcg_solve stops once sqrt(r'Br / r0'Br0) is at or below PCG_STOP. A stop at
# the rounding level of the energy norm (1e-16) leaves the far annuli of a
# Green's function, down to 1e-12 of its norm, off by up to 6e-4 relative;
# at 1e-24 they match a refined direct solve to 2e-12 in 13-20 more steps.
PCG_STOP = 1e-24
MAX_PCG = 1_000  # most iterations pcg_solve may take


@dataclass(frozen=True)
class ContractionConstants:
    """Spectral bounds of the patch operator and the derived step size.

    overlap bounds the spectrum from above (2**d, the number of patches
    covering an element); stable = 2**(d+1) (1 + c_stable**2 width**2)
    bounds it from below by 1/stable. theta = 1/(overlap + 1/stable) and
    the energy contraction of id - theta P is at most
    bound = overlap / (1/stable + overlap) < 1.
    """

    overlap: float
    stable: float
    theta: float
    bound: float


def theoretical_constants(d: int, max_width: int, c_stable: float = 1.0) -> ContractionConstants:
    overlap = float(2 ** d)
    stable = float(2 ** (d + 1)) * (1.0 + c_stable ** 2 * max_width ** 2)
    theta = 1.0 / (overlap + 1.0 / stable)
    bound = overlap / (1.0 / stable + overlap)
    return ContractionConstants(overlap=overlap, stable=stable, theta=theta, bound=bound)


@dataclass
class PatchSet:
    """Interior dof indices of every vertex patch plus shared local inverses.

    groups maps an occupancy key to (patch ids, inverse of the shared patch
    matrix), in the order the patches are laid out in gather: column j of
    the (p, n_patches) gather array holds the dofs of the j-th patch in
    group order. scatter is the (n, n_patches * p) 0/1 matrix that adds the
    flattened (p, n_patches) local solutions back into global dofs.
    """

    dof_idx: np.ndarray
    groups: dict
    patch_width: int
    gather: np.ndarray
    scatter: sp.csr_matrix

    @property
    def n_patches(self):
        return self.dof_idx.shape[0]

    @property
    def patch_size(self):
        return self.dof_idx.shape[1]


def build_patches(sys: AssembledSystem) -> PatchSet:
    """Enumerate the vertex patches and invert one matrix per cell pattern."""
    sub = sys.sub
    grid = sub.grid
    d, m, n1, ne = grid.d, sub.m, sub.n_axis, grid.inv_eps
    width = 2 * m - 1

    vertices = np.stack(
        np.meshgrid(*[np.arange(ne)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    n_patches = vertices.shape[0]

    # interior nodes of (z - eps, z + eps): 2m-1 consecutive nodes per axis
    offsets = np.arange(-(m - 1), m)
    node_strides = np.array([n1 ** (d - 1 - a) for a in range(d)], dtype=np.int64)
    per_axis = [
        (vertices[:, a, None] * m + offsets[None, :]) % n1 for a in range(d)
    ]
    dof_idx = np.zeros((n_patches,) + (width,) * d, dtype=np.int64)
    for a in range(d):
        shape = [n_patches] + [1] * d
        shape[1 + a] = width
        dof_idx = dof_idx + per_axis[a].reshape(shape) * node_strides[a]
    dof_idx = dof_idx.reshape(n_patches, width ** d)

    cell_strides = np.array([ne ** (d - 1 - a) for a in range(d)], dtype=np.int64)
    deltas = np.array(list(itertools.product((-1, 0), repeat=d)), dtype=np.int64)
    patch_cells = (
        ((vertices[:, None, :] + deltas[None, :, :]) % ne) @ cell_strides
    )

    occ = sys.field.occupancy.ravel()
    bits = occ[patch_cells].astype(np.int64)
    keys = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))

    groups = {}
    for key in keys[np.sort(np.unique(keys, return_index=True)[1])]:
        ids = np.flatnonzero(keys == key)
        rep = dof_idx[ids[0]]
        groups[int(key)] = (ids, _local_inverse(sys.A[np.ix_(rep, rep)].toarray()))
    order = np.concatenate([ids for ids, _ in groups.values()])
    gather = np.ascontiguousarray(dof_idx[order].T)
    nnz = gather.size
    scatter = sp.csr_matrix((np.ones(nnz), (gather.ravel(), np.arange(nnz))), shape=(sys.n, nnz))
    return PatchSet(dof_idx, groups, width, gather, scatter)


def _local_inverse(local):
    """Explicit symmetric inverse of an SPD patch matrix via its Cholesky factor."""
    factor, info = dpotrf(local, lower=1)
    if info == 0:
        inv, info = dpotri(factor, lower=1)
    if info != 0:
        raise NumericalError("patch matrix is not positive definite (LAPACK info %d)" % info)
    return np.tril(inv) + np.tril(inv, -1).T


@dataclass(frozen=True)
class SchwarzPreconditioner:
    """Patch set, damping step theta and the Lanczos extremes of P.

    build_preconditioner measures lam_min and lam_max in both modes.
    Theoretical mode takes theta from its constants, adaptive mode sets
    theta = 2/(lam_min + lam_max); constants is None in adaptive mode.
    Built from patches and theta alone (as perfbench/run.py does for its
    patch-kernel timings) it applies P but has no step_gamma; the
    init-only mode is accepted from such callers and not stored.
    """

    patches: PatchSet
    theta: float
    lam_min: float | None = None
    lam_max: float | None = None
    constants: ContractionConstants | None = None
    mode: InitVar[str | None] = None

    @property
    def step_gamma(self):
        """One-step energy contraction g = max(1 - theta lam_min, theta lam_max - 1).

        This is ||id - theta P||_A up to the Lanczos extremes, which lie
        inside the spectrum, so g can sit slightly below the true factor.
        Adaptive mode gives (lam_max - lam_min)/(lam_max + lam_min) < 1.
        """
        if self.lam_min is None or self.lam_max is None:
            raise NumericalError("no spectral extremes measured; use build_preconditioner")
        return max(1.0 - self.theta * self.lam_min, self.theta * self.lam_max - 1.0)


def _patch_solve(patches: PatchSet, r):
    """Sum of zero-extended local solves; accepts a vector or an (n,k) block.

    Gathers every patch load at once, multiplies each occupancy group's
    loads by its shared inverse and scatter-adds the local solutions.
    Patches with an all-zero load contribute bitwise zeros (inv @ 0 = 0 and
    the scatter sums exact zeros), so entries never touched by a loaded
    patch stay exactly 0.0; the support statements rely on that.
    """
    loads = r[patches.gather]
    p = loads.shape[0]
    sols = np.empty_like(loads)
    start = 0
    for ids, inv in patches.groups.values():
        stop = start + len(ids)
        np.matmul(
            inv, loads[:, start:stop].reshape(p, -1), out=sols[:, start:stop].reshape(p, -1)
        )
        start = stop
    return patches.scatter @ sols.reshape((-1,) + r.shape[1:])


def schwarz_precondition(prec, sys, load):
    """Apply sum_z E_z A_z^{-1} R_z to a dual load (a vector or an (n,k) block).

    Returns the array; its support is the load's dilated by one cell layer.
    """
    return _patch_solve(prec.patches, np.asarray(load, dtype=float))


def schwarz_apply(prec, sys, v):
    """Apply the patch-projection sum P = (patch solve) o A; returns the array."""
    return _patch_solve(prec.patches, sys.A @ np.asarray(v, dtype=float))


def build_preconditioner(
    sys: AssembledSystem,
    mode: str = "adaptive",
    c_stable: float = 1.0,
    seed: int = 7,
) -> SchwarzPreconditioner:
    """Build patches, measure the extremes of P and pick the damping step.

    Both modes run spectral_extremes from seed. Theoretical mode takes
    theta from the constants, reading the widest valley of sys.field from
    analyze_geometry; adaptive mode uses theta = 2/(lam_min + lam_max), the
    step minimizing the contraction bound for a known spectrum.
    """
    consts = None
    if mode == "theoretical":
        width = analyze_geometry(sys.field).max_width
        consts = theoretical_constants(sys.field.grid.d, width, c_stable)
    elif mode != "adaptive":
        raise ValueError("mode must be 'theoretical' or 'adaptive', got %r" % (mode,))
    patches = build_patches(sys)
    lam_min, lam_max = spectral_extremes(patches, sys, seed=seed)
    theta = consts.theta if consts is not None else 2.0 / (lam_min + lam_max)
    return SchwarzPreconditioner(patches, theta, lam_min, lam_max, consts)


def spectral_extremes(patches, sys, iters: int = 48, seed: int = 7):
    """Extreme energy-Rayleigh values of P by the Lanczos three-term recurrence.

    P is self-adjoint in the energy inner product, so Lanczos needs only the
    two latest vectors: one patch solve and one product with A per step. It
    needs no reorthogonalization: lost orthogonality only duplicates Ritz
    values that have converged and leaves the extreme ones accurate (Paige,
    Linear Algebra Appl. 34, 1980).
    """
    A = sys.A
    rng = make_rng(seed)
    q = rng.standard_normal(sys.n)
    aq = A @ q
    nrm = math.sqrt(float(q @ aq))
    if nrm == 0.0:
        raise NumericalError("degenerate start vector in spectral estimation")
    q, aq = q / nrm, aq / nrm
    q_prev, beta, alphas, betas = 0.0, 0.0, [], []
    for _ in range(iters):
        w = _patch_solve(patches, aq)
        alpha = float(w @ aq)
        alphas.append(alpha)
        w -= alpha * q + beta * q_prev
        aw = A @ w
        beta = math.sqrt(max(float(w @ aw), 0.0))
        if beta < 1e-13:
            break
        betas.append(beta)
        q_prev, q, aq = q, w / beta, aw / beta
    ritz = eigvalsh_tridiagonal(alphas, betas[: len(alphas) - 1])
    return float(ritz[0]), float(ritz[-1])


@dataclass
class ContractionEstimate:
    gamma: float
    converged: bool
    history: list


def estimate_contraction(prec, sys) -> ContractionEstimate:
    """Energy-norm power iteration on id - theta P.

    The iteration matrix is symmetric in the energy inner product, so the
    norm ratio of successive iterates converges to the contraction factor
    from below. The iteration stops once the ratio changes by at most
    CONTRACTION_TOL relative; not converging in CONTRACTION_ITERS steps is
    flagged, not raised.
    It measures the factor of prec.step_gamma independently; no subcommand
    runs it, while tests and demos check the bounds against it.
    """
    A = sys.A
    x = make_rng(CONTRACTION_SEED).standard_normal(sys.n)
    ax = A @ x
    nrm = math.sqrt(float(x @ ax))
    x, ax = x / nrm, ax / nrm
    history, gamma, converged = [], 1.0, False
    for _ in range(CONTRACTION_ITERS):
        g = x - prec.theta * _patch_solve(prec.patches, ax)
        ag = A @ g
        nrm = math.sqrt(max(float(g @ ag), 0.0))
        if nrm == 0.0:
            gamma, converged = 0.0, True
            break
        prev, gamma = gamma, nrm
        history.append(gamma)
        x, ax = g / nrm, ag / nrm
        if len(history) > 4 and abs(gamma - prev) <= CONTRACTION_TOL * gamma:
            converged = True
            break
    return ContractionEstimate(gamma=gamma, converged=converged, history=history)


def _chebyshev(smoother, sys, load, u):
    """smoother.k_inner Chebyshev semi-iteration steps for A u = load, started at u.

    The recurrence runs on the interval {lam : |1 - theta lam| <= g} of P,
    g = smoother.prec.step_gamma (Saad, Iterative Methods for Sparse Linear
    Systems, 2003, Alg. 12.1; Golub & Varga, Numer. Math. 3, 1961), so the
    error after k steps is T_k((1 - theta P)/g) / T_k(1/g) times the
    starting error. The first step is exactly one damped Richardson step
    u + theta B r. Each step makes one patch solve and one product with A,
    and the last residual is never formed. Every update is a linear
    combination of exact zeros outside one more cell layer, so the support
    grows by one layer per step as in richardson_solve. Works on a vector
    or an (n,k) block; returns the new iterate and leaves u untouched.
    """
    prec = smoother.prec
    g = prec.step_gamma
    r = load - sys.A @ u
    d = prec.theta * _patch_solve(prec.patches, r)
    u = u + d
    rho = g
    for _ in range(1, smoother.k_inner):
        r -= sys.A @ d
        rho, rho_prev = 1.0 / (2.0 / g - rho), rho
        z = _patch_solve(prec.patches, r)
        z *= 2.0 * rho * prec.theta / g
        d *= rho * rho_prev
        d += z
        u += d
    return u


def pcg_solve(prec, sys, load):
    """Conjugate gradients for A u = load, preconditioned by the patch solve.

    The preconditioner B is _patch_solve itself (CG is blind to a scalar
    damping step, so theta plays no part). The spectral bounds of P = BA
    bound the iteration count independently of the potential contrast
    (Toselli & Widlund, Domain Decomposition Methods, 2005, ch. 2). The
    iteration stops once sqrt(r'Br / r0'Br0) <= PCG_STOP: with r = Ae,
    r'Br = e'A(BA)e is the squared energy norm of the error e up to the
    spectral bounds of P, which makes this the energy-norm stop of Arioli
    (Numer. Math. 97, 2004).

    Starting from zero, iterate k lies in the span of (BA)^j B load for
    j < k, so it vanishes exactly (bitwise 0.0) outside k cell layers of
    the load's support. Returns (u, iterations, final ratio). Raises
    NumericalError when p'Ap <= 0 or after MAX_PCG iterations.
    """
    load = np.asarray(load, dtype=float)
    u = np.zeros_like(load)
    r = load.copy()
    z = _patch_solve(prec.patches, r)
    p = z
    rho = rho0 = float(r @ z)
    ratio = 1.0 if rho0 > 0.0 else 0.0
    k = 0
    while ratio > PCG_STOP:
        if k == MAX_PCG:
            raise NumericalError(
                "PCG stopped at the limit of %d iterations with residual ratio %.3e above %.0e"
                % (MAX_PCG, ratio, PCG_STOP)
            )
        ap = sys.A @ p
        pap = float(p @ ap)
        if not pap > 0.0:
            raise NumericalError("PCG step %d: p'Ap = %.3e is not positive" % (k + 1, pap))
        alpha = rho / pap
        u += alpha * p
        r -= alpha * ap
        z = _patch_solve(prec.patches, r)
        rho, rho_prev = float(r @ z), rho
        p = z + (rho / rho_prev) * p
        ratio = math.sqrt(max(rho, 0.0) / rho0)
        k += 1
    return u, k, ratio


@dataclass
class RichardsonResult:
    """richardson_solve's output; bound_mask is the final certified mask | source_mask."""

    u: np.ndarray
    bound_mask: np.ndarray | None
    residuals: list
    errors: list | None
    support_cells: list


def richardson_solve(
    prec,
    sys,
    load,
    steps: int,
    source_mask=None,
    reference=None,
) -> RichardsonResult:
    """Damped patch-corrected Richardson iteration for A u = load.

    Starting from zero, every step adds theta times the patch solve of the
    residual. When source_mask (cells of the load's support) is given, each
    iterate is certified to lie within one cell layer of the previous
    iterate's measured mask united with source_mask, and support_cells
    records the measured masks. The union is needed because every step adds
    theta B load, whose support the previous iterate need not cover (its
    entries may cancel). The check is exact because untouched entries stay
    bitwise zero. reference, when given, is the exact solution and per-step
    energy errors are recorded.
    """
    load = np.asarray(load, dtype=float)
    src = bound = None if source_mask is None else np.asarray(source_mask, dtype=bool)
    u = np.zeros_like(load)
    residuals, support, errors = [], [], ([] if reference is not None else None)
    for _ in range(steps):
        r = load - sys.A @ u
        u = u + prec.theta * _patch_solve(prec.patches, r)
        residuals.append(float(np.linalg.norm(r)))
        if src is not None:
            bound = certify_support(sys.sub, u, bound, 1)
            support.append(int(bound.sum()))
            bound |= src
        if reference is not None:
            errors.append(energy_norm(sys, u - reference))
    return RichardsonResult(
        u=u, bound_mask=bound, residuals=residuals, errors=errors, support_cells=support
    )


@dataclass
class ComposedSmoother:
    """A Chebyshev semi-iteration of degree k_inner used as one approximate solve.

    prec.step_gamma is the one-step contraction g of id - theta P that sets
    the recurrence's interval; gamma = 1/T_k(1/g) bounds the energy-norm
    contraction of the composed map. Each of the k_inner steps makes one
    patch solve and grows a support by one cell layer.
    """

    prec: SchwarzPreconditioner
    k_inner: int
    gamma: float


def compose_smoother(prec, target_gamma: float) -> ComposedSmoother:
    """Pick the least Chebyshev degree k_inner whose contraction is <= target.

    The one-step contraction is g = prec.step_gamma, from the Lanczos
    extremes that build_preconditioner measured. Ritz extremes lie inside
    the spectrum, so g slightly under-estimates the true factor, and since
    T_k grows like k**2 just outside its interval a low g makes the bound
    optimistic. The power iteration (estimate_contraction) was never above
    g on any system measured, and alone it left the bound up to 2x
    optimistic at degree 39. The degree is ceil(arccosh(1/target) /
    arccosh(1/g)) and gamma = 1/cosh(k arccosh(1/g)) = 1/T_k(1/g); degree
    1 is one Richardson step, gamma = g.
    """
    if not 0.0 < target_gamma < 1.0:
        raise ValueError("target_gamma must lie in (0,1), got %r" % (target_gamma,))
    g = prec.step_gamma
    if g >= 1.0:
        raise NumericalError(
            "no contraction measured (one-step gamma=%.6f); cannot compose a smoother" % g
        )
    if g <= 0.0:
        return ComposedSmoother(prec=prec, k_inner=1, gamma=0.0)
    s = math.acosh(1.0 / g)
    # the tiny shave keeps exact Chebyshev values at their integer degree
    k = max(1, int(math.ceil(math.acosh(1.0 / target_gamma) / s - 1e-9)))
    if k > MAX_INNER:
        raise NumericalError(
            "composition needs %d inner steps, above the limit %d" % (k, MAX_INNER)
        )
    e = math.exp(-k * s)  # 1/cosh(ks) = 2 e / (1 + e**2) without overflow
    gamma = g if k == 1 else 2.0 * e / (1.0 + e * e)
    return ComposedSmoother(prec=prec, k_inner=k, gamma=gamma)
