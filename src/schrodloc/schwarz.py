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
certified mask are exactly 0.0. pcg_solve and richardson_solve turn that
into cost: started from zero, they run every product with A, patch solve
and vector update on the axis-0 band of node rows their iterates can have
reached, which grows by one cell layer per step, and on the whole torus
once the band reaches the axis-0 seam. Only their dot products and norms
stay global.

Patch matrices are dense (at most (2m-1)**d dofs) and inverted once per
local occupancy pattern: the restriction of A to a patch only depends on the
potential on the patch's 2**d cells, so patches sharing that pattern share
one explicit inverse. With the patches ordered by pattern, one application
is one gather and one matrix product per pattern group and a single sparse
scatter-add of the local solutions.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NumericalError
from .fem import AssembledSystem, certify_support, energy_norm
from .potential import _torus_boxes, analyze_geometry, make_rng

__all__ = [
    "ContractionConstants",
    "theoretical_constants",
    "PatchSet",
    "build_patches",
    "SchwarzPreconditioner",
    "build_preconditioner",
    "schwarz_precondition",
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
    """The layout of the vertex patches plus their shared local inverses.

    Vertices and nodes are in the C order of potential._torus_boxes
    (build_patches). groups maps an occupancy key to (patch ids, inverse of
    the shared patch matrix); the ids ascend, and the groups in turn lay the
    patches out in group order. gather holds one contiguous (p, len(ids))
    array per group, in the same order, whose column j is the box of
    interior nodes of the group's j-th patch. layer_start[g, v] is the index
    in group g of its first patch in vertex layer >= v along axis 0, for v
    in 0..inv_eps, so the patches of vertex layers v0:v1 are the columns
    layer_start[g, v0]:layer_start[g, v1] of gather[g]. scatter is the
    (n, n_patches * p) 0/1 matrix that adds the flattened (p, n_patches)
    local solutions, columns in group order, back into global dofs.
    """

    groups: dict
    gather: list
    layer_start: np.ndarray
    scatter: sp.csr_matrix

    @property
    def n_patches(self):
        return self.scatter.shape[1] // self.patch_size

    @property
    def patch_size(self):
        return self.gather[0].shape[0]


def build_patches(sys: AssembledSystem) -> PatchSet:
    """Enumerate the vertex patches and invert one matrix per cell pattern.

    Vertex v (in C order on the cell torus) has the (2m-1)-box of interior
    nodes from node v*m - (m-1) and the 2-box of cells from cell v - 1
    (_torus_boxes).
    """
    sub = sys.sub
    d, m, v = sub.grid.d, sub.m, np.arange(sub.grid.inv_eps)
    dof_idx = _torus_boxes(sub.n_axis, [v * m - (m - 1)] * d, 2 * m - 1)
    patch_cells = _torus_boxes(sub.grid.inv_eps, [v - 1] * d, 2)

    occ = sys.field.occupancy.ravel()
    bits = occ[patch_cells].astype(np.int64)
    keys = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))

    groups = {}
    for key in keys[np.sort(np.unique(keys, return_index=True)[1])]:
        ids = np.flatnonzero(keys == key)
        rep = dof_idx[ids[0]]
        groups[int(key)] = (ids, _local_inverse(sys.A[np.ix_(rep, rep)].toarray()))
    gather = [np.ascontiguousarray(dof_idx[ids].T) for ids, _ in groups.values()]
    layers = np.arange(sub.grid.inv_eps + 1) * sub.grid.inv_eps ** (d - 1)
    layer_start = np.stack([np.searchsorted(ids, layers) for ids, _ in groups.values()])
    rows = np.concatenate(gather, axis=1).ravel()
    scatter = sp.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))), shape=(sys.n, rows.size))
    return PatchSet(groups, gather, layer_start, scatter)


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


def _local_solves(patches: PatchSet, r, sols, v0, v1):
    """Solve the patches of vertex layers v0:v1 of every group, in group order.

    Gathers those patches' loads from r, multiplies them by their group's
    shared inverse and writes the local solutions to their columns of sols,
    a (p, n_patches) + r.shape[1:] array in group order; other columns are
    left as they are.
    """
    p, start = patches.patch_size, 0
    first, last = patches.layer_start[:, v0], patches.layer_start[:, v1]
    for (ids, inv), dofs, a, b in zip(patches.groups.values(), patches.gather, first, last):
        loads = np.take(r, dofs[:, a:b], axis=0)
        np.matmul(inv, loads.reshape(p, -1), out=sols[:, start + a : start + b].reshape(p, -1))
        start += len(ids)


def _patch_solve(patches: PatchSet, r):
    """Sum of zero-extended local solves; accepts a vector or an (n,k) block.

    Solves every patch (_local_solves) and scatter-adds the local solutions.
    Patches with an all-zero load contribute bitwise zeros (inv @ 0 = 0 and
    the scatter sums exact zeros), so entries never touched by a loaded
    patch stay exactly 0.0; the support statements rely on that.
    """
    sols = np.empty((patches.patch_size, patches.n_patches) + r.shape[1:])
    _local_solves(patches, r, sols, 0, patches.layer_start.shape[1] - 1)
    return patches.scatter @ sols.reshape((-1,) + r.shape[1:])


def schwarz_precondition(prec, sys, load):
    """Apply sum_z E_z A_z^{-1} R_z to a dual load (a vector or an (n,k) block).

    Returns the array; its support is the load's dilated by one cell layer.
    The patch-projection sum is P v = schwarz_precondition(prec, sys, sys.A @ v).
    """
    return _patch_solve(prec.patches, np.asarray(load, dtype=float))


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


class _Band:
    """The axis-0 band of node rows that a solve started from a load can reach.

    Nodes and vertices are in the C order of potential._torus_boxes (axis 0
    slowest), so node rows lo:hi along axis 0 are one contiguous row range
    of A and of PatchSet.scatter, and _local_solves solves the patches of
    vertex layers v0:v1 alone (PatchSet.layer_start).

    The band starts at the rows where the load is nonzero. A product with A
    couples node rows x-1, x and x+1, so it grows the band by one row; the
    patches of vertex layer v write the interior rows v*m-m+1 .. v*m+m-1
    and are loaded only where those rows meet the band. From a band a patch
    solve left, a product and a patch solve thus grow it by exactly m rows,
    one cell layer, on each side: the support lemma of the patch operator. Off the band every
    iterate is exactly 0.0, so a product or patch solve computed on the
    band alone gives the same rows as the global one (the local matmuls see
    fewer columns and may round differently in the last bit). A band that
    reaches the axis-0 seam would wrap; from then on it is the whole torus
    and A and scatter are used whole.

    product and solve return full-length buffers, zero off the band, that
    the next call of the same method overwrites.
    """

    def __init__(self, patches: PatchSet, sys, load):
        sub = sys.sub
        self.m, self.n_axis, self.n_cells = sub.m, sub.n_axis, sub.grid.inv_eps
        self.row = sys.n // self.n_axis
        self.A, self.patches = sys.A, patches
        self.ax, self.z = np.zeros_like(load), np.zeros_like(load)
        self.sols = np.zeros((patches.patch_size, patches.n_patches) + load.shape[1:])
        self.lo, self.hi = 0, self.n_axis  # a zero load keeps the whole torus
        rows = np.flatnonzero(load.reshape(self.n_axis, -1).any(axis=1))
        if rows.size:
            self._grow(rows[0], rows[-1] + 1)

    def _grow(self, lo, hi):
        """Make the band node rows lo:hi, or the whole torus if they would wrap."""
        if 0 <= lo and hi <= self.n_axis:
            self.lo, self.hi = int(lo), int(hi)
        else:
            self.lo, self.hi = 0, self.n_axis

    @property
    def dofs(self):
        return slice(self.lo * self.row, self.hi * self.row)

    def _rows(self, mat):
        """The band's rows of the CSR matrix mat, sharing its data and indices."""
        if (self.lo, self.hi) == (0, self.n_axis):
            return mat
        lo, hi = self.lo * self.row, self.hi * self.row
        s, e = mat.indptr[lo], mat.indptr[hi]
        # a CSR built from a CSR matrix shares its arrays, and shrinking it
        # only slices them; a CSR built from sliced arrays would copy them
        rows = sp.csr_matrix(mat)
        rows.resize(hi - lo, mat.shape[1])
        rows.indptr = mat.indptr[lo : hi + 1] - s
        rows.indices, rows.data = mat.indices[s:e], mat.data[s:e]
        return rows

    def product(self, x):
        """A x for x zero off the band; grows the band by one node row."""
        self._grow(self.lo - 1, self.hi + 1)
        self.ax[self.dofs] = self._rows(self.A) @ x
        return self.ax

    def solve(self, r):
        """The patch solve of r zero off the band; grows the band to its support."""
        m = self.m
        # vertex layers v0:v1 whose interior rows v*m-m+1 .. v*m+m-1 meet the band
        v0, v1 = self.lo // m, (self.hi + m - 2) // m + 1
        if v0 < 1 or v1 > self.n_cells:  # the patches of vertex layer 0 wrap
            v0, v1 = 0, self.n_cells
        self._grow(v0 * m - m + 1, v1 * m)
        _local_solves(self.patches, r, self.sols, v0, v1)
        sols = self.sols.reshape((-1,) + r.shape[1:])
        self.z[self.dofs] = self._rows(self.patches.scatter) @ sols
        return self.z


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
    the load's support. Each step therefore runs its product with A, its
    patch solve and its updates of u, r and p on the axis-0 band of node
    rows those layers span (_Band), which is exact: the rows off the band
    are 0.0 in every operand, so the band's rows come out as the global
    ones, up to the last-bit rounding of local matmuls over fewer columns.
    The dot products stay global, summed over the same full vectors as
    without the band. Returns (u, iterations, final ratio). Raises
    NumericalError when p'Ap <= 0 or after MAX_PCG iterations.
    """
    load = np.asarray(load, dtype=float)
    band = _Band(prec.patches, sys, load)
    u = np.zeros_like(load)
    r = load.copy()
    p = band.solve(r).copy()
    rho = rho0 = float(r @ p)
    ratio = 1.0 if rho0 > 0.0 else 0.0
    k = 0
    while ratio > PCG_STOP:
        if k == MAX_PCG:
            raise NumericalError(
                "PCG stopped at the limit of %d iterations with residual ratio %.3e above %.0e"
                % (MAX_PCG, ratio, PCG_STOP)
            )
        ap = band.product(p)
        pap = float(p @ ap)
        if not pap > 0.0:
            raise NumericalError("PCG step %d: p'Ap = %.3e is not positive" % (k + 1, pap))
        alpha = rho / pap
        b = band.dofs
        u[b] += alpha * p[b]
        r[b] -= alpha * ap[b]
        z = band.solve(r)
        rho, rho_prev = float(r @ z), rho
        b = band.dofs
        p[b] *= rho / rho_prev
        p[b] += z[b]
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
    bitwise zero. For the same reason each step computes its residual and
    its patch solve only on the axis-0 band of node rows the iterate can
    have reached, one cell layer wider per step (_Band, as in pcg_solve);
    the certificate, the residual norm and the errors are still measured on
    the whole torus. reference, when given, is the exact solution and
    per-step energy errors are recorded.
    """
    load = np.asarray(load, dtype=float)
    src = bound = None if source_mask is None else np.asarray(source_mask, dtype=bool)
    band = _Band(prec.patches, sys, load)
    u, r = np.zeros_like(load), np.zeros_like(load)
    residuals, support, errors = [], [], ([] if reference is not None else None)
    for _ in range(steps):
        au = band.product(u)
        b = band.dofs
        r[b] = load[b] - au[b]
        z = band.solve(r)
        b = band.dofs
        u[b] += prec.theta * z[b]
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
