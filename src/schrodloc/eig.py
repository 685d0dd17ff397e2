"""Eigenvalue oracles and support-tracked iterations for the lowest states.

Two solver-backed oracles (dense LAPACK below a dof limit, shift-invert
above it) provide certified reference pairs. Shift-invert certifies each
pair at ||A v - lam M v|| / ||M v|| <= ORACLE_TOL |lam| (1e-8), raising
NumericalError with no retry for a pair that misses it. Its ground pair
comes from LOBPCG preconditioned by a multigrid V-cycle, which factors only
the coarsest torus subgrid, wherever a coarse level exists (_ground_pair).
The levels are the system assembled at coarser m while 2 or 3 divides m,
then Galerkin triple products on n_axis halved while it is even
(_galerkin). Every other pair comes from ARPACK on
sys.solve, the system's one sparse LU and the fine operator's only factor.
_arpack is that one ARPACK call, from one seeded start or a given one; it
also finds the cycle's coarse ground vector, and after a LOBPCG stall it
starts from the LOBPCG iterate.
Eigenvalues alone (_lowest_values) take one of three routes: a
translation-invariant field's come from its Bloch blocks (_bloch_values),
exact at any size; those of any other 1D field up to DENSE_LIMIT dofs come
from LAPACK's banded generalized solver dsbgv (_band_values), within 1e-11
relative of the dense solve's; every other field's are auto_oracle's.

The localized iterations never factor the global operator.

All four iterations run one loop, _iterate, on an (n,k) block; the vector
methods are its one-column case:

* inverse_power: the classical scaled inverse iteration, used as the exact
  reference dynamics (it does solve globally, via sys.solve).
* pinvit: the preconditioned variant. Its step, pinvit_step, realizes the
  update v + (approximate solve of A u = e1 M v, warm-started at v) as a
  Chebyshev semi-iteration of degree k_inner on the patch solve, so each
  outer step touches only k_inner extra cell layers and needs no global
  solve at all.
* block_iteration and inexact_block_iteration: the same two steps on K
  vectors at once; the inexact block iteration is the localized algorithm
  whose final combination is checked against the oracle in verification
  runs.

Every method records the same history keys: rayleigh, support_cells, err
and rate (see IterationState).

Errors are measured in the energy norm after projecting out the target
eigenfunction: err(v) = ||| v - c* u1 ||| with c* the a-orthogonal
coefficient, which is the quantity the contraction statements control.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from .errors import NumericalError
from .fem import (
    AssembledSystem,
    SubgridSpec,
    _factor,
    _pencil,
    certify_support,
    energy_norm,
    mask_allows,
    mask_of_vector,
    mass_norm,
    rayleigh,
)
from .potential import _torus_boxes, make_rng
from .schwarz import ComposedSmoother, _chebyshev

__all__ = [
    "Spectrum",
    "dense_oracle",
    "shift_invert_oracle",
    "auto_oracle",
    "energy_error_to",
    "IterationState",
    "inverse_power",
    "pinvit_step",
    "pinvit",
    "StartBlock",
    "build_start_valleys",
    "block_iteration",
    "outer_steps",
    "inexact_block_iteration",
]

DENSE_LIMIT = 4096
ORACLE_TOL = 1e-8  # shift-invert residual certificate, relative to |lam|
MAX_LOBPCG = 1000  # ground-pair LOBPCG iterations before the handover to ARPACK
SHIFT = 0.8  # ground-pair cycle shift over the coarse Rayleigh quotient
COARSE_TOL = 1e-4  # ARPACK tolerance of the coarse ground vector
MAX_OUTER = 1000  # most outer steps a block iteration may be sized to


@dataclass
class Spectrum:
    """Ascending eigenvalues with M-orthonormal vectors and residual certificates."""

    values: np.ndarray
    vectors: np.ndarray
    method: str
    residuals: np.ndarray


def _sign_fixed(V):
    V = V.copy()
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


def _residuals(sys, values, vectors):
    res = np.empty(len(values))
    for j, lam in enumerate(values):
        v = vectors[:, j]
        res[j] = np.linalg.norm(sys.A @ v - lam * (sys.M @ v)) / max(
            np.linalg.norm(sys.M @ v), 1e-300
        )
    return res


def dense_oracle(sys: AssembledSystem, n_ev: int) -> Spectrum:
    """Full generalized symmetric solve; only for systems up to DENSE_LIMIT dofs."""
    if sys.n > DENSE_LIMIT:
        raise ValueError(
            "dense oracle refused at n=%d (limit %d); use shift_invert_oracle"
            % (sys.n, DENSE_LIMIT)
        )
    if not 1 <= n_ev <= sys.n:
        raise ValueError("n_ev must lie in [1, %d], got %d" % (sys.n, n_ev))
    w, V = sla.eigh(sys.A.toarray(), sys.M.toarray(), subset_by_index=[0, n_ev - 1])
    V = _sign_fixed(V)
    return Spectrum(values=w, vectors=V, method="dense", residuals=_residuals(sys, w, V))


def shift_invert_oracle(sys: AssembledSystem, n_ev: int) -> Spectrum:
    """The lowest n_ev pairs around the shift 0, with residual certification.

    The shift 0 sits below the positive spectrum, so the lowest pairs come
    out. The ground pair comes from _ground_pair, which calls sys.solve only
    where no coarse level exists or LOBPCG stalls. Two or more pairs come
    from ARPACK applying (A - 0 M)^{-1} = A^{-1} through sys.solve, so they
    share the one fill-reducing factorization of every other global solve
    on the system. For them ARPACK runs to machine precision (its tol=0),
    because only the rounding of that long a run brings out the further
    copies of a degenerate eigenvalue; an earlier stop returns the next
    eigenvalue up in their place, with residuals that pass.

    A residual ||A v - lam M v|| / ||M v|| has the units of lam, so it is
    certified against ORACLE_TOL * |lam|; one above that, or a NaN one,
    raises NumericalError, with no retry. So does a failed factorization, a
    non-finite LOBPCG direction or an ARPACK failure (for the ground pair,
    on its coarse level or on the handover). An n_ev outside [1, n - 1]
    raises ValueError.
    """
    if not 1 <= n_ev < sys.n:
        raise ValueError("shift-invert needs n_ev in [1, %d], got %d" % (sys.n - 1, n_ev))
    if n_ev == 1:
        w, V = _ground_pair(sys)
    else:
        w, V = _arpack(sys.A, sys.M, n_ev, sys.solve, 0.0, "shift-invert oracle")
    V = _sign_fixed(V)
    res = _residuals(sys, w, V)
    rel = res / np.abs(w)
    if not np.all(rel <= ORACLE_TOL):  # a NaN residual fails too
        raise NumericalError(
            "shift-invert residuals %.3e relative to |lambda| exceed tol %.1e"
            % (rel.max(), ORACLE_TOL)
        )
    return Spectrum(values=w, vectors=V, method="shift-invert", residuals=res)


def _arpack(A, M, k, solve, tol, what, v0=None):
    """The k lowest pairs of (A, M), ascending, by ARPACK in shift-invert
    mode around 0 to tolerance tol, solve applying A^{-1}, from the start v0
    or, by default, a seeded one. An ARPACK failure raises
    NumericalError("<what> failed: ...")."""
    a_inv = spla.LinearOperator(A.shape, matvec=solve, dtype=float)
    if v0 is None:
        v0 = make_rng(1097).standard_normal(A.shape[0])
    try:
        w, V = spla.eigsh(A, k=k, M=M, sigma=0.0, which="LM", v0=v0, OPinv=a_inv, tol=tol)
    except spla.ArpackError as exc:  # no convergence, ARPACK info codes
        raise NumericalError("%s failed: %s" % (what, exc))
    order = np.argsort(w)
    return w[order], V[:, order]


def _ground_pair(sys):
    """Lowest pair of (A, M): single-vector LOBPCG preconditioned by one
    V-cycle for A - sigma M per step, sigma below E1 (Knyazev 2001; Knyazev
    & Neymeyr 2003), wherever _galerkin finds a coarse level. Otherwise, and
    once LOBPCG has spent MAX_LOBPCG iterations, the pair comes from
    _arpack on sys.solve, the system's one sparse LU, to 1e-2 ORACLE_TOL:
    from the seeded start without a coarse level, from the LOBPCG iterate
    after the cap, which already lies close to the ground space.

    An eigensolver with a preconditioner that is only spectrally equivalent
    to A - sigma M converges to the ground pair, so no exact inverse is
    needed. Each step runs Rayleigh-Ritz on {x, T r, p}: the iterate, the
    preconditioned residual r = A x - lam M x and the previous update. The
    three directions and their products with A and M are rows of
    preallocated (3, n) arrays, each scaled to unit M-norm; p is dropped for
    a step whose Gram matrix in M is not positive definite. The iteration
    stops once ||r|| <= 1e-2 ORACLE_TOL |lam| ||M x||, a hundredth of the
    certificate shift_invert_oracle then checks.

    The shift sets the rate: it is governed by the relative gap
    (E2 - E1) / (E2 - sigma) of the pencil the cycle inverts, not by the
    cycle's quality, so a nearly degenerate ground state (the periodic
    field's lowest cluster) stalls it and reaches the handover. The
    iteration starts from the vector _hierarchy returns with sigma. A
    Rayleigh quotient is never below E1, so a Ritz value at or below sigma,
    or a cycle output T r with (T r)^T (A - sigma M) T r <= 0, proves
    sigma >= E1: the levels are then rebuilt at sigma = 0, the cycle for A,
    and the iteration goes on from its current iterate. Returns ([lam], x
    as an (n, 1) block, M-unit).
    """
    hierarchy, start = _hierarchy(sys), None
    if hierarchy is not None:
        levels, coarse, sigma, x = hierarchy
        X, AX, MX = (np.empty((3, sys.n)) for _ in range(3))  # rows: x, T r, p
        X[0], AX[0], MX[0] = x, sys.A @ x, sys.M @ x
        lam = float(X[0] @ AX[0]) / float(X[0] @ MX[0])
        use = 2  # directions in the Rayleigh-Ritz basis: 3 once p exists
        for _ in range(MAX_LOBPCG):
            r = AX[0] - lam * MX[0]
            if np.linalg.norm(r) <= 1e-2 * ORACLE_TOL * abs(lam) * np.linalg.norm(MX[0]):
                return np.array([lam]), (X[0] / math.sqrt(float(X[0] @ MX[0])))[:, None]
            X[1] = _vcycle(levels, coarse, r)
            AX[1], MX[1] = sys.A @ X[1], sys.M @ X[1]
            if sigma and (lam <= sigma or float(X[1] @ AX[1]) <= sigma * float(X[1] @ MX[1])):
                # sigma >= E1 is proved: go on with the cycle for A
                levels, coarse, sigma, _ = _hierarchy(sys, shifted=False)
                continue
            for j in range(use):
                scale = 1.0 / math.sqrt(abs(float(X[j] @ MX[j])))
                X[j] *= scale
                AX[j] *= scale
                MX[j] *= scale
            lam, c = _ritz(X, AX, MX, use)
            use = len(c)
            # p <- c1 T r + c2 p and x <- c0 x + p, on all three products
            for Y in (X, AX, MX):
                Y[2] = c[1:] @ Y[1:use]
                Y[0] *= c[0]
                Y[0] += Y[2]
            use = 3
        start = X[0]
    return _arpack(sys.A, sys.M, 1, sys.solve, 1e-2 * ORACLE_TOL, "ground-pair ARPACK", start)


def _ritz(X, AX, MX, use):
    """Lowest Ritz pair on the first `use` directions; (lam, coefficients).

    The coefficients of p are left out, and the pair recomputed on x and
    T r alone, when the Gram matrix in M is not positive definite.
    """
    GA, GM = X[:use] @ AX[:use].T, X[:use] @ MX[:use].T
    if not (np.isfinite(GA).all() and np.isfinite(GM).all()):
        raise NumericalError("ground-pair LOBPCG met a non-finite direction")
    try:
        w, c = sla.eigh(GA, GM, subset_by_index=[0, 0])
    except np.linalg.LinAlgError:
        if use == 2:
            raise NumericalError("ground-pair LOBPCG basis lost positive mass")
        return _ritz(X, AX, MX, 2)
    return float(w[0]), c[:, 0]


def _interpolation(n_c, f):
    """1D periodic linear interpolation from n_c coarse to f n_c fine nodes:
    coarse node i sits at fine node f i, and fine node f i + j (0 < j < f)
    takes 1 - j/f of coarse node i and j/f of node (i+1) mod n_c."""
    i, j = np.arange(n_c), np.arange(1, f)
    between = (f * i[:, None] + j).ravel()  # fine nodes f i + j, 0 < j < f
    rows = np.concatenate([f * i, between, between])
    cols = np.concatenate([i, np.repeat(i, f - 1), np.repeat((i + 1) % n_c, f - 1)])
    vals = np.concatenate([np.ones(n_c), np.tile(1 - j / f, n_c), np.tile(j / f, n_c)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(f * n_c, n_c))


def _galerkin(sys):
    """The Galerkin pencil on the nested torus subgrids: [(A, M, P)] from the
    fine level down, P None on the coarsest.

    A level with more than DENSE_LIMIT dofs gets the coarse grid of n_axis / f
    nodes per axis, where it has one. Its prolongation P is the d-fold
    Kronecker product of _interpolation(n_axis / f, f) (node order of
    SubgridSpec), the exact inclusion of the coarse Q1 space, and the
    coarse pencil is (P^T A P, P^T M P). So a coarse Rayleigh quotient is
    the fine one of the prolonged vector, and by min-max never below E1.

    While 2 or 3 divides the level's m nodes per cell, f is the smaller of
    them that does, and the coarse pencil is assembled at m / f
    (fem._pencil) instead of multiplied out: the coarse elements still lie
    in one cell each, where V is constant, so the assembled pencil is
    P^T A P, P^T M P to rounding (Hackbusch, Multi-Grid Methods and
    Applications, 1985), at a fraction of the cost of the sparse triple
    products. Otherwise (the cell grid, m = 1, or an m with no factor 2 or
    3) f is 2 and the pencil is the triple product, and an odd n_axis stops
    the hierarchy there. A coarse grid below the cell grid no longer
    resolves V; coarsening the cell grid by f = 3 left the coarse ground
    vector in the wrong well often enough that LOBPCG returned an excited
    pair (1D iid 6561, m 3: 2 seeds of 10), and larger ratios were never
    tried.
    """
    field, grid = sys.field, sys.sub.grid
    A, M, m, n1, pencil = sys.A, sys.M, sys.sub.m, sys.sub.n_axis, []
    while A.shape[0] > DENSE_LIMIT:
        f = next((f for f in (2, 3) if m % f == 0), 2 if n1 % 2 == 0 else None)
        if f is None:
            break
        P1 = _interpolation(n1 // f, f)
        P = P1
        for _ in range(grid.d - 1):
            P = sp.kron(P, P1, format="csr")
        pencil.append((A, M, P))
        if m % f == 0:
            m //= f
            A, M = _pencil(field, SubgridSpec(grid, m))[:2]
        else:
            A, M = (P.T @ (A @ P)).tocsr(), (P.T @ (M @ P)).tocsr()
        n1 //= f
    pencil.append((A, M, None))
    return pencil


def _hierarchy(sys, shifted=True):
    """Multigrid levels for A - sigma M on the Galerkin pencil (_galerkin:
    assembled at each coarser m while 2 or 3 divides it, triple products
    after), or None where it has no level below the fine one, as on an odd
    cell grid (m = 1): the ground pair then takes the system's own LU
    (_ground_pair).

    shifted: sigma = SHIFT RQ_c(x_c), x_c the coarsest pencil's ground
    vector (_arpack to COARSE_TOL) and RQ_c its Rayleigh quotient. The
    coarse space is nested in the fine one, so RQ_c bounds E1 from above,
    and SHIFT keeps sigma below E1 with margin. Otherwise sigma = 0.

    Each coarse level holds S = A - sigma M, the coarsest one factored. The
    finest holds the system's A itself: its smoother acts on high modes,
    which the shift barely moves, while the coarse correction carries the
    shift to the low ones, and so no fine matrix is added or factored.
    Returns ([(S, P, w)] from the fine level down, the solve of the coarsest
    S (_factor), sigma, x_c prolonged to the fine grid or None at sigma =
    0); w is the damped Jacobi weight 1 / (g s_ii), with g = max_i sum_j
    |s_ij| / s_ii a Gershgorin bound on the spectrum of diag(S)^{-1} S, so
    the sweep converges with no tuning. The levels are built from the
    coarsest up, so each unshifted level is dropped once shifted, and the
    unshifted coarse LU lives only through the one ARPACK call.
    """
    pencil = _galerkin(sys)
    A, M, _ = pencil.pop()
    if not pencil:
        return None
    sigma, x = 0.0, None
    if shifted:
        _, X = _arpack(A, M, 1, _factor(A), COARSE_TOL, "ground-pair LOBPCG coarse start")
        x = X[:, 0]
        sigma = SHIFT * float(x @ (A @ x)) / float(x @ (M @ x))
    coarse, levels = _factor(A - sigma * M if sigma else A), []
    while pencil:  # coarse to fine, each unshifted level dropped once shifted
        A, M, P = pencil.pop()
        S = A - sigma * M if sigma and pencil else A  # the finest level smooths A
        diag = S.diagonal()
        g = float((np.add.reduceat(np.abs(S.data), S.indptr[:-1]) / diag).max())
        levels.insert(0, (S, P, 1.0 / (g * diag)))
        if x is not None:
            x = P @ x
    return levels, coarse, sigma, x


def _vcycle(levels, coarse, r):
    """One symmetric V-cycle from x = 0 on the levels of _hierarchy: an
    approximation of (A - sigma M)^{-1} r.

    One damped Jacobi sweep before and one after each coarse correction
    (a second sweep each side saved at most 3 LOBPCG iterations, too few to
    pay for it), the coarsest level solved exactly. The cycle is symmetric,
    and positive definite while the coarsest S is, which sigma below E1
    ensures. A loop over the levels, not a recursion, so nothing holds the
    hierarchy once the caller drops it.
    """
    down = []
    for A, P, w in levels:
        x = w * r
        down.append((r, x))
        r = P.T @ (r - A @ x)
    x = coarse(r)
    for (A, P, w), (r, xf) in zip(reversed(levels), reversed(down)):
        x = xf + P @ x
        x += w * (r - A @ x)
    return x


def auto_oracle(sys: AssembledSystem, n_ev: int) -> Spectrum:
    """The lowest n_ev pairs: dense up to DENSE_LIMIT dofs, shift-invert above."""
    if sys.n <= DENSE_LIMIT:
        return dense_oracle(sys, n_ev)
    return shift_invert_oracle(sys, n_ev)


def _lowest_values(sys: AssembledSystem, n_ev: int) -> np.ndarray:
    """The lowest n_ev eigenvalues alone, by one of three routes.

    A translation-invariant field takes the exact Bloch route
    (_bloch_values): its inv_eps is even, its values equal their np.roll by
    2 cells along every axis, and a block of (2m)^d nodes is within
    DENSE_LIMIT. The guard reads the values, not field.kind. The Bloch
    values agree with dense_oracle's to 5e-14 relative, with every copy of
    a degenerate eigenvalue, at any n. Any other 1D field up to DENSE_LIMIT
    dofs takes the band route (_band_values): its pencil is cyclic
    tridiagonal, so LAPACK's banded generalized solver finds its values in
    O(n^2), within 1e-11 relative of dense_oracle's (both solvers are
    backward stable; the gap is rounding of order eps lam_max / lam). Every
    other field takes auto_oracle's values, which alone chooses between the
    dense and the shift-invert oracle.
    """
    g, v, p = sys.field.grid, sys.field.values(), 2 * sys.sub.m
    if (
        g.inv_eps % 2 == 0
        and p ** g.d <= DENSE_LIMIT
        and all(np.array_equal(v, np.roll(v, 2, axis=a)) for a in range(g.d))
    ):
        return _bloch_values(sys.A, sys.M, g.d, g.inv_eps // 2, p, n_ev)
    if g.d == 1 and sys.n <= DENSE_LIMIT:
        return _band_values(sys.A, sys.M, n_ev)
    return auto_oracle(sys, n_ev).values


def _band_values(A, M, n_ev):
    """The lowest n_ev eigenvalues of a symmetric-definite pencil (A, M)
    that is banded once its nodes are interleaved, as a 1D torus pencil is.

    A and M of a 1D torus couple each node with its two neighbours, so
    they are cyclic tridiagonal. In the node order 0, n-1, 1, n-2, ... both
    are banded; the half-width k is read off their pattern (1 at n = 2, 2
    from n = 3 on). LAPACK's dsbgv (Crawford, Comm. ACM 16, 1973) splits
    the Cholesky factor of M (dpbstf), reduces the pencil to a band matrix
    of the same width (dsbgst), then to tridiagonal form (dsbtrd), and
    finds all n values by dsterf: O(k n^2) against the dense solve's
    O(n^3). An n_ev outside [1, n] raises ValueError; a LAPACK failure (M
    not positive definite, or no convergence) raises NumericalError.
    """
    n = A.shape[0]
    if not 1 <= n_ev <= n:
        raise ValueError("n_ev must lie in [1, %d], got %d" % (n, n_ev))
    j = np.arange(n)
    at = np.where(2 * j < n, 2 * j, 2 * (n - j) - 1)  # place of node j in 0, n-1, 1, ...
    coo = [X.tocoo() for X in (A, M)]
    k = max(int(np.max(at[X.col] - at[X.row])) for X in coo)  # symmetric: max >= 0
    AB, BB = np.zeros((2, n, k + 1))  # row j: column j of LAPACK's upper band storage
    for band, X in zip((AB, BB), coo):
        r, c = at[X.row], at[X.col]
        up = r <= c
        np.add.at(band, (c[up], (k + r - c)[up]), X.data[up])
    w, work, z = np.empty(n), np.empty(3 * n), np.empty(1)
    n_, k_, ld, one, info = (ctypes.c_int(x) for x in (n, k, k + 1, 1, 0))
    ptr = ctypes.byref
    _dsbgv()(
        b"N", b"U", ptr(n_), ptr(k_), ptr(k_), AB.ctypes.data, ptr(ld), BB.ctypes.data,
        ptr(ld), w.ctypes.data, z.ctypes.data, ptr(one), work.ctypes.data, ptr(info),
    )
    if info.value > n:
        raise NumericalError("band solve: M is not positive definite")
    if info.value > 0:
        raise NumericalError("band solve: dsterf did not converge (%d entries left)" % info.value)
    if info.value < 0:
        raise NumericalError("band solve: dsbgv rejected its argument %d" % -info.value)
    return w[:n_ev]


def _dsbgv():
    """LAPACK's dsbgv from scipy.linalg.cython_lapack, as a ctypes function
    of 14 pointers: the address its PyCapsule holds (read the way numba's
    get_cython_function_address reads it)."""
    capsule = cython_lapack.__pyx_capi__["dsbgv"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(pointer(capsule, name(capsule)))


def _bloch_values(A, M, d, L, p, n_ev):
    """The lowest n_ev eigenvalues of (A, M) on a torus of L p nodes per
    axis, both matrices unchanged by shifts of p nodes along every axis.

    The DFT over the L^d unit cells splits the pencil into L^d Hermitian
    blocks of size p^d, and the spectrum is the union of theirs
    (Bloch-Floquet; Davis, Circulant Matrices, 1979): exact to rounding,
    with every copy of a degenerate eigenvalue. A and M are exactly
    symmetric, so the rows of the unit cell at the origin are its columns.
    Their entries are grouped by the cell offset c of the other node, mod L
    (so L = 1 and 2 sum the wrapped copies), and block k is
    H(k) = sum_c a_c exp(-2 pi i k.c / L). The blocks are solved in
    batches of at most 2^16 entries (one block, where a block is larger): a
    batched Cholesky of the mass block and eigvalsh. An n_ev outside [1, n]
    raises ValueError.
    """
    n, q = A.shape[0], p ** d
    if not 1 <= n_ev <= n:
        raise ValueError("n_ev must lie in [1, %d], got %d" % (n, n_ev))
    cell = _torus_boxes(L * p, [[0]] * d, p)[0]
    parts = []
    for X in (A, M):
        rows = X[cell].tocoo()
        node = np.unravel_index(rows.col, (L * p,) * d)
        c = np.ravel_multi_index([x // p for x in node], (L,) * d)
        at = np.ravel_multi_index([x % p for x in node], (p,) * d) * q + rows.row
        parts.append([(o, at[c == o], rows.data[c == o]) for o in np.unique(c)])
    roots = np.exp(-2j * np.pi * np.arange(L) / L)
    ks = np.indices((L,) * d).reshape(d, -1).T
    batch, values = max(1, 2 ** 16 // q ** 2), []
    for lo in range(0, L ** d, batch):
        kb = ks[lo : lo + batch]
        H = np.zeros((2, len(kb), q * q), complex)
        for h, part in zip(H, parts):
            for o, at, val in part:
                h[:, at] += roots[kb @ np.unravel_index(o, (L,) * d) % L][:, None] * val
        HA, HM = H.reshape(2, -1, q, q)
        C = np.linalg.inv(np.linalg.cholesky(HM))
        values.append(np.linalg.eigvalsh(C @ HA @ C.conj().transpose(0, 2, 1)).ravel())
    return np.sort(np.concatenate(values))[:n_ev]


# ---------------------------------------------------------------------------
# error measure and iteration bookkeeping


def energy_error_to(sys: AssembledSystem, v, u1) -> float:
    """min_c ||| v - c u1 |||: energy distance to the line spanned by u1."""
    au1 = sys.A @ u1
    c = float(v @ au1) / float(u1 @ au1)
    return energy_norm(sys, v - c * u1)


@dataclass
class IterationState:
    """Final (n,k) block, its stacked column masks (None for global methods)
    and the history every method records alike.

    history holds four lists under the same keys for all four methods:
    rayleigh (Rayleigh quotient of column 0 after each step), support_cells
    (largest column support after each step; empty for global methods), err
    (energy error of the combined iterate V x to u1, start included; empty
    without u1) and rate (each err over the one before it).
    """

    block: np.ndarray
    masks: np.ndarray | None
    history: dict


def _iterate(sys, smoother, e1, V, masks, x, u1, steps) -> IterationState:
    """The one loop of every inverse iteration here, on an (n,k) block V.

    A step is the exact e1 A^{-1} M V without a smoother and pinvit_step,
    which certifies and carries masks, with one. Errors are measured on
    the combination V x. V and masks are copied, never changed in place.
    """
    V = np.array(V, dtype=float)
    masks = None if masks is None else masks.copy()
    hist = {"rayleigh": [], "support_cells": [], "err": [], "rate": []}
    for t in range(steps + 1):
        if t:
            if smoother is None:
                V = e1 * sys.solve(sys.M @ V)
            else:
                V, masks = pinvit_step(sys, smoother, e1, V, masks)
            hist["rayleigh"].append(rayleigh(sys, V[:, 0]))
            if masks is not None:
                hist["support_cells"].append(int(max(m.sum() for m in masks)))
        if u1 is not None:
            err = energy_error_to(sys, V @ x, u1)
            if t:
                prev = hist["err"][-1]
                hist["rate"].append(err / prev if prev > 0 else 0.0)
            hist["err"].append(err)
    return IterationState(block=V, masks=masks, history=hist)


def inverse_power(sys, e1: float, v0, steps: int, u1=None) -> IterationState:
    """Scaled inverse iteration v <- e1 A^{-1} M v via sys.solve.

    With e1 the smallest eigenvalue the iteration map fixes u1, and the
    projected energy error contracts by the eigenvalue ratio per step.
    """
    return _iterate(sys, None, e1, np.asarray(v0)[:, None], None, np.ones(1), u1, steps)


def pinvit_step(sys, smoother: ComposedSmoother, e1: float, v, mask):
    """One preconditioned inverse-iteration step with certified support.

    v is a vector or an (n,k) block whose columns are updated independently;
    mask is its cell mask, or the stacked column masks of a block. Equivalent
    to v + Pbar(e1 A^{-1} M v - v) with Pbar of energy contraction
    smoother.gamma, computed as the smoother's k_inner Chebyshev steps on
    the patch solve, warm-started at v; the iterate is certified once to lie
    within k_inner layers of mask. Returns (new iterate, its certified mask),
    the mask measured from it.
    """
    v = np.asarray(v, dtype=float)
    u = _chebyshev(smoother, sys, e1 * (sys.M @ v), v)
    return u, certify_support(sys.sub, u, mask, smoother.k_inner)


def pinvit(sys, smoother, e1: float, v0, steps: int, u1=None) -> IterationState:
    """Run pinvit_step `steps` times from the support of v0."""
    V = np.asarray(v0)[:, None]
    return _iterate(sys, smoother, e1, V, mask_of_vector(sys.sub, V), np.ones(1), u1, steps)


# ---------------------------------------------------------------------------
# starting blocks


@dataclass
class StartBlock:
    """K starting vectors with masks and optional verification coefficients.

    labels carries (valley_index, mode_tuple) per vector. C is the matrix of
    mass inner products (u_i, v_j) against the oracle vectors and is only
    available in verification runs.
    """

    vectors: np.ndarray
    masks: np.ndarray
    rayleighs: np.ndarray
    labels: list
    analytic: np.ndarray | None = None
    C: np.ndarray | None = None
    c_inv_norm: float | None = None

    @property
    def size(self):
        return self.vectors.shape[1]


def attach_coefficients(start: StartBlock, sys, oracle: Spectrum) -> StartBlock:
    """Fill C_ij = (u_i, v_j)_M and its inverse 1-norm from an oracle."""
    K = start.size
    if oracle.vectors.shape[1] < K:
        raise ValueError("oracle carries fewer vectors than the block size")
    U = oracle.vectors[:, :K]
    C = U.T @ (sys.M @ start.vectors)
    try:
        Cinv = np.linalg.inv(C)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "starting block has singular coefficient matrix against the oracle"
        )
    start.C = C
    start.c_inv_norm = float(np.linalg.norm(Cinv, 1))
    return start


def build_start_valleys(sys, stats, K: int, oracle: Spectrum | None = None) -> StartBlock:
    """K lowest product-sine modes over the rectangular valleys.

    Candidate modes are the Dirichlet product sines of each valley, ordered
    by their analytic energy alpha + pi^2 sum (q_a / (eps w_a))^2; the K
    smallest are sampled on the subgrid nodes strictly inside their valley,
    mass-normalized, and handed back with exact valley masks. Modes of
    disjoint valleys share no element, so the block is both M- and
    A-orthogonal across valleys by construction.
    """
    if stats.valleys is None:
        raise ValueError("valley decomposition unavailable for this field")
    if not stats.valleys:
        raise NumericalError("field has no valleys to start from")
    grid = sys.field.grid
    sub = sys.sub
    d, m, eps = grid.d, sub.m, grid.eps

    candidates = []
    for vi, valley in enumerate(stats.valleys):
        per_axis = [min(w * m - 1, K + 1) for w in valley.sides]
        if any(p < 1 for p in per_axis):
            continue
        for q in np.ndindex(*per_axis):
            q = tuple(x + 1 for x in q)
            energy = sys.field.alpha + np.pi ** 2 * sum(
                (q[a] / (valley.sides[a] * eps)) ** 2 for a in range(d)
            )
            candidates.append((energy, vi, q))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    if K > len(candidates):
        raise ValueError(
            "requested K=%d but only %d valley modes exist" % (K, len(candidates))
        )

    vectors = np.zeros((sys.n, K))
    masks = np.zeros((K,) + grid.shape, dtype=bool)
    labels = []
    analytic = np.zeros(K)
    for j, (energy, vi, q) in enumerate(candidates[:K]):
        valley = stats.valleys[vi]
        vec = _valley_mode(sys, valley, q)
        nrm = mass_norm(sys, vec)
        if nrm == 0.0:
            raise NumericalError("valley mode sampled to zero; subgrid too coarse")
        vectors[:, j] = vec / nrm
        masks[j].flat[_torus_boxes(grid.inv_eps, [[c] for c in valley.anchor], valley.sides)] = True
        labels.append((vi, q))
        analytic[j] = energy
    if not mask_allows(sub, vectors, masks):
        raise NumericalError("valley mode leaked outside its valley cells")
    rayleighs = np.array([rayleigh(sys, vectors[:, j]) for j in range(K)])
    block = StartBlock(
        vectors=vectors, masks=masks, rayleighs=rayleighs, labels=labels, analytic=analytic
    )
    if oracle is not None:
        attach_coefficients(block, sys, oracle)
    return block


def _valley_mode(sys, valley, q):
    """Product sine sampled at nodes strictly inside the valley box: the
    (w*m - 1)-box of nodes from anchor*m + 1, w the valley's sides."""
    m, vec = sys.sub.m, np.zeros(sys.n)
    widths = [w * m for w in valley.sides]
    prof = np.ones(1)
    for qa, w in zip(q, widths):
        prof = np.multiply.outer(prof, np.sin(np.pi * qa * np.arange(1, w) / w))
    starts = [[c * m + 1] for c in valley.anchor]
    vec[_torus_boxes(sys.sub.n_axis, starts, [w - 1 for w in widths])] = prof.ravel()
    return vec


# ---------------------------------------------------------------------------
# block iterations


def _combination_weights(start: StartBlock):
    if start.C is None:
        raise ValueError(
            "starting block carries no coefficient matrix; attach an oracle first"
        )
    e1 = np.zeros(start.size)
    e1[0] = 1.0
    try:
        return np.linalg.solve(start.C, e1)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "starting block %s has singular C; its vectors cannot reach u1"
            % (start.labels,)
        )


def block_iteration(sys, e1: float, start: StartBlock, steps: int, u1=None) -> IterationState:
    """Exact simultaneous inverse iteration V <- e1 A^{-1} M V.

    Global solves, no masks. When u1 is given the history tracks the energy
    error of the combined iterate V x with the weights fixed from the
    starting block's coefficient matrix.
    """
    x = None if u1 is None else _combination_weights(start)
    return _iterate(sys, None, e1, start.vectors, None, x, u1, steps)


def outer_steps(tol: float, gap: float) -> int:
    """ceil(log(1/tol) / log(1/gap)): the outer steps after which a K-block
    with gap ratio E1/E(K+1) has cut its error by tol; 0 at tol = 1.

    Raises ValueError unless 0 < tol, gap <= 1, and NumericalError for a
    degenerate gap (>= 1 - 1e-9) or more than MAX_OUTER steps."""
    if not 0.0 < gap <= 1.0:
        raise ValueError("gap ratio must lie in (0,1], got %r" % (gap,))
    if not 0.0 < tol <= 1.0:
        raise ValueError("tol must lie in (0,1], got %r" % (tol,))
    if gap >= 1.0 - 1e-9:
        raise NumericalError("spectral gap E1/E(K+1) = %.6f is degenerate" % gap)
    k = int(math.ceil(math.log(1.0 / tol) / math.log(1.0 / gap)))
    if k > MAX_OUTER:
        raise NumericalError(
            "gap %.4f needs %d outer steps for tol %.1e; pick a larger K" % (gap, k, tol)
        )
    return k


def inexact_block_iteration(
    sys,
    smoother: ComposedSmoother,
    e1: float,
    start: StartBlock,
    tol: float,
    gap: float,
    u1=None,
    k_outer: int | None = None,
):
    """Support-tracked block iteration with patch-local approximate solves.

    Runs k_outer outer steps, by default outer_steps(tol, gap), each one
    pinvit_step on the whole block (the smoother's k_inner Chebyshev steps
    per column), then combines the block with the weights C^{-1} e_1. Requires
    the composed contraction gamma <= gap**k_outer; a weaker smoother raises
    with advice to raise k_inner. Each outer step certifies the block within
    k_inner layers of the previous masks and carries the measured masks.

    Returns (v_tilde, IterationState). tol=1 is the k=0 regime: no steps,
    just the best combination from the starting block itself.
    """
    steps = outer_steps(tol, gap)  # validates tol and gap
    k_outer = steps if k_outer is None else k_outer
    if smoother.gamma > gap ** k_outer * (1.0 + 1e-12):
        raise NumericalError(
            "composed contraction %.3e exceeds gap**k = %.3e; increase k_inner"
            % (smoother.gamma, gap ** k_outer)
        )
    x = _combination_weights(start)
    state = _iterate(sys, smoother, e1, start.vectors, start.masks, x, u1, k_outer)
    return state.block @ x, state
