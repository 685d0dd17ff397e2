"""Q1 finite elements on the periodic unit cube.

Each potential cell is refined into m**d cubic elements of side h = eps/m,
and the bilinear form

    a(u, v) = int grad(u).grad(v) + V u v dx,    (u, v) = int u v dx

is assembled with exact integrals of the Q1 tensor-product basis (the local
matrices are Kronecker products of the 1D stiffness and mass blocks, and the
potential is constant on every element). Periodicity is pure index
arithmetic: node (j + n) mod n is node j, so the matrices carry no boundary
rows at all. The sparsity pattern is read off the torus grid, with no sort:
every node couples to the 3**d nodes of its neighbourhood (2**d when
n_axis = 2). K and M do not depend on the field, and each of their rows is
one of at most 3**d stencil rows, picked by where the row sits against the
torus seam. Only the potential is scattered element by element: MV and the
per-cell energies are one np.bincount each, in element order. The system
stores only what the solvers read, A = K + MV and M on one shared pattern;
K and MV are rebuilt from the same arithmetic on first use (the Friedrichs
ratio and the matrix dump read them). All four matrices are exactly
symmetric. Cells and nodes are numbered in C order on
their tori (axis 0 slowest); field.json's bitmap, every index map (built
by potential._torus_boxes) and schwarz._Band's row ranges rely on that order.

The module also builds the plateau cutoff used by the energy lower bound
machinery (1 outside the barrier cells, 0 on the centered eps/2 cube of each
barrier cell, multilinear ramp across the eps/4 collar) and provides the
cell-level support masks and the one ruler for cell layers: a cell belongs
to the mask of a vector when any subgrid node on the closed cell carries a
nonzero entry, and dilate_cells grows a mask by whole cell layers. The
support certificate (certify_support) of the preconditioner and the
eigeniterations and the decay annuli of the analysis both count layers with
it, which makes "one patch application grows the support by one cell layer"
an exact statement.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .potential import GridSpec, PotentialField, _torus_boxes

__all__ = [
    "SubgridSpec",
    "AssembledSystem",
    "CutoffField",
    "assemble",
    "energy_norm",
    "mass_norm",
    "rayleigh",
    "build_cutoff",
    "cell_energies",
    "cell_mass",
    "mask_of_vector",
    "dilate_cells",
    "mask_allows",
    "certify_support",
    "system_digest",
    "dump_system",
]

DEFAULT_DOF_LIMIT = 500_000


@dataclass(frozen=True)
class SubgridSpec:
    """Uniform refinement of the cell grid: m subintervals per cell per axis."""

    grid: object
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1, got %r" % (self.m,))

    @property
    def n_axis(self):
        return self.grid.inv_eps * self.m

    @property
    def h(self):
        return 1.0 / self.n_axis

    @property
    def node_shape(self):
        return (self.n_axis,) * self.grid.d

    @property
    def ndof(self):
        return self.n_axis ** self.grid.d


def _local_blocks(d, h):
    """Exact Q1 element matrices as Kronecker products of 1D blocks."""
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) * (h / 6.0)
    mass = np.array([[1.0]])
    for _ in range(d):
        mass = np.kron(mass, m1)
    stiff = np.zeros_like(mass)
    for axis in range(d):
        term = np.array([[1.0]])
        for a in range(d):
            term = np.kron(term, k1 if a == axis else m1)
        stiff += term
    return stiff, mass


class AssembledSystem:
    """Sparse A = K + MV (energy) and M (mass), with K (stiffness) and MV
    (potential mass) on demand.

    assemble stores A and M only, on one shared pattern: a matrix with exact
    zeros (A on a 3D field with alpha = 0 cells) holds its own pruned copy,
    M always the full grid pattern. K and MV are cached properties, built at
    first use from the same values assemble sums into A, so A is K + MV
    bitwise; no solver reads them. The system also keeps the element-to-dof map
    and the local blocks so restricted energies and cell masses can be
    evaluated elementwise. A is factored at most once, at the first solve,
    and nowhere else; every global direct solve on the system (the
    shift-invert oracle, inverse power, the exact block iteration and the
    smooth Friedrichs samples) goes through that one factorization. The
    oracle's ground pair needs it only with no coarse level or after a
    LOBPCG stall (see eig._ground_pair).
    """

    def __init__(self, field, sub, A, M, el_dofs, el_cells, local_stiff, local_mass):
        self.field = field
        self.sub = sub
        self.A = A
        self.M = M
        self.el_dofs = el_dofs
        self.el_cells = el_cells
        self.local_stiff = local_stiff
        self.local_mass = local_mass
        self._solve = None

    @cached_property
    def K(self):
        """The stiffness matrix: the stencil rows of local_stiff on M's
        pattern (every mass entry is positive, so M stores the whole grid
        pattern), exact zeros pruned."""
        return _csr(_stencil_values(self.sub, self.local_stiff), self.M.indices, self.M.indptr)

    @cached_property
    def MV(self):
        """The potential mass matrix: the element scatter over a recomputed
        grid pattern, on M's pattern, exact zeros pruned."""
        slot = _grid_pattern(self.sub, self.el_dofs)[2]
        vals = _potential_values(self.field, self.el_cells, slot, self.local_mass)
        return _csr(vals, self.M.indices, self.M.indptr)

    @property
    def n(self):
        return self.A.shape[0]

    def solve(self, rhs):
        """Direct solve A x = rhs (a vector or an (n, k) block) through the
        system's one sparse LU, computed at the first call (_factor) and
        cached."""
        if self._solve is None:
            self._solve = _factor(self.A)
        return self._solve(rhs)


def _factor(A):
    """The direct solve b -> A^{-1} b of a symmetric CSR matrix A, for a
    vector or an (n, k) block, by one SuperLU factorization.

    A.T, the CSC view of the CSR arrays, is A in CSC form with no
    conversion, and its columns are ordered by minimum degree on the pattern
    of A^T + A, which roughly halves the fill of SuperLU's default COLAMD
    order. That view is the matrix A^T, so the solve runs in SuperLU's
    transposed mode, which solves with A itself and is faster on one
    column. A failed factorization raises NumericalError.
    """
    try:
        lu = spla.splu(A.T, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: singular or out of memory
        raise NumericalError("sparse LU of A failed: %s" % exc)
    return lambda b: lu.solve(b, trans="T")


def _ldlt(S):
    """(D, solve) of S = L D L^T for a symmetric CSR matrix S: one SuperLU
    factorization of the CSC view of S, ordered as _factor orders A, with
    diagonal pivots only, so that its U is D L^T. SuperLU's failure, or a
    pivot off the diagonal (perm_r != perm_c), raises NumericalError."""
    opts = dict(SymmetricMode=True)
    try:
        lu = spla.splu(S.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=opts)
    except RuntimeError as exc:  # SuperLU: singular or out of memory
        raise NumericalError("LDL^T factorization failed: %s" % exc)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("LDL^T factorization took a pivot off the diagonal")
    return lu.U.diagonal(), lambda b: lu.solve(b, trans="T")


def _element_maps(sub: SubgridSpec):
    """Element-to-dof and element-to-cell maps of the periodic subgrid.

    Element e is the one whose lowest corner is node e: el_dofs[e] is the
    torus 2-box of nodes from node e, and el_cells[e] the 1-box of the
    potential cell that contains it (_torus_boxes), so corner c comes in
    itertools.product((0, 1), repeat=d) order.
    """
    d, x = sub.grid.d, np.arange(sub.n_axis)
    el_dofs = _torus_boxes(sub.n_axis, [x] * d, 2)
    el_cells = _torus_boxes(sub.grid.inv_eps, [x // sub.m] * d, 1)
    return el_dofs, el_cells.ravel()


def _row_ranks(n1):
    """Per-axis neighbour width and rank class of the torus rows.

    Along an axis node x couples to x-1, x and x+1 (mod n1): width = 3
    distinct neighbours, or 2 when n1 = 2. As node indices they sort into a
    rotation of that cycle, so offset o has rank (own[x] + o) % width, own[x]
    being the number of neighbours below x: 0 at x = 0, width-1 at x = n1-1
    (when n1 > 2) and 1 elsewhere.
    """
    x = np.arange(n1)
    return min(n1, 3), np.minimum(x, 1) + ((x == n1 - 1) & (n1 > 2))


def _grid_pattern(sub: SubgridSpec, el_dofs):
    """CSR pattern of the periodic Q1 matrices, read off the torus grid.

    Every row holds width**d columns (see _row_ranks), the lexicographic
    product of its sorted per-axis neighbour lists, which is also their
    order as node indices. Returns (indices, indptr, slot): slot[e, a, b] is
    the position in indices of the entry (el_dofs[e, a], el_dofs[e, b]),
    width**d times its row plus the mixed-radix number of the per-axis ranks
    of the offset corner b - corner a. This is the pattern and inverse that
    np.unique of the element keys gives, computed without sorting them.
    """
    d, n1, n = sub.grid.d, sub.n_axis, sub.ndof
    width, own = _row_ranks(n1)
    x, steps = np.arange(n1), np.arange(-1, 2)
    cols = np.empty((n1, width), dtype=np.int64)
    np.put_along_axis(cols, (own[:, None] + steps) % width, (x[:, None] + steps) % n1, axis=1)
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    # per-axis terms, summed by broadcasting: the column indices and the
    # in-row rank of every element entry
    indices = rank = 0
    for a in range(d):
        lead = (1,) * a + (n1,) + (1,) * (d - 1 - a)
        tail = (1,) * a + (width,) + (1,) * (d - 1 - a)
        c = corners[:, a]
        entry = (own[(x[:, None] + c) % n1][:, :, None] + c - c[:, None]) % width
        indices = indices + (cols * n1 ** (d - 1 - a)).reshape(lead + tail)
        rank = rank + (entry * width ** (d - 1 - a)).reshape(lead + entry.shape[1:])
    slot = rank.reshape(n, 2 ** d, 2 ** d) + width ** d * el_dofs[:, :, None]
    return indices.ravel(), np.arange(n + 1) * width ** d, slot.ravel()


def _stencil_values(sub: SubgridSpec, local):
    """Stored values of a field-free matrix (K or M) on the grid pattern.

    A row depends only on its rank class, own[x] per axis (_row_ranks): its
    entry at offset o sums 2**(d - |o|) equal local entries, because the Q1
    blocks are invariant under reflecting a corner bit, so no element order
    changes the sum. The width**d-node torus holds one row of every class,
    at the node whose coordinates are the class; one bincount on its pattern,
    with the local block of sub's h, gives those stencil rows, and every row
    of sub is gathered from them by class.
    """
    d = sub.grid.d
    width, own = _row_ranks(sub.n_axis)
    small = SubgridSpec(GridSpec(d, width), 1)
    slot = _grid_pattern(small, _element_maps(small)[0])[2]
    rows = np.bincount(slot, np.broadcast_to(local, (small.ndof,) + local.shape).ravel())
    row_class = np.ravel_multi_index(np.ix_(*[own] * d), small.node_shape).ravel()
    return rows.reshape(small.ndof, small.ndof)[row_class].ravel()


def _csr(vals, indices, indptr):
    """The CSR matrix of vals on the grid pattern (indices, indptr), which
    it shares. eliminate_zeros prunes the values and the index arrays in
    place, so a matrix with exact zeros gets its own pruned copy."""
    n = len(indptr) - 1
    if vals.all():
        return sp.csr_matrix((vals, indices, indptr), shape=(n, n))
    mat = sp.csr_matrix((vals, indices.copy(), indptr.copy()), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def _potential_values(field, el_cells, slot, local_mass):
    """Stored values of MV on the grid pattern: every element lies inside
    exactly one cell, so its potential mass is the element mass scaled by
    that cell's value, and one bincount over slot (_grid_pattern) sums every
    entry's element contributions in element order."""
    v_el = field.values().ravel()[el_cells]
    return np.bincount(slot, (v_el[:, None, None] * local_mass).ravel())


def assemble(field: PotentialField, sub: SubgridSpec) -> AssembledSystem:
    """Assemble the periodic Q1 system for a potential field.

    The system stores A and M, on one sparsity pattern read off the grid by
    _grid_pattern without sorting the element keys; K and MV are built on
    demand (AssembledSystem.K, .MV) by the same code. K and M do not depend
    on the field: every row is one of width**d stencil rows, gathered by the
    row's rank class (_stencil_values). MV is the one element scatter
    (_potential_values), so (i, j) and (j, i) are the same sum, and A is
    K + MV entrywise on the pattern. All four are exactly symmetric by
    construction, and entries that vanish exactly (the 3D stiffness between
    edge neighbours, MV on alpha = 0 elements, and A where both do) are not
    stored.
    """
    if sub.grid is not field.grid and sub.grid != field.grid:
        raise ValueError("subgrid was built for a different cell grid")
    if sub.ndof > DEFAULT_DOF_LIMIT:
        raise ValueError(
            "refusing to assemble %d dofs (limit DEFAULT_DOF_LIMIT = %d)"
            % (sub.ndof, DEFAULT_DOF_LIMIT)
        )
    if field.alpha == 0.0 and field.n_beta == 0:
        raise ValueError("potential is identically zero, A would be singular")
    return AssembledSystem(field, sub, *_pencil(field, sub))


def _pencil(field, sub):
    """A and M of assemble on their shared grid pattern, unchecked, with the
    element maps and local blocks they were built from: (A, M, el_dofs,
    el_cells, local_stiff, local_mass). The ground pair's coarse levels
    (eig._galerkin) take A and M from here at coarser m."""
    stiff, mass = _local_blocks(field.grid.d, sub.h)
    el_dofs, el_cells = _element_maps(sub)
    indices, indptr, slot = _grid_pattern(sub, el_dofs)
    # the dof limit keeps every index in int32, the dtype scipy would pick
    indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)
    mv_vals = _potential_values(field, el_cells, slot, mass)
    A = _csr(_stencil_values(sub, stiff) + mv_vals, indices, indptr)
    M = _csr(_stencil_values(sub, mass), indices, indptr)
    return A, M, el_dofs, el_cells, stiff, mass


# ---------------------------------------------------------------------------
# norms and quotients


def energy_norm(sys: AssembledSystem, v) -> float:
    """sqrt(v' A v), the norm induced by the bilinear form."""
    q = float(v @ (sys.A @ v))
    return float(np.sqrt(max(q, 0.0)))


def mass_norm(sys: AssembledSystem, v) -> float:
    q = float(v @ (sys.M @ v))
    return float(np.sqrt(max(q, 0.0)))


def rayleigh(sys: AssembledSystem, v) -> float:
    """Energy quotient v'Av / v'Mv; the zero vector raises NumericalError."""
    mm = float(v @ (sys.M @ v))
    if mm <= 0.0:
        raise NumericalError("Rayleigh quotient of a (numerically) zero vector")
    return float(v @ (sys.A @ v)) / mm


def _element_quadratic(ue, local):
    """Per-element u' local u; ue holds v at the element corners, one
    contiguous row per corner (np.take(v, el_dofs.T)). The corner pairs
    (a, b) are summed in order, each term (u_a local_ab) u_b: one fixed
    summation order, in whole-array passes."""
    out = np.zeros(ue.shape[1])
    for a, ua in enumerate(ue):
        for b, ub in enumerate(ue):
            out += (ua * local[a, b]) * ub
    return out


def _cell_sum(sys, e):
    """Sum per-element values into their cells, in element order, grid-shaped."""
    grid = sys.field.grid
    return np.bincount(sys.el_cells, e, grid.n_cells).reshape(grid.shape)


def cell_energies(sys: AssembledSystem, v):
    """Per-cell squared energy of v (gradient plus potential), grid-shaped.

    Summing over all cells reproduces v'Av up to roundoff, so restricted
    energy norms over cell sets are exact partial sums.
    """
    v_el = sys.field.values().ravel()[sys.el_cells]
    ue = np.take(v, sys.el_dofs.T)
    e = _element_quadratic(ue, sys.local_stiff)
    return _cell_sum(sys, e + v_el * _element_quadratic(ue, sys.local_mass))


def cell_mass(sys: AssembledSystem, v):
    """Per-cell squared L2 mass of v, grid-shaped."""
    return _cell_sum(sys, _element_quadratic(np.take(v, sys.el_dofs.T), sys.local_mass))


# ---------------------------------------------------------------------------
# cutoff


@dataclass
class CutoffField:
    """Nodal cutoff: 1 outside barriers, 0 on each barrier's central cube."""

    values: np.ndarray
    max_gradient: float


def build_cutoff(field: PotentialField, sub: SubgridSpec) -> CutoffField:
    """Plateau cutoff with an exact eps/4 collar on the subgrid.

    Inside every barrier cell the nodal value is min(1, 4 dist/eps) with
    dist the sup-norm distance to the cell's closed central cube of side
    eps/2; outside barrier cells it is 1. m must be divisible by 4 so the
    central cube and the collar land exactly on subgrid nodes. The reported
    max_gradient is the measured elementwise sup of |grad eta| (bounded by
    4 sqrt(d)/eps by construction).
    """
    if sub.m % 4 != 0:
        raise ValueError("cutoff needs m divisible by 4, got m=%d" % sub.m)
    d, m, eps = field.grid.d, sub.m, field.grid.eps
    nodes = np.meshgrid(*[np.arange(sub.n_axis)] * d, indexing="ij")
    in_beta = field.occupancy[tuple(x // m for x in nodes)]

    # sup-norm distance to the central cube, per node, within its floor cell
    g = np.zeros(sub.node_shape)
    for a in range(d):
        t = (nodes[a] % m) * sub.h
        g = np.maximum(g, np.maximum(0.0, np.abs(t - 0.5 * eps) - 0.25 * eps))
    eta = np.where(in_beta, np.minimum(1.0, 4.0 * g / eps), 1.0)

    # measured gradient bound: per axis, the largest of the element's 2**(d-1)
    # parallel edge differences (element e is anchored at node e)
    grad_sq = np.zeros(sub.node_shape)
    for a in range(d):
        diff = np.abs(np.roll(eta, -1, axis=a) - eta)
        for b in range(d):
            if b != a:
                diff = np.maximum(diff, np.roll(diff, -1, axis=b))
        grad_sq += (diff / sub.h) ** 2
    max_grad = float(np.sqrt(grad_sq.max())) if sub.ndof else 0.0
    return CutoffField(values=eta.ravel(), max_gradient=max_grad)


# ---------------------------------------------------------------------------
# cell-level support masks


def mask_of_vector(sub: SubgridSpec, v):
    """Cells whose closed node set carries a nonzero entry of v (NaN included).

    A vector gives one grid-shaped mask; an (n,k) block gives the k column
    masks stacked as a (k,)+grid.shape array, computed in one pass.
    """
    v = np.asarray(v)
    nz = (v.T != 0.0).reshape(v.shape[1:] + sub.node_shape)
    inv_eps, m, n1 = sub.grid.inv_eps, sub.m, sub.n_axis
    base = np.arange(inv_eps) * m
    arr = nz
    for axis in range(v.ndim - 1, arr.ndim):
        acc = None
        for s in range(m + 1):
            sl = np.take(arr, (base + s) % n1, axis=axis)
            acc = sl if acc is None else (acc | sl)
        arr = acc
    return arr


def dilate_cells(mask, layers: int = 1):
    """Grow a cell mask by full 3**d neighborhoods, torus wrap included: per
    axis, one circular window of 2*layers+1 cells ORed by doubling strides."""
    out = np.asarray(mask, dtype=bool)
    for axis, n in enumerate(out.shape):
        k = max(0, min(layers, n // 2))  # a window of 2k+1 >= n cells is the whole axis
        run = np.moveaxis(out, axis, 0)[np.arange(-k, n + k) % n]
        width = 1  # run[i] is the OR of the width cells from i on
        while width < 2 * k + 1:
            step = min(width, 2 * k + 1 - width)
            run = run[:-step] | run[step:]
            width += step
        out = np.moveaxis(run, 0, axis)
    return np.array(out)


def mask_allows(sub: SubgridSpec, v, mask) -> bool:
    """True when every cell touched by a nonzero entry of v is masked.

    This is the strict containment mask_of_vector(v) <= mask; it is the
    invariant the patch operators propagate by exactly one dilation. For an
    (n,k) block, mask stacks the k column masks and each column is checked
    against its own.
    """
    touched = mask_of_vector(sub, v)
    return not bool((touched & ~np.asarray(mask, dtype=bool)).any())


def certify_support(sub: SubgridSpec, v, mask, layers: int):
    """Certify that v lies within `layers` cell layers of mask; return v's mask.

    v is a vector with a grid-shaped mask or an (n,k) block with stacked
    column masks. This is the locality certificate of every solver: each
    patch application may grow a support by one layer, so an iterate that
    leaves the grown mask raises NumericalError. Returns the measured mask
    of v (mask_of_vector), which lies inside the grown one; a solver checks
    its next step against it, and since dilation is monotone the support
    after t certified steps still lies within t layers of the start.
    """
    masks = np.asarray(mask, dtype=bool).reshape((-1,) + sub.grid.shape)
    grown = np.stack([dilate_cells(m, layers) for m in masks]).reshape(np.shape(mask))
    touched = mask_of_vector(sub, v)
    if (touched & ~grown).any():
        raise NumericalError("iterate escaped its certified support mask")
    return touched


# ---------------------------------------------------------------------------
# artifacts


def system_digest(sys: AssembledSystem) -> str:
    """Short content hash of the field and discretization."""
    h = hashlib.sha256()
    f = sys.field
    h.update(
        json.dumps(
            {
                "kind": f.kind,
                "d": f.grid.d,
                "inv_eps": f.grid.inv_eps,
                "seed": f.grid.seed,
                "alpha": f.alpha,
                "beta": f.beta,
                "m": sys.sub.m,
            },
            sort_keys=True,
        ).encode()
    )
    h.update(np.packbits(f.occupancy.ravel().astype(np.uint8)).tobytes())
    return h.hexdigest()[:16]


def dump_system(sys: AssembledSystem, directory):
    """Write A, K, M, MV as 'row col value' text plus a JSON sidecar.

    A and M are the stored matrices; K and MV are built here on first use
    (AssembledSystem.K, .MV). Returns the names of the files written.
    """
    os.makedirs(directory, exist_ok=True)
    names = {"A": sys.A, "K": sys.K, "M": sys.M, "MV": sys.MV}
    for name, mat in names.items():
        coo = mat.tocoo()
        np.savetxt(
            os.path.join(directory, name + ".txt"),
            np.column_stack([coo.row, coo.col, coo.data]),
            fmt="%d %d %.17g",
            header="row col value",
        )
    sidecar = {
        "n": sys.n,
        "d": sys.field.grid.d,
        "inv_eps": sys.field.grid.inv_eps,
        "m": sys.sub.m,
        "h": sys.sub.h,
        "digest": system_digest(sys),
        "matrices": sorted(names),
    }
    with open(os.path.join(directory, "system.json"), "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return [name + ".txt" for name in names] + ["system.json"]
