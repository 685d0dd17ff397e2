"""Q1 assembly, energy bookkeeping, cutoff, and support masks.

Matrix entries are pinned against a two-node hand computation, spectra
against closed forms for the constant potential, and the energy scaling
against a constant calibrated on the periodic reference field. Eigenvalue
oracles here are scipy's dense solver applied directly to (A, M), so these
tests do not depend on the package's own eigensolvers.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import schrodloc as sl
from conftest import FIELD_KINDS, make_system, nodes_of_cells
from schrodloc.errors import NumericalError
from schrodloc.fem import _grid_pattern, _stencil_values, dump_system


def _dense_eigs(sys, k):
    w = scipy.linalg.eigh(
        sys.A.toarray(), sys.M.toarray(), subset_by_index=[0, k - 1]
    )[0]
    return w


def test_two_node_hand_matrices():
    # d=1, inv_eps=2, m=1: two nodes, two elements, h=1/2
    field = sl.gen_periodic(sl.GridSpec(1, 2), 1.0, 64.0)
    sys = sl.assemble(field, sl.SubgridSpec(field.grid, 1))
    np.testing.assert_allclose(sys.K.toarray(), [[4.0, -4.0], [-4.0, 4.0]])
    np.testing.assert_allclose(
        sys.M.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-15
    )
    a, b = 1.0, 64.0
    expect_mv = np.array(
        [[2 * (a + b), a + b], [a + b, 2 * (a + b)]]
    ) / 12.0
    np.testing.assert_allclose(sys.MV.toarray(), expect_mv, rtol=1e-15)
    np.testing.assert_allclose(
        sys.A.toarray(), sys.K.toarray() + expect_mv, rtol=1e-15
    )


def test_matrices_exactly_symmetric(random_1d):
    cases = (
        ("iid", 2, 8, 2, 1.0),
        ("tensor", 2, 8, 3, 0.0),
        ("iid", 3, 4, 3, 1.0),
        ("iid", 3, 4, 2, 0.0),
    )
    systems = [random_1d[1]] + [
        make_system(kind=kind, d=d, inv_eps=n, m=m, seed=5, alpha=alpha)[1]
        for kind, d, n, m, alpha in cases
    ]
    for sys in systems:
        for mat in (sys.K, sys.M, sys.MV, sys.A):
            assert (mat != mat.T).nnz == 0
            # the 3D stiffness between edge neighbours and MV on alpha = 0
            # elements vanish exactly; such entries are not stored
            assert (mat.data != 0.0).all()


def _dense_element_sum(sys, local_of_element):
    out = np.zeros((sys.n, sys.n))
    for e, dofs in enumerate(sys.el_dofs):
        out[np.ix_(dofs, dofs)] += local_of_element(e)
    return out


def test_matrices_equal_element_by_element_sum():
    """Each stored entry is its element contributions summed in element
    order, bitwise, so the sparse and dense element loops agree exactly."""
    cases = (
        ("iid", 1, 16, 4, {}),
        ("domino", 2, 8, 2, {}),
        ("iid", 3, 4, 3, {}),
        ("domino", 3, 4, 3, {"max_level": 2}),
        # n_axis = 2 and 3: every row its own rank class, the seam included
        ("iid", 1, 2, 1, {}),
        ("iid", 2, 2, 1, {}),
        ("iid", 3, 2, 1, {}),
        ("iid", 1, 3, 1, {}),
        ("iid", 2, 3, 1, {}),
        ("iid", 3, 3, 1, {}),
        # MV vanishes on alpha = 0 elements, A does not
        ("iid", 2, 8, 2, {"alpha": 0.0}),
        # the remaining field kinds
        ("tensor", 2, 8, 2, {}),
        ("periodic", 2, 8, 2, {}),
        ("planted", 2, 8, 2, {}),
    )
    for kind, d, n, m, kw in cases:
        field, sys = make_system(kind=kind, d=d, inv_eps=n, m=m, seed=5, **kw)
        v_el = field.values().ravel()[sys.el_cells]
        dense = {
            "K": _dense_element_sum(sys, lambda e: sys.local_stiff),
            "M": _dense_element_sum(sys, lambda e: sys.local_mass),
            "MV": _dense_element_sum(sys, lambda e: v_el[e] * sys.local_mass),
        }
        dense["A"] = dense["K"] + dense["MV"]
        for name, ref in dense.items():
            assert np.array_equal(getattr(sys, name).toarray(), ref), (kind, d, name)


def test_assembly_digests_pinned():
    """The stored (indptr, indices, data) of K, M, MV and A, pinned bitwise."""
    pinned = {
        ("iid", 1, 32, 4, 3): "89edd6c11ca09557b67633210558bf8f6acc0ce238ac0ba0d449dbaa0f0f8894",
        ("tensor", 2, 8, 2, 5): "793315b22ab48ec1ddd9cc65b3504a39c8567279d618bfb3f4969480397ec7d1",
        ("iid", 3, 4, 3, 5): "cd18f5dfb9b820e647e68a1fdf60ccd130eae5aa4ac53d389b03dc3d14a0760e",
    }
    for (kind, d, n, m, seed), digest in pinned.items():
        _, sys = make_system(kind=kind, d=d, inv_eps=n, m=m, seed=seed)
        h = hashlib.sha256()
        for mat in (sys.K, sys.M, sys.MV, sys.A):
            for arr in (mat.indptr, mat.indices):
                h.update(np.asarray(arr, dtype=np.int64).tobytes())
            h.update(np.asarray(mat.data, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest, (kind, d)


def _eager_matrices(sys):
    """K, M, MV and A as assemble built them when it stored all four: each
    on its own copy of the grid pattern, exact zeros pruned."""
    n, sub = sys.n, sys.sub
    indices, indptr, slot = _grid_pattern(sub, sys.el_dofs)
    indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)

    def csr(vals):
        mat = sp.csr_matrix((vals, indices.copy(), indptr.copy()), shape=(n, n))
        if not vals.all():
            mat.eliminate_zeros()
        return mat

    v_el = sys.field.values().ravel()[sys.el_cells]
    k_vals = _stencil_values(sub, sys.local_stiff)
    m_vals = _stencil_values(sub, sys.local_mass)
    mv_vals = np.bincount(slot, (v_el[:, None, None] * sys.local_mass).ravel())
    # A first: eliminate_zeros also compacts the values array it is given
    A = csr(k_vals + mv_vals)
    return {"A": A, "K": csr(k_vals), "M": csr(m_vals), "MV": csr(mv_vals)}


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("d, inv_eps, m", [(1, 32, 4), (2, 8, 3), (3, 4, 2)])
def test_matrices_equal_the_eager_construction(d, inv_eps, m, alpha):
    """The stored A and M and the on-demand K and MV hold, bit for bit, the
    arrays of the eager construction; K and MV are built once and cached."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=m, seed=5, alpha=alpha)
    for name, ref in _eager_matrices(sys).items():
        mat = getattr(sys, name)
        for arr in ("indptr", "indices", "data"):
            got, want = getattr(mat, arr), getattr(ref, arr)
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, arr)
    assert sys.K is sys.K and sys.MV is sys.MV


@pytest.mark.parametrize(
    "kind, d, inv_eps, m", [("iid", 1, 32, 4), ("tensor", 2, 8, 3), ("iid", 3, 4, 3)]
)
def test_a_and_m_share_one_pattern(kind, d, inv_eps, m):
    """Where A has no exact zero, A and M hold one indices buffer and one
    indptr buffer (scipy slices indices to nnz, so the arrays may be two
    views of one buffer rather than one object)."""
    _, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=m, seed=5)
    assert sys.A.data.all()
    for arr in ("indices", "indptr"):
        a, b = getattr(sys.A, arr), getattr(sys.M, arr)
        assert np.shares_memory(a, b) and a.size == b.size, arr


def test_pruned_a_keeps_its_own_pattern():
    """On a 3D alpha = 0 field A drops the entries where the stiffness and
    the potential both vanish, on its own copy of the pattern; M keeps the
    full 27-point pattern. Both equal their dense element sums."""
    _, sys = make_system(kind="iid", d=3, inv_eps=4, m=2, seed=5, alpha=0.0)
    assert (sys.A.nnz, sys.M.nnz) == (12_984, 13_824)
    assert not np.shares_memory(sys.A.indices, sys.M.indices)
    assert not np.shares_memory(sys.A.indptr, sys.M.indptr)
    v_el = sys.field.values().ravel()[sys.el_cells]
    dense_m = _dense_element_sum(sys, lambda e: sys.local_mass)
    dense_a = _dense_element_sum(sys, lambda e: sys.local_stiff)
    dense_a += _dense_element_sum(sys, lambda e: v_el[e] * sys.local_mass)
    assert np.array_equal(sys.M.toarray(), dense_m)
    assert np.array_equal(sys.A.toarray(), dense_a)


def test_solvers_leave_the_shared_pattern_alone():
    """block, pinvit, green-decay and the direct solve read A and M through
    views of the shared pattern (the LU's CSC view, the band rows); none
    writes to it, so M still equals its dense element sum afterwards."""
    field, sys = make_system(kind="tensor", d=2, inv_eps=8, m=2, seed=5)
    assert np.shares_memory(sys.A.indices, sys.M.indices)
    indices, indptr = sys.M.indices.copy(), sys.M.indptr.copy()
    orac = sl.dense_oracle(sys, 3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    sm = sl.compose_smoother(prec, 0.25)
    start = sl.build_start_valleys(sys, sl.analyze_geometry(field), 2, oracle=orac)
    sl.inexact_block_iteration(sys, sm, orac.values[0], start, 0.5, 0.6)
    sl.pinvit(sys, sm, orac.values[0], start.vectors[:, 0], 3)
    sl.green_decay(sys, prec, (3, 3), k_max=3)
    sys.solve(np.ones(sys.n))
    assert np.array_equal(sys.M.indices, indices) and np.array_equal(sys.M.indptr, indptr)
    assert np.array_equal(sys.M.toarray(), _dense_element_sum(sys, lambda e: sys.local_mass))


def test_assembly_retains_two_matrices():
    """A 65,536-dof system keeps A and M on one pattern plus the element
    maps: the bytes it holds stay within those arrays and 1 MB of slack. The
    four-matrix system held about 17 MB more (two more value arrays and
    three more patterns)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, sys = make_system(kind="tensor", d=2, inv_eps=128, m=2, seed=5)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    arrays = (sys.A.data, sys.M.data, sys.M.indices, sys.M.indptr, sys.el_dofs, sys.el_cells)
    assert sys.n == 65_536
    assert retained <= sum(a.nbytes for a in arrays) + 2**20, retained


def test_matrix_dump_pinned(tmp_path):
    """dump_system's text files and sidecar, pinned bytewise: a 2D tensor
    system and a 3D alpha = 0 one, where A, K and MV drop exact zeros."""
    pinned = {
        ("tensor", 2, 16, 2, 1.0): {
            "A.txt": "9fd427d3a81cdc57cdc339acb33601a94214cd3534a7a186f719a08af5ba00ec",
            "K.txt": "96a81f9805350f35a4d2fcb4b0d3886536b6912d96d899ac47ba068ec5014cc6",
            "M.txt": "cad5554f1ee37cf2201b61d899975836e63bd3538d90247533981f9ba05c86f2",
            "MV.txt": "19782ae7a544ed9c2d0891ea07f42425966ff3b81e75764fdd8cc09c3478ab60",
            "system.json": "783350ecd6a1896c001fce63d44e0dc08c2a388bb08691a476e344bcf40ac7f9",
        },
        ("iid", 3, 4, 2, 0.0): {
            "A.txt": "72954dae76f9971b74611e5d4e29df97d22336ae3f46d64c20b39e05c3041304",
            "K.txt": "5da4f53afb3dda1472d9378bf2c95668b1fc207b8d913f6595f1917d0fb8fcad",
            "M.txt": "b154a1caa1f98f9c8850c6f28d14a3530c806b662f645bb770fce6b78d8f9df0",
            "MV.txt": "fdd9da0f06170bb20390aee54d3f37dc04f81d647ab6621ca504ddadda7315f5",
            "system.json": "7fa1e609e8077ea6c7220e3f2baf8897c7aacd08b05740e4d827365d35fd9f4f",
        },
    }
    for (kind, d, n, m, alpha), digests in pinned.items():
        _, sys = make_system(kind=kind, d=d, inv_eps=n, m=m, seed=5, alpha=alpha)
        out = tmp_path / kind
        assert sorted(dump_system(sys, out)) == sorted(digests)
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (kind, name)


def test_cell_sums_pinned():
    """cell_energies and cell_mass of a fixed seeded vector, pinned bitwise:
    any rewrite of the element kernels must keep the summation order."""
    pinned = {
        ("iid", 1, 32, 4, 3): "a503c77e8d925d7d78bf7ec18c3450748aa258cf55bfbe53657057ece4b0d02b",
        ("tensor", 2, 8, 3, 5): "9e4b902802e239f4871a4553fac0a5bf05dabe8db0a06ba6b844bdcf8d525847",
        ("domino", 3, 4, 3, 5): "e119a7357d23c4e7d00d631770c6caacad57a939a4e52476c34964879798905e",
    }
    for (kind, d, n, m, seed), digest in pinned.items():
        _, sys = make_system(kind=kind, d=d, inv_eps=n, m=m, seed=seed, max_level=2)
        v = np.random.default_rng(seed).standard_normal(sys.n)
        h = hashlib.sha256()
        h.update(sl.cell_energies(sys, v).tobytes())
        h.update(sl.cell_mass(sys, v).tobytes())
        assert h.hexdigest() == digest, (kind, d)


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    inv_eps=st.integers(2, 6),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_pattern_is_the_sorted_element_keys(d, inv_eps, m, seed):
    """The pattern read off the grid is np.unique of the element (row, col)
    keys, n_axis = 2 included, and every matrix is in canonical CSR form:
    rows ascending, columns strictly ascending within a row."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=m, seed=seed)
    n = sys.n
    keys = (sys.el_dofs[:, :, None] * n + sys.el_dofs[:, None, :]).ravel()
    pattern, inverse = np.unique(keys, return_inverse=True)
    indices, indptr, slot = _grid_pattern(sys.sub, sys.el_dofs)
    assert np.array_equal(indices, pattern % n)
    assert np.array_equal(indptr, np.searchsorted(pattern, np.arange(n + 1) * n))
    assert np.array_equal(slot, inverse)
    for mat in (sys.K, sys.M, sys.MV, sys.A):
        assert mat.format == "csr"
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        assert (np.diff(rows * n + mat.indices) > 0).all()


def test_lu_factors_the_csc_view_of_a():
    """A is exactly symmetric, so its transpose view holds the arrays of
    A.tocsc() and the LU needs no conversion."""
    for kind, d, n, m in (("iid", 1, 16, 4), ("tensor", 2, 8, 3), ("iid", 3, 4, 3)):
        _, sys = make_system(kind=kind, d=d, inv_eps=n, m=m, seed=5)
        view, csc = sys.A.T, sys.A.tocsc()
        assert view.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(view, name), getattr(csc, name)), (d, name)


def test_stiffness_annihilates_constants():
    for d, n, m in ((1, 16, 4), (2, 6, 2), (3, 4, 2)):
        _, sys = make_system(kind="iid", d=d, inv_eps=n, m=m, seed=1)
        r = sys.K @ np.ones(sys.n)
        assert np.abs(r).max() < 1e-8 / sys.sub.h


def test_constant_field_ground_state(constant_1d):
    # V = beta everywhere: the constant mode is exact with eigenvalue beta
    field, sys = constant_1d
    vals = _dense_eigs(sys, 3)
    assert abs(vals[0] - field.beta) < 1e-9 * field.beta
    w, vecs = scipy.linalg.eigh(
        sys.A.toarray(), sys.M.toarray(), subset_by_index=[0, 0]
    )
    u = vecs[:, 0]
    assert np.abs(u - u.mean()).max() < 1e-10 * np.abs(u.mean())


def test_constant_field_second_eigenvalue(constant_1d):
    field, sys = constant_1d
    vals = _dense_eigs(sys, 3)
    # first nonconstant torus mode, doubly degenerate: E = beta + (2 pi)^2
    expect = field.beta + 4.0 * np.pi**2
    assert abs(vals[1] - expect) < 0.02 * 4.0 * np.pi**2
    assert abs(vals[2] - vals[1]) < 1e-6 * vals[1]


def test_galerkin_monotonicity():
    # nested dyadic refinements can only lower the Ritz values
    field = sl.gen_iid(sl.GridSpec(1, 16, seed=3), 1.0, 8.0 * 16**2, 0.5)
    spectra = {}
    for m in (1, 2, 4):
        sys = sl.assemble(field, sl.SubgridSpec(field.grid, m))
        spectra[m] = _dense_eigs(sys, 5)
    for k in range(5):
        assert spectra[2][k] <= spectra[1][k] * (1 + 1e-12)
        assert spectra[4][k] <= spectra[2][k] * (1 + 1e-12)


def test_ground_energy_scales_with_widest_valley():
    """E_1 >= c (eps L)^-2 with c calibrated on the periodic field.

    The periodic pattern (L=1) realizes the smallest product E_1 (eps L)^2 in
    this family; wider valleys lose relatively less to wall penetration, so
    the calibrated constant transfers with a modest safety factor.
    """
    per, per_sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    c_cal = _dense_eigs(per_sys, 1)[0] * per.grid.eps**2
    for seed in range(20):
        field, sys = make_system(kind="iid", d=1, inv_eps=32, m=2, seed=seed)
        stats = sl.analyze_geometry(field)
        e1 = _dense_eigs(sys, 1)[0]
        bound = 0.5 * c_cal / (field.grid.eps * stats.max_width) ** 2
        assert e1 >= bound, "seed %d: E1=%.3f < %.3f (L=%d)" % (
            seed,
            e1,
            bound,
            stats.max_width,
        )


def test_valley_mode_rayleigh_is_sharp():
    """The product sine on a width-w valley has Rayleigh quotient close to
    alpha + d pi^2 / (eps w)^2, the upper-bound side of the energy scaling."""
    for d, n, w, m in ((1, 16, 4, 4), (2, 8, 3, 4)):
        field, sys = make_system(kind="planted", d=d, inv_eps=n, m=m, widths=[w])
        stats = sl.analyze_geometry(field)
        valley = stats.valleys[0]
        nodes = np.zeros(sys.sub.node_shape)
        ax = []
        for a in range(d):
            k = np.arange(1, w * m)
            ax.append(((valley.anchor[a] * m + k) % sys.sub.n_axis, np.sin(np.pi * k / (w * m))))
        idx = np.ix_(*[i for i, _ in ax])
        prof = ax[0][1]
        for _, s in ax[1:]:
            prof = np.multiply.outer(prof, s)
        nodes[idx] = prof
        v = nodes.ravel()
        expect = field.alpha + d * np.pi**2 / (field.grid.eps * w) ** 2
        r = sl.rayleigh(sys, v)
        assert r <= expect * 1.01
        assert r >= field.alpha + 0.9 * d * np.pi**2 / (field.grid.eps * w) ** 2


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(FIELD_KINDS),
    d=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_energies_partition_total(kind, d, seed):
    inv_eps = {1: 8, 2: 8, 3: 4}[d]
    _, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=2, seed=seed, max_level=2)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(sys.n)
        total = float(v @ (sys.A @ v))
        np.testing.assert_allclose(sl.cell_energies(sys, v).sum(), total, rtol=1e-10)
        np.testing.assert_allclose(
            sl.cell_mass(sys, v).sum(), float(v @ (sys.M @ v)), rtol=1e-10
        )


def test_cell_energies_localize(random_1d):
    _, sys = random_1d
    v = np.zeros(sys.n)
    v[10 * sys.sub.m + 2] = 1.0  # node strictly inside cell 10 (m=4)
    e = sl.cell_energies(sys, v)
    assert e[10] > 0
    mask = np.ones(len(e), dtype=bool)
    mask[10] = False
    assert np.abs(e[mask]).max() == 0.0


def test_energy_split_consistency(random_1d):
    _, sys = random_1d
    rng = np.random.Generator(np.random.Philox(8))
    v = rng.standard_normal(sys.n)
    grad, pot = float(v @ (sys.K @ v)), float(v @ (sys.MV @ v))
    assert grad >= 0 and pot >= 0
    np.testing.assert_allclose(grad + pot, sl.energy_norm(sys, v) ** 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# cutoff


def test_cutoff_profile_m4():
    field, sys = make_system(kind="constant", d=1, inv_eps=4, m=4, beta=256.0)
    cut = sl.build_cutoff(field, sys.sub)
    per_cell = cut.values.reshape(4, 4)
    np.testing.assert_array_equal(per_cell, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
    # ramp 1 -> 0 over eps/4: slope exactly 4/eps
    np.testing.assert_allclose(cut.max_gradient, 4.0 * 4.0)


def test_cutoff_profile_m8():
    field, sys = make_system(kind="constant", d=1, inv_eps=4, m=8, beta=256.0)
    cut = sl.build_cutoff(field, sys.sub)
    per_cell = cut.values.reshape(4, 8)
    expect = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    np.testing.assert_array_equal(per_cell, np.tile(expect, (4, 1)))


def test_cutoff_trivial_on_alpha_only_field():
    field = sl.gen_iid(sl.GridSpec(2, 4), 1.0, 256.0, 0.0)
    cut = sl.build_cutoff(field, sl.SubgridSpec(field.grid, 4))
    assert (cut.values == 1.0).all()
    assert cut.max_gradient == 0.0


def test_cutoff_gradient_bound():
    for d, n in ((1, 8), (2, 6)):
        for seed in range(3):
            field = sl.gen_iid(sl.GridSpec(d, n, seed=seed), 1.0, 8.0 * n**2, 0.5)
            cut = sl.build_cutoff(field, sl.SubgridSpec(field.grid, 4))
            assert cut.max_gradient <= 4.0 * np.sqrt(d) * n * (1 + 1e-12)
    # all-barrier fields attain the bound exactly at plateau corners
    for d in (2, 3):
        field = sl.gen_iid(sl.GridSpec(d, 4), 1.0, 128.0, 1.0)
        cut = sl.build_cutoff(field, sl.SubgridSpec(field.grid, 4))
        np.testing.assert_allclose(cut.max_gradient, 4.0 * np.sqrt(d) * 4, rtol=1e-12)


def test_cutoff_validation():
    field = sl.gen_iid(sl.GridSpec(1, 4, seed=0), 1.0, 128.0, 0.5)
    with pytest.raises(ValueError, match="divisible by 4"):
        sl.build_cutoff(field, sl.SubgridSpec(field.grid, 3))


# ---------------------------------------------------------------------------
# support masks


def test_mask_of_vector_hand_cases():
    grid = sl.GridSpec(1, 4)
    sub = sl.SubgridSpec(grid, 2)  # 8 nodes, cell k owns nodes [2k, 2k+2]
    e = np.zeros(8)
    e[3] = 1.0  # interior node of cell 1
    np.testing.assert_array_equal(
        sl.mask_of_vector(sub, e), [False, True, False, False]
    )
    e = np.zeros(8)
    e[2] = 1.0  # shared corner of cells 0 and 1
    np.testing.assert_array_equal(
        sl.mask_of_vector(sub, e), [True, True, False, False]
    )
    e = np.zeros(8)
    e[0] = 1.0  # wraps: corner of cells 3 and 0
    np.testing.assert_array_equal(
        sl.mask_of_vector(sub, e), [True, False, False, True]
    )


def test_mask_of_vector_2d_interior():
    grid = sl.GridSpec(2, 4)
    sub = sl.SubgridSpec(grid, 4)
    v = np.zeros(sub.node_shape)
    v[4 + 2, 8 + 2] = 1.0  # strictly inside cell (1, 2)
    mask = sl.mask_of_vector(sub, v.ravel())
    expect = np.zeros((4, 4), dtype=bool)
    expect[1, 2] = True
    np.testing.assert_array_equal(mask, expect)


def test_dilate_cells_wraps():
    mask = np.array([True, False, False, False])
    np.testing.assert_array_equal(sl.dilate_cells(mask), [True, True, False, True])
    np.testing.assert_array_equal(sl.dilate_cells(mask, 2), [True, True, True, True])
    block = np.zeros((5, 5), dtype=bool)
    block[0, 0] = True
    got = sl.dilate_cells(block)
    expect = np.zeros((5, 5), dtype=bool)
    expect[np.ix_([-1, 0, 1], [-1, 0, 1])] = True
    np.testing.assert_array_equal(got, expect)


def _dilate_one_layer_at_a_time(mask, layers):
    """The definition: `layers` steps, each ORing every cell with its two
    neighbours along each axis in turn, torus wrap included."""
    out = mask.copy()
    for _ in range(layers):
        for axis in range(out.ndim):
            out = out | np.roll(out, 1, axis=axis) | np.roll(out, -1, axis=axis)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dilate_cells_equals_iterated_layers(d):
    """One window per axis gives the booleans of the layer-by-layer
    definition for every layer count from 0 past the whole torus, on
    empty, full and random masks, also with unequal axis lengths."""
    rng = np.random.default_rng(d)
    shapes = [(n,) * d for n in (1, 2, 3, 4, 7, 10)] + [(9, 4, 6)[:d]]
    for shape in shapes:
        masks = [np.zeros(shape, bool), np.ones(shape, bool)]
        masks += [rng.random(shape) < p for p in (0.05, 0.2, 0.5)]
        for mask in masks:
            for layers in range(max(shape) + 2):
                got = sl.dilate_cells(mask, layers)
                np.testing.assert_array_equal(got, _dilate_one_layer_at_a_time(mask, layers))
                assert got.dtype == bool and got.flags.writeable
                assert not np.shares_memory(got, mask)


def test_mask_allows_is_strict():
    grid = sl.GridSpec(1, 4)
    sub = sl.SubgridSpec(grid, 2)
    e = np.zeros(8)
    e[3] = 1.0
    assert sl.mask_allows(sub, e, np.array([False, True, False, False]))
    e[2] = 1e-300  # touches cell 0 as well, however small
    assert not sl.mask_allows(sub, e, np.array([False, True, False, False]))
    assert sl.mask_allows(sub, e, np.array([True, True, False, False]))


def test_certificate_refuses_nan_outside_the_mask():
    """A NaN entry is nonzero: it marks its cells, and one outside the grown
    mask raises like any other entry there, however small."""
    sub = sl.SubgridSpec(sl.GridSpec(1, 8), 2)  # 16 nodes, cell k owns [2k, 2k+2]
    v = np.zeros(sub.ndof)
    v[3] = 1.0  # interior node of cell 1
    mask = sl.mask_of_vector(sub, v)
    for bad in (1e-300, np.nan):
        v[12] = bad  # shared corner of cells 5 and 6
        with pytest.raises(NumericalError, match="escaped"):
            sl.certify_support(sub, v, mask, 1)
        assert sl.mask_of_vector(sub, v)[[5, 6]].all()


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    k=st.integers(1, 4),
    layers=st.integers(0, 2),
    density=st.floats(0.05, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_masks_and_certificate_are_columnwise(d, k, layers, density, seed):
    """A block's masks are its column masks stacked. certify_support accepts
    columns anywhere within `layers` layers of their own masks, also outside
    the masks themselves, and returns the measured column masks; one entry
    moved outside its column's grown mask but inside the next column's is
    refused."""
    sub = sl.SubgridSpec(sl.GridSpec(d, {1: 12, 2: 6, 3: 4}[d]), 2)
    rng = np.random.default_rng(seed)
    masks = rng.random((k,) + sub.grid.shape) < density
    grown = np.stack([sl.dilate_cells(m, layers) for m in masks])
    keep = grown & (rng.random(grown.shape) < 0.7)
    V = rng.standard_normal((sub.ndof, k))
    for j in range(k):
        V[nodes_of_cells(sub, ~keep[j]), j] = 0.0
    got = sl.mask_of_vector(sub, V)
    assert got.shape == (k,) + sub.grid.shape
    for j in range(k):
        np.testing.assert_array_equal(got[j], sl.mask_of_vector(sub, V[:, j]))
    np.testing.assert_array_equal(got, keep)
    np.testing.assert_array_equal(sl.certify_support(sub, V, masks, layers), got)
    j = int(rng.integers(k))
    other = nodes_of_cells(sub, grown[(j + 1) % k])
    outside = np.flatnonzero(nodes_of_cells(sub, ~grown[j]) & other)
    assume(len(outside) > 0)
    V[outside[rng.integers(len(outside))], j] = 1.0
    with pytest.raises(NumericalError, match="escaped"):
        sl.certify_support(sub, V, masks, layers)


# ---------------------------------------------------------------------------
# guards and digests


def test_assemble_validation(monkeypatch):
    field = sl.gen_iid(sl.GridSpec(1, 8, seed=0), 1.0, 512.0, 0.5)
    with monkeypatch.context() as mp:
        mp.setattr(sl.fem, "DEFAULT_DOF_LIMIT", 16)
        with pytest.raises(ValueError, match="refusing"):
            sl.assemble(field, sl.SubgridSpec(field.grid, 4))
    with pytest.raises(ValueError, match="m must be at least 1"):
        sl.SubgridSpec(field.grid, 0)
    other = sl.GridSpec(1, 16)
    with pytest.raises(ValueError, match="different cell grid"):
        sl.assemble(field, sl.SubgridSpec(other, 4))
    zero = sl.PotentialField(
        sl.GridSpec(1, 4), np.zeros(4, bool), 0.0, 1.0, kind="iid"
    )
    with pytest.raises(ValueError, match="singular"):
        sl.assemble(zero, sl.SubgridSpec(zero.grid, 2))


def test_rayleigh_rejects_zero_vector(random_1d):
    _, sys = random_1d
    with pytest.raises(NumericalError, match="zero vector"):
        sl.rayleigh(sys, np.zeros(sys.n))


def test_system_digest_distinguishes_fields():
    from schrodloc.fem import system_digest

    _, sys_a = make_system(kind="iid", d=1, inv_eps=8, m=2, seed=0)
    _, sys_b = make_system(kind="iid", d=1, inv_eps=8, m=2, seed=1)
    _, sys_a2 = make_system(kind="iid", d=1, inv_eps=8, m=2, seed=0)
    assert system_digest(sys_a) == system_digest(sys_a2)
    assert system_digest(sys_a) != system_digest(sys_b)
