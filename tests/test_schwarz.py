"""Vertex patches, the patch-projection operator, and its contraction.

The operator-level claims (spectrum within [1/stable, 2^d], a-symmetry,
one-layer support growth) are checked directly; the iteration-level claims
(geometric energy decay below the theoretical or estimated factor) on frozen
seeded instances with the margins observed at freeze time.
"""

import dataclasses
import types

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import schrodloc as sl
from schrodloc import schwarz
from schrodloc.analysis import _cell_indicator
from schrodloc.errors import NumericalError
from schrodloc.schwarz import _patch_solve, estimate_contraction
from conftest import make_system, nodes_of_cells


def _node_sets(patches):
    """Row v: the interior nodes of vertex v's patch, rebuilt from the
    groups' patch ids and gather arrays."""
    rows = np.empty((patches.n_patches, patches.patch_size), dtype=np.int64)
    for (ids, _), dofs in zip(patches.groups.values(), patches.gather):
        rows[ids] = dofs.T
    return rows


def test_patch_enumeration_hand_case():
    # d=1, inv_eps=4, m=2: patch at vertex k holds nodes 2k-1, 2k, 2k+1
    _, sys = make_system(kind="periodic", d=1, inv_eps=4, m=2)
    patches = sl.build_patches(sys)
    assert patches.n_patches == 4
    assert patches.patch_size == 3
    np.testing.assert_array_equal(
        _node_sets(patches), [[7, 0, 1], [1, 2, 3], [3, 4, 5], [5, 6, 7]]
    )


def test_every_element_touches_2d_patches():
    for d, n, m in ((1, 4, 2), (1, 8, 1), (2, 4, 2)):
        _, sys = make_system(kind="iid", d=d, inv_eps=n, m=m, seed=0)
        patches = sl.build_patches(sys)
        node_sets = [set(row) for row in _node_sets(patches)]
        for el in sys.el_dofs:
            hit = sum(1 for s in node_sets if not s.isdisjoint(el))
            assert hit == 2**d


def test_patches_share_local_matrices_within_groups():
    """The patch matrix depends only on the occupancy of its 2^d cells."""
    _, sys = make_system(kind="iid", d=2, inv_eps=6, m=2, seed=4)
    patches = sl.build_patches(sys)
    assert len(patches.groups) >= 2
    nodes = _node_sets(patches)
    for ids, _ in patches.groups.values():
        rep = nodes[ids[0]]
        ref = sys.A[np.ix_(rep, rep)].toarray()
        for pid in ids[1:3]:
            other = nodes[pid]
            np.testing.assert_array_equal(
                sys.A[np.ix_(other, other)].toarray(), ref
            )


def test_theoretical_constants_values():
    c1 = sl.theoretical_constants(1, 1, 1.0)
    assert c1.overlap == 2.0
    assert c1.stable == 8.0
    np.testing.assert_allclose(c1.theta, 8.0 / 17.0, rtol=1e-15)
    np.testing.assert_allclose(c1.bound, 16.0 / 17.0, rtol=1e-15)
    c2 = sl.theoretical_constants(2, 1, 1.0)
    assert c2.overlap == 4.0 and c2.stable == 16.0
    np.testing.assert_allclose(c2.bound, 64.0 / 65.0, rtol=1e-15)
    # wider valleys only weaken the bound
    assert sl.theoretical_constants(1, 4, 1.0).bound > c1.bound


def test_patch_operator_a_symmetric(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    rng = np.random.Generator(np.random.Philox(2))
    for _ in range(3):
        v = rng.standard_normal(sys.n)
        w = rng.standard_normal(sys.n)
        pv = sl.schwarz_precondition(prec, sys, sys.A @ v)
        pw = sl.schwarz_precondition(prec, sys, sys.A @ w)
        left = float(pv @ (sys.A @ w))
        right = float(v @ (sys.A @ pw))
        assert abs(left - right) < 1e-9 * (abs(left) + abs(right))


def test_patch_operator_rayleigh_below_overlap(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(5):
        v = rng.standard_normal(sys.n)
        pv = sl.schwarz_precondition(prec, sys, sys.A @ v)
        q = float(pv @ (sys.A @ v)) / float(v @ (sys.A @ v))
        assert 0.0 < q <= 2.0 * (1 + 1e-10)
    assert prec.lam_max <= 2.0 * (1 + 1e-9)
    assert prec.lam_min > 0.0


def test_spectral_extremes_2d_overlap():
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=2, seed=1)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    assert prec.lam_max <= 4.0 * (1 + 1e-9)
    assert prec.lam_min > 0.0


def test_theoretical_mode_contracts_below_bound():
    """Periodic reference, c_stable=1: the claimed bound 16/17 holds with a
    wide margin (measured factor about 0.69 at freeze time)."""
    _, sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    prec = sl.build_preconditioner(sys, mode="theoretical")
    np.testing.assert_allclose(prec.theta, 8.0 / 17.0, rtol=1e-15)
    est = estimate_contraction(prec, sys)
    assert est.gamma <= prec.constants.bound
    rng = np.random.Generator(np.random.Philox(3))
    load = sys.M @ rng.standard_normal(sys.n)
    ref = sys.solve(load)
    res = sl.richardson_solve(prec, sys, load, steps=12, reference=ref)
    ratios = np.array(res.errors[1:]) / np.array(res.errors[:-1])
    assert ratios.max() <= prec.constants.bound * (1 + 1e-9)


def test_theoretical_mode_contracts_below_bound_2d():
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=2, seed=1)
    prec = sl.build_preconditioner(sys, mode="theoretical")
    est = estimate_contraction(prec, sys)
    assert est.gamma <= prec.constants.bound


def test_richardson_geometric_decay(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    est = estimate_contraction(prec, sys)
    assert est.converged
    rng = np.random.Generator(np.random.Philox(5))
    load = sys.M @ rng.standard_normal(sys.n)
    ref = sys.solve(load)
    res = sl.richardson_solve(prec, sys, load, steps=15, reference=ref)
    ratios = np.array(res.errors[1:]) / np.array(res.errors[:-1])
    # per-step energy contraction stays below the power-iteration estimate
    assert ratios.max() <= est.gamma * 1.02
    assert res.errors[-1] <= res.errors[0] * (est.gamma * 1.02) ** 14
    assert res.residuals[-1] < res.residuals[0]


CONTRASTS = (8, 64, 512, 4096, 32768)


@pytest.mark.parametrize(
    "kw, spread",
    [
        (dict(kind="iid", d=1, inv_eps=64, m=4, seed=5), 0.01),
        (dict(kind="tensor", d=2, inv_eps=32, m=2, seed=5), 0.02),
    ],
    ids=["iid-1d", "tensor-2d"],
)
def test_contraction_bounded_uniformly_in_contrast(kw, spread):
    """Claim 1 over beta = c / eps^2: the adaptive contraction does not grow
    with the contrast (within the estimate's 1e-4 tolerance) and saturates;
    its spread over c >= 64 was 0.0085 (iid-1d) and 0.0186 (tensor-2d) at
    freeze time. The theoretical mode stays under its bound, which reads no
    beta, at every c (measured at most 0.946 and 0.906 against 0.997).
    The patch-preconditioned CG solve of a mass-normalized single-cell load
    at the torus centre needs no more iterations at c >= 64 than at c = 8
    (measured 40/16/17/16/15 on iid-1d and 48/40/44/45/45 on tensor-2d)."""
    adaptive, pcg_iters = [], []
    for c in CONTRASTS:
        _, sys = make_system(beta=c * kw["inv_eps"] ** 2, **kw)
        prec = sl.build_preconditioner(sys)
        adaptive.append(estimate_contraction(prec, sys).gamma)
        f = _cell_indicator(sys, (kw["inv_eps"] // 2,) * kw["d"])
        pcg_iters.append(sl.pcg_solve(prec, sys, sys.M @ (f / sl.mass_norm(sys, f)))[1])
        prec_t = sl.build_preconditioner(sys, mode="theoretical")
        assert estimate_contraction(prec_t, sys).gamma < prec_t.constants.bound, c
    assert all(b <= a * (1 + 1e-4) for a, b in zip(adaptive, adaptive[1:])), adaptive
    assert max(adaptive[1:]) - min(adaptive[1:]) <= spread, adaptive
    assert max(pcg_iters[1:]) <= pcg_iters[0], pcg_iters


def test_adaptive_step_at_least_as_good_as_theoretical():
    _, sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    prec_t = sl.build_preconditioner(sys, mode="theoretical")
    prec_a = sl.build_preconditioner(sys, mode="adaptive")
    g_t = estimate_contraction(prec_t, sys).gamma
    g_a = estimate_contraction(prec_a, sys).gamma
    assert g_a <= g_t * (1 + 1e-6)


@pytest.mark.parametrize(
    "kw",
    [
        dict(kind="iid", d=1, inv_eps=64, m=4, seed=3),
        dict(kind="tensor", d=2, inv_eps=8, m=2, seed=1),
        dict(kind="iid", d=3, inv_eps=4, m=2, seed=1),
        # iters=48 > n: the recurrence breaks down (periodic, n=8, 5 steps)
        # or runs on past n and repeats Ritz values (iid, n=16)
        dict(kind="periodic", d=1, inv_eps=4, m=2, seed=1),
        dict(kind="iid", d=1, inv_eps=8, m=2, seed=1),
    ],
)
def test_spectral_extremes_match_dense_generalized_eigenvalues(kw):
    """Krylov extremes equal the extreme eigenvalues of A B A v = lam A v,
    B the dense patch-solve matrix, i.e. the spectrum of P = B A. So, in
    both modes, step_gamma is ||id - theta P||_A = max |1 - theta lam| over
    that spectrum, and the power iteration, which approaches it from below,
    never reads above it."""
    _, sys = make_system(**kw)
    for mode in ("adaptive", "theoretical"):
        prec = sl.build_preconditioner(sys, mode=mode)
        A = sys.A.toarray()
        B = _patch_solve(prec.patches, np.eye(sys.n))
        w = sla.eigh(A @ B @ A, A, eigvals_only=True)
        np.testing.assert_allclose([prec.lam_min, prec.lam_max], [w[0], w[-1]], rtol=1e-8)
        assert abs(prec.step_gamma - np.abs(1.0 - prec.theta * w).max()) <= 1e-8, mode
        assert estimate_contraction(prec, sys).gamma <= prec.step_gamma + 1e-12, mode


def _local_solve_sum(sys, patches, r):
    """Reference sum_z E_z A_z^{-1} R_z r, one dense solve per patch."""
    out = np.zeros_like(r)
    for idx in _node_sets(patches):
        out[idx] += np.linalg.solve(sys.A[np.ix_(idx, idx)].toarray(), r[idx])
    return out


@pytest.mark.parametrize(
    "kw, min_groups",
    [
        (dict(kind="iid", d=1, inv_eps=64, m=4, seed=3), 2),
        (dict(kind="tensor", d=2, inv_eps=8, m=3, seed=1), 2),
        (dict(kind="iid", d=3, inv_eps=6, m=2, seed=3), 101),
    ],
)
def test_patch_solve_matches_local_solve_sum(kw, min_groups):
    _, sys = make_system(**kw)
    patches = sl.build_patches(sys)
    assert len(patches.groups) >= min_groups
    r = np.random.Generator(np.random.Philox(8)).standard_normal((sys.n, 3))
    out = _patch_solve(patches, r)
    ref = _local_solve_sum(sys, patches, r)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
@pytest.mark.parametrize("d, inv_eps, m", [(1, 16, 3), (2, 6, 3), (3, 4, 2)])
def test_local_solves_over_a_layer_range(d, inv_eps, m, cols):
    """_local_solves on vertex layers v0:v1 writes the columns of exactly the
    patches in those layers (axis-0 index of the vertex id) and leaves every
    other column as it was. The written columns match the full solve's to
    rounding, not bit for bit: BLAS picks its kernel by the number of
    columns, so a range's matmul may round differently in the last bits
    (at most 6.5e-16 of the largest entry on these systems)."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=m, seed=3)
    patches = sl.build_patches(sys)
    shape = (sys.n,) if cols is None else (sys.n, cols)
    r = np.random.Generator(np.random.Philox(4)).standard_normal(shape)
    full = np.full((patches.patch_size, patches.n_patches) + shape[1:], np.nan)
    schwarz._local_solves(patches, r, full, 0, inv_eps)
    assert not np.isnan(full).any()
    layer = np.concatenate([ids for ids, _ in patches.groups.values()]) // inv_eps ** (d - 1)
    for v0 in range(inv_eps):
        for v1 in range(v0 + 1, inv_eps + 1):
            sols = np.full_like(full, np.nan)
            schwarz._local_solves(patches, r, sols, v0, v1)
            inside = (v0 <= layer) & (layer < v1)
            assert np.isnan(sols[:, ~inside]).all(), (v0, v1)
            np.testing.assert_allclose(
                sols[:, inside], full[:, inside], rtol=0, atol=4e-15 * np.abs(full).max()
            )


def test_local_inverse_refuses_an_indefinite_patch_matrix():
    with pytest.raises(NumericalError, match="not positive definite"):
        schwarz._local_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_patch_solve_block_matches_columns():
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=3, seed=2)
    patches = sl.build_patches(sys)
    r = np.random.Generator(np.random.Philox(9)).standard_normal((sys.n, 8))
    block = _patch_solve(patches, r)
    cols = np.stack([_patch_solve(patches, r[:, j]) for j in range(r.shape[1])], axis=1)
    np.testing.assert_allclose(block, cols, rtol=0, atol=1e-13 * np.abs(cols).max())


@pytest.fixture(scope="module")
def iid_2d_patches():
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=2, seed=6)
    return sys, sl.build_patches(sys)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.5), k=st.sampled_from([0, 1, 3]))
def test_patch_solve_bitwise_zero_outside_dilated_mask(iid_2d_patches, seed, density, k):
    sys, patches = iid_2d_patches
    rng = np.random.default_rng(seed)
    mask = rng.random(sys.field.grid.shape) < density
    shape = (sys.n,) if k == 0 else (sys.n, k)
    load = rng.standard_normal(shape)
    load[nodes_of_cells(sys.sub, ~mask)] = 0.0
    out = _patch_solve(patches, load)
    grown = sl.dilate_cells(mask)
    assert not out[nodes_of_cells(sys.sub, ~grown)].view(np.uint64).any()
    assert all(sl.mask_allows(sys.sub, col, grown) for col in out.reshape(sys.n, -1).T)


def test_single_cell_load_support_is_one_dilation(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    m = sys.sub.m
    v = np.zeros(sys.n)
    v[20 * m + 2] = 1.0  # strictly inside cell 20
    src = sl.mask_of_vector(sys.sub, v)
    out = sl.schwarz_precondition(prec, sys, v)
    np.testing.assert_array_equal(sl.certify_support(sys.sub, out, src, 1), sl.dilate_cells(src))
    # untouched patches contribute bitwise zeros, not small numbers
    far = np.ones(sys.n, dtype=bool)
    far[18 * m - m + 1 : 23 * m + m] = False
    assert np.all(out[far] == 0.0)


def test_richardson_support_tracking(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    m = sys.sub.m
    load = np.zeros(sys.n)
    load[40 * m + 1 : 40 * m + m] = 1.0  # inside cell 40
    src = sl.mask_of_vector(sys.sub, load)
    res = sl.richardson_solve(prec, sys, load, steps=5, source_mask=src)
    np.testing.assert_array_equal(res.bound_mask, sl.dilate_cells(src, 5))
    assert sl.mask_allows(sys.sub, res.u, res.bound_mask)
    assert res.support_cells == sorted(res.support_cells)
    assert res.support_cells[-1] <= int(sl.dilate_cells(src, 5).sum())


def test_richardson_escape_guard(random_1d):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    load = np.ones(sys.n)  # global load
    src = np.zeros(sys.field.grid.shape, dtype=bool)
    src[0] = True  # dishonest claim: load is not supported there
    with pytest.raises(NumericalError, match="escaped"):
        sl.richardson_solve(prec, sys, load, steps=2, source_mask=src)


@pytest.mark.parametrize("mode", ["adaptive", "theoretical"])
@pytest.mark.parametrize("d, inv_eps, m", [(1, 64, 4), (2, 8, 4), (3, 4, 2)])
def test_pcg_matches_direct_solve(d, inv_eps, m, mode):
    """The patch-preconditioned CG agrees with the sparse LU to 2e-14 in the
    relative energy norm; at most 4.5e-15 was measured on iid, tensor,
    domino, periodic and planted fields in d = 1-3, in both modes."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=m, seed=3)
    prec = sl.build_preconditioner(sys, mode=mode)
    load = sys.M @ np.random.Generator(np.random.Philox(d)).standard_normal(sys.n)
    ref = sys.solve(load)
    u, iters, ratio = sl.pcg_solve(prec, sys, load)
    assert ratio <= schwarz.PCG_STOP and 0 < iters < schwarz.MAX_PCG
    assert sl.energy_norm(sys, u - ref) <= 2e-14 * sl.energy_norm(sys, ref)


@pytest.mark.parametrize("stop", [1e-2, 1e-8, schwarz.PCG_STOP])
def test_pcg_support_grows_one_layer_per_iteration(stop, monkeypatch):
    """Iterate k lies in the Krylov space of B load, so it is exactly zero
    outside k cell layers of the source; a looser stop ends at a smaller k."""
    _, sys = make_system(kind="iid", d=1, inv_eps=256, m=4, seed=3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    load = np.zeros(sys.n)
    load[128 * sys.sub.m + 1 : 129 * sys.sub.m] = 1.0  # inside cell 128
    src = sl.mask_of_vector(sys.sub, load)
    monkeypatch.setattr(schwarz, "PCG_STOP", stop)
    u, iters, ratio = sl.pcg_solve(prec, sys, load)
    assert ratio <= stop
    grown = sl.dilate_cells(src, iters)
    assert not grown.all()
    np.testing.assert_array_equal(sl.certify_support(sys.sub, u, src, iters), grown)


def test_pcg_guards(random_1d, monkeypatch):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    load = sys.M @ np.ones(sys.n)
    u, iters, ratio = sl.pcg_solve(prec, sys, np.zeros(sys.n))
    assert not u.any() and iters == 0 and ratio == 0.0
    with pytest.raises(NumericalError, match="not positive"):
        sl.pcg_solve(prec, types.SimpleNamespace(A=-sys.A, sub=sys.sub, n=sys.n), load)
    monkeypatch.setattr(schwarz, "MAX_PCG", 3)
    with pytest.raises(NumericalError, match="limit of 3 iterations"):
        sl.pcg_solve(prec, sys, load)


def _global_pcg(prec, sys, load):
    """pcg_solve as a plain loop over the whole torus; returns the solution
    and the ratio history, ratios[k] being the ratio after k steps."""
    u, r = np.zeros_like(load), load.copy()
    z = p = _patch_solve(prec.patches, r)
    rho = rho0 = float(r @ z)
    ratios = [1.0 if rho0 > 0.0 else 0.0]
    while ratios[-1] > schwarz.PCG_STOP:
        ap = sys.A @ p
        alpha = rho / float(p @ ap)
        u += alpha * p
        r -= alpha * ap
        z = _patch_solve(prec.patches, r)
        rho, rho_prev = float(r @ z), rho
        p = z + (rho / rho_prev) * p
        ratios.append(np.sqrt(max(rho, 0.0) / rho0))
    return u, ratios


def _global_richardson(prec, sys, load, steps):
    """richardson_solve's iterate as a plain loop over the whole torus."""
    u = np.zeros_like(load)
    for _ in range(steps):
        u = u + prec.theta * _patch_solve(prec.patches, load - sys.A @ u)
    return u


@pytest.fixture(scope="module")
def band_systems():
    """Systems and preconditioners for the band tests, keyed by (d, m); with
    m = 1 a patch solve writes only its vertex row and the band grows by
    the products with A alone."""
    out = {}
    for d, kind, inv_eps, m in (
        (1, "iid", 48, 3), (2, "tensor", 12, 2), (2, "iid", 12, 1), (3, "iid", 6, 2)
    ):
        _, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=m, seed=d)
        out[d, m] = sys, sl.build_preconditioner(sys, mode="adaptive")
    return out


def _assert_same_solution(sys, u, ref):
    """Equal exact-zero patterns and equal solutions to 1e-14 in the energy norm."""
    np.testing.assert_array_equal(u == 0.0, ref == 0.0)
    for col, col_ref in zip(u.reshape(sys.n, -1).T, ref.reshape(sys.n, -1).T):
        assert sl.energy_norm(sys, col - col_ref) <= 1e-14 * sl.energy_norm(sys, col_ref)


@settings(max_examples=40, deadline=None)
@given(
    dm=st.sampled_from([(1, 3), (2, 2), (2, 1), (3, 2)]),
    source=st.sampled_from(["centre", "first", "last", "two", "global"]),
    offset=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 12),
)
def test_band_solvers_match_global_loops(band_systems, dm, source, offset, seed, steps):
    """pcg_solve and richardson_solve, which work on the axis-0 band their
    iterates can have reached, give the same zero pattern and solution as
    global loops, from one source cell in the middle or at either side of
    the axis-0 seam, two distant cells, or a load on the whole torus;
    Richardson also on an (n,2) block. The band's local matmuls round
    differently in the last bit, and CG can carry that to a stop one step
    apart; it may, only where the global ratio lies within a factor 2 of
    PCG_STOP at the earlier stop."""
    sys, prec = band_systems[dm]
    d, ne = dm[0], sys.field.grid.inv_eps
    rng = np.random.default_rng(seed)
    rows = {"centre": [ne // 2], "first": [0], "last": [ne - 1], "two": [1, ne // 2 + 1]}

    def load_at(rows0):
        cells = np.zeros(sys.field.grid.shape, dtype=bool)
        if rows0 is None:
            cells[...] = True
        else:
            cells[(rows0,) + (offset % ne,) * (d - 1)] = True
        return sys.M @ (rng.standard_normal(sys.n) * nodes_of_cells(sys.sub, cells))

    load = load_at(rows.get(source))
    u, iters, ratio = sl.pcg_solve(prec, sys, load)
    ref, ratios = _global_pcg(prec, sys, load)
    ref_iters = len(ratios) - 1
    assert abs(iters - ref_iters) <= 1 and ratio <= schwarz.PCG_STOP
    if iters != ref_iters:
        stop = schwarz.PCG_STOP
        assert stop / 2 <= ratios[min(iters, ref_iters)] <= 2 * stop
    _assert_same_solution(sys, u, ref)
    block = np.stack([load, load_at([ne // 3])], axis=1)
    for rhs in (load, block):
        res = sl.richardson_solve(prec, sys, rhs, steps)
        _assert_same_solution(sys, res.u, _global_richardson(prec, sys, rhs, steps))


def test_compose_smoother_integer_counts(random_1d):
    """The degree is the least k with 1/T_k(1/g) <= target, g the one-step
    contraction: a target equal to an exact Chebyshev value keeps its
    degree, and a target just below it needs one more."""
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    g = prec.step_gamma
    assert estimate_contraction(prec, sys).gamma <= g < 1.0
    sm = sl.compose_smoother(prec, g)
    assert sm.k_inner == 1 and sm.gamma == g
    t2 = g**2 / (2.0 - g**2)  # 1 / T_2(1/g)
    sm2 = sl.compose_smoother(prec, t2)
    assert sm2.k_inner == 2  # an exact Chebyshev value must not round up to 3
    np.testing.assert_allclose(sm2.gamma, t2, rtol=1e-15)
    sm3 = sl.compose_smoother(prec, t2 * 0.999)
    assert sm3.k_inner == 3
    smt = sl.compose_smoother(prec, 0.5)
    assert smt.gamma <= 0.5


@pytest.mark.parametrize(
    "kw",
    [
        dict(kind="iid", d=1, inv_eps=64, m=4, seed=3),
        dict(kind="tensor", d=2, inv_eps=16, m=2, seed=5),
        dict(kind="periodic", d=1, inv_eps=16, m=4),
    ],
    ids=["iid-1d", "tensor-2d", "periodic-1d"],
)
@pytest.mark.parametrize("mode", ["adaptive", "theoretical"])
def test_chebyshev_smoother_contracts_below_its_certificate(kw, mode):
    """The composed error map E (the smoother applied to identity columns
    with zero load) has exact energy norm ||L^T E L^-T||_2, A = L L^T, at
    most the certified smoother.gamma, at every target; its first step is
    one Richardson step, bitwise. With the power-iteration estimate alone
    as the one-step factor the norm was up to 1.08x (adaptive) and 1.98x
    (theoretical) the certificate."""
    _, sys = make_system(**kw)
    prec = sl.build_preconditioner(sys, mode=mode)
    L = np.linalg.cholesky(sys.A.toarray())
    L_inv_t = np.linalg.inv(L).T
    eye, zero = np.eye(sys.n), np.zeros((sys.n, sys.n))
    for target in (0.5, 1e-2, 1e-4):
        sm = sl.compose_smoother(prec, target)
        assert sm.gamma <= target
        E = schwarz._chebyshev(sm, sys, zero, eye)
        norm = np.linalg.norm(L.T @ E @ L_inv_t, 2)
        assert norm <= sm.gamma * (1 + 1e-6), (target, sm.k_inner, norm, sm.gamma)
    one = dataclasses.replace(sm, k_inner=1)
    load = np.random.Generator(np.random.Philox(4)).standard_normal((sys.n, 2))
    u0 = np.random.Generator(np.random.Philox(5)).standard_normal((sys.n, 2))
    rich = u0 + prec.theta * _patch_solve(prec.patches, load - sys.A @ u0)
    np.testing.assert_array_equal(schwarz._chebyshev(one, sys, load, u0), rich)


def test_build_preconditioner_sets_the_extremes(random_1d):
    """Both modes come out of build_preconditioner with their Lanczos
    extremes, the same ones from the same seed; only theta differs. The
    preconditioner is frozen, so nothing measures or sets them later."""
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="theoretical")
    adaptive = sl.build_preconditioner(sys, mode="adaptive")
    assert (prec.lam_min, prec.lam_max) == (adaptive.lam_min, adaptive.lam_max)
    assert prec.theta == prec.constants.theta and adaptive.constants is None
    assert sl.compose_smoother(prec, 0.25).gamma <= 0.25
    with pytest.raises(dataclasses.FrozenInstanceError):
        prec.lam_min = 0.0


def test_preconditioner_from_patches_alone(random_1d):
    """The patch-kernel timing in perfbench/run.py builds a preconditioner
    from patches, theta and mode alone: it applies the same P as a built
    one, keeps no mode, and refuses to report a contraction."""
    _, sys = random_1d
    built = sl.build_preconditioner(sys, mode="adaptive")
    bare = sl.SchwarzPreconditioner(patches=sl.build_patches(sys), theta=1.0, mode="theoretical")
    v = np.random.Generator(np.random.Philox(3)).standard_normal(sys.n)
    np.testing.assert_array_equal(
        sl.schwarz_precondition(bare, sys, sys.A @ v), sl.schwarz_precondition(built, sys, sys.A @ v)
    )
    assert bare.lam_min is None
    assert "mode" not in [f.name for f in dataclasses.fields(bare)]
    with pytest.raises(NumericalError, match="no spectral extremes"):
        sl.compose_smoother(bare, 0.5)


def test_compose_smoother_guards(random_1d, monkeypatch):
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    with pytest.raises(ValueError):
        sl.compose_smoother(prec, 1.5)
    with pytest.raises(ValueError):
        sl.compose_smoother(prec, 0.0)
    k = sl.compose_smoother(prec, 1e-3).k_inner
    # exactly MAX_INNER inner steps are allowed, one more is not
    monkeypatch.setattr(schwarz, "MAX_INNER", k)
    assert sl.compose_smoother(prec, 1e-3).k_inner == k
    monkeypatch.setattr(schwarz, "MAX_INNER", k - 1)
    with pytest.raises(NumericalError, match="inner steps"):
        sl.compose_smoother(prec, 1e-3)
    monkeypatch.setattr(schwarz, "MAX_INNER", 10)
    with pytest.raises(NumericalError, match="inner steps"):
        sl.compose_smoother(prec, 1e-300)
    with pytest.raises(NumericalError, match="no contraction"):
        sl.compose_smoother(dataclasses.replace(prec, lam_min=0.0), 0.5)


def test_compose_smoother_at_zero_contraction(random_1d):
    """With lam_min == lam_max and theta = 1/lam one damped Richardson step
    is exact: the one-step contraction is 0, so one inner step with gamma 0."""
    _, sys = random_1d
    prec = sl.SchwarzPreconditioner(sl.build_patches(sys), theta=0.5, lam_min=2.0, lam_max=2.0)
    assert prec.step_gamma == 0.0
    sm = sl.compose_smoother(prec, 0.5)
    assert (sm.k_inner, sm.gamma) == (1, 0.0)


def test_build_preconditioner_mode_validation(random_1d):
    field, sys = random_1d
    # theoretical mode reads the valley width off the system's own field
    width = sl.analyze_geometry(field).max_width
    consts = sl.theoretical_constants(field.grid.d, width, 2.0)
    assert sl.build_preconditioner(sys, mode="theoretical", c_stable=2.0).constants == consts
    with pytest.raises(ValueError, match="mode"):
        sl.build_preconditioner(sys, mode="jacobi")
