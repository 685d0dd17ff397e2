"""Oracles, inverse/preconditioned/block iterations, starting blocks.

Rates and error bounds are asserted on frozen seeded instances with the
margins observed when the tests were written; structural claims (fixed
points, support masks, orthogonality, coefficient matrices) are exact or
near machine precision.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import schrodloc as sl
from schrodloc import eig
from schrodloc.errors import NumericalError
from schrodloc.eig import StartBlock, attach_coefficients
from schrodloc.schwarz import estimate_contraction
from conftest import make_system


@pytest.fixture(scope="module")
def random_block_setup(random_1d):
    """Oracle, geometry, adaptive preconditioner for the workhorse field."""
    field, sys = random_1d
    orac = sl.dense_oracle(sys, 8)
    stats = sl.analyze_geometry(field)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    return field, sys, orac, stats, prec


# ---------------------------------------------------------------------------
# oracles


def test_oracles_agree(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    si = sl.shift_invert_oracle(sys, 8)
    np.testing.assert_allclose(si.values, orac.values, rtol=1e-8)
    # eigenvectors match up to sign; the spectrum here is simple enough
    for j in range(4):
        overlap = abs(float(orac.vectors[:, j] @ (sys.M @ si.vectors[:, j])))
        assert abs(overlap - 1.0) < 1e-8
    assert (si.residuals <= 1e-8).all()
    assert (orac.residuals <= 1e-8).all()


def test_oracle_m_orthonormal(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    G = orac.vectors.T @ (sys.M @ orac.vectors)
    np.testing.assert_allclose(G, np.eye(8), atol=1e-10)
    assert (np.diff(orac.values) >= 0).all()


def test_oracle_constant_field(constant_1d):
    field, sys = constant_1d
    spec = sl.dense_oracle(sys, 1)
    np.testing.assert_allclose(spec.values[0], field.beta, rtol=1e-12)
    si = sl.shift_invert_oracle(sys, 1)
    np.testing.assert_allclose(si.values[0], field.beta, rtol=1e-8)


def test_shift_invert_residuals_certified_relative_to_eigenvalue():
    """At inv_eps=1024 the eigenvalues are ~1e5, so an absolute 1e-8 on
    ||Av - lam Mv|| / ||Mv|| (units of lam) would reject converged pairs."""
    _, sys = make_system(kind="iid", d=1, inv_eps=1024, m=4, seed=3)
    si = sl.shift_invert_oracle(sys, 4)
    assert si.residuals.max() > 1e-8
    assert (si.residuals <= 1e-8 * si.values).all()


def _counting_solve(sys):
    """Wrap sys.solve to count its calls; returns the one-element count."""
    solve, count = sys.solve, [0]

    def counting_solve(b):
        count[0] += 1
        return solve(b)

    sys.solve = counting_solve
    return count


def test_shift_invert_stops_at_its_certificate(monkeypatch):
    """With a coarse level (DENSE_LIMIT 64) the ground pair comes from the
    V-cycle-preconditioned LOBPCG, which makes no sys.solve call. At n <=
    DENSE_LIMIT the Galerkin pencil has none, so the ground pair, like four
    pairs, comes from ARPACK on sys.solve. Each run passes its certificate
    of 1e-8 |lam| and returns the pairs of the dense oracle."""
    _, sys = make_system(kind="tensor", d=2, inv_eps=8, m=4, seed=3)
    count = _counting_solve(sys)
    runs = [(64, 1, False), (eig.DENSE_LIMIT, 1, True), (eig.DENSE_LIMIT, 4, True)]
    for limit, n_ev, solves in runs:
        count[0] = 0
        with monkeypatch.context() as mp:
            mp.setattr(eig, "DENSE_LIMIT", limit)
            si = sl.shift_invert_oracle(sys, n_ev)
        assert (count[0] > 0) == solves
        assert (si.residuals <= 1e-8 * np.abs(si.values)).all()
        dense = sl.dense_oracle(sys, n_ev)
        np.testing.assert_allclose(si.values, dense.values, rtol=1e-12)
        overlaps = np.abs(np.sum(si.vectors * (sys.M @ dense.vectors), axis=0))
        np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-10)


def test_shift_invert_keeps_every_copy_of_a_degenerate_eigenvalue():
    """The periodic field's second eigenvalue has multiplicity 4. One start
    vector spans one direction of each eigenspace, and ARPACK finds the other
    copies only by running to machine precision; stopped at 1e-10 it returned
    higher eigenvalues in their place, with residuals that pass."""
    _, sys = make_system(kind="periodic", d=2, inv_eps=16, m=2)
    dense = sl.dense_oracle(sys, 6)
    assert np.ptp(dense.values[1:5]) <= 1e-10 * dense.values[1]
    si = sl.shift_invert_oracle(sys, 6)
    np.testing.assert_allclose(si.values, dense.values, rtol=1e-12)


def test_oracle_validation(random_1d, monkeypatch):
    _, sys = random_1d
    with monkeypatch.context() as mp:
        mp.setattr(eig, "DENSE_LIMIT", 10)
        with pytest.raises(ValueError, match="shift_invert_oracle"):
            sl.dense_oracle(sys, 2)
    with pytest.raises(ValueError):
        sl.dense_oracle(sys, 0)
    with pytest.raises(ValueError):
        sl.dense_oracle(sys, sys.n + 1)
    with pytest.raises(ValueError):
        sl.shift_invert_oracle(sys, sys.n)


def test_auto_oracle_switches_at_dense_limit(random_1d, monkeypatch):
    _, sys = random_1d
    _, big = make_system(kind="iid", d=2, inv_eps=17, m=4)
    assert sys.n <= eig.DENSE_LIMIT < big.n
    for n_ev in (1, 2):
        assert sl.auto_oracle(sys, n_ev).method == "dense"
        assert sl.auto_oracle(big, n_ev).method == "shift-invert"
    # the boundary itself: n == DENSE_LIMIT is dense, one dof more is not
    monkeypatch.setattr(eig, "DENSE_LIMIT", sys.n)
    for n_ev in (1, 2):
        assert sl.auto_oracle(sys, n_ev).method == "dense"
    monkeypatch.setattr(eig, "DENSE_LIMIT", sys.n - 1)
    for n_ev in (1, 2):
        assert sl.auto_oracle(sys, n_ev).method == "shift-invert"


def test_one_factorization_per_system(monkeypatch):
    """The shift-invert oracle, direct solves and inverse power on one system
    share one sparse LU, and ARPACK is handed A^{-1} instead of factoring A."""
    calls = {"splu": 0, "opinv": []}
    splu, eigsh = spla.splu, spla.eigsh

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def recording_eigsh(*args, **kwargs):
        calls["opinv"].append(kwargs.get("OPinv"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    _, sys = make_system(kind="tensor", d=2, inv_eps=8, m=4, seed=3)
    spec = sl.shift_invert_oracle(sys, 4)
    sys.solve(sys.M @ spec.vectors[:, 0])
    sl.inverse_power(sys, spec.values[0], spec.vectors[:, 1], 3)
    assert calls["splu"] == 1
    assert len(calls["opinv"]) == 1 and calls["opinv"][0] is not None


def test_sparse_solve_and_shift_invert_match_dense():
    """On a 2D system small enough for LAPACK: sys.solve agrees with a dense
    solve, shift-invert with the dense oracle, and the dense oracle's subset
    with the lowest values of the full generalized problem, all to 1e-12."""
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=4, seed=3)
    assert sys.n <= eig.DENSE_LIMIT
    A = sys.A.toarray()
    b = np.random.Generator(np.random.Philox(41)).standard_normal(sys.n)
    x_ref = np.linalg.solve(A, b)
    assert np.linalg.norm(sys.solve(b) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    dense = sl.dense_oracle(sys, 6)
    full = sla.eigh(A, sys.M.toarray(), eigvals_only=True)[:6]
    np.testing.assert_allclose(dense.values, full, rtol=1e-12)
    si = sl.shift_invert_oracle(sys, 6)
    np.testing.assert_allclose(si.values, dense.values, rtol=1e-12)
    # an (n, 3) block takes the same transposed solve as a vector
    B = np.random.Generator(np.random.Philox(43)).standard_normal((sys.n, 3))
    X_ref = np.linalg.solve(A, B)
    assert np.linalg.norm(sys.solve(B) - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


@pytest.mark.parametrize(
    "oracle, bad", [(sl.dense_oracle, (0, 65)), (sl.shift_invert_oracle, (0, 64))]
)
def test_oracles_refuse_a_pair_count_out_of_range(oracle, bad):
    """The dense oracle serves 1 to n pairs and shift-invert 1 to n - 1; any
    other count is refused with the oracle's own message, before a solve."""
    _, sys = make_system(kind="iid", d=1, inv_eps=16, m=4, seed=3)
    assert sys.n == 64
    for n_ev in bad:
        with pytest.raises(ValueError, match="n_ev"):
            oracle(sys, n_ev)


def test_shift_invert_refuses_a_nan_pair(monkeypatch):
    """A NaN residual is not under the certificate: ARPACK returning NaN
    vectors raises instead of passing as certified pairs."""
    _, sys = make_system(kind="iid", d=1, inv_eps=16, m=4, seed=3)

    def nan_pair(A, k, **kwargs):
        return np.ones(k), np.full((A.shape[0], k), np.nan)

    monkeypatch.setattr(spla, "eigsh", nan_pair)
    with pytest.raises(NumericalError, match="residuals"):
        sl.shift_invert_oracle(sys, 2)


def test_failed_factorization_is_numerical_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    _, sys = make_system(kind="iid", d=1, inv_eps=16, m=4, seed=3)
    v0 = np.ones(sys.n)
    with pytest.raises(NumericalError, match="sparse LU of A failed"):
        sl.inverse_power(sys, 1.0, v0, 1)
    with pytest.raises(NumericalError, match="sparse LU of A failed"):
        sl.shift_invert_oracle(sys, 2)


# ---------------------------------------------------------------------------
# the ground pair: LOBPCG preconditioned by a multigrid V-cycle

# (system, coarse levels below the fine one at DENSE_LIMIT = 64): 2d-odd and
# 3d-odd assemble m = 1 from m = 3; 1d-m3 assembles m = 1, then halves the
# cell grid by a Galerkin product; 2d-m5 (no factor 2 or 3 in m) halves
# n_axis by Galerkin products, 20 to 5; 2d-prime, an odd cell grid of 11
# per axis, and 2d-m5-odd, n_axis 15 at m 5, have no coarse level
GROUND_CASES = {
    "1d-iid": (dict(kind="iid", d=1, inv_eps=64, m=4), 2),
    "2d-iid": (dict(kind="iid", d=2, inv_eps=8, m=4), 2),
    "3d-iid": (dict(kind="iid", d=3, inv_eps=4, m=2), 1),
    "2d-tensor": (dict(kind="tensor", d=2, inv_eps=8, m=4), 2),
    "2d-periodic": (dict(kind="periodic", d=2, inv_eps=8, m=4), 2),
    "2d-alpha0": (dict(kind="iid", d=2, inv_eps=8, m=4, alpha=0.0), 2),
    "2d-odd": (dict(kind="iid", d=2, inv_eps=5, m=3), 1),
    "3d-odd": (dict(kind="iid", d=3, inv_eps=3, m=3), 1),
    "1d-m3": (dict(kind="iid", d=1, inv_eps=128, m=3), 2),
    "2d-m5": (dict(kind="iid", d=2, inv_eps=4, m=5), 2),
    "2d-prime": (dict(kind="iid", d=2, inv_eps=11, m=1), 0),
    "2d-m5-odd": (dict(kind="iid", d=2, inv_eps=3, m=5), 0),
}


@pytest.mark.parametrize("case", sorted(GROUND_CASES))
def test_ground_pair_matches_dense(case, monkeypatch):
    """One pair from the V-cycle-preconditioned LOBPCG, or from ARPACK on
    sys.solve where _galerkin finds no coarse level, is the dense ground
    pair: eigenvalue to 1e-12, residual
    under the stop of 1e-2 ORACLE_TOL |lam|, and the vector itself wherever
    E2/E1 - 1 > 1e-3 pins it (the periodic field's ground state is nearly
    degenerate)."""
    config, n_coarse = GROUND_CASES[case]
    _, sys = make_system(seed=3, **config)
    dense = sl.dense_oracle(sys, 2)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    assert len(eig._galerkin(sys)) == n_coarse + 1
    count = _counting_solve(sys)
    si = sl.shift_invert_oracle(sys, 1)
    assert (count[0] > 0) == (n_coarse == 0)  # no coarse level: the system's LU
    lam = dense.values[0]
    np.testing.assert_allclose(si.values, [lam], rtol=1e-12)
    assert si.residuals[0] <= 1e-2 * eig.ORACLE_TOL * abs(lam)
    if dense.values[1] / lam - 1 > 1e-3:
        overlap = abs(float(si.vectors[:, 0] @ (sys.M @ dense.vectors[:, 0])))
        assert overlap >= 1 - 1e-10


@pytest.mark.parametrize("d,inv_eps", [(1, 64), (2, 8), (3, 4)])
def test_galerkin_levels_are_the_coarser_subgrids(d, inv_eps, monkeypatch):
    """The levels down to the cell grid are the assembled operator and mass
    at m = 4, 2, 1, and the one below it, n_axis // 2 per axis, is the
    Galerkin product of the cell grid's."""
    field, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=4, seed=3)
    monkeypatch.setattr(eig, "DENSE_LIMIT", (inv_eps * 4) ** d // 8 ** d)
    pencil = eig._galerkin(sys)
    assert len(pencil) == 4 and pencil[-1][2] is None
    for (A, M, _), m in zip(pencil, (4, 2, 1)):
        ref = sl.assemble(field, sl.SubgridSpec(field.grid, m))
        assert abs(A - ref.A).max() <= 1e-13 * abs(ref.A).max()
        assert abs(M - ref.M).max() <= 1e-13 * abs(ref.M).max()
    (A, M, P), (A_c, M_c, _) = pencil[2:]
    assert A_c.shape[0] == (inv_eps // 2) ** d
    for X, X_c in ((A, A_c), (M, M_c)):
        assert abs(P.T @ X @ P - X_c).max() <= 1e-15 * abs(X_c).max()


@pytest.mark.parametrize("d,inv_eps,m", [(1, 16, 6), (2, 4, 6), (3, 3, 6), (3, 4, 4)])
@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_assembled_levels_are_the_triple_products(d, inv_eps, m, alpha, monkeypatch):
    """Each level _galerkin assembles at a coarser m (by f = 2, then 3, at
    m = 6) is P^T A P and P^T M P of the level above within 2e-15 of the
    largest entry: the coarse Q1 space is nested in the fine one and V is
    constant on every coarse element, also at alpha = 0."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=m, seed=3, alpha=alpha)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 1)
    pencil, m_c = eig._galerkin(sys), m
    factors = []
    while m_c > 1:
        factors.append(min(f for f in (2, 3) if m_c % f == 0))
        m_c //= factors[-1]
    assert len(pencil) >= len(factors) + 1
    for (A, M, P), (A_c, M_c, _), f in zip(pencil, pencil[1:], factors):
        assert P.shape == (A.shape[0], A_c.shape[0]) == (A_c.shape[0] * f ** d, A_c.shape[0])
        for X, X_c in ((A, A_c), (M, M_c)):
            G = P.T @ X @ P
            assert abs(G - X_c).max() <= 2e-15 * abs(X_c).max()


def test_interpolation_by_two_is_the_midpoint_rule():
    """_interpolation(n_c, 2) is bit for bit the midpoint prolongation: fine
    node 2i is coarse node i, node 2i+1 half of i and (i+1) mod n_c; both
    ratios _galerkin uses, 2 and 3, reproduce constants and linear functions
    away from the wrap."""
    for n_c in (1, 2, 3, 8):
        i = np.arange(n_c)
        rows = np.concatenate([2 * i, 2 * i + 1, 2 * i + 1])
        cols = np.concatenate([i, i, (i + 1) % n_c])
        vals = np.concatenate([np.ones(n_c), np.full(2 * n_c, 0.5)])
        ref = sp.csr_matrix((vals, (rows, cols)), shape=(2 * n_c, n_c))
        P = eig._interpolation(n_c, 2)
        assert P.data.tobytes() == ref.data.tobytes()
        np.testing.assert_array_equal(P.indices, ref.indices)
        np.testing.assert_array_equal(P.indptr, ref.indptr)
    for f in (2, 3):
        P = eig._interpolation(6, f)
        assert P.shape == (6 * f, 6)
        np.testing.assert_allclose(P @ np.ones(6), 1.0, rtol=1e-15)
        linear = P @ np.arange(6.0)
        np.testing.assert_allclose(linear[: 5 * f + 1], np.arange(5 * f + 1) / f, rtol=1e-14)


@pytest.mark.parametrize(
    "case", ["1d-iid", "2d-iid", "3d-iid", "2d-periodic", "2d-odd", "3d-odd", "1d-m3", "2d-m5"]
)
def test_coarse_rayleigh_quotients_bound_e1(case, monkeypatch):
    """Every Rayleigh quotient of the coarse Galerkin pencil is a fine one,
    so none lies below E1: not the coarse ground value, not the coarse
    vector behind the shift, whose quotient SHIFT scales to sigma < E1."""
    config, _ = GROUND_CASES[case]
    _, sys = make_system(seed=3, **config)
    e1 = sl.dense_oracle(sys, 1).values[0]
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    A, M, _ = eig._galerkin(sys)[-1]
    lam_c = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
    assert lam_c >= e1 * (1 - 1e-12)
    _, _, sigma, x = eig._hierarchy(sys)
    rq = sl.rayleigh(sys, x)  # the prolonged coarse vector's quotient is RQ_c(x_c)
    assert rq >= lam_c * (1 - 1e-12)
    np.testing.assert_allclose(sigma, eig.SHIFT * rq, rtol=1e-12)
    assert 0 < sigma < e1


def test_vcycle_is_symmetric_positive_definite(monkeypatch):
    """The cycle for A - sigma M, sigma below E1, and the one for A alone."""
    _, sys = make_system(kind="tensor", d=2, inv_eps=8, m=4, seed=3)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    for shifted in (True, False):
        levels, coarse, sigma, _ = eig._hierarchy(sys, shifted)
        assert len(levels) == 2 and (sigma > 0) == shifted
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(3):
            x, y = rng.standard_normal((2, sys.n))
            Tx, Ty = eig._vcycle(levels, coarse, x), eig._vcycle(levels, coarse, y)
            scale = np.linalg.norm(x) * np.linalg.norm(Ty) + np.linalg.norm(y) * np.linalg.norm(Tx)
            assert abs(x @ Ty - y @ Tx) <= 1e-12 * scale
            assert x @ Tx > 0 and y @ Ty > 0


@pytest.mark.parametrize("shift", ["between", 1.5, 1e6])
def test_shift_above_e1_falls_back_to_the_cycle_for_a(shift, monkeypatch):
    """With sigma forced above E1 the guard proves it and the ground pair
    goes on with the unshifted cycle: between E1 and the coarse quotient the
    Ritz values or the cycle fall to sigma, at 1.5 and 1e6 the start's
    quotient is already below it. The pair still matches dense to 1e-12."""
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=4, seed=3)
    e1 = sl.dense_oracle(sys, 1).values[0]
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    if shift == "between":  # sigma half way from E1 to RQ_c(x_c)
        rq = eig._hierarchy(sys)[2] / eig.SHIFT
        shift = (1 + e1 / rq) / 2
    monkeypatch.setattr(eig, "SHIFT", shift)
    sigmas, hierarchy = [], eig._hierarchy

    def recording(sys, shifted=True):
        out = hierarchy(sys, shifted)
        sigmas.append(out[2])
        return out

    monkeypatch.setattr(eig, "_hierarchy", recording)
    si = sl.shift_invert_oracle(sys, 1)
    assert len(sigmas) == 2 and sigmas[0] > e1 and sigmas[1] == 0.0
    np.testing.assert_allclose(si.values, [e1], rtol=1e-12)
    assert si.residuals[0] <= 1e-2 * eig.ORACLE_TOL * e1


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_shifted_levels_hold_a_minus_sigma_m(alpha, monkeypatch):
    """The finest level smooths the system's A; every coarser one holds the
    Galerkin A - sigma M, also at alpha = 0 in 3D, whose A drops the zero
    stiffness entries between face neighbours that M keeps."""
    _, sys = make_system(kind="iid", d=3, inv_eps=4, m=4, seed=3, alpha=alpha)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    pencil = eig._galerkin(sys)
    levels, _, sigma, _ = eig._hierarchy(sys)
    assert len(levels) == 2 and sigma > 0 and levels[0][0] is sys.A
    A, M, _ = pencil[1]
    np.testing.assert_array_equal(levels[1][0].toarray(), A.toarray() - sigma * M.toarray())


def test_no_coarse_level_keeps_one_unshifted_factor(monkeypatch):
    """Where an odd cell grid (m = 1) of 11 per axis has no coarse level,
    _hierarchy factors nothing and the ground pair comes from the system's
    own LU, from ARPACK's seeded start: one factorization of the fine A,
    which a later sys.solve reuses."""
    _, sys = make_system(kind="iid", d=2, inv_eps=11, m=1, seed=3)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    shapes, splu = [], spla.splu

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(eig, "_factor", None)  # a call would raise
    starts = _recording_arpack_starts(monkeypatch)
    assert eig._hierarchy(sys) is None
    si = sl.shift_invert_oracle(sys, 1)
    x = sys.solve(sys.M @ si.vectors[:, 0])
    u1 = si.vectors[:, 0] / si.values[0]  # A^{-1} M u1 = u1 / E1
    np.testing.assert_allclose(x, u1, rtol=0, atol=1e-8 * np.abs(u1).max())
    assert shapes == [sys.n]
    assert starts == {"ground-pair ARPACK": None}


@pytest.mark.parametrize("case", sorted(c for c, (_, levels) in GROUND_CASES.items() if levels))
def test_ground_pair_hands_over_to_the_system_lu(case, monkeypatch):
    """LOBPCG that reaches MAX_LOBPCG hands the ground pair to ARPACK on
    sys.solve, which still returns the dense pair to 1e-12. ARPACK starts
    from the LOBPCG iterate, not its seeded vector: a fine vector whose
    Rayleigh quotient lies between E1 and that of the prolonged coarse
    start, which Rayleigh-Ritz steps never raise."""
    config, _ = GROUND_CASES[case]
    _, sys = make_system(seed=3, **config)
    lam = sl.dense_oracle(sys, 1).values[0]
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    monkeypatch.setattr(eig, "MAX_LOBPCG", 2)
    rq_start = sl.rayleigh(sys, eig._hierarchy(sys)[3])
    starts = _recording_arpack_starts(monkeypatch)
    count = _counting_solve(sys)
    si = sl.shift_invert_oracle(sys, 1)
    assert count[0] > 0
    np.testing.assert_allclose(si.values, [lam], rtol=1e-12)
    assert si.residuals[0] <= eig.ORACLE_TOL * abs(lam)
    v0 = starts["ground-pair ARPACK"]
    assert v0.shape == (sys.n,)
    assert lam * (1 - 1e-12) <= sl.rayleigh(sys, v0) <= rq_start * (1 + 1e-12)


def _recording_arpack_starts(monkeypatch):
    """Wrap eig._arpack to record each call's start vector (None for the
    seeded one) under its what; returns the dict."""
    starts, arpack = {}, eig._arpack

    def recording(A, M, k, solve, tol, what, v0=None):
        starts[what] = None if v0 is None else np.array(v0)
        return arpack(A, M, k, solve, tol, what, v0)

    monkeypatch.setattr(eig, "_arpack", recording)
    return starts


def test_odd_3d_ground_pair_matches_arpack_on_the_lu():
    """3D iid at inv_eps 9, m 3 (n = 19,683) gets one coarse level, the
    cell grid assembled at m = 1 (729 dofs), at the real DENSE_LIMIT; its
    ground pair matches ARPACK on the system's LU at machine precision."""
    _, sys = make_system(kind="iid", d=3, inv_eps=9, m=3, seed=3)
    pencil = eig._galerkin(sys)
    assert [A.shape[0] for A, _, _ in pencil] == [19683, 729]
    si = sl.shift_invert_oracle(sys, 1)
    w, V = eig._arpack(sys.A, sys.M, 1, sys.solve, 0.0, "reference")
    np.testing.assert_allclose(si.values, w, rtol=1e-12)
    overlap = abs(float(si.vectors[:, 0] @ (sys.M @ V[:, 0])))
    assert overlap >= 1 - 1e-10


def test_stalled_periodic_ground_pair_is_certified():
    """The periodic field at inv_eps 1024, m 4 has E2/E1 - 1 = 8.4e-6 and no
    coarse level at n = DENSE_LIMIT. Single-vector LOBPCG stalls on so
    small a gap even with the exact inverse as its preconditioner; ARPACK
    on the system's LU gives the dense E1 with its certificate."""
    _, sys = make_system(kind="periodic", d=1, inv_eps=1024, m=4)
    assert sys.n == eig.DENSE_LIMIT
    dense = sl.dense_oracle(sys, 2)
    assert dense.values[1] / dense.values[0] - 1 < 1e-5
    si = sl.shift_invert_oracle(sys, 1)
    np.testing.assert_allclose(si.values, dense.values[:1], rtol=1e-12)
    assert si.residuals[0] <= eig.ORACLE_TOL * si.values[0]


@pytest.mark.parametrize(
    "config",
    [dict(kind="iid", d=1, inv_eps=2048, m=4), dict(kind="periodic", d=2, inv_eps=32, m=4)],
    ids=["1d-iid", "2d-periodic"],
)
def test_near_degenerate_ground_pair_takes_few_iterations(config, monkeypatch):
    """Where E2/E1 - 1 is under 1e-2 (3.6e-4 and 6.1e-3 here), the cycle
    shifted below E1 still converges in at most 40 LOBPCG iterations (the
    cycle for A took 214 and 162), to the ground value ARPACK finds on the
    full LU."""
    _, sys = make_system(seed=3, **config)
    assert sys.n > eig.DENSE_LIMIT
    ref = sl.shift_invert_oracle(sys, 2).values
    assert ref[1] / ref[0] - 1 < 1e-2
    calls, ritz = [], eig._ritz

    def counting(*args):
        calls.append(1)
        return ritz(*args)

    monkeypatch.setattr(eig, "_ritz", counting)
    si = sl.shift_invert_oracle(sys, 1)
    assert len(calls) <= 40
    np.testing.assert_allclose(si.values, ref[:1], rtol=1e-12)


def test_ground_pair_never_factors_the_fine_operator(monkeypatch):
    shapes, splu = [], spla.splu

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=4, seed=3)
    sl.shift_invert_oracle(sys, 1)
    assert shapes and max(shapes) <= 64 < sys.n


def test_ritz_drops_p_when_its_mass_gram_is_not_positive_definite():
    """With p = x the Gram matrix in M is singular: the Ritz pair is then the
    one on x and T r alone, and with T r = x as well the basis is refused.
    Unit vectors keep every Gram entry exact, so the Cholesky factor of the
    singular matrix meets an exact zero pivot."""
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])  # M = I
    X = np.eye(3)[[0, 1, 0]]  # rows x, T r, p = x
    lam, c = eig._ritz(X, X @ A, X.copy(), 3)
    lam2, c2 = eig._ritz(X, X @ A, X.copy(), 2)
    assert lam == lam2 and len(c) == 2
    np.testing.assert_array_equal(c, c2)
    np.testing.assert_allclose(lam, 1.0, rtol=1e-15)  # lowest of [[2, -1], [-1, 2]]
    X = np.eye(3)[[0, 0, 1]]  # T r = x
    with pytest.raises(NumericalError, match="lost positive mass"):
        eig._ritz(X, X @ A, X.copy(), 2)


@pytest.mark.parametrize("n_ev", [1, 3])
def test_lowest_values_above_dense_limit(n_ev, monkeypatch):
    """Above DENSE_LIMIT the values come from the oracle: the multigrid
    LOBPCG for one pair, ARPACK for more; both match LAPACK's."""
    _, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=3)
    ref = sl.dense_oracle(sys, n_ev).values
    monkeypatch.setattr(eig, "DENSE_LIMIT", 64)
    assert sys.n > eig.DENSE_LIMIT
    np.testing.assert_allclose(eig._lowest_values(sys, n_ev), ref, rtol=1e-12)


def test_lowest_values_are_the_dense_oracles_bits():
    """Up to DENSE_LIMIT a 2D or 3D field without translation invariance
    takes auto_oracle's route, so it gets the dense oracle's values bit for
    bit, all n of them included."""
    _, sys = make_system(kind="iid", d=2, inv_eps=8, m=2, seed=3)
    for n_ev in (5, sys.n):
        dense = sl.dense_oracle(sys, n_ev).values
        np.testing.assert_array_equal(eig._lowest_values(sys, n_ev), dense)


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@pytest.mark.parametrize("kind", ["periodic", "iid"])
@pytest.mark.parametrize("d, inv_eps, m", [(1, 8, 2), (2, 4, 2), (3, 4, 1)])
def test_lowest_values_take_exactly_one_route(d, inv_eps, m, kind, above, monkeypatch):
    """The route table of _lowest_values: the periodic field takes its Bloch
    blocks at any size, a 1D i.i.d. field the band solver up to DENSE_LIMIT,
    and every other field auto_oracle. Exactly one route runs, and the
    values match the dense solve's. "above" lowers DENSE_LIMIT to n - 1."""
    _, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=m)
    ref = sl.dense_oracle(sys, 3).values
    if above:
        monkeypatch.setattr(eig, "DENSE_LIMIT", sys.n - 1)
    calls = []
    for name in ("_bloch_values", "_band_values", "auto_oracle"):
        def counting(*args, _name=name, _real=getattr(eig, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(eig, name, counting)
    values = eig._lowest_values(sys, 3)
    if kind == "periodic":
        route = "_bloch_values"
    elif d == 1 and not above:
        route = "_band_values"
    else:
        route = "auto_oracle"
    assert calls == [route]
    np.testing.assert_allclose(values, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("d, inv_eps", [(2, 4), (3, 4)])
def test_lowest_values_refuse_a_value_count_out_of_range_in_2d_and_3d(d, inv_eps):
    """A 2D or 3D field that is not translation invariant takes auto_oracle's
    route, so an n_ev outside [1, n] gets the dense oracle's message."""
    _, sys = make_system(kind="iid", d=d, inv_eps=inv_eps, m=2)
    for n_ev in (0, sys.n + 1):
        with pytest.raises(ValueError, match="n_ev must lie in \\[1, %d\\]" % sys.n):
            eig._lowest_values(sys, n_ev)


# ---------------------------------------------------------------------------
# 1D spectra from LAPACK's banded generalized solver

# Both LAPACK solvers are backward stable, so their values differ by
# rounding of order eps * lam_max / lam: at most 1.8e-13 relative on these
# fields and 1.1e-12 on fig2's field A (n = 1,024). 1e-11 leaves a margin
# that no wrong eigenvalue fits in.
BAND_RTOL = 1e-11

# (kind, inv_eps, m): every 1D generator kind but the periodic one (Bloch
# route), a constant field on an odd inv_eps (its cos/sin pairs are
# degenerate) and n = 2, 3 and 10
BAND_CASES = [
    ("iid", 16, 4), ("tensor", 16, 4), ("planted", 16, 4), ("domino", 16, 4),
    ("constant", 7, 3), ("iid", 2, 1), ("iid", 3, 1), ("iid", 5, 2),
]


@pytest.mark.parametrize("kind, inv_eps, m", BAND_CASES)
def test_band_values_match_dense(kind, inv_eps, m):
    """A 1D field's lowest 1, 5 and n values from the band route match
    LAPACK's dense solve to BAND_RTOL, with the same multiplicities."""
    _, sys = make_system(kind=kind, d=1, inv_eps=inv_eps, m=m)
    dense = sl.dense_oracle(sys, sys.n).values
    for n_ev in sorted({1, min(5, sys.n), sys.n}):
        band = eig._lowest_values(sys, n_ev)
        np.testing.assert_allclose(band, dense[:n_ev], rtol=BAND_RTOL, atol=0)
    assert _multiplicities(band) == _multiplicities(dense)
    if kind == "constant":
        assert _multiplicities(band)[:4] == [1, 2, 2, 2]


def test_band_route_refuses_a_value_count_out_of_range():
    """The band route serves 1 to n values and refuses any other count with
    the dense oracle's message."""
    _, sys = make_system(kind="iid", d=1, inv_eps=8, m=2)
    for n_ev in (0, sys.n + 1):
        with pytest.raises(ValueError, match="n_ev must lie in \\[1, %d\\]" % sys.n):
            eig._lowest_values(sys, n_ev)
        with pytest.raises(ValueError, match="n_ev must lie in \\[1, %d\\]" % sys.n):
            sl.dense_oracle(sys, n_ev)


def test_band_values_need_a_positive_definite_mass():
    """LAPACK's split Cholesky factorization of -M fails, and the band
    route says so as a NumericalError."""
    _, sys = make_system(kind="iid", d=1, inv_eps=8, m=2)
    with pytest.raises(NumericalError, match="M is not positive definite"):
        eig._band_values(sys.A, -sys.M, 3)


def test_only_1d_fields_within_the_dense_limit_take_the_band_route(monkeypatch):
    """The band route serves every 1D field up to DENSE_LIMIT that is not
    translation invariant; 2D and 3D fields, the periodic 1D field (Bloch
    blocks) and a 1D field above DENSE_LIMIT (the oracle) do not take it."""
    calls, band_values = [], eig._band_values

    def counting(*args):
        calls.append(args)
        return band_values(*args)

    monkeypatch.setattr(eig, "_band_values", counting)
    cases = [
        (make_system(kind="iid", d=1, inv_eps=32, m=4)[1], True),
        (make_system(kind="constant", d=1, inv_eps=7, m=3)[1], True),
        (make_system(kind="iid", d=2, inv_eps=8, m=2)[1], False),
        (make_system(kind="iid", d=3, inv_eps=4, m=2)[1], False),
        (make_system(kind="periodic", d=1, inv_eps=32, m=4)[1], False),
        (make_system(kind="iid", d=1, inv_eps=1040, m=4)[1], False),
    ]
    assert cases[-1][0].n > eig.DENSE_LIMIT
    for sys, band in cases:
        calls.clear()
        eig._lowest_values(sys, 3)
        assert len(calls) == int(band)


# ---------------------------------------------------------------------------
# periodic spectra by Bloch decomposition


def _multiplicities(values, rtol=1e-10):
    """Sizes of the runs of ascending values that agree to rtol."""
    breaks = np.flatnonzero(np.diff(values) > rtol * values[1:]) + 1
    return np.diff(np.concatenate([[0], breaks, [len(values)]])).tolist()


def _bloch(sys, n_ev):
    g = sys.field.grid
    return eig._bloch_values(sys.A, sys.M, g.d, g.inv_eps // 2, 2 * sys.sub.m, n_ev)


# (d, inv_eps, m): one unit cell (L = 1), two per axis (L = 2), odd m, and
# the 2D/3D periodic fields' degenerate low clusters
BLOCH_CASES = [
    (1, 2, 3), (1, 4, 1), (1, 16, 4), (2, 2, 3), (2, 4, 3), (2, 8, 2), (3, 2, 2), (3, 4, 1)
]


@pytest.mark.parametrize("d, inv_eps, m", BLOCH_CASES)
def test_bloch_values_match_dense(d, inv_eps, m):
    """Every eigenvalue of the periodic pencil from its (inv_eps/2)^d Bloch
    blocks matches LAPACK's dense solve to 5e-14 relative, and every
    cluster of equal values has the same multiplicity on both sides."""
    _, sys = make_system(kind="periodic", d=d, inv_eps=inv_eps, m=m)
    dense = sl.dense_oracle(sys, sys.n).values
    bloch = _bloch(sys, sys.n)
    np.testing.assert_allclose(bloch, dense, rtol=5e-14, atol=0)
    assert _multiplicities(bloch) == _multiplicities(dense)
    if d > 1:  # the axes are alike, so 2D and 3D spectra hold degenerate clusters
        assert max(_multiplicities(bloch)) > 1


def test_bloch_route_refuses_a_value_count_out_of_range():
    """The Bloch route serves 1 to n values, as the dense path does, and
    refuses any other count with the dense oracle's message."""
    _, sys = make_system(kind="periodic", d=2, inv_eps=4, m=2)
    for n_ev in (0, sys.n + 1):
        with pytest.raises(ValueError, match="n_ev must lie in \\[1, %d\\]" % sys.n):
            eig._lowest_values(sys, n_ev)
        with pytest.raises(ValueError, match="n_ev must lie in \\[1, %d\\]" % sys.n):
            sl.dense_oracle(sys, n_ev)


def test_only_translation_invariant_fields_take_the_bloch_route(monkeypatch):
    """The guard reads the field's values, not its kind: the periodic field
    and a constant one labelled iid take the Bloch route; an iid field, the
    periodic field with one cell flipped and a constant field on an odd
    inv_eps do not, and keep LAPACK's dense values bit for bit."""
    calls, bloch_values = [], eig._bloch_values

    def counting(*args):
        calls.append(args)
        return bloch_values(*args)

    monkeypatch.setattr(eig, "_bloch_values", counting)
    periodic, _ = make_system(kind="periodic", d=2, inv_eps=8, m=2)
    flipped = dataclasses.replace(periodic, occupancy=periodic.occupancy.copy())
    flipped.occupancy[3, 5] ^= True
    sub = sl.SubgridSpec(grid=periodic.grid, m=2)
    cases = [
        (sl.assemble(periodic, sub), True),
        (make_system(kind="constant", d=2, inv_eps=8, m=2)[1], True),
        (make_system(kind="iid", d=2, inv_eps=8, m=2)[1], False),
        (sl.assemble(flipped, sub), False),
        (make_system(kind="constant", d=2, inv_eps=7, m=2)[1], False),
    ]
    for sys, bloch in cases:
        calls.clear()
        values = eig._lowest_values(sys, 12)
        dense = sl.dense_oracle(sys, 12).values
        assert len(calls) == int(bloch)
        if bloch:
            np.testing.assert_allclose(values, dense, rtol=5e-14, atol=0)
        else:
            np.testing.assert_array_equal(values, dense)


def test_shift_invert_returns_every_copy_the_bloch_blocks_hold():
    """Above DENSE_LIMIT the Bloch blocks are the exact reference: ARPACK
    at tol 0 on the 2D periodic field returns every copy of the three
    4-fold clusters among its 13 lowest pairs, at the Bloch values."""
    _, sys = make_system(kind="periodic", d=2, inv_eps=18, m=4)
    assert sys.n > eig.DENSE_LIMIT
    bloch = _bloch(sys, 13)
    si = sl.shift_invert_oracle(sys, 13)
    assert _multiplicities(bloch) == [1, 4, 4, 4]
    assert _multiplicities(si.values) == _multiplicities(bloch)
    np.testing.assert_allclose(si.values, bloch, rtol=1e-12, atol=0)


def test_periodic_staircase(periodic_1d):
    """Periodic disorder at 16 cells: 8 near-degenerate lowest states, then a
    jump of more than a factor 2 to the next band."""
    _, sys = periodic_1d
    spec = sl.dense_oracle(sys, 12)
    vals = spec.values
    within = vals[1:8] / vals[:7]
    assert within.max() <= 1.15
    assert vals[8] / vals[7] >= 2.0
    assert spec.values[0] / spec.values[8] < 0.5


# ---------------------------------------------------------------------------
# inverse power iteration


def test_inverse_power_fixed_point(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    st = sl.inverse_power(sys, e1, u1, 4, u1=u1)
    scale = sl.energy_norm(sys, u1)
    assert max(st.history["err"]) <= 1e-10 * scale


def test_inverse_power_u2_rate(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    e1 = orac.values[0]
    st = sl.inverse_power(sys, e1, orac.vectors[:, 1], 6, u1=orac.vectors[:, 0])
    rho = orac.values[0] / orac.values[1]
    np.testing.assert_allclose(st.history["rate"], rho, rtol=1e-5)


def test_inverse_power_error_contracts_by_gap(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    rho = orac.values[0] / orac.values[1]
    rng = np.random.Generator(np.random.Philox(29))
    v0 = rng.standard_normal(sys.n)
    st = sl.inverse_power(sys, e1, v0, 8, u1=u1)
    errs = st.history["err"]
    for k in range(1, len(errs)):
        assert errs[k] <= rho * errs[k - 1] * (1 + 1e-12)


def test_inverse_power_generic_rate_periodic(periodic_1d):
    _, sys = periodic_1d
    spec = sl.dense_oracle(sys, 2)
    rho = spec.values[0] / spec.values[1]
    rng = np.random.Generator(np.random.Philox(17))
    v0 = rng.standard_normal(sys.n)
    st = sl.inverse_power(sys, spec.values[0], v0, 16, u1=spec.vectors[:, 0])
    rates = st.history["rate"][7:]
    assert all(abs(r - rho) <= 0.10 * rho for r in rates)


# ---------------------------------------------------------------------------
# pinvit


def test_pinvit_fixed_point(random_block_setup):
    _, sys, orac, _, prec = random_block_setup
    sm = sl.compose_smoother(prec, 0.25)
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    st = sl.pinvit(sys, sm, e1, u1, 4, u1=u1)
    assert max(st.history["err"]) <= 1e-10 * sl.energy_norm(sys, u1)


def test_pinvit_rate_below_gap_plus_gamma(random_block_setup):
    _, sys, orac, _, prec = random_block_setup
    sm = sl.compose_smoother(prec, 0.25)
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    rho = orac.values[0] / orac.values[1]
    rng = np.random.Generator(np.random.Philox(23))
    v0 = rng.standard_normal(sys.n)
    v0 /= sl.mass_norm(sys, v0)
    st = sl.pinvit(sys, sm, e1, v0, 8, u1=u1)
    bound = rho + sm.gamma + 0.05
    assert max(st.history["rate"][1:]) <= bound
    assert st.history["err"][-1] < st.history["err"][0]


def test_pinvit_support_grows_k_inner_layers(random_block_setup):
    _, sys, orac, _, prec = random_block_setup
    sm = sl.compose_smoother(prec, 0.25)
    m = sys.sub.m
    v = np.zeros(sys.n)
    v[32 * m + 2] = 1.0
    mask0 = sl.mask_of_vector(sys.sub, v)
    u, mask1 = sl.pinvit_step(sys, sm, orac.values[0], v, mask0)
    np.testing.assert_array_equal(mask1, sl.dilate_cells(mask0, sm.k_inner))
    assert sl.mask_allows(sys.sub, u, mask1)


def test_pinvit_escape_guard(random_block_setup):
    _, sys, orac, _, prec = random_block_setup
    sm = sl.compose_smoother(prec, 0.25)
    rng = np.random.Generator(np.random.Philox(31))
    v = rng.standard_normal(sys.n)  # global support
    lie = np.zeros(sys.field.grid.shape, dtype=bool)
    lie[0] = True
    with pytest.raises(NumericalError, match="escaped"):
        sl.pinvit_step(sys, sm, orac.values[0], v, lie)


# ---------------------------------------------------------------------------
# block iterations


def test_block_k1_matches_inverse_power(random_block_setup):
    """inverse_power runs the block loop on one column: bitwise the same
    block and history as block_iteration from that column."""
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 1, oracle=orac)
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    # C = 1 makes the combined iterate the column itself
    bst = sl.block_iteration(sys, e1, dataclasses.replace(start, C=np.eye(1)), 5, u1=u1)
    ist = sl.inverse_power(sys, e1, start.vectors[:, 0], 5, u1=u1)
    np.testing.assert_array_equal(bst.block, ist.block)
    assert bst.history == ist.history


def test_block_oracle_start_is_stationary(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    K = 3
    start = StartBlock(
        vectors=orac.vectors[:, :K].copy(),
        masks=np.ones((K,) + sys.field.grid.shape, dtype=bool),
        rayleighs=orac.values[:K].copy(),
        labels=[("oracle", j) for j in range(K)],
    )
    attach_coefficients(start, sys, orac)
    np.testing.assert_allclose(start.C, np.eye(K), atol=1e-10)
    st = sl.block_iteration(sys, orac.values[0], start, 4, u1=orac.vectors[:, 0])
    scale = sl.energy_norm(sys, orac.vectors[:, 0])
    assert max(st.history["err"]) <= 1e-9 * scale


def test_block_rate_bounded_by_block_gap(random_block_setup):
    _, sys, orac, stats, _ = random_block_setup
    K = 4
    gap = orac.values[0] / orac.values[K]
    start = sl.build_start_valleys(sys, stats, K, oracle=orac)
    st = sl.block_iteration(sys, orac.values[0], start, 8, u1=orac.vectors[:, 0])
    assert max(st.history["rate"]) <= gap * 1.1
    assert st.history["err"][-1] <= gap**8 * st.history["err"][0] * 1.5


def test_block_singular_c_is_reported(random_block_setup):
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 2, oracle=orac)
    start.C = np.ones((2, 2))  # rank one: u1 unreachable
    with pytest.raises(NumericalError, match="singular C"):
        sl.block_iteration(sys, orac.values[0], start, 1, u1=orac.vectors[:, 0])


def test_attach_coefficients_errors(random_block_setup):
    _, sys, orac, stats, _ = random_block_setup
    big = sl.build_start_valleys(sys, stats, 4)
    with pytest.raises(ValueError, match="fewer vectors"):
        attach_coefficients(big, sys, sl.dense_oracle(sys, 2))
    u2 = orac.vectors[:, 1]
    dup = StartBlock(
        vectors=np.column_stack([u2, u2]),
        masks=np.ones((2,) + sys.field.grid.shape, dtype=bool),
        rayleighs=np.array([orac.values[1]] * 2),
        labels=[("dup", 0), ("dup", 1)],
    )
    with pytest.raises(NumericalError, match="singular coefficient"):
        attach_coefficients(dup, sys, orac)


def test_inexact_tol_one_returns_best_combination(random_block_setup):
    _, sys, orac, stats, prec = random_block_setup
    K = 4
    gap = orac.values[0] / orac.values[K]
    start = sl.build_start_valleys(sys, stats, K, oracle=orac)
    sm = sl.compose_smoother(prec, 0.9)
    vt, state = sl.inexact_block_iteration(
        sys, sm, orac.values[0], start, tol=1.0, gap=gap, u1=orac.vectors[:, 0]
    )
    x = np.linalg.solve(start.C, np.eye(K)[:, 0])
    np.testing.assert_array_equal(vt, start.vectors @ x)
    np.testing.assert_array_equal(state.block, start.vectors)
    assert len(state.history["err"]) == 1  # initial error only, no steps


def test_inexact_block_reaches_tol(random_block_setup):
    _, sys, orac, stats, prec = random_block_setup
    K = 4
    gap = orac.values[0] / orac.values[K]
    tol = 1e-3
    k_outer = sl.outer_steps(tol, gap)
    sm = sl.compose_smoother(prec, gap**k_outer)
    start = sl.build_start_valleys(sys, stats, K, oracle=orac)
    vt, state = sl.inexact_block_iteration(
        sys, sm, orac.values[0], start, tol, gap, u1=orac.vectors[:, 0]
    )
    errs = state.history["err"]
    assert errs[-1] <= 10.0 * tol * errs[0]
    np.testing.assert_allclose(
        sl.energy_error_to(sys, vt, orac.vectors[:, 0]), errs[-1], rtol=1e-12
    )


def test_inexact_rejects_weak_smoother(random_block_setup):
    _, sys, orac, stats, prec = random_block_setup
    K = 4
    gap = orac.values[0] / orac.values[K]
    start = sl.build_start_valleys(sys, stats, K, oracle=orac)
    weak = sl.compose_smoother(prec, 0.9)  # gamma ~0.9 >> gap**k
    with pytest.raises(NumericalError, match="k_inner"):
        sl.inexact_block_iteration(sys, weak, orac.values[0], start, 1e-3, gap)


def test_inexact_support_masks_grow_exactly():
    """Support masks dilate by k_inner layers per outer step, exactly.

    Uses the periodic field where the adaptive smoother needs only k_inner=2,
    so two outer steps stay far from wrapping the 16-cell torus."""
    field, sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    stats = sl.analyze_geometry(field)
    orac = sl.dense_oracle(sys, 3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    start = sl.build_start_valleys(sys, stats, 2, oracle=orac)
    gap = 0.6  # structural run: gap here only sets the step count
    sm = sl.compose_smoother(prec, gap**2)
    assert sm.k_inner * 2 < field.grid.inv_eps // 2
    vt, state = sl.inexact_block_iteration(
        sys, sm, orac.values[0], start, tol=0.5, gap=gap
    )
    for j in range(start.size):
        np.testing.assert_array_equal(
            state.masks[j], sl.dilate_cells(start.masks[j], 2 * sm.k_inner)
        )
        assert sl.mask_allows(sys.sub, state.block[:, j], state.masks[j])
    assert state.history["support_cells"] == sorted(state.history["support_cells"])


@pytest.mark.parametrize(
    "kind, d, inv_eps", [("iid", 1, 64), ("tensor", 2, 16)], ids=["iid-1d", "tensor-2d"]
)
def test_recorded_supports_grow_exactly_k_inner_layers(kind, d, inv_eps):
    """support_cells, read from the certified (measured) masks, grows by
    exactly k_inner cell layers per outer step, for pinvit and, per column,
    for the block iteration."""
    field, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=4, seed=3)
    orac = sl.shift_invert_oracle(sys, 3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    sm = sl.compose_smoother(prec, estimate_contraction(prec, sys).gamma ** 2)
    assert sm.k_inner == 2
    start = sl.build_start_valleys(sys, sl.analyze_geometry(field), 3, oracle=orac)
    steps = 3

    def layers(mask, t):
        return int(sl.dilate_cells(mask, (t + 1) * sm.k_inner).sum())

    st = sl.pinvit(sys, sm, orac.values[0], start.vectors[:, 0], steps)
    assert st.history["support_cells"] == [layers(start.masks[0], t) for t in range(steps)]
    assert st.history["support_cells"][0] < field.grid.n_cells
    gap = sm.gamma ** (1.0 / steps) * 1.001
    _, state = sl.inexact_block_iteration(
        sys, sm, orac.values[0], start, tol=0.5, gap=gap, k_outer=steps
    )
    expect = [max(layers(mk, t) for mk in start.masks) for t in range(steps)]
    assert state.history["support_cells"] == expect


def test_inexact_block_column_is_pinvit_step(random_block_setup):
    """One outer block step updates every column as pinvit_step would: the
    same values to rounding, the same mask and the same exact zeros."""
    _, sys, orac, stats, prec = random_block_setup
    start = sl.build_start_valleys(sys, stats, 4, oracle=orac)
    sm = sl.compose_smoother(prec, 0.5)
    _, state = sl.inexact_block_iteration(
        sys, sm, orac.values[0], start, tol=0.5, gap=0.5, k_outer=1
    )
    for j in range(start.size):
        u, mask = sl.pinvit_step(sys, sm, orac.values[0], start.vectors[:, j], start.masks[j])
        col = state.block[:, j]
        np.testing.assert_array_equal(state.masks[j], mask)
        np.testing.assert_array_equal(col == 0.0, u == 0.0)
        assert (u == 0.0).any()
        assert np.linalg.norm(col - u) <= 1e-13 * np.linalg.norm(u)


@pytest.mark.parametrize(
    "kind, d, inv_eps", [("iid", 1, 64), ("tensor", 2, 16)], ids=["iid-1d", "tensor-2d"]
)
def test_pinvit_matches_one_column_inexact_block(kind, d, inv_eps):
    """pinvit runs the block loop on one column: from the one-column valley
    start it gives inexact_block_iteration's block, masks and supports
    bitwise, and its errors up to the block's weight 1/C_11."""
    field, sys = make_system(kind=kind, d=d, inv_eps=inv_eps, m=4, seed=3)
    orac = sl.shift_invert_oracle(sys, 2)
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    prec = sl.build_preconditioner(sys, mode="adaptive")
    sm = sl.compose_smoother(prec, estimate_contraction(prec, sys).gamma ** 2)
    start = sl.build_start_valleys(sys, sl.analyze_geometry(field), 1, oracle=orac)
    v0, steps = start.vectors[:, 0], 3
    pv = sl.pinvit(sys, sm, e1, v0, steps, u1=u1)
    gap = sm.gamma ** (1.0 / steps) * 1.001
    _, ib = sl.inexact_block_iteration(sys, sm, e1, start, 0.5, gap, u1=u1, k_outer=steps)
    np.testing.assert_array_equal(pv.block, ib.block)
    np.testing.assert_array_equal(pv.masks, ib.masks)
    assert pv.history["rayleigh"] == ib.history["rayleigh"]
    assert pv.history["support_cells"] == ib.history["support_cells"]
    c11 = abs(start.C[0, 0])
    np.testing.assert_allclose(ib.history["err"], np.divide(pv.history["err"], c11), rtol=1e-12)
    np.testing.assert_allclose(ib.history["rate"], pv.history["rate"], rtol=1e-12)


def test_every_iteration_records_the_same_history(random_block_setup):
    """All four methods fill rayleigh, support_cells, err and rate alike;
    support_cells is the largest column support, empty for global methods."""
    _, sys, orac, stats, prec = random_block_setup
    e1, u1 = orac.values[0], orac.vectors[:, 0]
    sm = sl.compose_smoother(prec, 0.5)
    fwd = sl.build_start_valleys(sys, stats, 3)
    # narrowest valley first, so column 0 is not the largest support
    start = attach_coefficients(
        StartBlock(
            vectors=fwd.vectors[:, ::-1].copy(),
            masks=fwd.masks[::-1].copy(),
            rayleighs=fwd.rayleighs[::-1].copy(),
            labels=fwd.labels[::-1],
        ),
        sys,
        orac,
    )
    steps = 2
    gap = sm.gamma ** (1.0 / steps) * 1.001
    v0 = start.vectors[:, 0]
    runs = [
        sl.inverse_power(sys, e1, v0, steps, u1=u1),
        sl.pinvit(sys, sm, e1, v0, steps, u1=u1),
        sl.block_iteration(sys, e1, start, steps, u1=u1),
        sl.inexact_block_iteration(sys, sm, e1, start, 0.5, gap, u1=u1, k_outer=steps)[1],
    ]
    for st in runs:
        hist = st.history
        assert set(hist) == {"rayleigh", "support_cells", "err", "rate"}
        assert (len(hist["rayleigh"]), len(hist["err"]), len(hist["rate"])) == (
            steps, steps + 1, steps,
        )
        assert hist["rayleigh"][-1] == sl.rayleigh(sys, st.block[:, 0])
        if st.masks is None:
            assert hist["support_cells"] == []
        else:
            assert hist["support_cells"][-1] == max(int(m.sum()) for m in st.masks)
    sizes = [int(m.sum()) for m in runs[3].masks]
    assert sizes[0] < max(sizes)
    no_ref = sl.pinvit(sys, sm, e1, v0, steps).history
    assert (no_ref["err"], no_ref["rate"], len(no_ref["rayleigh"])) == ([], [], steps)


def test_exact_vs_inexact_distance_curve(random_block_setup):
    _, sys, orac, stats, prec = random_block_setup
    K = 4
    gap = orac.values[0] / orac.values[K]
    k_max = 4
    sm = sl.compose_smoother(prec, gap**k_max)
    start = sl.build_start_valleys(sys, stats, K, oracle=orac)
    max_norm0 = max(sl.energy_norm(sys, start.vectors[:, j]) for j in range(K))
    for k in range(1, k_max + 1):
        exact = sl.block_iteration(sys, orac.values[0], start, k)
        _, inexact = sl.inexact_block_iteration(
            sys, sm, orac.values[0], start, tol=0.5, gap=gap, k_outer=k
        )
        dist = max(
            sl.energy_norm(sys, inexact.block[:, j] - exact.block[:, j])
            for j in range(K)
        )
        bound = 5.0 * sm.gamma * (1.0 + 2.0 * sm.gamma) ** k * max_norm0
        assert dist <= bound, "k=%d: %.3e > %.3e" % (k, dist, bound)


def test_inexact_parameter_validation(random_block_setup):
    _, sys, orac, stats, prec = random_block_setup
    start = sl.build_start_valleys(sys, stats, 2, oracle=orac)
    sm = sl.compose_smoother(prec, 0.5)
    with pytest.raises(ValueError, match="gap"):
        sl.inexact_block_iteration(sys, sm, orac.values[0], start, 0.5, 1.5)
    with pytest.raises(ValueError, match="tol"):
        sl.inexact_block_iteration(sys, sm, orac.values[0], start, 0.0, 0.5)
    with pytest.raises(ValueError, match="tol"):
        sl.inexact_block_iteration(sys, sm, orac.values[0], start, 1.5, 0.5)


def test_outer_steps_edges():
    """ceil(log(1/tol) / log(1/gap)) outer steps: none at tol = 1, refused
    past MAX_OUTER or at a degenerate gap, invalid outside (0,1]."""
    assert sl.outer_steps(1.0, 0.5) == 0
    assert sl.outer_steps(0.25, 0.5) == 2
    assert sl.outer_steps(0.2, 0.5) == 3
    assert sl.outer_steps(1e-300, 0.5) == 997 <= eig.MAX_OUTER
    with pytest.raises(NumericalError, match="pick a larger K"):
        sl.outer_steps(0.5**1002, 0.5)
    with pytest.raises(NumericalError, match="degenerate"):
        sl.outer_steps(0.5, 1.0 - 1e-10)
    with pytest.raises(NumericalError, match="degenerate"):
        sl.outer_steps(1.0, 1.0)
    for tol, gap in ((0.5, 1.5), (0.5, 0.0), (0.5, float("nan"))):
        with pytest.raises(ValueError, match="gap"):
            sl.outer_steps(tol, gap)
    for tol in (0.0, 1.5):
        with pytest.raises(ValueError, match="tol"):
            sl.outer_steps(tol, 0.5)


# ---------------------------------------------------------------------------
# starting blocks


def test_valley_start_ordering(random_block_setup):
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 4, oracle=orac)
    # widest valley first with its two lowest modes, then the width-4 pair
    assert start.labels == [(0, (1,)), (0, (2,)), (1, (1,)), (2, (1,))]
    assert (np.diff(start.analytic) >= 0).all()
    assert start.c_inv_norm < 1.1
    # M-normalized columns
    for j in range(4):
        np.testing.assert_allclose(sl.mass_norm(sys, start.vectors[:, j]), 1.0, rtol=1e-12)


def test_valley_mode_rayleigh_sharpness():
    field, sys = make_system(kind="planted", d=1, inv_eps=16, m=4, widths=[4])
    stats = sl.analyze_geometry(field)
    orac = sl.dense_oracle(sys, 1)
    start = sl.build_start_valleys(sys, stats, 1, oracle=orac)
    analytic = field.alpha + np.pi**2 / (field.grid.eps * 4) ** 2
    np.testing.assert_allclose(start.analytic[0], analytic, rtol=1e-12)
    # the sampled mode overestimates by the usual quadratic consistency error
    assert analytic <= start.rayleighs[0] <= analytic * 1.01
    assert orac.values[0] <= start.rayleighs[0]


def test_disjoint_valley_modes_exactly_orthogonal(random_block_setup):
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 4, oracle=orac)
    va, vb = start.vectors[:, 2], start.vectors[:, 3]  # distinct valleys
    assert float(va @ (sys.M @ vb)) == 0.0
    assert float(va @ (sys.A @ vb)) == 0.0


def test_valley_block_certifies_eigenvalue_count(random_block_setup):
    """K orthogonal test vectors with Rayleigh <= c force >= K eigenvalues
    below c: checked against the oracle spectrum."""
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 4, oracle=orac)
    c = start.rayleighs.max()
    count = int((orac.values <= c * (1 + 1e-10)).sum())
    assert count >= 4
    assert orac.values[3] <= c * (1 + 1e-10)


def test_span_property_of_disjoint_modes(random_block_setup):
    """Any combination of disjointly supported modes keeps its Rayleigh
    quotient between the extreme per-mode quotients (200 random draws)."""
    _, sys, orac, stats, _ = random_block_setup
    start = sl.build_start_valleys(sys, stats, 8)
    seen, cols = set(), []
    for j, (vi, _) in enumerate(start.labels):
        if vi not in seen:
            seen.add(vi)
            cols.append(j)
    assert len(cols) >= 3
    V = start.vectors[:, cols]
    r = start.rayleighs[cols]
    lo, hi = r.min(), r.max()
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(200):
        c = rng.standard_normal(len(cols))
        if np.abs(c).max() < 1e-12:
            continue
        q = sl.rayleigh(sys, V @ c)
        assert lo * (1 - 1e-9) <= q <= hi * (1 + 1e-9)


def test_build_start_valleys_validation(random_block_setup):
    field, sys, orac, stats, _ = random_block_setup
    with pytest.raises(ValueError, match="valley modes exist"):
        sl.build_start_valleys(sys, stats, 10**6)
    iid2, sys2 = make_system(kind="iid", d=2, inv_eps=6, m=2, seed=1)
    stats2 = sl.analyze_geometry(iid2)
    with pytest.raises(ValueError, match="decomposition"):
        sl.build_start_valleys(sys2, stats2, 1)


def test_energy_error_to_basics(random_block_setup):
    _, sys, orac, _, _ = random_block_setup
    u1 = orac.vectors[:, 0]
    assert sl.energy_error_to(sys, u1, u1) <= 1e-12 * sl.energy_norm(sys, u1)
    rng = np.random.Generator(np.random.Philox(3))
    v = rng.standard_normal(sys.n)
    err = sl.energy_error_to(sys, v, u1)
    assert err <= sl.energy_norm(sys, v) * (1 + 1e-12)
    np.testing.assert_allclose(sl.energy_error_to(sys, 2 * v, u1), 2 * err, rtol=1e-10)
