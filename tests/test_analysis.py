"""Decay profiles, gap scans, Friedrichs ratios, spectra comparisons.

The annulus bookkeeping is exact (cell-split identities), so those tests
assert to rounding; the fitted rates and R^2 values are frozen from the
seeded instances they run on.
"""

import numpy as np
import pytest

import schrodloc as sl
from schrodloc import analysis, schwarz
from schrodloc.analysis import _cell_indicator
from schrodloc.errors import NumericalError
from schrodloc.fem import CutoffField, cell_energies
from schrodloc.schwarz import estimate_contraction
from conftest import make_system


# ---------------------------------------------------------------------------
# annulus bookkeeping


def test_annulus_monotone_and_partition(random_1d):
    _, sys = random_1d
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    centers = [(30,)]
    norms = sl.annulus_energies(sys, u1, centers, 10)
    assert (norms >= 0).all()
    assert (np.diff(norms) <= 1e-15).all()
    total2 = sl.energy_norm(sys, u1) ** 2
    assert norms[0] ** 2 <= total2 * (1 + 1e-12)
    # inside + outside at any radius recovers the total energy exactly
    per = np.maximum(cell_energies(sys, u1), 0.0)
    centre = np.zeros(sys.field.grid.shape, dtype=bool)
    centre[centers[0]] = True
    for k in (1, 3, 7):
        inside = float(per[sl.dilate_cells(centre, k - 1)].sum())
        assert abs(inside + norms[k - 1] ** 2 - total2) <= 1e-12 * total2


def test_annulus_schedules(random_1d):
    _, sys = random_1d
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    centers = [(30,)]
    lin = sl.annulus_energies(sys, u1, centers, 9)
    quad = sl.annulus_energies(sys, u1, centers, 3, schedule="quadratic")
    # radius k^2 annuli coincide with the linear ones evaluated there
    np.testing.assert_array_equal(quad, [lin[0], lin[3], lin[8]])
    with pytest.raises(ValueError, match="schedule"):
        sl.annulus_energies(sys, u1, centers, 3, schedule="cubic")
    prof = sl.eigen_decay(sys, u1, centers=centers, k_max=4, schedule="quadratic")
    np.testing.assert_array_equal(prof.radii, [1, 4, 9, 16])


def test_find_centers_threshold():
    _, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=100.0)
    v = _cell_indicator(sys, (3,)) + 0.3 * _cell_indicator(sys, (11,))
    assert sl.find_centers(sys, v) == [(3,)]


# ---------------------------------------------------------------------------
# Green's-function decay


def test_green_decay_constant_field():
    """Homogeneous barrier: the Green's function decays exponentially and the
    patch iteration error sits below the certified contraction curve."""
    field, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=2048.0)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    g = estimate_contraction(prec, sys).gamma
    res = sl.green_decay(sys, prec, (5,), k_max=7)
    assert res.profile.fitted_rate > 0
    assert res.profile.fit_quality >= 0.95
    k = np.arange(1, 8)
    assert (res.rel_errors <= 2.0 * g**k).all()
    assert np.exp(-res.error_rate) <= g * 1.05
    # support grows exactly one cell layer per Richardson step
    f = _cell_indicator(sys, (5,))
    mask0 = sl.mask_of_vector(sys.sub, f)
    expect = [int(sl.dilate_cells(mask0, j).sum()) for j in k]
    assert res.support_cells == expect


def test_green_decay_annuli_match_direct_solve(random_1d):
    """The reference PCG solve resolves the far annuli as well as the LU:
    all 20 agree to 1e-12 relative though the last holds 8e-13 of the
    norm (6e-15 measured; a stop at 1e-16 instead of PCG_STOP leaves 1e-5)."""
    _, sys = random_1d
    prec = sl.build_preconditioner(sys, mode="adaptive")
    res = sl.green_decay(sys, prec, (32,), k_max=20)
    f = _cell_indicator(sys, (32,))
    u = sys.solve(sys.M @ (f / sl.mass_norm(sys, f)))
    ref = sl.annulus_energies(sys, u, [(32,)], 20)
    assert ref[-1] < 1e-12 * sl.energy_norm(sys, u)
    np.testing.assert_allclose(res.profile.annulus_energies, ref, rtol=1e-12, atol=0)
    assert 0 < res.pcg_iters < schwarz.MAX_PCG and res.pcg_ratio <= schwarz.PCG_STOP


def test_green_decay_wraps_source_cell():
    field, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=2048.0)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    a = sl.green_decay(sys, prec, (5,), k_max=3)
    b = sl.green_decay(sys, prec, (5 - 16,), k_max=3)
    np.testing.assert_array_equal(a.rel_errors, b.rel_errors)
    assert a.profile.centers == b.profile.centers


# ---------------------------------------------------------------------------
# eigenstate decay


def test_eigen_decay_random_ground_state():
    """Disordered 1D field at eps=2^-6: the ground state is localized, the
    log-linear annulus fit is steep and clean."""
    _, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=13)
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    prof = sl.eigen_decay(sys, u1, k_max=12)
    assert prof.centers == [(21,)]
    assert prof.fitted_rate >= 0.5
    assert prof.fit_quality >= 0.9
    assert not prof.degenerate


def test_eigen_decay_periodic_is_flat():
    """Periodic field: the ground state is extended, so the fitted rate around
    any single cell is indistinguishable from zero."""
    _, sys = make_system(kind="periodic", d=1, inv_eps=64, m=2)
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    prof = sl.eigen_decay(sys, u1, centers=[(0,)], k_max=10)
    assert abs(prof.fitted_rate) <= 0.05


def test_eigen_decay_compact_mode_dies_in_layers():
    field, sys = make_system(kind="planted", d=1, inv_eps=16, m=4, widths=[4])
    stats = sl.analyze_geometry(field)
    start = sl.build_start_valleys(sys, stats, 1)
    prof = sl.eigen_decay(sys, start.vectors[:, 0], k_max=8)
    assert prof.centers == [(2,)]
    assert (prof.annulus_energies[2:] <= 1e-8 * prof.total_energy).all()
    # nothing left above the fit floor after three layers: flagged, rate +inf
    assert prof.degenerate
    assert prof.fitted_rate == np.inf


def test_eigen_decay_auto_centers_flat_state(periodic_1d):
    _, sys = periodic_1d
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    prof = sl.eigen_decay(sys, u1, k_max=7)
    assert len(prof.centers) == 8  # one per valley
    assert prof.degenerate


def test_eigen_decay_validation(random_1d):
    _, sys = random_1d
    u1 = sl.dense_oracle(sys, 1).vectors[:, 0]
    with pytest.raises(NumericalError, match="zero state"):
        sl.eigen_decay(sys, np.zeros(sys.n))
    with pytest.raises(ValueError, match="auto"):
        sl.eigen_decay(sys, u1, centers="bogus")
    with pytest.raises(ValueError, match="no centers"):
        sl.eigen_decay(sys, u1, centers=[])


# ---------------------------------------------------------------------------
# gap scan


def test_gap_scan_random(random_1d, random_1d_oracle):
    rep = sl.gap_scan(random_1d_oracle.values, 4)
    assert rep.chosen_k == 1
    assert rep.met_target
    np.testing.assert_allclose(rep.gap, 0.29243915, rtol=1e-6)
    np.testing.assert_array_equal(rep.head, random_1d_oracle.values[:5])


def test_gap_scan_periodic_cluster(periodic_1d):
    """The first usable gap sits behind the cluster of N = (2 eps)^-1 = 8
    near-degenerate ground states."""
    _, sys = periodic_1d
    spec = sl.dense_oracle(sys, 12)
    rep = sl.gap_scan(spec.values, 10)
    assert rep.chosen_k == 8
    assert rep.met_target
    assert (rep.gaps[:7] > 0.6).all()


def test_gap_scan_constant_field(constant_1d):
    field, sys = constant_1d
    rep = sl.gap_scan(sl.dense_oracle(sys, 2).values, 1)
    analytic = field.beta / (field.beta + 4 * np.pi**2)
    np.testing.assert_allclose(rep.gap, analytic, rtol=2e-3)
    assert not rep.met_target
    assert rep.chosen_k == 1


def test_gap_scan_scale_invariance(periodic_1d):
    _, sys = periodic_1d
    spec = sl.dense_oracle(sys, 12)
    rep = sl.gap_scan(spec.values, 10)
    rep7 = sl.gap_scan(spec.values * 7.0, 10)
    np.testing.assert_allclose(rep7.gaps, rep.gaps, rtol=1e-14)
    assert rep7.chosen_k == rep.chosen_k


def test_gap_scan_validation(random_1d_oracle):
    with pytest.raises(ValueError, match="need"):
        sl.gap_scan(random_1d_oracle.values, 8)  # oracle only carries 8 values


# ---------------------------------------------------------------------------
# Friedrichs ratio


def test_friedrichs_constant_field():
    field, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=2048.0)
    rep = sl.friedrichs_ratio(sys, samples=40)
    assert rep.max_width == 1
    assert rep.max_gradient == sl.build_cutoff(field, sys.sub).max_gradient
    assert rep.skipped == 0
    assert rep.normalized <= 1.5
    assert rep.max_ratio >= rep.mean_ratio > 0


def test_friedrichs_grows_linearly_with_valley_width():
    normalized, raw = [], []
    for L in (1, 2, 4):
        _, sys = make_system(kind="planted", d=1, inv_eps=32, m=4, widths=[L])
        rep = sl.friedrichs_ratio(sys, samples=40)
        assert rep.max_width == L
        normalized.append(rep.normalized)
        raw.append(rep.max_ratio)
    assert raw[0] < raw[1] < raw[2]
    assert max(normalized) / min(normalized) <= 3.0


def test_friedrichs_white_mode_sits_at_mesh_scale():
    _, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=100.0)
    rep = sl.friedrichs_ratio(sys, samples=20, mode="white")
    assert rep.max_ratio <= sys.sub.h
    assert rep.mode == "white"


def test_friedrichs_all_skipped_raises(monkeypatch):
    _, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=100.0)
    with pytest.raises(ValueError, match="mode"):
        sl.friedrichs_ratio(sys, samples=3, mode="pink")
    dead = CutoffField(values=np.zeros(sys.n), max_gradient=0.0)
    monkeypatch.setattr(analysis, "build_cutoff", lambda field, sub: dead)
    with pytest.raises(NumericalError, match="skipped"):
        sl.friedrichs_ratio(sys, samples=3)


# ---------------------------------------------------------------------------
# spectra comparison


def test_spectra_compare_order_vs_disorder():
    """Random disorder opens a usable gap within a couple of modes; the
    periodic field needs the whole N-state cluster first."""
    g = sl.GridSpec(1, 16, seed=7)
    beta = 8 * 16**2
    fp = sl.gen_periodic(g, 1.0, beta)
    fr = sl.gen_iid(g, 1.0, beta, 0.5)
    cmp = sl.spectra_compare(fp, fr, m=4, n_ev=12)
    assert (cmp.kind_a, cmp.kind_b) == ("periodic", "iid")

    def first_gap(values):
        ratios = values[0] / values[1:]
        return int(np.nonzero(ratios <= 0.5)[0][0]) + 1

    assert first_gap(cmp.values_b) == 1
    assert first_gap(cmp.values_a) == 8
    assert (np.diff(cmp.values_a) >= 0).all() and (np.diff(cmp.values_b) >= 0).all()


def test_spectra_compare_identical_and_mismatch():
    """A field compared with itself gives one column twice. The periodic
    field's values come from its Bloch blocks, within 5e-14 of LAPACK's
    dense ones; a 1D i.i.d. field's from LAPACK's banded solver, within
    1e-11 (rounding of order eps lam_max / lam); a 2D i.i.d. field's are
    LAPACK's dense values bit for bit."""
    g = sl.GridSpec(1, 16, seed=7)
    fp = sl.gen_periodic(g, 1.0, 2048.0)
    same = sl.spectra_compare(fp, fp, m=4, n_ev=6)
    np.testing.assert_array_equal(same.values_a, same.values_b)
    sys = sl.assemble(fp, sl.SubgridSpec(g, 4))
    np.testing.assert_allclose(same.values_a, sl.dense_oracle(sys, 6).values, rtol=5e-14, atol=0)
    fr = sl.gen_iid(g, 1.0, 2048.0, p_beta=0.5)
    mixed = sl.spectra_compare(fp, fr, m=4, n_ev=6)
    np.testing.assert_array_equal(mixed.values_a, same.values_a)
    sys = sl.assemble(fr, sl.SubgridSpec(g, 4))
    np.testing.assert_allclose(mixed.values_b, sl.dense_oracle(sys, 6).values, rtol=1e-11, atol=0)
    g2 = sl.GridSpec(2, 8, seed=7)
    fr2 = sl.gen_iid(g2, 1.0, 512.0, p_beta=0.5)
    in_2d = sl.spectra_compare(fr2, fr2, m=2, n_ev=6)
    sys = sl.assemble(fr2, sl.SubgridSpec(g2, 2))
    np.testing.assert_array_equal(in_2d.values_a, sl.dense_oracle(sys, 6).values)
    other = sl.gen_periodic(sl.GridSpec(1, 32), 1.0, 2048.0)
    with pytest.raises(ValueError, match="different grids"):
        sl.spectra_compare(fp, other, m=4, n_ev=6)


# ---------------------------------------------------------------------------
# min-max certificates


def test_minmax_certificate_random(random_1d):
    field, sys = random_1d
    stats = sl.analyze_geometry(field)
    cert = sl.minmax_certificate(sys, 1)
    assert cert.count == len(stats.valleys) == 14
    orac = sl.dense_oracle(sys, cert.count)
    assert orac.values[-1] <= cert.max_rayleigh * (1 + 1e-12)
    assert (cert.rayleighs >= orac.values[0]).all()


def test_minmax_periodic_sandwich(periodic_1d):
    """ell^d modes per valley certify E^{N ell} <= C ell^2/eps^2, and the
    certified count grows with ell while the oracle stays below it. The
    lower-bound constant is calibrated at the largest ell (the barrier
    height beta = 8 eps^-2 is marginal against the (ell-1)^2 eps^-2 scale,
    so growth from ell=2 to 3 is sublinear in (ell-1)^2) and must transfer
    down to ell=2."""
    field, sys = periodic_1d
    stats = sl.analyze_geometry(field)
    N = len(stats.valleys)
    assert N == 8
    orac = sl.dense_oracle(sys, 3 * N + 1)
    eps2 = field.grid.eps**2
    for ell in (2, 3):
        cert = sl.minmax_certificate(sys, ell)
        assert cert.count == N * ell
        assert orac.values[cert.count - 1] <= cert.max_rayleigh * (1 + 1e-12)
        assert cert.max_rayleigh * eps2 / ell**2 <= 20.0
    c_low = orac.values[3 * N] * eps2 / (3 - 1) ** 2
    assert c_low >= 1.0
    assert orac.values[2 * N] >= c_low * (2 - 1) ** 2 / eps2


def test_minmax_validation(periodic_1d):
    _, sys = periodic_1d
    with pytest.raises(ValueError, match="ell"):
        sl.minmax_certificate(sys, 0)
    with pytest.raises(ValueError, match="too coarse"):
        sl.minmax_certificate(sys, 4)  # width-1 valleys at m=4
    _, s2 = make_system(kind="iid", d=2, inv_eps=6, m=2, seed=1)
    with pytest.raises(ValueError, match="decomposition"):
        sl.minmax_certificate(s2, 1)
