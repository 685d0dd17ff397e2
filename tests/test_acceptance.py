"""Acceptance gate: thirteen desk-scale criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Each criterion prints its verdict before asserting, so a red run still
shows the measured numbers for every criterion that executed.
"""

import contextlib
import io
import json
import math

import numpy as np

import schrodloc as sl
from schrodloc.analysis import _cell_indicator
from schrodloc.cli import main as cli_main
from schrodloc.potential import make_rng
from schrodloc.schwarz import estimate_contraction, schwarz_precondition
from conftest import make_system


def _verdict(num, ok, detail):
    print("[%s] criterion %02d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


def _adaptive(sys):
    """Adaptive preconditioner and its power-iteration contraction."""
    prec = sl.build_preconditioner(sys, mode="adaptive")
    return prec, estimate_contraction(prec, sys).gamma


def _lambda_min_power(sys):
    """Empirical lower spectral bound of the patch operator: the measured
    contraction of id - theta P is attained at the low end, so
    lam_min = (1 - gamma)/theta. Returns (lam_min, gamma)."""
    prec, gamma = _adaptive(sys)
    return (1.0 - gamma) / prec.theta, gamma


def test_a01_constant_potential_sanity():
    _, sys = make_system(kind="constant", d=1, inv_eps=8, m=4, beta=1024.0)
    spec = sl.dense_oracle(sys, 2)
    e2_target = 1024.0 + 4 * np.pi**2
    ok = abs(spec.values[0] - 1024.0) <= 1e-9 * 1024.0
    rel2 = abs(spec.values[1] - e2_target) / e2_target
    ok = ok and rel2 <= 0.02
    _verdict(1, ok, "V=beta: E1 %.6f (=beta), E2 off by %.3f%%" % (spec.values[0], 100 * rel2))


def test_a02_valley_sharpness():
    devs = []
    for L in (16, 32):  # eps*L = 1/16 and 1/8 at eps = 2^-8
        _, sys = make_system(kind="planted", d=1, inv_eps=256, m=2, widths=[L])
        spec = sl.dense_oracle(sys, 1)
        target = 1.0 + np.pi**2 * (256 / L) ** 2
        devs.append(abs(spec.values[0] - target) / target)
    ok = max(devs) <= 0.10
    _verdict(2, ok, "E1 vs alpha+pi^2/(eps L)^2: deviations %.1f%% and %.1f%%"
             % (100 * devs[0], 100 * devs[1]))


def test_a03_spectral_equivalence():
    cases = [
        dict(kind="periodic", d=1, inv_eps=16, m=4),
        dict(kind="iid", d=1, inv_eps=32, m=4, seed=3),
        dict(kind="periodic", d=2, inv_eps=8, m=2),
        dict(kind="iid", d=2, inv_eps=8, m=2, seed=5),
    ]
    worst = 0.0
    for kw in cases:
        _, sys = make_system(**kw)
        prec = sl.build_preconditioner(sys, mode="adaptive")
        rng = make_rng(113)
        d = sys.field.grid.d
        for _ in range(100):
            v = rng.standard_normal(sys.n)
            pv = schwarz_precondition(prec, sys, sys.A @ v)
            q = float(v @ (sys.A @ pv)) / float(v @ (sys.A @ v))
            worst = max(worst, q - 2.0**d)
    upper_ok = worst <= 1e-10
    lams = {}
    for L in (1, 2, 4):
        _, sys = make_system(kind="planted", d=1, inv_eps=32, m=4, widths=[L])
        lams[L], _ = _lambda_min_power(sys)
    scaled = np.array([lams[L] * L * L for L in (1, 2, 4)])
    a_fit = float(np.exp(np.mean(np.log(scaled))))
    spread = max(scaled.max() / a_fit, a_fit / scaled.min())
    lower_ok = spread <= 3.0
    _verdict(3, upper_ok and lower_ok,
             "upper slack %.1e; lower bound vs 1/L^2 fit within factor %.2f" % (worst, spread))


def test_a04_contraction_certified():
    cases = [
        dict(kind="periodic", d=1, inv_eps=16, m=4),
        dict(kind="iid", d=1, inv_eps=64, m=4, seed=3),
        dict(kind="tensor", d=1, inv_eps=32, m=4, seed=11),
        dict(kind="planted", d=1, inv_eps=32, m=4, widths=[2]),
        dict(kind="domino", d=1, inv_eps=32, m=4, seed=2),
        dict(kind="iid", d=2, inv_eps=8, m=2, seed=5),
    ]
    all_contract, all_bounded, worst_gap = True, True, -1.0
    for kw in cases:
        field, sys = make_system(**kw)
        stats = sl.analyze_geometry(field)
        d, L = field.grid.d, stats.max_width
        lam, gamma_a = _lambda_min_power(sys)
        all_contract = all_contract and gamma_a < 1.0
        c_cal = math.sqrt(max(0.0, (1.0 / (2.0 ** (d + 1) * lam) - 1.0) / L**2))
        prec_t = sl.build_preconditioner(sys, mode="theoretical", c_stable=c_cal)
        excess = estimate_contraction(prec_t, sys).gamma - prec_t.constants.bound
        worst_gap = max(worst_gap, excess)
        all_bounded = all_bounded and excess <= 0.05
    _verdict(4, all_contract and all_bounded,
             "adaptive gamma < 1 on all six fields; theoretical excess max %.4f <= 0.05" % worst_gap)


def test_a05_green_function_decay():
    _, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=3)
    prec, gamma = _adaptive(sys)
    res = sl.green_decay(sys, prec, (32,), k_max=20)
    k = np.arange(1, 21)
    margin = float((res.rel_errors / (2.0 * gamma**k)).max())
    mask0 = sl.mask_of_vector(sys.sub, _cell_indicator(sys, (32,)))
    support_ok = res.support_cells == [int(sl.dilate_cells(mask0, j).sum()) for j in k]
    ok = margin <= 1.0 and support_ok
    _verdict(5, ok, "error <= 2*gamma^k for k<=20 (max ratio %.2f); support exact: %s"
             % (margin, support_ok))


def test_a06_inverse_power_rate():
    _, sys = make_system(kind="periodic", d=1, inv_eps=8, m=4)
    spec = sl.dense_oracle(sys, 2)
    rho = spec.values[0] / spec.values[1]
    rng = np.random.Generator(np.random.Philox(17))
    v0 = rng.standard_normal(sys.n)
    st = sl.inverse_power(sys, spec.values[0], v0, 10, u1=spec.vectors[:, 0])
    rates = np.asarray(st.history["rate"][3:])
    dev = float(np.abs(rates - rho).max() / rho)
    _verdict(6, dev <= 0.10, "rates within %.2f%% of E1/E2=%.4f after 3 transient steps"
             % (100 * dev, rho))


def test_a07_pinvit_rate():
    _, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    sm = sl.compose_smoother(prec, 0.25)
    spec = sl.dense_oracle(sys, 2)
    rho = spec.values[0] / spec.values[1]
    rng = np.random.Generator(np.random.Philox(23))
    v0 = rng.standard_normal(sys.n)
    v0 /= sl.mass_norm(sys, v0)
    st = sl.pinvit(sys, sm, spec.values[0], v0, 10, u1=spec.vectors[:, 0])
    worst = float(max(st.history["rate"]))
    bound = rho + sm.gamma + 0.05
    _verdict(7, worst <= bound, "per-step ratio max %.3f <= rho+gamma+0.05 = %.3f over 10 steps"
             % (worst, bound))


def test_a08_inexact_block_iteration():
    field, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=3)
    prec = sl.build_preconditioner(sys, mode="adaptive")
    spec = sl.dense_oracle(sys, 9)
    K = sl.gap_scan(spec.values, 8).chosen_k
    gap = spec.values[0] / spec.values[K]
    tol = 1e-3
    k_outer = sl.outer_steps(tol, gap)
    sm = sl.compose_smoother(prec, gap**k_outer)
    stats = sl.analyze_geometry(field)
    start = sl.build_start_valleys(sys, stats, K, oracle=spec)
    vt, state = sl.inexact_block_iteration(
        sys, sm, spec.values[0], start, tol, gap, u1=spec.vectors[:, 0]
    )
    errs = state.history["err"]
    err_ok = errs[-1] <= 10.0 * tol * errs[0]
    masks_ok = all(
        np.array_equal(state.masks[j], sl.dilate_cells(start.masks[j], k_outer * sm.k_inner))
        for j in range(start.size)
    ) and sl.mask_allows(sys.sub, vt, state.masks[0])
    _verdict(8, err_ok and masks_ok,
             "K=%d: final error %.2e <= 10*tol*err0 %.2e; support exact: %s"
             % (K, errs[-1], 10 * tol * errs[0], masks_ok))


def test_a09_gap_statistics_disorder_vs_order():
    def smallest_k(values):
        hit = np.nonzero(values[0] / values[1:] <= 0.5)[0]
        return int(hit[0]) + 1 if len(hit) else len(values)

    ks = []
    for seed in range(20):
        _, sys = make_system(kind="iid", d=1, inv_eps=128, m=2, seed=seed)
        ks.append(smallest_k(sl.dense_oracle(sys, 66).values))
    median = float(np.median(ks))
    _, sysp = make_system(kind="periodic", d=1, inv_eps=128, m=2)
    kp = smallest_k(sl.dense_oracle(sysp, 66).values)
    ok = median <= 8 and kp >= 128 // 4
    _verdict(9, ok, "random median K %.1f <= 8 over 20 seeds; periodic K %d >= %d"
             % (median, kp, 128 // 4))


def test_a10_eigenstate_localization_2d():
    _, sys = make_system(kind="iid", d=2, inv_eps=32, m=2, seed=5)
    spec = sl.shift_invert_oracle(sys, 1)
    prof = sl.eigen_decay(sys, spec.vectors[:, 0], k_max=12)
    _, sysp = make_system(kind="periodic", d=2, inv_eps=32, m=2)
    specp = sl.shift_invert_oracle(sysp, 1)
    profp = sl.eigen_decay(sysp, specp.vectors[:, 0], centers=[(0, 0)], k_max=10)
    ok = prof.fitted_rate >= 0.2 and prof.fit_quality >= 0.9 and abs(profp.fitted_rate) <= 0.05
    _verdict(10, ok, "random c %.3f (R2 %.3f) >= 0.2; periodic |c| %.3f <= 0.05"
             % (prof.fitted_rate, prof.fit_quality, abs(profp.fitted_rate)))


def test_a11_friedrichs_scaling():
    _, sys = make_system(kind="constant", d=1, inv_eps=16, m=4, beta=2048.0)
    const_norm = sl.friedrichs_ratio(sys, samples=50).normalized
    raw, normalized = [], []
    for L in (1, 2, 4):
        _, sysL = make_system(kind="planted", d=1, inv_eps=32, m=4, widths=[L])
        rep = sl.friedrichs_ratio(sysL, samples=50)
        raw.append(rep.max_ratio)
        normalized.append(rep.normalized)
    spread = max(normalized) / min(normalized)
    ok = const_norm <= 1.5 and raw[0] < raw[1] < raw[2] and spread <= 3.0
    _verdict(11, ok, "V=beta ratio %.3f*eps <= 1.5*eps; growth over L within factor %.2f of linear"
             % (const_norm, spread))


def test_a12_minmax_certificates():
    field, sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    stats = sl.analyze_geometry(field)
    N = len(stats.valleys)
    spec = sl.dense_oracle(sys, 2 * N)
    failures = 0
    counts = []
    for ell in (1, 2):
        cert = sl.minmax_certificate(sys, ell)
        counts.append(cert.count)
        if cert.count != N * ell:
            failures += 1
        if spec.values[cert.count - 1] > cert.max_rayleigh * (1 + 1e-12):
            failures += 1
    _verdict(12, failures == 0,
             "certified %s eigenvalues below valley-mode Rayleigh maxima, zero failures" % counts)


def test_a13_determinism(tmp_path):
    cfg = {
        "field": {"kind": "iid", "d": 1, "inv_eps": 16},
        "subgrid": {"m": 4},
        "iteration": {"tol": 0.01, "steps": 4},
        "analysis": {"n_ev": 6, "k_max": 6, "k_gap_max": 4, "samples": 5},
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    mismatches = []
    quiet = io.StringIO()
    for sub in ("gen", "oracle", "block"):
        first = tmp_path / sub
        again = tmp_path / (sub + "_rerun")
        with contextlib.redirect_stdout(quiet):
            rc1 = cli_main([sub, "--config", str(cfg_path), "--out", str(first)])
            rc2 = cli_main([sub, "--config", str(first / "manifest.json"), "--out", str(again)])
        assert rc1 == 0 and rc2 == 0
        with open(first / "manifest.json") as fh:
            artifacts = json.load(fh)["artifacts"]
        for name in artifacts:
            if (first / name).read_bytes() != (again / name).read_bytes():
                mismatches.append("%s/%s" % (sub, name))
    _verdict(13, not mismatches,
             "manifest reruns byte-identical across gen/oracle/block"
             + ("" if not mismatches else "; differs: %s" % mismatches))
