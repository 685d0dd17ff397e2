"""Potential generators, torus geometry, and the valley bookkeeping.

The geometry checks lean on a brute-force maximal-cube enumerator that is
exponential-ish but fine for the small grids used here; the generators are
checked against hand-computable instances plus seeded determinism loops.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schrodloc as sl
from conftest import FIELD_KINDS, make_field
from schrodloc.potential import _field_from_factors, _torus_boxes


def _brute_cubes(occ):
    """Exhaustive maximal alpha-cube enumeration on the torus.

    Containment test: cube (a,s) lies inside (b,t) iff per axis the circular
    offset (a-b) mod n plus s fits into t. Only usable for small grids.
    """
    alpha = ~occ
    n = occ.shape[0]
    d = occ.ndim
    if not alpha.any():
        return []
    if alpha.all():
        return [((0,) * d, n)]

    def covers(anchor, side):
        idx = np.ix_(*[(np.arange(side) + a) % n for a in anchor])
        return alpha[idx].all()

    cubes = set()
    anchors = list(itertools.product(range(n), repeat=d))
    for side in range(1, n + 1):
        hits = [a for a in anchors if covers(a, side)]
        if not hits:
            break
        cubes.update((a, side) for a in hits)

    def inside(small, big):
        (a, s), (b, t) = small, big
        if t <= s:
            return False
        return all(((ai - bi) % n) + s <= t for ai, bi in zip(a, b))

    out = [c for c in cubes if not any(inside(c, o) for o in cubes)]
    return sorted(out, key=lambda cs: (-cs[1], cs[0]))


# ---------------------------------------------------------------------------
# generators


def test_periodic_1d_pattern():
    field = sl.gen_periodic(sl.GridSpec(1, 4), 1.0, 128.0)
    # beta on even cells, alpha on odd: [beta, alpha, beta, alpha]
    np.testing.assert_array_equal(field.occupancy, [True, False, True, False])
    np.testing.assert_array_equal(field.values(), [128.0, 1.0, 128.0, 1.0])


def test_periodic_odd_grid_rejected():
    with pytest.raises(ValueError, match="even"):
        sl.gen_periodic(sl.GridSpec(1, 5), 1.0, 128.0)


def test_periodic_2d_smallest_board():
    field = sl.gen_periodic(sl.GridSpec(2, 2), 1.0, 128.0)
    # the single alpha cell sits at the all-odd corner
    np.testing.assert_array_equal(field.occupancy, [[True, True], [True, False]])


def test_periodic_2d_geometry():
    field = sl.gen_periodic(sl.GridSpec(2, 4), 1.0, 512.0)
    stats = sl.analyze_geometry(field)
    assert stats.max_width == 1
    assert stats.cube_overlap == 1
    assert sorted(a for a, s in stats.maximal_cubes) == [(1, 1), (1, 3), (3, 1), (3, 3)]
    assert all(s == 1 for _, s in stats.maximal_cubes)


def test_iid_determinism_and_seed_sensitivity():
    grid = sl.GridSpec(1, 256, seed=42)
    a = sl.gen_iid(grid, 1.0, 8.0 * 256**2, 0.5)
    b = sl.gen_iid(grid, 1.0, 8.0 * 256**2, 0.5)
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    c = sl.gen_iid(sl.GridSpec(1, 256, seed=43), 1.0, 8.0 * 256**2, 0.5)
    assert (a.occupancy != c.occupancy).any()


def test_iid_p_beta_one_is_all_barrier():
    field = sl.gen_iid(sl.GridSpec(2, 8), 1.0, 512.0, 1.0)
    assert field.occupancy.all()
    stats = sl.analyze_geometry(field)
    assert stats.maximal_cubes == []
    assert stats.max_width == 1  # the L := 1 convention for valley-free fields
    assert stats.cube_overlap == 0


def test_iid_p_beta_zero_is_one_big_valley():
    field = sl.gen_iid(sl.GridSpec(2, 8), 1.0, 512.0, 0.0)
    assert not field.occupancy.any()
    stats = sl.analyze_geometry(field)
    assert stats.maximal_cubes == [((0, 0), 8)]
    assert stats.max_width == 8


def test_iid_p_beta_validation():
    with pytest.raises(ValueError):
        sl.gen_iid(sl.GridSpec(1, 8), 1.0, 64.0, 1.5)


def test_tensor_hand_example():
    grid = sl.GridSpec(2, 4)
    f1 = np.array([1, 1, 0, 0], dtype=bool)
    f2 = np.array([1, 0, 1, 0], dtype=bool)
    field = _field_from_factors(grid, [f1, f2], 1.0, 128.0, kind="tensor")
    alpha = ~field.occupancy
    expect = np.zeros((4, 4), dtype=bool)
    expect[np.ix_([0, 1], [0, 2])] = True
    np.testing.assert_array_equal(alpha, expect)
    stats = sl.analyze_geometry(field)
    assert [(v.anchor, v.sides) for v in stats.valleys] == [
        ((0, 0), (2, 1)),
        ((0, 2), (2, 1)),
    ]


def test_tensor_alternating_factors_reproduce_periodic():
    for d in (1, 2):
        grid = sl.GridSpec(d, 8)
        row = np.arange(8) % 2 == 1
        tens = _field_from_factors(grid, [row] * d, 1.0, 512.0, kind="tensor")
        per = sl.gen_periodic(grid, 1.0, 512.0)
        np.testing.assert_array_equal(tens.occupancy, per.occupancy)


def test_tensor_p_alpha_zero_is_all_barrier():
    field = sl.gen_tensor(sl.GridSpec(2, 8, seed=5), 1.0, 512.0, 0.0)
    assert field.occupancy.all()
    assert sl.analyze_geometry(field).valleys == []


def test_tensor_p_alpha_one_is_one_valley():
    """All factor rows are all-True, so each axis is one run round the torus."""
    field = sl.gen_tensor(sl.GridSpec(2, 8, seed=5), 1.0, 512.0, 1.0)
    assert not field.occupancy.any()
    assert [(v.anchor, v.sides) for v in sl.analyze_geometry(field).valleys] == [((0, 0), (8, 8))]


def test_tensor_p_alpha_validation():
    for p_alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="p_alpha must lie in"):
            sl.gen_tensor(sl.GridSpec(1, 8), 1.0, 64.0, p_alpha)


def test_tensor_valleys_partition_alpha_region():
    # valleys are products of factor runs: disjoint and exactly covering alpha
    for seed in range(6):
        field = sl.gen_tensor(sl.GridSpec(2, 12, seed=seed), 1.0, 128.0, 0.4)
        stats = sl.analyze_geometry(field)
        cover = np.zeros(field.grid.shape, dtype=int)
        for v in stats.valleys:
            idx = np.ix_(
                *[
                    (np.arange(w) + a) % field.grid.inv_eps
                    for a, w in zip(v.anchor, v.sides)
                ]
            )
            cover[idx] += 1
        np.testing.assert_array_equal(cover, (~field.occupancy).astype(int))


def test_tensor_valleys_abut_barrier_layers():
    """Each valley boundary along a transitioning axis touches beta cells."""
    n = 12
    for seed in range(8):
        field = sl.gen_tensor(sl.GridSpec(2, n, seed=seed), 1.0, 128.0, 0.5)
        stats = sl.analyze_geometry(field)
        for v in stats.valleys:
            for ax in range(2):
                if field.factors[ax].all():
                    continue  # run wraps the full circle, no transition
                for edge in (v.anchor[ax] - 1, v.anchor[ax] + v.sides[ax]):
                    sel = [
                        (np.arange(w) + a) % n
                        for a, w in zip(v.anchor, v.sides)
                    ]
                    sel[ax] = np.array([edge % n])
                    assert field.occupancy[np.ix_(*sel)].all()


def test_planted_widths_show_up_in_counts():
    field = sl.gen_planted(sl.GridSpec(1, 16), 1.0, 2048.0, [2, 4])
    stats = sl.analyze_geometry(field)
    assert stats.width_counts == {2: 1, 4: 1}
    assert stats.max_width == 4


def test_planted_validation():
    with pytest.raises(ValueError):
        sl.gen_planted(sl.GridSpec(1, 8), 1.0, 64.0, [4, 4])  # gaps do not fit
    with pytest.raises(ValueError):
        sl.gen_planted(sl.GridSpec(1, 8), 1.0, 64.0, [])
    with pytest.raises(ValueError):
        sl.gen_planted(sl.GridSpec(1, 8), 1.0, 64.0, [0])


# ---------------------------------------------------------------------------
# domino tilings


def test_domino_forced_level_two():
    field = sl.gen_domino(
        sl.GridSpec(1, 4), 2.0, 512.0, level_decay=1.0, max_level=2
    )
    assert len(field.blocks) == 1
    assert field.blocks[0][1] == 2
    occ = field.occupancy.tolist()
    assert occ in ([False, False, True, True], [True, True, False, False])


def _box(grid, anchor, sides):
    """Flat cell indices of the torus box of the given sides at anchor."""
    return _torus_boxes(grid.inv_eps, [[c] for c in anchor], sides)[0]


def _block_sides(d, level, axis):
    """Sides of a domino block: 2 level along its axis, level across."""
    return tuple(2 * level if a == axis else level for a in range(d))


def test_domino_exact_cover_2d():
    field = sl.gen_domino(sl.GridSpec(2, 8, seed=11), 1.0, 512.0)
    cover = np.zeros(field.grid.shape, dtype=int)
    for anchor, level, axis, _ in field.blocks:
        cover.flat[_box(field.grid, anchor, _block_sides(2, level, axis))] += 1
    np.testing.assert_array_equal(cover, 1)


def test_domino_partition_invariants():
    for d, n in ((1, 64), (2, 16), (3, 8), (2, 64), (3, 16)):
        for seed in range(4):
            field = sl.gen_domino(sl.GridSpec(d, n, seed=seed), 1.0, 8.0 * n**2)
            vol = sum(2 * lev**d for _, lev, _, _ in field.blocks)
            assert vol == n**d
            cover = np.zeros(field.grid.shape, dtype=int)
            for anchor, lev, axis, _ in field.blocks:
                cover.flat[_box(field.grid, anchor, _block_sides(d, lev, axis))] += 1
            assert cover.min() == 1 and cover.max() == 1
            # each block contributes an alpha half and a beta half
            assert field.n_alpha == field.n_beta


def test_domino_level_histogram_tracks_geometric():
    """Monte-Carlo over 100 seeds: realized levels vs the sampling law.

    Target is geometric(1/2) truncated at max_level=4 with the tail lumped
    into the top level: [1/2, 1/4, 1/8, 1/8]. Only the final block of each
    1D scanline pass can be forced below its sampled level, so the empirical
    histogram should sit well within 3 sigma at this sample size.
    """
    counts = np.zeros(4)
    for seed in range(100):
        field = sl.gen_domino(sl.GridSpec(1, 128, seed=seed), 1.0, 8.0 * 128**2)
        for _, lev, _, _ in field.blocks:
            counts[lev - 1] += 1
    total = counts.sum()
    target = np.array([0.5, 0.25, 0.125, 0.125])
    sigma = np.sqrt(target * (1.0 - target) / total)
    dev = np.abs(counts / total - target) / sigma
    assert dev.max() < 3.0, "level histogram off target: %s sigma" % dev


def test_domino_2d_levels_follow_shrunk_law():
    """d=2 fields draw levels above 1 and meet the measured shrunk law.

    Shrink-to-fit lowers a drawn level wherever the coarse cube does not
    fit, so the realized fractions sit below the geometric target [1/2,
    1/4, 1/8, 1/8]. Measured over seeds 0-49 at inv_eps=64: [0.639, 0.231,
    0.083, 0.047], with a standard error of the 50-seed mean of at most
    0.0035 per level; 0.02 is over 5 standard errors. The earlier
    restart-and-fallback sampler gave [0.689, 0.225, 0.056, 0.030] on the
    same seeds and only level-1 blocks along axis 0 at inv_eps=128.
    """
    field = sl.gen_domino(sl.GridSpec(2, 128, seed=5), 1.0, 8.0 * 128**2)
    assert max(lev for _, lev, _, _ in field.blocks) > 1
    assert {axis for _, _, axis, _ in field.blocks} == {0, 1}
    levels = [
        lev
        for seed in range(50)
        for _, lev, _, _ in sl.gen_domino(sl.GridSpec(2, 64, seed=seed), 1.0, 8.0 * 64**2).blocks
    ]
    frac = np.bincount(levels, minlength=5)[1:] / len(levels)
    measured = np.array([0.639, 0.231, 0.083, 0.047])
    assert np.abs(frac - measured).max() < 0.02, frac


@pytest.mark.parametrize(
    "inv_eps, seed, max_level, level_decay, digest",
    [
        (32, 0, 4, 0.5, "349a55045f614ff0"),
        (64, 3, 4, 0.5, "57caf104ede1c0de"),
        (128, 7, 4, 0.5, "f6cf1460637a4703"),
        (256, 11, 2, 0.9, "7bcb431a5c47886e"),
    ],
)
def test_domino_1d_blocks_pinned(inv_eps, seed, max_level, level_decay, digest):
    """d=1 tilings are pinned by digest: in 1D the coarse scan makes the
    same placements and RNG draws as a scan of the fine grid, so these
    fields do not change with the d>=2 construction."""
    field = sl.gen_domino(
        sl.GridSpec(1, inv_eps, seed=seed), 1.0, 8.0 * inv_eps**2,
        level_decay=level_decay, max_level=max_level,
    )
    got = hashlib.sha256(json.dumps(field.blocks).encode()).hexdigest()[:16]
    assert got == digest


@pytest.mark.parametrize(
    "d, inv_eps, seed, max_level, digest",
    [
        (2, 128, 5, 4, "e787067fa7b2e6c8"),
        (2, 128, 0, 4, "a4d082903aaab54c"),
        (3, 16, 2, 4, "00121a8ca378c90f"),
        (3, 8, 0, 2, "a59a8c3d945d6320"),
    ],
)
def test_domino_2d_3d_pinned(d, inv_eps, seed, max_level, digest):
    """d=2 and d=3 tilings are pinned by a digest of the blocks and the
    packed occupancy, so a faster scan must make the same draws and marks."""
    field = sl.gen_domino(
        sl.GridSpec(d, inv_eps, seed=seed), 1.0, 8.0 * inv_eps**2, max_level=max_level
    )
    payload = json.dumps(field.blocks).encode() + np.packbits(field.occupancy).tobytes()
    assert hashlib.sha256(payload).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "d, inv_eps, seed, max_level, level_decay, digest",
    [
        (1, 256, 4, 4, 0.5, "d465e9873371d284"),
        (3, 32, 1, 4, 0.5, "9a614f308e0a2511"),
        (2, 64, 3, 4, 1.0, "b0ba617627c2ea03"),
        (3, 16, 6, 3, 1.0, "a0f3be5b76a6147b"),
        (2, 32, 8, 1, 0.5, "8c3bdc95c0acd0ad"),
        (3, 8, 9, 1, 0.5, "9bfe66f9a8fee010"),
    ],
)
def test_domino_pinned_across_dimensions_and_laws(d, inv_eps, seed, max_level, level_decay, digest):
    """The digest of test_domino_2d_3d_pinned on 1D and 3D benchmark-like
    sizes, on level_decay=1 (every draw is max_level, so most cubes shrink)
    and on max_level=1 (no cube check at all)."""
    field = sl.gen_domino(
        sl.GridSpec(d, inv_eps, seed=seed), 1.0, 8.0 * inv_eps**2,
        level_decay=level_decay, max_level=max_level,
    )
    payload = json.dumps(field.blocks).encode() + np.packbits(field.occupancy).tobytes()
    assert hashlib.sha256(payload).hexdigest()[:16] == digest


def test_domino_determinism():
    a = sl.gen_domino(sl.GridSpec(2, 12, seed=9), 1.0, 512.0)
    b = sl.gen_domino(sl.GridSpec(2, 12, seed=9), 1.0, 512.0)
    assert a.blocks == b.blocks
    np.testing.assert_array_equal(a.occupancy, b.occupancy)


def test_domino_validation():
    with pytest.raises(ValueError, match="even"):
        sl.gen_domino(sl.GridSpec(1, 7), 1.0, 512.0)
    with pytest.raises(ValueError, match="level_decay"):
        sl.gen_domino(sl.GridSpec(1, 8), 1.0, 512.0, level_decay=0.0)
    with pytest.raises(ValueError, match="max_level"):
        sl.gen_domino(sl.GridSpec(1, 8), 1.0, 512.0, max_level=5)


def test_domino_valleys_are_the_alpha_halves():
    field = sl.gen_domino(sl.GridSpec(2, 16, seed=3), 1.0, 2048.0)
    stats = sl.analyze_geometry(field)
    assert len(stats.valleys) == len(field.blocks)
    for v in stats.valleys:
        assert v.sides == (v.min_side,) * 2  # alpha half of a block is a cube
    levels = sorted(lev for _, lev, _, _ in field.blocks)
    assert sorted(v.min_side for v in stats.valleys) == levels


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 6))
def test_torus_boxes_match_ravel_multi_index(data, d, n):
    """Row r of _torus_boxes is the box at the r-th point of the starts'
    outer grid (C order), its points in C order mod n, numbered as
    np.ravel_multi_index numbers them; starts may lie below 0 or at n and
    above, sides come as one int or one per axis."""
    starts = [
        np.array(data.draw(st.lists(st.integers(-2 * n, 3 * n), min_size=1, max_size=4)))
        for _ in range(d)
    ]
    sides = data.draw(st.integers(1, n) | st.tuples(*[st.integers(1, n)] * d))
    side = np.broadcast_to(sides, (d,))
    boxes = _torus_boxes(n, starts, sides)
    corners = list(itertools.product(*starts))
    assert boxes.shape == (len(corners), np.prod(side))
    for row, corner in zip(boxes, corners):
        ranges = [(c + np.arange(s)) % n for c, s in zip(corner, side)]
        np.testing.assert_array_equal(
            row, np.ravel_multi_index(np.ix_(*ranges), (n,) * d).ravel()
        )


# ---------------------------------------------------------------------------
# geometry analysis


def test_maximal_cubes_hand_l_shape():
    # 6x6 board, alpha = [0,4)x[0,2) union [0,2)x[0,5): an L shape
    occ = np.ones((6, 6), dtype=bool)
    occ[0:4, 0:2] = False
    occ[0:2, 0:5] = False
    grid = sl.GridSpec(2, 6)
    field = sl.PotentialField(grid, occ, 1.0, 128.0, kind="iid")
    stats = sl.analyze_geometry(field)
    assert stats.max_width == 2
    assert stats.cube_overlap == 3
    assert stats.maximal_cubes == _brute_cubes(occ)
    anchors = {a for a, _ in stats.maximal_cubes}
    assert anchors == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3)}


def test_maximal_cubes_match_brute_force():
    cases = [(1, 32, 0.5), (2, 10, 0.5), (2, 8, 0.3), (3, 6, 0.5)]
    for d, n, p in cases:
        for seed in range(4):
            field = sl.gen_iid(sl.GridSpec(d, n, seed=seed), 1.0, 8.0 * n**2, p)
            stats = sl.analyze_geometry(field)
            assert stats.maximal_cubes == _brute_cubes(field.occupancy), (
                "mismatch at d=%d n=%d p=%.1f seed=%d" % (d, n, p, seed)
            )


def test_overlap_bound_and_1d_overlap():
    # kappa <= L^d in general, and exactly 1 in one dimension
    for seed in range(10):
        field = sl.gen_iid(sl.GridSpec(2, 16, seed=seed), 1.0, 2048.0, 0.45)
        stats = sl.analyze_geometry(field)
        assert stats.cube_overlap <= stats.max_width**2
    for seed in range(10):
        field = sl.gen_iid(sl.GridSpec(1, 64, seed=seed), 1.0, 8.0 * 64**2, 0.5)
        stats = sl.analyze_geometry(field)
        if stats.maximal_cubes:
            assert stats.cube_overlap == 1


def test_anisotropy_from_planted_valleys():
    field = sl.gen_planted(sl.GridSpec(2, 16), 1.0, 2048.0, [2, 4])
    stats = sl.analyze_geometry(field)
    # factor runs of 2 and 4 in both axes: valleys 2x2, 2x4, 4x2, 4x4
    assert stats.width_counts == {2: 3, 4: 1}
    assert stats.anisotropy[1] == 2.0
    assert stats.anisotropy[2] == 2.0
    assert stats.anisotropy[3] == 1.0
    assert stats.anisotropy[4] == 1.0


def test_valley_tables_tensor_hand_evaluation():
    grid = sl.GridSpec(2, 8)
    f1 = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=bool)
    f2 = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
    field = _field_from_factors(grid, [f1, f2], 1.0, 512.0, kind="tensor")
    stats = sl.analyze_geometry(field)
    # valleys 3x3 and 1x3: N_1 = N_3 = 1, rho_1 = 3, rho_2 = 1
    assert stats.width_counts == {1: 1, 3: 1}
    assert stats.anisotropy[1] == 3.0
    assert stats.anisotropy[2] == 1.0


# ---------------------------------------------------------------------------
# field plumbing


FIELD_PARAMS = dict(
    kind=st.sampled_from(FIELD_KINDS),
    d=st.sampled_from([1, 2, 3]),
    inv_eps=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**32 - 1),
)


def _field(kind, d, inv_eps, seed, alpha=1.0):
    grid = sl.GridSpec(d, inv_eps, seed=seed)
    return make_field(kind, grid, alpha, max_level=min(4, inv_eps // 2))


@settings(max_examples=40, deadline=None)
@given(**FIELD_PARAMS)
def test_generator_determinism_all_kinds(kind, d, inv_eps, seed):
    a, b = _field(kind, d, inv_eps, seed), _field(kind, d, inv_eps, seed)
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    assert a.blocks == b.blocks


def test_field_validation():
    grid = sl.GridSpec(1, 4)
    with pytest.raises(ValueError, match="alpha"):
        sl.PotentialField(grid, np.ones(4, bool), 2.0, 1.0, kind="iid")
    with pytest.raises(ValueError, match="shape"):
        sl.PotentialField(grid, np.ones(5, bool), 1.0, 2.0, kind="iid")
    with pytest.raises(ValueError):
        sl.GridSpec(4, 8)
    with pytest.raises(ValueError):
        sl.GridSpec(1, 1)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.0, 100.0), **FIELD_PARAMS)
def test_save_load_round_trip(tmp_path_factory, kind, d, inv_eps, seed, alpha):
    field = _field(kind, d, inv_eps, seed, alpha)
    path = tmp_path_factory.mktemp("field") / "field.json"
    sl.save_field(field, path)
    back = sl.load_field(path)
    np.testing.assert_array_equal(back.occupancy, field.occupancy)
    assert back.grid == field.grid
    assert back.alpha == field.alpha and back.beta == field.beta
    assert back.kind == field.kind
    if field.factors is None:
        assert back.factors is None
    else:
        for fa, fb in zip(field.factors, back.factors):
            np.testing.assert_array_equal(fa, fb)
    assert back.blocks == field.blocks
    # geometry must survive the round trip too
    assert sl.analyze_geometry(back).maximal_cubes == (
        sl.analyze_geometry(field).maximal_cubes
    )


def test_save_field_bit_packing(tmp_path):
    import json

    field = sl.gen_periodic(sl.GridSpec(1, 4), 1.0, 128.0)
    path = tmp_path / "f.json"
    sl.save_field(field, path)
    doc = json.loads(path.read_text())
    # occupancy [1,0,1,0] packed MSB-first and zero-padded: 0b10100000
    assert doc["occupancy_hex"] == "a0"


def _json_dump_reference(field, path):
    """save_field as it was written with the standard library's encoder."""
    packed = np.packbits(field.occupancy.ravel(order="C").astype(np.uint8))
    doc = {
        "kind": field.kind,
        "d": field.grid.d,
        "inv_eps": field.grid.inv_eps,
        "seed": field.grid.seed,
        "alpha": field.alpha,
        "beta": field.beta,
        "occupancy_hex": packed.tobytes().hex(),
    }
    if field.factors is not None:
        doc["factors"] = [[int(x) for x in f] for f in field.factors]
    if field.blocks is not None:
        doc["blocks"] = [
            [list(anchor), level, axis, bool(alpha_low)]
            for anchor, level, axis, alpha_low in field.blocks
        ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _writer_fields():
    for d, inv_eps, seed, kw in (
        (1, 64, 3, {}),
        (2, 32, 1, {}),
        (3, 8, 2, {}),
        (2, 16, 4, {"max_level": 1}),
        (3, 8, 5, {"level_decay": 1.0, "max_level": 2}),
        (1, 16, 0, {"level_decay": 1.0, "max_level": 8}),
    ):
        yield sl.gen_domino(sl.GridSpec(d, inv_eps, seed=seed), 0.5, 2048.0, **kw)
    for d in (1, 2, 3):
        grid = sl.GridSpec(d, 8, seed=d)
        yield sl.gen_tensor(grid, 1.0, 512.0, 0.4)
        yield sl.gen_periodic(grid, 0.0, 3.25)
        yield sl.gen_iid(grid, 1e-3, 1e5, 0.3)
    # a block list that is present but empty stays "blocks": []
    yield sl.PotentialField(sl.GridSpec(2, 4), np.ones((4, 4), bool), 1.0, 2.0, "domino", blocks=[])


def test_save_field_bytes_equal_json_dump(tmp_path):
    """The hand-rendered block records give json.dump's bytes, for every
    dimension and kind, and a saved file reloads and saves to itself."""
    for i, field in enumerate(_writer_fields()):
        got, want, again = (tmp_path / ("%s-%d.json" % (tag, i)) for tag in ("got", "want", "again"))
        sl.save_field(field, got)
        _json_dump_reference(field, want)
        assert got.read_bytes() == want.read_bytes(), (field.kind, field.grid)
        sl.save_field(sl.load_field(got), again)
        assert again.read_bytes() == got.read_bytes(), (field.kind, field.grid)
