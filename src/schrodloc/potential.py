"""Disorder potentials on the periodic unit cube.

The domain is the torus [0,1)^d split into inv_eps**d cubic cells of side
eps = 1/inv_eps. A potential takes the value beta on a set of "barrier"
cells and a much smaller value alpha on the rest. The alpha region is where
low eigenstates live, so the geometry analysis here is all about the shape
of that region: maximal alpha-cubes, their overlap, and (where the field has
product or block structure) the decomposition into rectangular valleys.

Five generators are provided:

* gen_periodic: the checkerboard-like reference pattern, beta on every cell
  with at least one even coordinate, alpha on the rest.
* gen_iid: independent Bernoulli beta-cells.
* gen_tensor: product of d independent 1D Bernoulli factor fields; the
  alpha region is a union of rectangular valleys, each surrounded by a
  beta layer wherever its factor has a transition.
* gen_domino: a random exact tiling by j-blocks (a 2j x j x ... x j box
  split into an alpha j-cube and a beta j-cube); the level is drawn
  geometrically for each 2j-cube of the tiling, shrunk to the largest cube
  that fits and shared by the cube's 2^(d-1) blocks.
* gen_planted: deterministic wells of prescribed widths on a barrier
  background, for calibration runs where the geometry must be known.

All randomness comes from numpy's Philox generator (counter-based) keyed by
the explicit seed in the GridSpec, so every field is reproducible from its
GridSpec alone.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "PotentialField",
    "Valley",
    "GeometryStats",
    "make_rng",
    "gen_periodic",
    "gen_iid",
    "gen_tensor",
    "gen_planted",
    "gen_domino",
    "analyze_geometry",
    "save_field",
    "load_field",
]


def make_rng(seed):
    """Counter-based generator (Philox) keyed by an explicit integer seed."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class GridSpec:
    """Cell grid of the unit torus: inv_eps cells per axis, side eps."""

    d: int
    inv_eps: int
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.d > 3:
            raise ValueError("d must be 1, 2 or 3, got %r" % (self.d,))
        if self.inv_eps < 2:
            raise ValueError("inv_eps must be at least 2, got %r" % (self.inv_eps,))

    @property
    def eps(self):
        return 1.0 / self.inv_eps

    @property
    def shape(self):
        return (self.inv_eps,) * self.d

    @property
    def n_cells(self):
        return self.inv_eps ** self.d


@dataclass
class PotentialField:
    """Piecewise constant potential: beta on occupancy==True cells, else alpha.

    factors (tensor/periodic kinds) stores the d Bernoulli factor rows with
    1 marking the alpha-contributing value; blocks (domino kind) stores the
    tiling as (anchor, level, long_axis, alpha_low) tuples. Both are enough
    to recover the valley decomposition exactly.
    """

    grid: GridSpec
    occupancy: np.ndarray
    alpha: float
    beta: float
    kind: str
    factors: list | None = None
    blocks: list | None = None

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != self.grid.shape:
            raise ValueError(
                "occupancy shape %s does not match grid shape %s"
                % (self.occupancy.shape, self.grid.shape)
            )
        if not (0 <= self.alpha < self.beta):
            raise ValueError(
                "need 0 <= alpha < beta, got alpha=%r beta=%r" % (self.alpha, self.beta)
            )

    def values(self):
        """Per-cell potential values as a float array."""
        return np.where(self.occupancy, self.beta, self.alpha)

    @property
    def n_beta(self):
        return int(self.occupancy.sum())

    @property
    def n_alpha(self):
        return int(self.occupancy.size - self.occupancy.sum())


@dataclass(frozen=True)
class Valley:
    """Rectangular alpha component: cell anchor (min corner) and sides in cells."""

    anchor: tuple
    sides: tuple

    @property
    def min_side(self):
        return min(self.sides)

    @property
    def max_side(self):
        return max(self.sides)


@dataclass
class GeometryStats:
    """Geometry summary of the alpha region.

    maximal_cubes lists (anchor, side) in cell units for every alpha-cube not
    contained in a bigger one; max_width is the largest such side (1 when the
    alpha region is empty); cube_overlap is the largest number of maximal
    cubes covering a single cell. valleys / width_counts / anisotropy are
    only available when the field carries enough structure to define a
    rectangular valley decomposition (d=1, tensor, periodic, domino).
    """

    d: int
    maximal_cubes: list
    max_width: int
    cube_overlap: int
    valleys: list | None = None
    width_counts: dict | None = None
    anisotropy: dict | None = None


# ---------------------------------------------------------------------------
# generators


def gen_periodic(grid: GridSpec, alpha: float, beta: float) -> PotentialField:
    """Reference periodic pattern: alpha exactly on cells with all-odd indices.

    Needs an even inv_eps so the pattern closes around the torus.
    """
    if grid.inv_eps % 2 != 0:
        raise ValueError(
            "periodic pattern needs even inv_eps, got %d" % grid.inv_eps
        )
    factors = [(np.arange(grid.inv_eps) % 2 == 1) for _ in range(grid.d)]
    return _field_from_factors(grid, factors, alpha, beta, kind="periodic")


def gen_iid(grid: GridSpec, alpha: float, beta: float, p_beta: float) -> PotentialField:
    """Independent Bernoulli(p_beta) barrier cells."""
    if not 0.0 <= p_beta <= 1.0:
        raise ValueError("p_beta must lie in [0,1], got %r" % (p_beta,))
    rng = make_rng(grid.seed)
    occ = rng.random(grid.shape) < p_beta
    return PotentialField(grid, occ, alpha, beta, kind="iid")


def gen_tensor(grid: GridSpec, alpha: float, beta: float, p_alpha: float) -> PotentialField:
    """Product field: cell is alpha iff all d factor rows are 1 there.

    Each factor row is an independent Bernoulli(p_alpha) sample of length
    inv_eps, so the alpha region is a union of boxes (products of factor
    runs), each flanked by beta in every axis where its factor flips.
    """
    if not 0.0 <= p_alpha <= 1.0:
        raise ValueError("p_alpha must lie in [0,1], got %r" % (p_alpha,))
    rng = make_rng(grid.seed)
    factors = [rng.random(grid.inv_eps) < p_alpha for _ in range(grid.d)]
    return _field_from_factors(grid, factors, alpha, beta, kind="tensor")


def gen_planted(grid: GridSpec, alpha: float, beta: float, widths) -> PotentialField:
    """Deterministic tensor field with prescribed valley widths (in cells).

    The same factor row is used along every axis: runs of the given widths,
    separated by beta gaps spread as evenly as possible. With a single width
    w this plants one w-cube valley; in d=1 this plants len(widths) separate
    intervals. Useful as a controlled test fixture.
    """
    widths = [int(w) for w in widths]
    if not widths or any(w < 1 for w in widths):
        raise ValueError("widths must be positive integers")
    need = sum(widths) + len(widths)
    if need > grid.inv_eps:
        raise ValueError(
            "widths %r plus separating gaps do not fit in %d cells"
            % (widths, grid.inv_eps)
        )
    row = np.zeros(grid.inv_eps, dtype=bool)
    spare = grid.inv_eps - sum(widths) - len(widths)
    gap = 1 + spare // len(widths)
    pos = 0
    for w in widths:
        row[pos : pos + w] = True
        pos += w + gap
    factors = [row.copy() for _ in range(grid.d)]
    return _field_from_factors(grid, factors, alpha, beta, kind="tensor")


def _field_from_factors(grid, factors, alpha, beta, kind):
    prod = factors[0].astype(bool)
    for f in factors[1:]:
        prod = np.multiply.outer(prod, f.astype(bool))
    occ = ~prod
    return PotentialField(
        grid, occ, alpha, beta, kind=kind, factors=[np.asarray(f, bool) for f in factors]
    )


def gen_domino(
    grid: GridSpec,
    alpha: float,
    beta: float,
    level_decay: float = 0.5,
    max_level: int = 4,
) -> PotentialField:
    """Random exact tiling of the torus by j-blocks.

    A j-block is a box of extent 2j along one axis and j along the others,
    split across the long axis into an alpha j-cube and a beta j-cube. The
    tiling is laid on the coarse torus of (inv_eps/2)^d cells, scanned once
    in index order. At each uncovered coarse cell a level j is drawn
    geometrically with ratio level_decay (tail mass lumped at max_level, and
    level_decay=1 draws max_level every time), then lowered until the coarse
    j-cube there is all uncovered; a 1-cube always is, so the scan never
    dead-ends, and one that wraps the torus never is, as it holds a cell the
    scan has passed. The fine 2j-cube it stands for is split across a
    uniform long axis into 2^(d-1) j-blocks, which share that level and axis;
    each block draws its alpha half uniformly.

    In d=1 only the last cube can be shrunk, so the realized levels follow
    the drawn law; in d>=2 shrink-to-fit skews them low. Measured level
    fractions (per cube, equal to per block) for levels 1-4 against the
    target [0.5, 0.25, 0.125, 0.125] at the defaults: d=2, inv_eps 64 (50
    seeds) [0.64, 0.23, 0.08, 0.05] and 128 (20 seeds) [0.63, 0.23, 0.08,
    0.06]; d=3, inv_eps 16 (50 seeds) [0.85, 0.13, 0.02, 0.005].
    """
    n = grid.inv_eps
    if n % 2 != 0:
        raise ValueError(
            "domino tiling needs even inv_eps (block volumes are even), got %d" % n
        )
    if not 0.0 < level_decay <= 1.0:
        raise ValueError("level_decay must lie in (0,1], got %r" % (level_decay,))
    if max_level < 1 or 2 * max_level > n:
        raise ValueError("max_level must satisfy 1 <= max_level <= inv_eps/2")
    rng = make_rng(grid.seed)
    d, m = grid.d, n // 2
    uncovered = np.ones((m,) * d, dtype=bool)  # the coarse cells
    flat_uncovered = uncovered.reshape(-1)  # a view, in scan order
    blocks = []
    for flat, cell in enumerate(itertools.product(range(m), repeat=d)):
        if not flat_uncovered[flat]:
            continue
        j = _sample_level(rng, level_decay, max_level)
        while j > 1:
            cube = tuple(slice(c, c + j) for c in cell)
            if max(cell) + j <= m and uncovered[cube].all():
                break
            j -= 1
        else:  # the 1-cube is the cell itself
            cube = cell
        uncovered[cube] = False
        axis = int(rng.integers(d))
        for offset in itertools.product((0, j), repeat=d - 1):
            offset = offset[:axis] + (0,) + offset[axis:]
            anchor = tuple(2 * c + o for c, o in zip(cell, offset))
            blocks.append((anchor, j, axis, bool(rng.random() < 0.5)))
    valleys = {}  # level -> min corners of its alpha cubes
    for anchor, sides in _domino_valleys(grid, blocks):
        valleys.setdefault(sides[0], []).append(anchor)
    occ = np.ones(grid.n_cells, dtype=bool)
    for j, corners in valleys.items():
        occ[_anchored_boxes(n, np.array(corners).T[:, :, None], _box_offsets(d, j))] = False
    occ = occ.reshape(grid.shape)
    return PotentialField(grid, occ, alpha, beta, kind="domino", blocks=blocks)


def _domino_valleys(grid, blocks):
    """(anchor, sides) of the alpha j-cube of each (anchor, j, axis,
    alpha_low) block: its low half along the long axis when alpha_low, else
    the half j cells up. Plain tuples, since gen_domino only maps them to cells."""
    for anchor, level, axis, alpha_low in blocks:
        a = list(anchor)
        if not alpha_low:
            a[axis] = (a[axis] + level) % grid.inv_eps
        yield tuple(a), (level,) * grid.d


def _box_offsets(d, sides):
    """Per-axis offsets (d, k) of the k points of a box of the given sides
    (an int or one per axis), in C order."""
    return np.indices(np.broadcast_to(sides, (d,))).reshape(d, -1)


def _anchored_boxes(n, anchors, offsets):
    """Flat indices of the points anchors + offsets on the torus of n points
    per axis, numbered in C order (axis 0 slowest), each coordinate mod n.

    offsets is a (d, k) table from _box_offsets; anchors holds one integer
    or integer array per axis, broadcast against the k points, so one call
    maps one box or many boxes of the same sides.
    """
    d, flat = len(offsets), 0
    for a, (s, off) in enumerate(zip(anchors, offsets)):
        flat = flat + np.add(s, off) % n * n ** (d - 1 - a)
    return flat


def _torus_boxes(n, starts, sides):
    """Flat indices of an outer grid of boxes on the torus of n points per axis.

    Points are numbered in C order (axis 0 slowest). starts holds one 1-D
    integer array per axis; row r is the box whose lowest point is the r-th
    point of the starts' outer grid, in C order. Its columns are the box's
    points, sides per axis (an int or one per axis), in C order, taken mod n.
    """
    d = len(starts)
    offsets = _box_offsets(d, sides)
    anchors = [np.reshape(s, (1,) * a + (-1,) + (1,) * (d - a)) for a, s in enumerate(starts)]
    return _anchored_boxes(n, anchors, offsets).reshape(-1, offsets.shape[1])


def _sample_level(rng, level_decay, max_level):
    j = 1
    while j < max_level and rng.random() < level_decay:
        j += 1
    return j


# ---------------------------------------------------------------------------
# geometry analysis


def analyze_geometry(field: PotentialField) -> GeometryStats:
    """Maximal alpha-cubes, their overlap, and the valley decomposition.

    Maximal cubes are found by erosion at increasing side lengths, each side
    from the one below with whole-array shifts; a cube is maximal when no
    side+1 cube anchored within one cell step contains it.
    The overlap count is the maximum number of maximal cubes covering any
    single cell (1 in d=1 and for the periodic pattern). Valleys are exact
    boxes: factor runs for tensor-structured fields, alpha halves of the
    blocks for domino fields, plain alpha runs in d=1.
    """
    grid = field.grid
    alpha_mask = ~field.occupancy
    n = grid.inv_eps

    cubes = []
    if alpha_mask.any():
        axes = tuple(range(grid.d))
        corners = list(itertools.product((0, 1), repeat=grid.d))
        # anchored[s - 1] marks the min corners (torus wrap allowed) of alpha
        # s-cubes; an (s+1)-cube at c is the union of the s-cubes at c + {0,1}^d
        anchored = [alpha_mask]
        while len(anchored) < n and anchored[-1].any():
            prev = anchored[-1]
            anchored.append(
                np.logical_and.reduce([np.roll(prev, [-o for o in off], axes) for off in corners])
            )
        if not anchored[-1].any():
            anchored.pop()
        max_side = len(anchored)
        if max_side == n:
            cubes.append(((0,) * grid.d, n))
        else:
            bigger = np.zeros_like(alpha_mask)
            for s in range(max_side, 0, -1):
                # an s-cube at c lies in an (s+1)-cube anchored at c - {0,1}^d
                inside = np.logical_or.reduce([np.roll(bigger, off, axes) for off in corners])
                for c in np.argwhere(anchored[s - 1] & ~inside):
                    cubes.append((tuple(int(x) for x in c), s))
                bigger = anchored[s - 1]
        cubes.sort(key=lambda cs: (-cs[1], cs[0]))
        max_width = max(s for _, s in cubes)
        cover = np.zeros(grid.n_cells, dtype=np.int64)
        for s, group in itertools.groupby(cubes, key=lambda cs: cs[1]):
            at = np.array([anchor for anchor, _ in group]).T[:, :, None]
            boxes = _anchored_boxes(n, at, _box_offsets(grid.d, s))
            cover += np.bincount(boxes.ravel(), minlength=grid.n_cells)
        overlap = int(cover.max())
    else:
        max_width = 1
        overlap = 0

    valleys = _valley_decomposition(field)
    width_counts = None
    anisotropy = None
    if valleys is not None:
        width_counts = {}
        for v in valleys:
            width_counts[v.min_side] = width_counts.get(v.min_side, 0) + 1
        anisotropy = {}
        if valleys:
            for ell in range(1, max(v.min_side for v in valleys) + 1):
                wide = [v for v in valleys if v.min_side >= ell]
                anisotropy[ell] = max(v.max_side / v.min_side for v in wide)

    return GeometryStats(
        d=grid.d,
        maximal_cubes=cubes,
        max_width=max_width,
        cube_overlap=overlap,
        valleys=valleys,
        width_counts=width_counts,
        anisotropy=anisotropy,
    )


def _torus_runs(row):
    """Maximal circular runs of True in a 1D bool array as (start, length)."""
    n = len(row)
    if row.all():
        return [(0, n)]
    if not row.any():
        return []
    starts = np.flatnonzero(row & ~np.roll(row, 1))
    runs = []
    for s in starts:
        length = 1
        while row[(s + length) % n]:
            length += 1
        runs.append((int(s), length))
    return runs


def _valley_decomposition(field):
    grid = field.grid
    if field.kind == "domino" and field.blocks is not None:
        valleys = [Valley(*v) for v in _domino_valleys(grid, field.blocks)]
    elif field.factors is not None:
        axis_runs = [_torus_runs(np.asarray(f, bool)) for f in field.factors]
        valleys = [
            Valley(tuple(int(s) for s, _ in combo), tuple(int(w) for _, w in combo))
            for combo in itertools.product(*axis_runs)
        ]
    elif grid.d == 1:
        valleys = [Valley((int(s),), (int(w),)) for s, w in _torus_runs(~field.occupancy)]
    else:
        return None
    return sorted(valleys, key=lambda v: (-v.min_side, v.anchor))


# ---------------------------------------------------------------------------
# serialization


def save_field(field: PotentialField, path):
    """Write a field as JSON with the occupancy packed to hex.

    Occupancy bits are row-major (C order), most significant bit first
    within each byte (numpy packbits default), padded with zeros to a whole
    byte at the end. The bytes are json.dump(doc, indent=1, sort_keys=True)
    and a newline, but a domino field's block records come from one text
    template, as the indenting encoder runs in pure Python.
    """
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
        doc["blocks"] = []  # the records replace this empty list below
    text = json.dumps(doc, indent=1, sort_keys=True)
    if field.blocks:
        # one record, nested at depth 2 as json.dump(indent=1) writes it
        coords = ",\n".join(["    %d"] * field.grid.d)
        record = "  [\n   [\n%s\n   ],\n   %%d,\n   %%d,\n   %%s\n  ]" % coords
        values = []
        for anchor, level, axis, alpha_low in field.blocks:
            values += (*anchor, level, axis, "true" if alpha_low else "false")
        records = ",\n".join([record] * len(field.blocks)) % tuple(values)
        text = text.replace('"blocks": []', '"blocks": [\n%s\n ]' % records, 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_field(path) -> PotentialField:
    with open(path) as fh:
        doc = json.load(fh)
    grid = GridSpec(d=doc["d"], inv_eps=doc["inv_eps"], seed=doc["seed"])
    raw = np.frombuffer(bytes.fromhex(doc["occupancy_hex"]), dtype=np.uint8)
    bits = np.unpackbits(raw)[: grid.n_cells]
    occ = bits.astype(bool).reshape(grid.shape, order="C")
    factors = None
    if "factors" in doc:
        factors = [np.asarray(f, dtype=bool) for f in doc["factors"]]
    blocks = None
    if "blocks" in doc:
        blocks = [
            (tuple(anchor), int(level), int(axis), bool(alpha_low))
            for anchor, level, axis, alpha_low in doc["blocks"]
        ]
    return PotentialField(
        grid,
        occ,
        float(doc["alpha"]),
        float(doc["beta"]),
        kind=doc["kind"],
        factors=factors,
        blocks=blocks,
    )
