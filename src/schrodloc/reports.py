"""Deterministic artifact emission: CSV tables, JSON records, SVG figures.

Reruns of a pipeline must produce byte-identical files, so nothing here may
depend on wall time, process ids, dictionary iteration of unordered input,
or a plotting library that stamps metadata into its output. The SVG
emitters are therefore written out by hand; they cover the three shapes the
experiments need (greyscale cell heatmap, scatter, line plot) and nothing
else.

Every artifact carries the config hash of the run that produced it, either
as a leading comment (CSV, SVG) or as a field (JSON). The two exceptions
are data files meant to be loaded back: the field of `potential.save_field`
(`field.json`) and the matrices and sidecar of `fem.dump_system` (`A.txt`,
`K.txt`, `M.txt`, `MV.txt`, `system.json`). Floats are written with repr,
the shortest round-trip form, so values survive a read-back exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = [
    "config_hash",
    "canonical_json",
    "jsonable",
    "write_json",
    "write_csv",
    "svg_heatmap",
    "svg_scatter",
    "svg_line",
]


def jsonable(obj):
    """Recursively convert numpy containers/scalars to plain Python; a float
    infinity, numpy's included, becomes the string "inf" or "-inf", never
    the encoder's non-standard Infinity token."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Sorted-key, compact JSON; the hashing and serialization form."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """12-hex content hash of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, columns, rows, units: str, cfg_hash: str):
    """Comma-separated table with config-hash and units header comments."""
    lines = ["# config_hash: %s" % cfg_hash, "# units: %s" % units, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG


def _esc(s):
    return str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_open(width, height, title, cfg_hash):
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        "<!-- config_hash: %s -->" % cfg_hash,
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<text x="%d" y="18" font-family="monospace" font-size="13">%s</text>'
        % (12, _esc(title)),
        '<text x="%d" y="%d" font-family="monospace" font-size="9" fill="#888">'
        "cfg %s</text>" % (12, height - 6, cfg_hash),
    ]


def svg_heatmap(path, values, title: str, cfg_hash: str):
    """Greyscale cell heatmap of a 1D or 2D array (white = 0, black = max).

    1D input is drawn as a single row. Values are normalized by the array
    maximum; an all-zero array renders all white, and so does a negative
    value (shades are clipped to [0, 255]). Values must be finite.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("heatmap needs a 1D or 2D array, got ndim=%d" % arr.ndim)
    if not np.isfinite(arr).all():
        raise ValueError("heatmap values are not finite")
    rows, cols = arr.shape
    cell_px = max(2, min(24, 640 // max(rows, cols)))
    pad, top = 12, 28
    width = cols * cell_px + 2 * pad
    height = rows * cell_px + top + pad + 14
    top_val = float(arr.max())
    scale = 1.0 / top_val if top_val > 0 else 0.0
    # np.rint rounds half to even, as round does
    shades = np.clip(np.rint(255 * (1.0 - arr * scale)), 0, 255).astype(np.int64)
    fills = {v: '" fill="rgb(%d,%d,%d)"/>' % (v, v, v) for v in set(shades.ravel().tolist())}
    xs = ['<rect x="%d" y="' % (pad + j * cell_px) for j in range(cols)]
    size = '" width="%d" height="%d' % (cell_px, cell_px)
    out = _svg_open(width, height, title, cfg_hash)
    for i, row in enumerate(shades.tolist()):
        y = "%d%s" % (top + i * cell_px, size)
        out.extend([x + y + fills[v] for x, v in zip(xs, row)])
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _axis_transform(vals, lo_px, hi_px, log):
    v = np.asarray(vals, dtype=float)
    if log:
        v = np.log10(np.maximum(v, 1e-300))
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def to_px(x):
        x = math.log10(max(float(x), 1e-300)) if log else float(x)
        return lo_px + (x - lo) / span * (hi_px - lo_px)

    return to_px, lo, hi


def _fmt_tick(x, log):
    if log:
        return "1e%g" % round(x, 2)
    return "%.4g" % x


def _frame(out, x0, x1, y0, y1, xlo, xhi, ylo, yhi, log_y):
    out.append(
        '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" '
        'stroke="#444" stroke-width="1"/>' % (x0, y1, x1 - x0, y0 - y1)
    )
    out.append(
        '<text x="%.2f" y="%.2f" font-family="monospace" font-size="10">%s</text>'
        % (x0, y0 + 12, _esc(_fmt_tick(xlo, False)))
    )
    out.append(
        '<text x="%.2f" y="%.2f" font-family="monospace" font-size="10" '
        'text-anchor="end">%s</text>' % (x1, y0 + 12, _esc(_fmt_tick(xhi, False)))
    )
    out.append(
        '<text x="%.2f" y="%.2f" font-family="monospace" font-size="10">%s</text>'
        % (6, y0, _esc(_fmt_tick(ylo, log_y)))
    )
    out.append(
        '<text x="%.2f" y="%.2f" font-family="monospace" font-size="10">%s</text>'
        % (6, y1 + 8, _esc(_fmt_tick(yhi, log_y)))
    )


_PALETTE = ["#222222", "#aa3333", "#3355aa", "#338844", "#886699", "#996611"]


def _marker(out, x, y, kind, color):
    if kind == "circle":
        out.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="none" stroke="%s"/>' % (x, y, color)
        )
    elif kind == "cross":
        out.append(
            '<path d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" stroke="%s"/>'
            % (x - 3, y - 3, x + 3, y + 3, x - 3, y + 3, x + 3, y - 3, color)
        )
    else:
        out.append('<rect x="%.2f" y="%.2f" width="5" height="5" fill="%s"/>' % (x - 2.5, y - 2.5, color))


def _plot(path, series, title, cfg_hash, log_y, draw_lines):
    """Shared scatter/line machinery. series: list of (label, xs, ys, marker)."""
    width, height = 560, 380
    x0, x1 = 58, width - 16
    y0, y1 = height - 34, 40
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if log_y:
        pos = all_y[all_y > 0]
        all_y = pos if len(pos) else np.array([1.0])
    tx, xlo, xhi = _axis_transform(all_x, x0, x1, False)
    ty, ylo, yhi = _axis_transform(all_y, y0, y1, log_y)
    out = _svg_open(width, height, title, cfg_hash)
    _frame(out, x0, x1, y0, y1, xlo, xhi, ylo, yhi, log_y)
    for si, (label, xs, ys, marker) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        pts = [
            (tx(x), ty(y))
            for x, y in zip(xs, ys)
            if (not log_y) or float(y) > 0
        ]
        if draw_lines and len(pts) > 1:
            d = "M " + " L ".join("%.2f %.2f" % p for p in pts)
            out.append('<path d="%s" fill="none" stroke="%s" stroke-width="1.2"/>' % (d, color))
        for px, py in pts:
            _marker(out, px, py, marker, color)
        out.append(
            '<text x="%d" y="%d" font-family="monospace" font-size="11" fill="%s">%s</text>'
            % (x0 + 8, y1 + 14 + 13 * si, color, _esc(label))
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def svg_scatter(path, series, title: str, cfg_hash: str, log_y: bool = False):
    """Scatter plot; series is a list of (label, xs, ys, marker) with marker
    one of circle, cross, square."""
    _plot(path, series, title, cfg_hash, log_y, draw_lines=False)


def svg_line(path, series, title: str, cfg_hash: str, log_y: bool = False):
    """Line plot with markers; same series shape as svg_scatter."""
    _plot(path, series, title, cfg_hash, log_y, draw_lines=True)
