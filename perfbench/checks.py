"""Output checks run after every subcommand invocation of a pass.

Each invocation must exit 0 and leave every artifact its manifest lists;
the artifacts must be byte-identical to the first pass of the run (the
package's rerun contract, same seed and config); and the numbers must have
properties that hold whatever the seed and whatever later fixes do to
theta, k_inner or the errors.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def _json(outdir, name):
    with open(Path(outdir) / name) as fh:
        return json.load(fh)


def _csv_rows(outdir, name):
    with open(Path(outdir) / name) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _column(outdir, name, column):
    header, rows = _csv_rows(outdir, name)
    j = header.index(column)
    return [float(r[j]) for r in rows]


def _check_block(outdir, manifest):
    rec = _json(outdir, "block.json")
    if not rec["final_error"] < rec["err0"]:
        return "block: final_error %r not below err0 %r" % (rec["final_error"], rec["err0"])
    return None


def _check_pinvit(outdir, manifest):
    errs = _column(outdir, "pinvit.csv", "energy_error")
    if len(errs) != manifest["config"]["iteration"]["steps"]:
        return "pinvit: %d rows for %d steps" % (len(errs), manifest["config"]["iteration"]["steps"])
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return "pinvit: energy error not decreasing: %r" % (errs,)
    if _json(outdir, "pinvit.json")["final_error"] != errs[-1]:
        return "pinvit: final_error differs from the last csv row"
    return None


def _check_green(outdir, manifest):
    gamma = _json(outdir, "green.json")["gamma_est"]
    if not (gamma is not None and gamma < 1.0):
        return "green-decay: gamma_est %r is not below 1" % (gamma,)
    return None


def _check_fig1(outdir, manifest):
    rec = _json(outdir, "decay.json")
    if not (isinstance(rec["rate"], float) and math.isfinite(rec["rate"]) and rec["rate"] > 0):
        return "fig1: decay rate %r is not a positive number" % (rec["rate"],)
    return None


def _check_fig2(outdir, manifest):
    n_ev = manifest["config"]["analysis"]["n_ev"]
    _, rows = _csv_rows(outdir, "spectra.csv")
    if len(rows) != n_ev:
        return "fig2: spectra.csv has %d rows, n_ev is %d" % (len(rows), n_ev)
    return None


def _check_gen(outdir, manifest):
    from schrodloc.potential import load_field

    fcfg = manifest["config"]["field"]
    field = load_field(Path(outdir) / "field.json")
    if field.kind != fcfg["kind"] or field.grid.shape != (fcfg["inv_eps"],) * fcfg["d"]:
        return "gen: field.json holds a %s field of shape %r" % (field.kind, field.grid.shape)
    if field.n_alpha == 0 or field.n_beta == 0:
        return "gen: field has %d alpha and %d beta cells" % (field.n_alpha, field.n_beta)
    return None


PROPERTY_CHECKS = {
    "block": _check_block,
    "pinvit": _check_pinvit,
    "green-decay": _check_green,
    "fig1": _check_fig1,
    "fig2": _check_fig2,
    "gen": _check_gen,
}


def artifact_digests(outdir):
    """sha256 of every artifact the manifest lists, plus the manifest itself.

    Raises FileNotFoundError for a listed artifact that is missing.
    """
    manifest = _json(outdir, "manifest.json")
    names = list(manifest["artifacts"]) + ["manifest.json"]
    out = {}
    for name in names:
        with open(Path(outdir) / name, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return manifest, out


def artifact_sizes(outdir, names):
    return sum((Path(outdir) / n).stat().st_size for n in names), len(names)


def check_invocation(subcommand, rc, outdir, reference):
    """Problems with one invocation, as strings (empty when it passed).

    reference maps subcommand -> digests of the first pass; the first pass
    of a subcommand fills it.
    """
    if rc != 0:
        return ["%s: exit code %d" % (subcommand, rc)]
    try:
        manifest, digests = artifact_digests(outdir)
    except (OSError, ValueError, KeyError) as exc:
        return ["%s: manifest or artifact unreadable: %s" % (subcommand, exc)]
    problems = []
    first = reference.setdefault(subcommand, digests)
    if digests != first:
        changed = sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))
        problems.append("%s: artifacts differ from the first pass: %s" % (subcommand, changed))
    try:
        msg = PROPERTY_CHECKS[subcommand](outdir, manifest)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        msg = "%s: property check could not read its artifact: %s" % (subcommand, exc)
    if msg:
        problems.append(msg)
    return problems
