"""Deterministic CSV, JSON, and SVG writers.

Numbers are written as %.16e (17 significant digits), so re-running a
command with the same configuration and seed reproduces every output
byte for byte.  Each file embeds the config hash and seed in a header
comment (or JSON fields); nothing time-dependent is written.
"""

import json
import math
import os

import numpy as np


def fmt(x):
    # %e writes a nan of either sign as "nan"
    return "%.16e" % float(x)


def _header(meta):
    return "# fracbif %s config_hash=%s seed=%d\n" % (
        meta["version"], meta["config_hash"], meta["seed"])


def _write_columns(path, meta, names, columns):
    """CSV of float columns of one length under the header line names,
    every row formatted by one string, each value as fmt writes it."""
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(_header(meta))
        fh.write(",".join(names) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def write_solution_csv(path, mesh, s, u, v, meta):
    """Columns x, u, v, u/d^s, v/d^s (v columns nan when v is None)."""
    d = mesh.dist ** s
    vv = v if v is not None else np.full(mesh.n, np.nan)
    _write_columns(path, meta, ["x", "u", "v", "u_over_ds", "v_over_ds"],
                   [mesh.nodes, u, vv, u / d, vv / d])


def write_eigen_csv(path, mesh, phi, meta):
    _write_columns(path, meta, ["x", "phi"], [mesh.nodes, phi])


BRANCH_COLUMNS = ["lambda", "sup_u", "sup_v", "energy_u", "energy_v",
                  "hopf_u", "hopf_v", "margin", "iterations_u",
                  "iterations_v", "converged"]


def write_branch_csv(path, diagram, meta):
    with open(path, "w") as fh:
        fh.write(_header(meta))
        fh.write(",".join(BRANCH_COLUMNS) + "\n")
        for bp in diagram.points:
            d = bp.diagnostics
            row = [fmt(bp.lam), fmt(d["sup_u"]), fmt(d["sup_v"]),
                   fmt(d["energy_u"]), fmt(d["energy_v"]), fmt(d["hopf_u"]),
                   fmt(d["hopf_v"]), fmt(d["margin"]),
                   str(d["iterations_u"]), str(d["iterations_v"]),
                   str(int(bool(d["converged"])))]
            fh.write(",".join(row) + "\n")


def write_kernel_csv(outdir, kern, meta):
    kpath = os.path.join(outdir, "kernel.csv")
    with open(kpath, "w") as fh:
        fh.write(_header(meta))
        for row in kern.K:
            fh.write(",".join(fmt(x) for x in row) + "\n")
    tpath = os.path.join(outdir, "kernel_tails.csv")
    with open(tpath, "w") as fh:
        fh.write(_header(meta))
        fh.write("\n".join(fmt(x) for x in kern.T) + "\n")
    return kpath, tpath


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if (math.isnan(x) or math.isinf(x)) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_run_record(path, record):
    with open(path, "w") as fh:
        json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ticks(lo, hi, count=5):
    return [float(t) for t in np.linspace(lo, hi, count)]


def write_diagram_svg(path, diagram, meta):
    """Hand-built SVG of sup-norms against lambda, both branches, with
    the lambda* bracket marked; every branch point gets a circle."""
    W, H = 640, 420
    ml, mr, mt, mb = 70, 20, 30, 50
    pts = diagram.points
    lams = [bp.lam for bp in pts]
    sups_u = [bp.diagnostics["sup_u"] for bp in pts]
    sups_v = [bp.diagnostics["sup_v"] for bp in pts]
    ys = [y for y in sups_u + sups_v if not math.isnan(y)]
    x_lo, x_hi = (min(lams), max(lams)) if lams else (0.0, 1.0)
    y_lo, y_hi = 0.0, (max(ys) if ys else 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_hi += pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (W - ml - mr)

    def sy(y):
        return H - mb - (y - y_lo) / (y_hi - y_lo) * (H - mt - mb)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (W, H)]
    out.append("<!-- fracbif %s config_hash=%s seed=%d -->"
               % (meta["version"], meta["config_hash"], meta["seed"]))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (W, H))
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
               % (ml, H - mb, W - mr, H - mb))
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
               % (ml, mt, ml, H - mb))
    for t in _ticks(x_lo, x_hi):
        out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                   % (sx(t), H - mb, sx(t), H - mb + 5))
        out.append('<text x="%g" y="%g" font-size="11" text-anchor="middle">%.3g</text>'
                   % (sx(t), H - mb + 18, t))
    for t in _ticks(y_lo, y_hi):
        out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
                   % (ml - 5, sy(t), ml, sy(t)))
        out.append('<text x="%g" y="%g" font-size="11" text-anchor="end">%.3g</text>'
                   % (ml - 8, sy(t) + 4, t))
    out.append('<text x="%g" y="%g" font-size="12" text-anchor="middle">lambda</text>'
               % ((ml + W - mr) / 2.0, H - 12))
    out.append('<text x="16" y="%g" font-size="12" transform="rotate(-90 16 %g)" '
               'text-anchor="middle">sup norm</text>' % ((mt + H - mb) / 2.0,
                                                         (mt + H - mb) / 2.0))
    if diagram.lambda_star_estimate is not None and diagram.bracket_width is not None:
        for edge in (diagram.lambda_star_estimate - 0.5 * diagram.bracket_width,
                     diagram.lambda_star_estimate + 0.5 * diagram.bracket_width):
            if x_lo <= edge <= x_hi:
                out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                           'stroke="gray" stroke-dasharray="2,3"/>'
                           % (sx(edge), mt, sx(edge), H - mb))
    for sups, color, dash, cls in ((sups_u, "steelblue", "", "branch-u"),
                                   (sups_v, "firebrick", ' stroke-dasharray="5,3"', "branch-v")):
        coords = [(sx(l), sy(y)) for l, y in zip(lams, sups) if not math.isnan(y)]
        if len(coords) > 1:
            path_pts = " ".join("%g,%g" % c for c in coords)
            out.append('<polyline points="%s" fill="none" stroke="%s"%s/>'
                       % (path_pts, color, dash))
        for (cx, cy) in coords:
            out.append('<circle class="%s" cx="%g" cy="%g" r="3" fill="%s"/>'
                       % (cls, cx, cy, color))
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
