"""Report output: CSV rows, JSON summaries, single-series SVG line charts,
and the small regression helper used by the sweep experiments."""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["linear_fit", "write_rows_csv", "write_summary_json",
           "write_svg_line"]


def linear_fit(x, y):
    """Least-squares line y = slope*x + intercept; returns
    (slope, intercept, r_squared).  r_squared is 1.0 for a perfect fit and
    0.0 when y is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired points")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all identical")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def write_rows_csv(path, columns, rows):
    """Write rows (sequences aligned with `columns`) to CSV with repr-exact
    floats, so reruns of a deterministic experiment are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    return repr(float(v)) if isinstance(v, float) else v


def write_summary_json(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def write_svg_line(path, xs, ys, title="", xlabel="", ylabel=""):
    """Minimal single-series SVG polyline chart."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and nonempty")
    W, H, pad = 640, 400, 50
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return pad + (W - 2 * pad) * (x - x0) / (x1 - x0)

    def py(y):
        return H - pad - (H - 2 * pad) * (y - y0) / (y1 - y0)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" '
        f'stroke="black"/>',
        f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{H/2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {H/2:.0f})">{ylabel}</text>',
        f'<text x="{pad}" y="{H-pad+16}" font-family="sans-serif" '
        f'font-size="10">{x0:.4g}</text>',
        f'<text x="{W-pad}" y="{H-pad+16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad-4}" y="{H-pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
