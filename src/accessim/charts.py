"""Small self-contained SVG line charts for sweep reports.

The charts are presentational: no external plotting dependency, and the
output is a pure function of the input data, so re-running with the same
seed reproduces the files byte for byte.
"""

from __future__ import annotations

from .model import _FrozenRecord

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 55

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


class Series(_FrozenRecord):
    """One labelled polyline: points are (x, y) pairs in data space."""

    label: str
    points: tuple[tuple[float, float], ...]
    dashed: bool = False


def _span(values) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _text(label: str) -> str:
    """A label as SVG character data: ``&``, ``<`` and ``>`` escaped."""
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(title: str, x_label: str, y_label: str, series: list[Series]) -> str:
    """Render labelled series as an SVG document string."""
    drawn = [s for s in series if s.points]
    if not drawn:
        raise ValueError("nothing to draw: every series is empty")

    x_lo, x_hi = _span([x for s in drawn for x, _ in s.points])
    y_lo, y_hi = _span([y for s in drawn for _, y in s.points])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">'
        f'{_text(title)}</text>',
    ]

    ticks = 5
    for i in range(ticks):
        frac = i / (ticks - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        px = sx(x_val)
        py = sy(y_val)
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_TOP}" x2="{px:.1f}" '
                   f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd"/>')
        out.append(f'<line x1="{MARGIN_LEFT}" y1="{py:.1f}" x2="{MARGIN_LEFT + plot_w}" '
                   f'y2="{py:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.1f}" y="{MARGIN_TOP + plot_h + 18}" '
                   f'text-anchor="middle">{x_val:.4g}</text>')
        out.append(f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.1f}" '
                   f'text-anchor="end">{y_val:.4g}</text>')

    out.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333"/>')
    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
               f'text-anchor="middle">{_text(x_label)}</text>')
    out.append(f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">'
               f'{_text(y_label)}</text>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(s.points))
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="2"{dash}/>')
            for x, y in s.points:
                out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = MARGIN_TOP + 10 + 18 * i
        lx = MARGIN_LEFT + plot_w + 12
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}">{_text(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
