"""Self-contained SVG emission for the static report figures.

No external renderer: figures are built from a small set of shape
primitives with fixed-precision coordinates, so identical inputs produce
byte-identical files. Box summaries are plain quartiles: median line, IQR
box, whiskers at the most extreme points within 1.5x the IQR.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _f(x: float) -> str:
    return f"{x:.2f}"


class Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color="#333333", width=1.0):
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{color}" stroke-width="{_f(width)}"/>')

    def rect(self, x, y, w, h, fill="none", stroke="#333333"):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.00"/>')

    def polyline(self, points, color="#1f77b4", dash=None):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.50"{extra}/>')

    def text(self, x, y, s, size=11, anchor="middle", color="#222222", vertical=False):
        turn = f'transform="rotate(-90 {x:g} {_f(y)})" ' if vertical else ""
        self.parts.append(
            f'<text {turn}x="{_f(x)}" y="{_f(y)}" font-size="{size}" {_FONT} '
            f'text-anchor="{anchor}" fill="{color}">{s}</text>')

    def axes(self, left, top, right, bottom, y_ticks, y_of):
        """The y and x axis lines, then a tick mark and a one-decimal label per y tick."""
        self.line(left, top, left, bottom)
        self.line(left, bottom, right, bottom)
        for tick in y_ticks:
            self.line(left - 4, y_of(tick), left, y_of(tick))
            self.text(left - 8, y_of(tick) + 4, f"{tick:.1f}", anchor="end")

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n'
                f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
                f"{body}\n</svg>\n")


def five_number(values: np.ndarray) -> tuple[float, float, float, float, float]:
    """(lo whisker, q1, median, q3, hi whisker) with 1.5*IQR whisker clamping."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo = float(values[values >= q1 - 1.5 * iqr].min())
    hi = float(values[values <= q3 + 1.5 * iqr].max())
    return lo, float(q1), float(med), float(q3), hi


def _draw_box(canvas, cx, five, y_of, width, color):
    lo, q1, med, q3, hi = five
    half = width / 2
    canvas.line(cx, y_of(lo), cx, y_of(q1), color=color)
    canvas.line(cx, y_of(q3), cx, y_of(hi), color=color)
    canvas.line(cx - half * 0.6, y_of(lo), cx + half * 0.6, y_of(lo), color=color)
    canvas.line(cx - half * 0.6, y_of(hi), cx + half * 0.6, y_of(hi), color=color)
    canvas.rect(cx - half, y_of(q3), width, y_of(q1) - y_of(q3),
                fill=color + "33", stroke=color)
    canvas.line(cx - half, y_of(med), cx + half, y_of(med), color=color, width=2.0)


MODEL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def grid_box_figure(groups: dict, significance: dict | None = None,
                    ylabel: str = "time-dependent concordance") -> str:
    """Grouped box plot over sorted (t, dt) cells, one box per sorted model per cell.

    ``groups`` maps (model, cell_key) to a 1-D sample array (none: no box); ``significance``
    optionally maps cell_key to a star label drawn above the cell.
    """
    if not groups:
        raise ConfigError("nothing to plot: empty report")
    model_names = sorted({m for m, _ in groups})
    cell_keys = sorted({c for _, c in groups})
    margin_l, margin_r, margin_t, margin_b = 60, 20, 30, 70
    cell_w = 22 * len(model_names) + 18
    width = margin_l + margin_r + cell_w * len(cell_keys)
    height = 360
    plot_h = height - margin_t - margin_b
    canvas = Canvas(width, height)

    all_vals = np.concatenate([groups[k] for k in groups])
    y_min = min(0.45, float(all_vals.min()) - 0.02)
    y_max = min(1.02, float(all_vals.max()) + 0.04)

    def y_of(v):
        return margin_t + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    ticks = np.arange(np.ceil(y_min * 10) / 10 + 0.0, y_max + 1e-9, 0.1)   # no "-0.0"
    canvas.axes(margin_l, margin_t, width - margin_r, margin_t + plot_h, ticks, y_of)
    canvas.text(14, margin_t + plot_h / 2, ylabel, vertical=True)

    for ci, key in enumerate(cell_keys):
        x0 = margin_l + ci * cell_w + 9
        for mi, model in enumerate(model_names):
            samples = groups.get((model, key))
            if samples is None or len(samples) == 0:
                continue
            cx = x0 + 22 * mi + 11
            _draw_box(canvas, cx, five_number(np.asarray(samples)), y_of, 14,
                      MODEL_COLORS[mi % len(MODEL_COLORS)])
        label = f"t={key[0]:g},dt={key[1]:g}"
        canvas.text(x0 + 11 * len(model_names), margin_t + plot_h + 16, label, size=9)
        if significance and key in significance:
            canvas.text(x0 + 11 * len(model_names), margin_t - 6,
                        significance[key], size=10)
    for mi, model in enumerate(model_names):
        lx = margin_l + 10 + mi * 150
        color = MODEL_COLORS[mi % len(MODEL_COLORS)]
        canvas.rect(lx, height - 30, 12, 12, fill=color + "33", stroke=color)
        canvas.text(lx + 18, height - 20, model, anchor="start")
    return canvas.render()


def survival_curves_figure(curves: dict, step_years: float) -> str:
    """Step-style survival polylines keyed by (model, eye) labels."""
    if not curves:
        raise ConfigError("nothing to plot: no curves")
    margin_l, margin_r, margin_t, margin_b = 60, 20, 20, 60
    width, height = 560, 360
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    canvas = Canvas(width, height)
    j_max = max(len(s) for s in curves.values())
    x_max = j_max * step_years

    def x_of(t):
        return margin_l + plot_w * t / x_max

    def y_of(v):
        return margin_t + plot_h * (1.0 - v)

    canvas.axes(margin_l, margin_t, margin_l + plot_w, margin_t + plot_h,
                np.arange(0.0, 1.01, 0.2), y_of)
    for tick in range(0, int(x_max) + 1, 2):
        canvas.line(x_of(tick), margin_t + plot_h, x_of(tick), margin_t + plot_h + 4)
        canvas.text(x_of(tick), margin_t + plot_h + 16, str(tick))
    canvas.text(margin_l + plot_w / 2, height - 28, "years since enrollment")
    canvas.text(14, margin_t + plot_h / 2, "survival probability", vertical=True)

    for i, (label, s) in enumerate(curves.items()):
        color = MODEL_COLORS[i % len(MODEL_COLORS)]
        dash = "6,4" if (i // len(MODEL_COLORS)) % 2 else None
        # step curve: horizontal run to each step, then the drop
        pts = [(x_of(0.0), y_of(1.0))]
        prev = 1.0
        for j, v in enumerate(s, start=1):
            t = j * step_years
            pts.append((x_of(t), y_of(prev)))
            pts.append((x_of(t), y_of(float(v))))
            prev = float(v)
        canvas.polyline(pts, color=color, dash=dash)
        canvas.text(margin_l + 10, margin_t + 14 + 14 * i, label, anchor="start",
                    color=color)
    return canvas.render()
