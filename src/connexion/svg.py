"""Deterministic SVG rendering of phase portraits.

All coordinates are emitted with exactly six decimals so identical scenes
produce byte-identical files.  The point at infinity is shown in an inset
panel drawn in the w = 1/z coordinate instead of distorting the projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connection import FuchsianConnection

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")


def _f(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


@dataclass
class RenderWindow:
    center: complex = 0j
    half_width: float = 3.0
    size: int = 640

    def to_px(self, z: complex):
        s = self.size / (2.0 * self.half_width)
        x = (z.real - self.center.real) * s + self.size / 2.0
        y = self.size / 2.0 - (z.imag - self.center.imag) * s
        return x, y

    def visible(self, z: complex) -> bool:
        # 1.2 half-widths, so that drawn lines run past the window's edge
        return (abs(z.real - self.center.real) < 1.2 * self.half_width
                and abs(z.imag - self.center.imag) < 1.2 * self.half_width)


@dataclass
class SvgBuilder:
    window: RenderWindow
    elements: list = field(default_factory=list)

    def polyline(self, points, color: str, width: float = 1.2):
        """Emit a trajectory as visible polyline runs."""
        to_px = self.window.to_px
        run = []
        for z in points:
            if self.window.visible(z):
                run.append(z)
            else:
                self._flush(run, color, width, to_px)
                run = []
        self._flush(run, color, width, to_px)

    def _flush(self, run, color, width, to_px):
        if len(run) < 2:
            return
        coords = " ".join("{},{}".format(_f(x), _f(y))
                          for x, y in (to_px(z) for z in run))
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"/>')

    def circle(self, z: complex, r_px: float, color: str, fill: str = "none"):
        x, y = self.window.to_px(z)
        self.elements.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r_px)}" '
            f'stroke="{color}" fill="{fill}"/>')

    def text(self, z: complex, s: str, color: str = "#333333", dy: float = -8.0):
        x, y = self.window.to_px(z)
        self.elements.append(
            f'<text x="{_f(x)}" y="{_f(y + dy)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{s}</text>')

    def raw(self, s: str):
        self.elements.append(s)

    def document(self) -> str:
        n = self.window.size
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{n}" '
                f'height="{n}" viewBox="0 0 {n} {n}">')
        bg = f'<rect width="{n}" height="{n}" fill="#ffffff"/>'
        return "\n".join([head, bg, *self.elements, "</svg>"]) + "\n"


def render_scene(conn: FuchsianConnection, trajectories,
                 window: RenderWindow | None = None) -> str:
    """Phase portrait: pole markers with residue labels, trajectory curves,
    and an inset w-chart panel for the neighborhood of infinity."""
    window = window or RenderWindow()
    svg = SvgBuilder(window)

    for i, traj in enumerate(trajectories):
        color = PALETTE[i % len(PALETTE)]
        svg.polyline(traj.support_std(), color)
        z0 = traj.support_std()[0]
        if window.visible(z0):
            svg.circle(z0, 2.0, color, fill=color)

    for pos, res in conn.chart_poles("standard"):
        if window.visible(pos):
            svg.circle(pos, 3.5, "#000000")
            svg.text(pos, f"ρ={res:g}")

    _infinity_inset(svg, conn, trajectories)
    return svg.document()


def _infinity_inset(svg: SvgBuilder, conn, trajectories):
    """Top-right panel showing |w| < 0.5 of the w = 1/z chart."""
    n = svg.window.size
    side = n // 4
    x0, y0 = n - side - 8, 8
    svg.raw(f'<rect x="{x0}" y="{y0}" width="{side}" height="{side}" '
            f'fill="#f5f5f5" stroke="#999999"/>')
    svg.raw(f'<text x="{x0 + 4}" y="{y0 + 12}" font-size="10" '
            f'font-family="monospace" fill="#333333">w = 1/z</text>')
    wmax = 0.5
    sc = side / (2.0 * wmax)

    def to_px(w):
        return x0 + side / 2.0 + w.real * sc, y0 + side / 2.0 - w.imag * sc

    for i, traj in enumerate(trajectories):
        color = PALETTE[i % len(PALETTE)]
        run = []
        for z in traj.support_std():
            w = 1.0 / z if z != 0 else None
            if w is not None and abs(w) < wmax:
                run.append(w)
            else:
                svg._flush(run, color, 1.0, to_px)
                run = []
        svg._flush(run, color, 1.0, to_px)
    # the pole at infinity sits at w = 0
    cx_, cy_ = to_px(0j)
    rho = conn.infinity_residue
    svg.raw(f'<circle cx="{_f(cx_)}" cy="{_f(cy_)}" r="3.000000" '
            f'stroke="#000000" fill="none"/>')
    svg.raw(f'<text x="{_f(cx_ + 5)}" y="{_f(cy_ - 5)}" font-size="10" '
            f'font-family="monospace" fill="#333333">ρ={rho:g}</text>')

