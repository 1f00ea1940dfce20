"""Deterministic SVG and ASCII renderers for drawings."""

from __future__ import annotations

from .drawing import RectDrawing, joints_of, order_labels

_JOINT_MARK = {"td": "v", "tu": "^", "tr": ">", "tl": "<"}

_CELL_W, _CELL_H = 6, 2

# Most characters an ASCII canvas may hold, about 7.5 bytes each: `rectlab
# render` peaks at 42 MB of RSS on a 4,000-rect strip of height 1, at 56 MB
# at height 40 and at 62 MB at height 52 (1.9 and 2.5 million characters).
ASCII_CAP = 2_500_000


def render_ascii(d: RectDrawing, labels=None, joints=False) -> str:
    """Character-grid picture; one unit is 6 columns by 2 rows."""
    cols, rows = d.width * _CELL_W + 1, d.height * _CELL_H + 1
    if cols * rows > ASCII_CAP:
        raise ValueError(f"an ASCII canvas of {cols * rows} characters "
                         f"exceeds the cap of {ASCII_CAP}; use --format svg")
    grid = [[" "] * cols for _ in range(rows)]

    def put(x, y, ch):
        grid[(d.height - y) * _CELL_H][x * _CELL_W] = ch

    def hline(x0, x1, y):
        r = (d.height - y) * _CELL_H
        for c in range(x0 * _CELL_W, x1 * _CELL_W + 1):
            grid[r][c] = "-"

    def vline(x, y0, y1):
        c = x * _CELL_W
        for r in range((d.height - y1) * _CELL_H, (d.height - y0) * _CELL_H + 1):
            grid[r][c] = "|"

    for (x0, y0, x1, y1) in d.rects:
        hline(x0, x1, y0)
        hline(x0, x1, y1)
        vline(x0, y0, y1)
        vline(x1, y0, y1)
    for (x0, y0, x1, y1) in d.rects:
        for (x, y) in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
            put(x, y, "+")
    if joints:
        for (x, y), kind in joints_of(d):
            put(x, y, _JOINT_MARK[kind])
    if labels == "nwse":
        for pos, r in enumerate(order_labels(d, "nw-se"), 1):
            x0, y0, x1, y1 = d.rects[r]
            row = (d.height - y1) * _CELL_H + 1
            col = x0 * _CELL_W + 2
            for i, ch in enumerate(str(pos)):
                grid[row][col + i] = ch
    return "\n".join("".join(row).rstrip() for row in grid)


def render_svg(d: RectDrawing, labels=None, joints=False,
               diagonal=False, scale=40) -> str:
    w, h = d.width * scale, d.height * scale
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 2}" '
           f'height="{h + 2}" viewBox="-1 -1 {w + 2} {h + 2}">']
    nwse = order_labels(d, "nw-se")
    for pos, r in enumerate(nwse, 1):
        x0, y0, x1, y1 = d.rects[r]
        out.append(
            f'<rect x="{x0 * scale}" y="{(d.height - y1) * scale}" '
            f'width="{(x1 - x0) * scale}" height="{(y1 - y0) * scale}" '
            'fill="white" stroke="black" stroke-width="2"/>')
    if diagonal:
        out.append(f'<line x1="0" y1="0" x2="{w}" y2="{h}" '
                   'stroke="gray" stroke-dasharray="6,4"/>')
    if labels == "nwse":
        for pos, r in enumerate(nwse, 1):
            x0, y0, x1, y1 = d.rects[r]
            cx = (x0 + x1) / 2 * scale
            cy = (d.height - (y0 + y1) / 2) * scale
            out.append(f'<text x="{cx:g}" y="{cy:g}" font-size="{scale // 2}" '
                       'text-anchor="middle" dominant-baseline="middle">'
                       f'{pos}</text>')
    if joints:
        for (x, y), kind in joints_of(d):
            cx, cy = x * scale, (d.height - y) * scale
            out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="red"/>')
            out.append(f'<text x="{cx + 6}" y="{cy - 6}" font-size="12" '
                       f'fill="red">{kind}</text>')
    out.append("</svg>")
    return "\n".join(out)
