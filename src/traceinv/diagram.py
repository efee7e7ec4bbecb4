"""Deterministic SVG pictures of trace-monomial contraction networks.

Boxes are drawn 40px square in position order; inside each box one wire
level per subsystem row.  The wire of row i leaving box j connects to box
sigma_i(j): adjacent hops are straight lines, everything else is routed
through its own horizontal lane above the boxes (30px pitch).  Wires carry
``data-row`` / ``data-from`` / ``data-to`` attributes, so the topology can
be read back out of the markup, and the output bytes depend only on the
monomial.
"""

from __future__ import annotations

from .errors import MAX_BOXES, check_size

BOX = 40
GAP = 30
PITCH = 30
MARGIN = 20
STUB = 10

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x):
    return f"{x:g}"


def render_svg(mon, path=None) -> str:
    """Render the monomial's network as an SVG string (optionally saved)."""
    ell, n = mon.n_boxes, mon.n_rows
    check_size("rendering boxes", ell, MAX_BOXES)
    check_size("rendering rows", n, len(PALETTE))

    hops = [(i, j, mon.perms[i][j]) for i in range(n) for j in range(ell)]
    lanes = {}
    for i, j, k in hops:
        if k != j + 1:
            lanes[(i, j)] = len(lanes)

    band = PITCH * (len(lanes) + 1)
    width = 2 * MARGIN + ell * BOX + (ell - 1) * GAP
    height = band + BOX + MARGIN

    def box_x(j):
        return MARGIN + j * (BOX + GAP)

    def wire_y(i):
        return band + BOX * (i + 1) / (n + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, j, k in hops:
        color = PALETTE[i]
        x1 = box_x(j) + BOX
        x2 = box_x(k)
        y1 = _fmt(wire_y(i))
        attrs = (
            f'id="w{i}-{j}" data-row="{i}" data-from="{j}" data-to="{k}" '
            f'stroke="{color}" fill="none" stroke-width="1.5"'
        )
        if k == j + 1:
            parts.append(f'<path d="M {x1} {y1} H {x2}" {attrs}/>')
        else:
            ly = PITCH * (lanes[(i, j)] + 1) - PITCH // 2
            parts.append(
                f'<path d="M {x1} {y1} h {STUB} V {ly} H {x2 - STUB} V {y1} H {x2}" {attrs}/>'
            )
    for j, lab in enumerate(mon.labels):
        x = box_x(j)
        parts.append(
            f'<rect id="box{j}" data-label="{lab}" x="{x}" y="{band}" width="{BOX}" '
            f'height="{BOX}" fill="#f5f5f5" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x + BOX // 2}" y="{band + BOX // 2 + 4}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">M{lab + 1}</text>'
        )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg
