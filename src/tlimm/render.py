"""
Plain-text and SVG pictures of matchings and skew shapes.

Matchings are drawn as two labelled columns with arcs; same-side pairs bow
out into their column's margin, through strands cross the middle.  Skew
shapes are shaded grids. The SVG output is minimal static markup.
"""

from __future__ import annotations

from .immanant import SkewShape
from .tl import NonCrossingMatching, vertex_of_position


def _arc_depths(pairs: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Margin distance per same-side arc: an arc bows out one step further
    than the deepest arc nested inside it."""
    depths: dict[tuple[int, int], int] = {}
    for a, b in sorted(pairs, key=lambda arc: arc[1] - arc[0]):
        inner = [d for (c, e), d in depths.items() if a <= c and e <= b]
        depths[(a, b)] = 1 + max(inner, default=0)
    return depths


def matching_ascii(m: NonCrossingMatching) -> str:
    """Rows are the labels 1..n; same-side arcs hug their column, through
    strands jog once in the middle, each in its own column."""
    n = m.n
    left_pairs, right_pairs, through = [], [], []
    for p, q in m.pairs():
        (i, ip), (j, jp) = vertex_of_position(n, p), vertex_of_position(n, q)
        if not ip and not jp:
            left_pairs.append(tuple(sorted((i, j))))
        elif ip and jp:
            right_pairs.append(tuple(sorted((i, j))))
        else:
            through.append((j, i) if ip else (i, j))
    # Rising strands (j < i) take the leftmost bends by increasing i, and
    # falling ones the rest by decreasing i, so that no two bends cross.
    through.sort(key=lambda ij: (ij[0] < ij[1], ij[0] if ij[1] < ij[0] else -ij[0]))

    left_depth = _arc_depths(left_pairs)
    right_depth = _arc_depths(right_pairs)
    lw = max([1, *(d for d in left_depth.values())])
    rw = max([1, *(d for d in right_depth.values())])
    bends = sum(1 for i, j in through if i != j)
    mid = max(5, 2 * bends + 3)
    label_w = len(str(n)) + 1
    lcol, rcol = label_w + lw, label_w + lw + mid - 1

    grid = [[" "] * (rcol + 1 + rw + label_w) for _ in range(n)]
    for row in range(n):
        for k, ch in enumerate(str(row + 1).rjust(label_w - 1)):
            grid[row][k] = ch
        for k, ch in enumerate((str(row + 1) + "'").ljust(label_w)):
            grid[row][rcol + 1 + rw + k] = ch

    horizontals: list[tuple[int, int, int]] = []
    verticals: list[tuple[int, int, int]] = []
    corners: list[tuple[int, int, str]] = []

    for i, j in left_pairs:
        col = lcol - left_depth[(i, j)]
        verticals.append((col, i, j))
        horizontals.append((i - 1, col + 1, lcol - 1))
        horizontals.append((j - 1, col + 1, lcol - 1))
        corners += [(i - 1, col, "."), (j - 1, col, "'")]
    for i, j in right_pairs:
        col = rcol + right_depth[(i, j)]
        verticals.append((col, i, j))
        horizontals.append((i - 1, rcol + 1, col - 1))
        horizontals.append((j - 1, rcol + 1, col - 1))
        corners += [(i - 1, col, "."), (j - 1, col, "'")]
    bend = 0
    for i, j in through:
        if i == j:
            horizontals.append((i - 1, lcol, rcol))
            continue
        col = lcol + 1 + 2 * bend
        bend += 1
        horizontals.append((i - 1, lcol, col))
        horizontals.append((j - 1, col, rcol))
        verticals.append((col, min(i, j), max(i, j)))
        corners += [
            (min(i, j) - 1, col, "."),
            (max(i, j) - 1, col, "'"),
        ]

    for row, c0, c1 in horizontals:
        for col in range(c0, c1 + 1):
            grid[row][col] = "-"
    for col, i, j in verticals:
        for row in range(i, j - 1):
            grid[row][col] = "|"
    for row, col, ch in corners:
        grid[row][col] = ch
    return "\n".join("".join(row).rstrip() for row in grid)


def matching_svg(m: NonCrossingMatching) -> str:
    n = m.n
    step, margin, width = 28, 24, 220
    height = 2 * margin + (n - 1) * step
    y = lambda label: margin + (label - 1) * step
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    xl, xr = 40, width - 40
    for label in range(1, n + 1):
        parts.append(
            f'<text x="{xl - 22}" y="{y(label) + 4}" font-size="12">{label}</text>'
        )
        parts.append(
            f'<text x="{xr + 8}" y="{y(label) + 4}" font-size="12">{label}&#8242;</text>'
        )
        parts.append(f'<circle cx="{xl}" cy="{y(label)}" r="2.5"/>')
        parts.append(f'<circle cx="{xr}" cy="{y(label)}" r="2.5"/>')
    for p, q in m.pairs():
        (i, ip), (j, jp) = vertex_of_position(n, p), vertex_of_position(n, q)
        if ip == jp:
            x = xr if ip else xl
            bow = (xr - 40) if ip else (xl + 40)
            parts.append(
                f'<path d="M {x} {y(i)} C {bow} {y(i)}, {bow} {y(j)}, '
                f'{x} {y(j)}" fill="none" stroke="black"/>'
            )
        else:
            yi, yj = (y(j), y(i)) if ip else (y(i), y(j))
            parts.append(
                f'<line x1="{xl}" y1="{yi}" x2="{xr}" y2="{yj}" stroke="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def shape_ascii(shape: SkewShape) -> str:
    """Shaded grid: '#' for cells of the shape, '.' outside.

    >>> print(shape_ascii(SkewShape(2, (2, 1), (1, 0))))
    . #
    # .
    """
    return "\n".join(
        " ".join(
            "#" if shape.contains_cell(i, j) else "."
            for j in range(1, shape.n + 1)
        )
        for i in range(1, shape.n + 1)
    )


def shape_svg(shape: SkewShape) -> str:
    n, cell = shape.n, 22
    size = n * cell + 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            fill = "#b0b0b0" if shape.contains_cell(i, j) else "none"
            parts.append(
                f'<rect x="{1 + (j - 1) * cell}" y="{1 + (i - 1) * cell}" '
                f'width="{cell}" height="{cell}" fill="{fill}" '
                'stroke="black" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
