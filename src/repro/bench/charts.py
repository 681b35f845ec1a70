"""ASCII line charts for benchmark series.

The paper's figures are log-scale line plots; this module renders the
harness's series the same way, directly in the terminal, so their
shapes can be compared with the paper's plots without a plotting stack
(matplotlib and a display are not assumed).

>>> print(ascii_chart(
...     {"A": [(1, 10.0), (2, 100.0)], "B": [(1, 5.0), (2, 7.0)]},
...     title="demo", width=30, height=8, logy=True,
... ))  # doctest: +SKIP
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

Series = Dict[str, List[Tuple[float, float]]]

#: Plot glyph per series, cycled.
_MARKS = "*o+x#@%&"


def ascii_chart(
    series: Series,
    *,
    title: str = "",
    width: int = 60,
    height: int = 16,
    logy: bool = True,
) -> str:
    """Render one chart; x positions are scaled linearly, y optionally log.

    ``series`` maps a label to ``(x, y)`` points.  Non-positive values
    are clamped to the smallest positive value when ``logy`` is set.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"

    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    positive = [y for y in ys if y > 0]
    floor = min(positive) if positive else 1.0

    def transform(y: float) -> float:
        if not logy:
            return y
        return math.log10(max(y, floor))

    y_lo = min(transform(y) for y in ys)
    y_hi = max(transform(y) for y in ys)
    x_lo, x_hi = min(xs), max(xs)
    y_span = (y_hi - y_lo) or 1.0
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, pts) in enumerate(sorted(series.items())):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in pts:
            col = round((x - x_lo) / x_span * (width - 1))
            row = round((transform(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = mark

    top_label = _format_value(10 ** y_hi if logy else y_hi)
    bottom_label = _format_value(10 ** y_lo if logy else y_lo)
    gutter = max(len(top_label), len(bottom_label)) + 1

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(gutter)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    lines.append(
        " " * gutter
        + f" {_format_value(x_lo)}".ljust(width // 2)
        + f"{_format_value(x_hi)}".rjust(width // 2)
    )
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {label}"
        for i, label in enumerate(sorted(series))
    )
    lines.append(" " * gutter + " " + legend)
    return "\n".join(lines)


def chart_query_times(results, title: str = "query time") -> str:
    """Chart panel (b) of a figure from :class:`RunResult` rows."""
    from repro.bench.runner import METHODS

    series: Series = {}
    for result in results:
        for method in METHODS:
            value = result.query_seconds.get(method)
            if value is None or value != value:  # missing or NaN
                continue
            series.setdefault(method, []).append(
                (float(result.spec.x), value)
            )
    return ascii_chart(series, title=f"{title} (s, log scale)")


def _format_value(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.01:
        return f"{value:.1e}"
    if magnitude >= 10:
        return f"{value:.0f}"
    return f"{value:.2g}"
