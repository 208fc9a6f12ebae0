"""Plain-text table rendering for experiment output.

The experiment modules return structured rows; these helpers turn them
into the fixed-width tables printed by the CLI and quoted in
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render rows as a fixed-width text table with a title line."""
    columns = [
        [str(header)] + [_format_cell(row[index]) for row in rows]
        for index, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(
                _format_cell(value).rjust(width) if _is_numeric(value) else
                _format_cell(value).ljust(width)
                for value, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def percent(value: float, digits: int = 2) -> str:
    """Format a 0-1 fraction the way the paper prints it (``5.13%``)."""
    return f"{100 * value:.{digits}f}%"


def ascii_scatter(
    points: Sequence[tuple[float, float, str]],
    width: int = 72,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """A coarse ASCII scatter plot: (x, y, marker-character) points."""
    if not points:
        return "(no data)"
    xs = [point[0] for point in points]
    ys = [point[1] for point in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, marker in points:
        column = int((x - x_low) / x_span * (width - 1))
        row = height - 1 - int((y - y_low) / y_span * (height - 1))
        grid[row][column] = marker[0]
    lines = [f"{y_label}  [{y_low:.3f} .. {y_high:.3f}]"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}  [{x_low:.4f} .. {x_high:.4f}]")
    return "\n".join(lines)
