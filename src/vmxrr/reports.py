"""Render traces, replay results, and campaign summaries for humans.

Every renderer takes plain data (the same shapes the CLI stores as JSON) and
returns a string, so the same code serves file output, stdout, and tests.
Formats: aligned text tables, CSV, and for the fitting curve a small
self-contained SVG line chart.
"""

from __future__ import annotations

from .recorder import Trace
from .replayer import speedup
from .vmx import ExitReason, reason_name

HIST_BAR_WIDTH = 40
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 240, 42


def _reason_code(name: str) -> int:
    try:
        return ExitReason[name].value
    except KeyError:
        return 0xFFFF


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(headers)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exit reason histogram
# ---------------------------------------------------------------------------

def reason_histogram(trace: Trace) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for frame in trace.frames:
        name = reason_name(frame.reason)
        counts[name] = counts.get(name, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def render_histogram(counts: list[tuple[str, int]], fmt: str = "text") -> str:
    if fmt == "csv":
        return _csv(["reason", "count"], [[name, str(n)] for name, n in counts])
    total = sum(n for _, n in counts) or 1
    peak = max((n for _, n in counts), default=1)
    rows = []
    for name, n in counts:
        bar = "#" * max(1, round(HIST_BAR_WIDTH * n / peak))
        rows.append([name, str(n), f"{100.0 * n / total:5.1f}%", bar])
    return _table(["reason", "count", "share", ""], rows)


# ---------------------------------------------------------------------------
# CR0 mode timeline
# ---------------------------------------------------------------------------

def render_trajectory(
    timeline: list[tuple[int, str]], total_frames: int, fmt: str = "text"
) -> str:
    if fmt == "csv":
        return _csv(
            ["from_exit", "mode"],
            [[str(i), name] for i, name in timeline],
        )
    rows = []
    for pos, (start, name) in enumerate(timeline):
        end = timeline[pos + 1][0] - 1 if pos + 1 < len(timeline) else total_frames - 1
        span = "before start" if start < 0 else f"exit {start}"
        if end > max(start, 0):
            span += f" .. {end}"
        rows.append([name, span])
    return _table(["mode", "exits"], rows)


# ---------------------------------------------------------------------------
# Fitting curve
# ---------------------------------------------------------------------------

def render_fitting(curve: list[float], fmt: str = "csv") -> str:
    if fmt == "svg":
        points = [(float(i), v) for i, v in enumerate(curve)]
        return svg_line_chart(points, title="cumulative block fitting", y_unit="%")
    if fmt == "text":
        # One row per change is enough; the curve is monotone within a run.
        rows = []
        last = None
        for i, v in enumerate(curve):
            val = f"{v:.2f}"
            if val != last:
                rows.append([str(i), val])
                last = val
        return _table(["exit", "fitting_pct"], rows)
    return _csv(
        ["exit", "fitting_pct"],
        [[str(i), f"{v:.4f}"] for i, v in enumerate(curve)],
    )


def svg_line_chart(points: list[tuple[float, float]], title: str, y_unit: str) -> str:
    """A single polyline with axes on a 0-100 y scale; no external references,
    renders anywhere."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    if not points:
        points = [(0.0, 0.0)]
    xs = [p[0] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 100.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def px(x: float) -> float:
        return margin + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return height - margin - plot_h * (y - y_lo) / (y_hi - y_lo)

    path = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{path}"/>',
        f'<text x="{margin}" y="{margin - 12}" font-size="12">{title}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="10" '
        f'text-anchor="end">{y_hi:g}{y_unit}</text>',
        f'<text x="{margin - 6}" y="{height - margin + 4}" font-size="10" '
        f'text-anchor="end">{y_lo:g}{y_unit}</text>',
        f'<text x="{width - margin}" y="{height - margin + 14}" font-size="10" '
        f'text-anchor="end">{x_hi:g}</text>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replay diffs
# ---------------------------------------------------------------------------

def render_diffs(diffs_by_reason: dict[str, int], fmt: str = "text") -> str:
    items = sorted(
        diffs_by_reason.items(), key=lambda kv: (_reason_code(kv[0]), kv[0])
    )
    rows = [[name, str(n)] for name, n in items]
    rows.append(["total", str(sum(diffs_by_reason.values()))])
    if fmt == "csv":
        return _csv(["reason", "diff_blocks"], rows)
    return _table(["reason", "diff_blocks"], rows)


# ---------------------------------------------------------------------------
# Campaign delta table
# ---------------------------------------------------------------------------

def render_deltas(campaigns: list[dict], fmt: str = "text") -> str:
    """Coverage-delta matrix: one row per exit reason, one column per
    (profile, area) pairing; skipped or unexercised cells show a dash."""
    columns: list[str] = []
    cells: dict[tuple[str, str], str] = {}
    reasons: list[str] = []
    for c in campaigns:
        col = f"{c['profile']}/{c['area']}"
        if col not in columns:
            columns.append(col)
        reason = c["reason"]
        if reason not in reasons:
            reasons.append(reason)
        if c.get("skipped"):
            continue
        key = (reason, col)
        if key not in cells:
            cells[key] = f"+{c['coverage_delta_pct']:.1f}%"
    reasons.sort(key=lambda name: (_reason_code(name), name))
    rows = [
        [reason] + [cells.get((reason, col), "-") for col in columns]
        for reason in reasons
    ]
    if fmt == "csv":
        return _csv(["reason"] + columns, rows)
    return _table(["reason"] + columns, rows)


# ---------------------------------------------------------------------------
# Speedup table
# ---------------------------------------------------------------------------

def render_speedups(entries: list[dict], fmt: str = "text") -> str:
    """Entries need profile, completed, record_cycles, and replay_cycles
    keys; the replay summary JSON has all four. The cycles cover only the
    completed exits, so that is the exits column."""
    rows = []
    for e in sorted(entries, key=lambda e: e["profile"]):
        rec = e["record_cycles"]
        rep = e["replay_cycles"]
        ratio = f"{speedup(rec, rep):.2f}x"
        rows.append([e["profile"], str(e["completed"]), str(rec), str(rep), ratio])
    headers = ["profile", "exits", "record_cycles", "replay_cycles", "speedup"]
    if fmt == "csv":
        return _csv(headers, rows)
    return _table(headers, rows)
