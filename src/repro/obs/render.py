"""The one human-readable table renderer for metrics snapshots.

Both :meth:`~repro.obs.registry.MetricsRegistry.render_table` and
:class:`~repro.obs.sinks.TableSink` delegate here, so the ``--profile``
output and a rendered snapshot file are always formatted identically.
The input is the JSON-serializable dict produced by
:meth:`~repro.obs.registry.MetricsRegistry.snapshot`.

:func:`render_live` is the second renderer in this module: the refreshing
dashboard ``repro top`` draws from a ``/healthz`` document plus parsed
``/metrics`` samples (see :mod:`repro.obs.live`).

Column alignment is *display-width* aware: East Asian wide characters
occupy two terminal cells, so padding by ``len()`` alone would shear any
table containing them (labels, dataset names, sensitive values leaking
into metric labels).  :func:`display_width` does the right thing.
"""

from __future__ import annotations

import unicodedata
from typing import Mapping

#: Health states ordered by severity; used for dashboard annotation.
_HEALTH_BADGES = {"healthy": "ok", "degraded": "DEGRADED", "stalled": "STALLED"}


def display_width(text: str) -> int:
    """The number of terminal cells ``text`` occupies.

    East Asian Wide and Fullwidth characters count as two cells;
    zero-width combining marks count as zero.  Good enough for aligning
    tables without a terminfo dependency.
    """
    width = 0
    for character in text:
        if unicodedata.combining(character):
            continue
        width += 2 if unicodedata.east_asian_width(character) in ("W", "F") else 1
    return width


def _pad(text: str, width: int) -> str:
    """Left-justify ``text`` to ``width`` terminal cells."""
    return text + " " * max(0, width - display_width(text))


def _section(lines: list[str], title: str, rows: Mapping[str, str]) -> None:
    if not rows:
        return
    lines.append(f"== {title} ==")
    width = max(display_width(name) for name in rows)
    for name, value in rows.items():
        lines.append(f"  {_pad(name, width)}  {value}")


def _histogram_row(h: Mapping[str, object]) -> str:
    row = (
        f"count={h['count']} mean={h['mean']:.4g} "
        f"min={h['min']:g} max={h['max']:g}"
    )
    # Older snapshots (pre-quantile-sketch) lack percentile keys; render
    # them without rather than crash on a stored trail.
    if "p50" in h:
        row += f" p50={h['p50']:.4g} p90={h['p90']:.4g} p99={h['p99']:.4g}"
    return row


def render_snapshot(snapshot: Mapping[str, object]) -> str:
    """Render a metrics snapshot as aligned multi-section text."""
    lines: list[str] = []
    label = snapshot.get("label")
    if label:
        lines.append(f"-- metrics: {label} --")
    counters = snapshot.get("counters") or {}
    _section(
        lines, "counters", {name: str(value) for name, value in counters.items()}  # type: ignore[union-attr]
    )
    gauges = snapshot.get("gauges") or {}
    _section(
        lines, "gauges", {name: f"{value:g}" for name, value in gauges.items()}  # type: ignore[union-attr]
    )
    histograms = snapshot.get("histograms") or {}
    _section(
        lines,
        "histograms",
        {name: _histogram_row(h) for name, h in histograms.items()},  # type: ignore[union-attr]
    )
    trace = snapshot.get("trace") or {}
    _section(
        lines,
        "trace",
        {name: str(value) for name, value in trace.items()},  # type: ignore[union-attr]
    )
    if not lines or (len(lines) == 1 and label):
        return "(no metrics collected)"
    environment = snapshot.get("environment") or {}
    _section(
        lines,
        "environment",
        {name: str(value) for name, value in environment.items()},  # type: ignore[union-attr]
    )
    return "\n".join(lines)


def _format_sample(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_live(
    health: Mapping[str, object],
    samples: Mapping[tuple[str, tuple[tuple[str, str], ...]], float]
    | None = None,
) -> str:
    """Render one ``repro top`` frame from live telemetry.

    ``health`` is the ``/healthz`` JSON document; ``samples`` the parsed
    ``/metrics`` exposition (see
    :func:`repro.obs.live.parse_prometheus_text`).  Quantile samples are
    folded into one latency row per metric; everything else renders as a
    counter/gauge row.
    """
    lines: list[str] = []
    status = str(health.get("status", "unknown"))
    badge = _HEALTH_BADGES.get(status, status)
    lines.append(f"== service health: {status} [{badge}] ==")
    health_rows = {
        name: _format_sample(value) if isinstance(value, (int, float)) else str(value)
        for name, value in health.items()
        if name != "status" and not isinstance(value, (dict, list))
    }
    cache = health.get("cache")
    if isinstance(cache, Mapping):
        for name, value in cache.items():
            health_rows[f"cache.{name}"] = (
                _format_sample(value) if isinstance(value, (int, float)) else str(value)
            )
    width = max((display_width(name) for name in health_rows), default=0)
    for name, value in health_rows.items():
        lines.append(f"  {_pad(name, width)}  {value}")
    if not samples:
        return "\n".join(lines)
    quantiles: dict[str, dict[str, float]] = {}
    plain: dict[str, float] = {}
    for (name, labels), value in samples.items():
        label_map = dict(labels)
        if "quantile" in label_map:
            quantiles.setdefault(name, {})[label_map["quantile"]] = value
        elif not labels:
            plain[name] = value
    if quantiles:
        lines.append("== latency quantiles ==")
        width = max(display_width(name) for name in quantiles)
        for name in sorted(quantiles):
            cells = "  ".join(
                f"p{float(q) * 100:g}={quantiles[name][q]:.6g}"
                for q in sorted(quantiles[name], key=float)
            )
            lines.append(f"  {_pad(name, width)}  {cells}")
    if plain:
        lines.append("== metrics ==")
        width = max(display_width(name) for name in plain)
        for name in sorted(plain):
            lines.append(f"  {_pad(name, width)}  {_format_sample(plain[name])}")
    return "\n".join(lines)
