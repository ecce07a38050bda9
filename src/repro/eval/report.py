"""Plain-text rendering of reproduced figures."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_figure(result: FigureResult) -> str:
    """Render one reproduced figure as an x-by-series table."""
    names = sorted(result.series)
    xs: list[float] = []
    for name in names:
        for x, _ in result.series[name]:
            if x not in xs:
                xs.append(x)
    xs.sort()
    lookup = {
        name: {x: y for x, y in result.series[name]} for name in names
    }
    rows = []
    for x in xs:
        row: list[object] = [_fmt(x)]
        for name in names:
            y = lookup[name].get(x)
            row.append("-" if y is None else _fmt(y))
        rows.append(row)
    header = [result.x_label] + names
    body = format_table(header, rows)
    title = f"{result.figure}: {result.title}  [y = {result.y_label}]"
    parts = [title, body]
    if result.notes:
        parts.append(f"note: {result.notes}")
    return "\n".join(parts)


def network_stats(network) -> dict[str, object]:
    """Traffic and wire-encoder counters for one ``Network``."""
    stats: dict[str, object] = {
        "packets_delivered": network.packets_delivered,
        "packets_dropped": network.packets_dropped,
        "bytes_carried": network.bytes_carried,
        "encode_hits": network.encode_hits,
        "encode_misses": network.encode_misses,
        "encode_hit_ratio": network.encoder.hit_ratio,
        "decode_errors": network.decode_errors,
        # per-plane split: where the encoded bytes actually go
        "control_frames": network.encoder.compact_frames,
        "data_frames": network.encoder.data_frames,
        "control_bytes": network.encoder.control_bytes,
        "data_bytes": network.encoder.data_bytes,
    }
    for reason in sorted(network.drops_by_reason):
        stats[f"drops_{reason.replace('-', '_')}"] = network.drops_by_reason[reason]
    return stats


def format_network_stats(network) -> str:
    """Render one network's traffic/encoder counters as a text table."""
    stats = network_stats(network)
    rows = [[key, value] for key, value in stats.items()]
    return format_table(["counter", "value"], rows)


def degradation_stats(nodes) -> dict[str, object]:
    """Aggregate graceful-degradation counters across ``nodes``.

    Sums each node's suspect peers, degraded queries, per-cause drop
    counters, request timeouts, and retries — the dashboard for "the
    network is hurting but still answering".
    """
    stats: dict[str, object] = {
        "suspect_peers": 0,
        "queries_degraded": 0,
        "request_timeouts": 0,
        "request_retries": 0,
        "liglo_retries": 0,
    }
    causes: dict[str, int] = {}
    for node in nodes:
        stats["suspect_peers"] += len(node.peers.suspect_bpids())
        stats["request_retries"] += node.request_retries
        stats["liglo_retries"] += node.liglo.retries
        stats["request_timeouts"] += sum(node.request_timeouts.values())
        for handle in node._queries.values():
            if handle.degraded:
                stats["queries_degraded"] += 1
            for cause, count in handle.drop_causes.items():
                causes[cause] = causes.get(cause, 0) + count
    for cause in sorted(causes):
        stats[f"cause_{cause.replace('-', '_')}"] = causes[cause]
    return stats


def format_degradation_stats(nodes) -> str:
    """Render aggregate degradation counters as a text table."""
    stats = degradation_stats(nodes)
    rows = [[key, value] for key, value in stats.items()]
    return format_table(["counter", "value"], rows)


def replication_stats(nodes) -> dict[str, object]:
    """Aggregate replication/cache counters across ``nodes``.

    Sums each node's :meth:`~repro.replication.ReplicationManager.statistics`
    — replicas held and pushed, replica answers served for dead owners,
    cache hits/misses, invalidations, and lazy read-repairs.
    """
    stats: dict[str, object] = {}
    for node in nodes:
        for key, value in node.replication.statistics().items():
            stats[key] = stats.get(key, 0) + value
    return stats


def format_replication_stats(nodes) -> str:
    """Render aggregate replication counters as a text table."""
    stats = replication_stats(nodes)
    rows = [[key, value] for key, value in stats.items()]
    return format_table(["counter", "value"], rows)


def format_counts(counts: dict) -> str:
    """``{"a": 1, "b": 2}`` as ``a=1 b=2`` (``-`` when empty)."""
    return " ".join(f"{key}={count}" for key, count in sorted(counts.items())) or "-"


def format_trials(trials: Sequence[dict], columns: Sequence[tuple]) -> str:
    """Render trial dicts (one row per sweep point) as a text table.

    ``columns`` is the table a figure declares next to its trial
    function: ``(header, key)`` prints ``trial[key]``, ``(header,
    callable)`` prints ``callable(trial)``.
    """
    rows = []
    for trial in trials:
        row = []
        for header, cell in columns:
            if callable(cell):
                row.append(cell(trial))
            elif cell in trial:
                row.append(trial[cell])
            else:
                raise ExperimentError(
                    f"column {header!r} reads trial key {cell!r}; "
                    f"the trial has {sorted(trial)}"
                )
        rows.append(row)
    return format_table([header for header, _cell in columns], rows)
