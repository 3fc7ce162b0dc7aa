"""Shared result containers and text rendering for experiments.

Every experiment returns an :class:`ExperimentResult` — a titled set of
rows — which renders as the same kind of table or series the paper
prints, plus a paper-vs-measured comparison where the paper reports a
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple


def average_rows_by_kind(
    rows: Sequence[Tuple[object, ...]], decimals: int
) -> Tuple[Tuple[object, ...], ...]:
    """``average-{kind}`` summary rows over per-workload *rows*.

    Rows are ``(workload, kind, value, value, ...)``; averages are
    computed from the (already rounded) row values in row order.
    """
    sums: Dict[str, list] = {}
    counts: Dict[str, int] = {}
    for row in rows:
        kind = row[1]
        values = row[2:]
        bucket = sums.get(kind)
        if bucket is None:
            sums[kind] = list(values)
            counts[kind] = 1
        else:
            for index, value in enumerate(values):
                bucket[index] += value
            counts[kind] += 1
    return tuple(
        (f"average-{kind}", kind)
        + tuple(round(total / counts[kind], decimals) for total in sums[kind])
        for kind in ("macro", "micro")
        if counts.get(kind)
    )


@dataclass(frozen=True)
class ExperimentResult:
    """One regenerated table or figure."""

    experiment_id: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    notes: Tuple[str, ...] = ()

    def column(self, name: str) -> Tuple[object, ...]:
        index = self.columns.index(name)
        return tuple(row[index] for row in self.rows)

    def row_dict(self, key: object) -> Dict[str, object]:
        """Row whose first column equals *key*, as a mapping."""
        for row in self.rows:
            if row[0] == key:
                return dict(zip(self.columns, row))
        raise KeyError(key)

    def format_table(self) -> str:
        """Render as a fixed-width text table."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        cells = [list(self.columns)] + [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        lines = [f"== {self.experiment_id}: {self.title}"]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(cells[0]))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


    def to_json_dict(self) -> Dict[str, object]:
        """JSON-ready payload (tuples become lists; see from_json_dict)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "ExperimentResult":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            columns=tuple(payload["columns"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            notes=tuple(payload.get("notes", ())),
        )

    def to_json(self) -> str:
        """Canonical JSON encoding — stable byte-for-byte for equal results,
        so cached and recomputed artifacts can be compared directly."""
        import json

        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        """Render as CSV (plot-ready; the figures are one chart away)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def write_csv(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_csv())

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table with notes."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        lines = [f"### {self.experiment_id} — {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "---|" * len(self.columns))
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n> {note}")
        return "\n".join(lines) + "\n"
