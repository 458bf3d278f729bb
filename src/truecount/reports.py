"""Tabular report rendering: aligned text, RFC-4180-style CSV, and JSON.

Every JSON report, a :class:`ReportTable`'s and a simulation report's, is
written by ``_json_text`` in one direct pass.  ``json.dumps`` takes
CPython's C encoder only when ``indent`` is None, so with the ``indent=2``
of a report it runs the pure-Python generator encoder, about twice as slow
on the laws that ``truecount exact`` prints.  ``_json_text`` gives exactly
the text of ``json.dumps(value, sort_keys=True, indent=2)`` for the values
a report holds: dicts with ``str`` keys, lists and tuples, ``str``, ``int``,
``float`` (NaN and the infinities too), ``bool`` and None.  Anything else
raises ``TypeError``, a non-``str`` key too, which ``json.dumps`` would
turn into a string.  A hypothesis test in ``tests/test_reports.py`` holds
the writer to ``json.dumps`` byte for byte, and the report digests in
``tests/test_sim.py`` pin the reports it writes.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape

FORMATS = ("table", "csv", "json")

_INF = float("inf")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, for a report's values."""
    out: list[str] = []
    _write(value, out, "\n")
    return "".join(out)


def _write(value, out: list[str], newline: str) -> None:
    """Append the JSON text of ``value``, whose closing bracket starts ``newline``."""
    if isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == _INF:
            out.append("Infinity")
        elif value == -_INF:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class ReportTable:
    """A titled grid of numeric (or string) cells with optional footnotes."""

    title: str
    row_labels: list[str]
    col_labels: list[str]
    cells: list[list[object]]
    precision: int = 3
    notes: list[str] = field(default_factory=list)
    cell_markers: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        for row in self.cells:
            if len(row) != len(self.col_labels):
                raise ValueError(
                    f"row has {len(row)} cells, expected {len(self.col_labels)}"
                )
        if len(self.cells) != len(self.row_labels):
            raise ValueError(
                f"{len(self.cells)} rows but {len(self.row_labels)} row labels"
            )

    def _display(self, r: int, c: int) -> str:
        value = self.cells[r][c]
        if isinstance(value, float):
            text = f"{value:.{self.precision}f}"
        else:
            text = str(value)
        return text + self.cell_markers.get((r, c), "")

    def to_text(self) -> str:
        header = [""] + list(self.col_labels)
        body = [
            [self.row_labels[r]] + [self._display(r, c) for c in range(len(self.col_labels))]
            for r in range(len(self.row_labels))
        ]
        widths = [
            max(len(row[i]) for row in [header] + body) for i in range(len(header))
        ]
        lines = [self.title] if self.title else []
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        for note in self.notes:
            lines.append(note)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow([self.title] + [""] * len(self.col_labels))
        writer.writerow([""] + list(self.col_labels))
        for r, label in enumerate(self.row_labels):
            writer.writerow(
                [label] + [self._display(r, c) for c in range(len(self.col_labels))]
            )
        for note in self.notes:
            writer.writerow([note])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "columns": list(self.col_labels),
            "rows": [
                {
                    "label": self.row_labels[r],
                    "cells": list(self.cells[r]),
                    "markers": {
                        str(c): m for (rr, c), m in self.cell_markers.items() if rr == r
                    },
                }
                for r in range(len(self.row_labels))
            ],
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    def render(self, fmt: str = "table") -> str:
        if fmt == "table":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json() + "\n"
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
