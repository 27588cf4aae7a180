"""Deterministic CSV/JSON data files with provenance headers.

Output files start with comment lines carrying the package version, a hash
of the generating configuration and any run metadata (seed, noise level),
so re-running with identical inputs yields byte-identical files.  A CSV
table is written column by column: an integer column as integers, every
other column as the repr (shortest round-trip) of each value's float,
with '.' decimal separator and '\n' line endings, independent of locale.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from ._version import __version__


def canonical_json(tree) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def config_hash(tree: dict) -> str:
    """Short stable hash of a configuration tree."""
    return hashlib.sha256(canonical_json(tree).encode()).hexdigest()[:12]


def meta_lines(meta: dict) -> list[str]:
    parts = [f"# rydcav {__version__}"]
    parts += [f"# {key}={meta[key]}" for key in sorted(meta)]
    return parts


def _emit(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _column_text(column):
    """The values of one column as text: an integer column's as integers,
    any other column's (bools included) as the repr of their floats."""
    col = np.asarray(column)
    if col.dtype.kind in "iu":
        return map(str, col.tolist())
    return map(repr, col.astype(float, copy=False).tolist())


def table_names(header: str, columns) -> list[str]:
    """The names of ``header``, once the sequence ``columns`` holds one
    column per name, all of one length; else ValueError giving the name
    count and the column lengths."""
    names = header.split(",")
    lengths = [len(col) for col in columns]
    if len(lengths) != len(names) or len(set(lengths)) > 1:
        raise ValueError(f"a table under {len(names)} names needs one column per "
                         f"name, all of one length; got columns of lengths {lengths}")
    return names


def write_csv(path, header: str, columns, meta: dict | None = None) -> None:
    """Write ``columns`` as the rows of a table under ``header``
    (:func:`table_names` checks its shape first)."""
    table_names(header, columns)
    lines = meta_lines(meta or {})
    lines.append(header)
    lines.extend(map(",".join, zip(*map(_column_text, columns))))
    _emit(path, "\n".join(lines) + "\n")


def write_json(path, payload: dict, meta: dict | None = None) -> None:
    doc = dict(payload)
    doc["_meta"] = {"version": __version__, **(meta or {})}
    _emit(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_xy_csv(path):
    """Read data columns x, y and optional weights from a CSV file.

    Comment lines (#) are skipped, and so is the first other line when it
    is not numeric and its first field does not begin like a number (the
    header); any other non-numeric row, or a numeric row without a y
    column, is an error naming its line.
    A third column is interpreted as per-point weights only when rows have
    exactly three columns (wider files carry diagnostics, not weights).
    """
    xs, ys, ws = [], [], []
    first = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            header_allowed, first = first, False
            try:
                vals = [float(p) for p in line.split(",")]
            except ValueError:
                if header_allowed and not re.match(r"[+-]?\.?\d", line):
                    continue
                raise ValueError(f"{path}:{lineno}: non-numeric data row "
                                 f"{line!r}") from None
            if len(vals) < 2:
                raise ValueError(f"{path}:{lineno}: need x and y columns, got one")
            xs.append(vals[0])
            ys.append(vals[1])
            if len(vals) == 3:
                ws.append(vals[2])
    if not xs:
        raise ValueError(f"no data rows found in {path}")
    if ws and len(ws) != len(xs):
        raise ValueError(f"inconsistent weight column in {path}")
    return (np.array(xs), np.array(ys), np.array(ws) if ws else None)
