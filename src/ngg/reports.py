"""Deterministic JSON/CSV writers.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical files and other languages can reparse the exact values.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = ["format_float", "json_dumps", "write_json", "write_csv", "csv_beside",
           "check_output_path"]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"non-finite value {x!r} in report")
    return format(x, ".17g")


def _encode(obj, out: list[str]):
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _encode(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in report")


def json_dumps(obj) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def write_json(path, obj):
    Path(path).write_text(json_dumps(obj) + "\n", encoding="utf-8")


def csv_beside(json_path) -> Path:
    """Path of the CSV table written beside the JSON report at ``json_path``:
    the same path with the suffix ``.csv``.  A report path that already ends
    in ``.csv`` is refused, since the table would overwrite the report."""
    path = Path(json_path)
    if path.suffix == ".csv":
        raise DomainError(
            f"report path {str(json_path)!r} ends in .csv, the suffix of the CSV table "
            "written beside it; give the JSON report another suffix"
        )
    return path.with_suffix(".csv")


def check_output_path(path) -> None:
    """Refuse an output ``path`` that names a directory or whose directory is
    missing, so that a run fails before its work and not at the write."""
    p = Path(path)
    if p.is_dir():
        raise DomainError(f"{str(path)!r} is a directory")
    if not p.parent.is_dir():
        raise DomainError(f"the directory of {str(path)!r} is missing")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    """Write the table to ``path``, or to stdout when ``path`` is None; every
    cell is rendered before anything is written."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
