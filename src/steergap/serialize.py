"""Deterministic JSON and CSV emission.

Floats are printed with 17 significant digits so every double round-trips
bit-exactly; documents built from the same inputs serialize to identical
bytes.  Run metadata that legitimately varies (timestamps) is confined to a
separate "meta" block so consumers can compare the rest byte-for-byte.
"""

from __future__ import annotations

import csv
import io
import sys


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return f"{x:.17g}"


def json_dumps(obj, *, indent: int = 2) -> str:
    # Imported here so that a CSV-only run loads neither module.
    import json
    import numbers

    def encode(obj, level: int) -> str:
        pad = " " * (indent * level)
        inner = " " * (indent * (level + 1))
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, numbers.Integral):
            return str(int(obj))
        if isinstance(obj, numbers.Real):
            return format_float(float(obj))
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = [
                f"{inner}{json.dumps(str(k))}: {encode(v, level + 1)}"
                for k, v in obj.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            items = [f"{inner}{encode(v, level + 1)}" for v in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    return encode(obj, 0) + "\n"


def run_meta(version: str) -> dict:
    from datetime import datetime, timezone

    return {
        "artifact": "steergap",
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_text(text: str, path: str | None) -> None:
    """Write to a file, or to stdout when path is "-" or None."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()
