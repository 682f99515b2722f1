"""The text format and the archive the commands write, and their loaders.

* Table: one header line, one line per row with floats in ``repr`` form
  (rereading reproduces them bit for bit), then a ``key = value`` footer
  block; LF line endings on every platform.  The CSVs are tables with
  rows; ``plan.txt`` is one with no rows (``weight.plan_report``).
* Archive: a ``.npz`` of little-endian float64 arrays plus a ``meta``
  member holding a JSON document.

The loaders raise ValidationError on any input they cannot read; only a
failure to read the file itself escapes as OSError.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

from .errors import ValidationError

__all__ = [
    "write_table_csv",
    "load_table_csv",
    "save_archive",
    "load_archive",
]

def _text(value) -> str:
    """A cell or footer value as written: a float in ``repr`` form, anything else by ``str``."""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _parse(text: str, kind: type, what: str):
    """``text`` as a float, int, bool or str, raising ValidationError that names ``what``."""
    try:
        return {"True": True, "False": False}[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        expected = {float: "a number", int: "an integer", bool: "True or False"}[kind]
        raise ValidationError(f"{what} is not {expected}: {text!r}") from None


def write_table_csv(stream: IO[str], header: str, rows, footer: Mapping[str, object]) -> None:
    """Write a table: the header, rows of repr floats and a ``key = value`` footer, LF endings.

    Footer values are written as cells are.  An empty footer key, a key
    holding ``=``, a key or value holding ``,`` or a line break, or one with
    whitespace at either end, would not read back as that entry, so it
    raises ValidationError before anything is written.
    """
    footer = {key: _text(value) for key, value in footer.items()}
    for key, value in footer.items():
        stripped = key == key.strip() and value == value.strip()
        if not (key and stripped) or "=" in key or any(c in key + value for c in ",\n\r"):
            raise ValidationError(f"footer entry {key!r}: {value!r} would not read back")
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(map(_text, row)) + "\n")
    for key, value in footer.items():
        stream.write(f"{key} = {value}\n")


def load_table_csv(
    stream: IO[str], expected_header: str, types: Mapping[str, type] | None = None
) -> tuple[list[tuple], dict]:
    """Parse a table back into float rows plus the footer mapping, keys and values stripped.

    Each key of ``types`` must be in the footer, its value parsed as that
    type (float, int, bool or str); other values stay strings.  A footer
    line without a key or with a repeated one, a row after the footer, a
    missing typed key and a typed value that does not parse raise
    ValidationError.
    """
    try:
        lines = stream.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"table is not UTF-8 text: {exc}") from exc
    header = lines[0].strip()
    if header != expected_header:
        raise ValidationError(f"unexpected table header {header!r}")
    ncols = len(expected_header.split(","))
    rows: list[tuple] = []
    footer: dict = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if "=" in line and "," not in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValidationError(f"footer line {line!r} has no key")
            if key in footer:
                raise ValidationError(f"footer line {line!r} repeats the key {key!r}")
            footer[key] = value
            continue
        if footer:
            raise ValidationError(f"table row {line!r} comes after the footer")
        parts = line.split(",")
        if len(parts) != ncols:
            raise ValidationError(f"malformed table row {line!r}")
        rows.append(tuple(_parse(p, float, f"cell of table row {line!r}") for p in parts))
    for key, kind in (types or {}).items():
        if key not in footer:
            raise ValidationError(f"footer lacks the key {key!r}")
        footer[key] = _parse(footer[key], kind, f"footer value {key}")
    return rows, footer


def save_archive(path, arrays: Mapping[str, np.ndarray], meta: Mapping) -> None:
    """Write ``meta`` as a JSON member, then the arrays as little-endian doubles.

    The file lands at exactly ``path``: an open file keeps ``np.savez`` from
    appending ``.npz`` to a path without that suffix.
    """
    with open(path, "wb") as fh:
        np.savez(
            fh,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **{k: np.ascontiguousarray(v, dtype="<f8") for k, v in arrays.items()},
        )


def load_archive(path, what: str, build: Callable[[dict, dict], object]):
    """Read an archive of ``save_archive`` and return ``build(arrays, meta)``.

    ``what`` names the archive kind in the error message.  A damaged zip, a
    missing member or meta key, or a value ``build`` rejects all raise
    ValidationError.
    """
    data = Path(path).read_bytes()
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as z:
            meta = json.loads(bytes(z["meta"]).decode())
            arrays = {name: z[name] for name in z.files if name != "meta"}
        return build(arrays, meta)
    # damaged bytes surface as BadZipFile, ValueError, KeyError, EOFError,
    # NotImplementedError, RuntimeError, tokenize.TokenError and more; the
    # file itself was read above, so whatever fails here is a format error
    except Exception as exc:
        raise ValidationError(f"not {what}: {exc}") from exc
