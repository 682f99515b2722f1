"""The text format and the archive the commands write, the one writer, and the loaders.

* Table: one header line, one line per row with floats in ``repr`` form
  (rereading reproduces them bit for bit), then a ``key = value`` footer
  block; LF line endings on every platform.  The CSVs are tables with
  rows; ``plan.txt`` is one with no rows (``weight.plan_report``).
* Archive: a ``.npz`` of little-endian float64 arrays plus a ``meta``
  member holding a JSON document.

``write_artifact`` is the one writer: it writes a temporary file beside the path,
then ``os.replace``s it onto the path, so an artifact lands whole or not at all; any
exception, ``KeyboardInterrupt`` included, removes the temporary file.  No
``fsync``: a kill loses no written data, a power cut can.  A symlink at the path is
replaced, not written through.

The loaders raise ValidationError on any input they cannot read; only a
failure to read the file itself escapes as OSError.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

from .errors import ValidationError

__all__ = [
    "write_artifact",
    "table_text",
    "load_table_csv",
    "archive_bytes",
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


def write_artifact(path, data: str | bytes) -> None:
    """Write ``data``, a str as UTF-8, to exactly ``path``, whole or not at all."""
    # named by pid and opened as a plain file is, so its mode follows the umask
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # only after a failure is it still there


def table_text(header: str, rows, footer: Mapping[str, object]) -> str:
    """A table: the header, rows of repr floats and a ``key = value`` footer, LF endings.

    Footer values are written as cells are.  An empty footer key, a key
    holding ``=``, a key or value holding ``,`` or a line break, or one with
    whitespace at either end, would not read back, so it raises ValidationError.
    """
    footer = {key: _text(value) for key, value in footer.items()}
    for key, value in footer.items():
        stripped = key == key.strip() and value == value.strip()
        if not (key and stripped) or "=" in key or any(c in key + value for c in ",\n\r"):
            raise ValidationError(f"footer entry {key!r}: {value!r} would not read back")
    lines = [header, *(",".join(map(_text, row)) for row in rows)]
    lines += [f"{key} = {value}" for key, value in footer.items()]
    return "".join(line + "\n" for line in lines)


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


def archive_bytes(arrays: Mapping[str, np.ndarray], meta: Mapping) -> bytes:
    """An archive: ``meta`` as a JSON member, then the arrays as little-endian doubles."""
    buf = io.BytesIO()
    np.savez(
        buf,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **{k: np.ascontiguousarray(v, dtype="<f8") for k, v in arrays.items()},
    )
    return buf.getvalue()


def load_archive(path, what: str, build: Callable[[dict, dict], object]):
    """Read an archive of ``archive_bytes`` and return ``build(arrays, meta)``.

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
