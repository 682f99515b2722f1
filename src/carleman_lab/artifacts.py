"""Two of the three artifact formats the commands write, and their loaders.

* Table CSV: one header line, one line per row with floats in ``repr`` form
  (rereading reproduces them bit for bit), then a ``key=value`` footer
  block; LF line endings on every platform.
* Archive: a ``.npz`` of little-endian float64 arrays plus a ``meta``
  member holding a JSON document.

The third is ``plan.txt``: ``key = value`` lines, written by
``weight.plan_report`` and read by ``weight.load_plan_record``.

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
    "parse_float",
    "save_archive",
    "load_archive",
]


def parse_float(text: str, what: str) -> float:
    """``float(text)``, raising ValidationError that names ``what``."""
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{what} is not a number: {text!r}") from None


def write_table_csv(stream: IO[str], header: str, rows, footer: Mapping[str, str]) -> None:
    """CSV with repr floats and a key=value footer block, LF endings.

    A footer key holding ``=``, or a key or value holding ``,`` or a line
    break, would not read back as that entry, so it raises ValidationError
    before anything is written.
    """
    for key, value in footer.items():
        if "=" in key or any(c in f"{key}{value}" for c in ",\n\r"):
            raise ValidationError(f"footer entry {key!r}: {value!r} would not read back")
    stream.write(header + "\n")
    for row in rows:
        cells = [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        stream.write(",".join(cells) + "\n")
    for key, value in footer.items():
        stream.write(f"{key}={value}\n")


def load_table_csv(stream: IO[str], expected_header: str) -> tuple[list[tuple], dict]:
    """Parse a table CSV back into float rows plus the footer mapping.

    A footer line without a key, a repeated footer key and a table row after
    the footer raise ValidationError naming the line.
    """
    try:
        lines = stream.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"CSV is not UTF-8 text: {exc}") from exc
    header = lines[0].strip()
    if header != expected_header:
        raise ValidationError(f"unexpected CSV header {header!r}")
    ncols = len(expected_header.split(","))
    rows: list[tuple] = []
    footer: dict = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if "=" in line and "," not in line:
            key, _, value = line.partition("=")
            if not key:
                raise ValidationError(f"CSV footer line {line!r} has no key")
            if key in footer:
                raise ValidationError(f"CSV footer line {line!r} repeats the key {key!r}")
            footer[key] = value
            continue
        if footer:
            raise ValidationError(f"CSV row {line!r} comes after the footer")
        parts = line.split(",")
        if len(parts) != ncols:
            raise ValidationError(f"malformed CSV row {line!r}")
        rows.append(tuple(parse_float(p, f"cell of CSV row {line!r}") for p in parts))
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
