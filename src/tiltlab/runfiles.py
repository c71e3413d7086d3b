"""Run files: the one reader and the one writer of each run-file format.

Besides its config copy and checkpoints, a run reads and writes two
formats:

* CSV tables: a header line, then rows of fields, as ``csv.writer``'s
  default dialect writes them (``\\r\\n`` line ends). :func:`write_csv`
  writes every table; :func:`read_table` reads a table of numbers and
  checks all of it. A sample file is such a table with the header
  ``x0..x{d-1}`` (:func:`write_samples_csv`, :func:`read_samples_csv`).
* JSON lines: one JSON object per line. :func:`write_jsonl` refuses NaN
  and infinities, naming the file and the key; :func:`read_jsonl` reads
  them back and refuses what the writer would.

A malformed file raises ConfigError naming the file and the 1-based
line; a non-finite value bound for a JSON-lines file raises NumericError.
This module imports nothing of tiltlab but the error types, so the
harness and the rewards both use it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError

# -- CSV tables -------------------------------------------------------------------


def csv_field(text: str) -> str:
    """``text`` as one field of ``csv.writer``'s default dialect: quoted, with
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_cells(a) -> list[str]:
    """``repr(float(v))`` of each entry of ``a``, in C order."""
    return list(map(repr, np.asarray(a, dtype=np.float64).ravel().tolist()))


def cells(values) -> list[str]:
    """Each value as ``csv.writer`` writes it: ``repr`` of a float, an empty
    field for None, text through :func:`csv_field` and ``str`` of the rest."""
    return ["" if v is None else csv_field(v) if isinstance(v, str) else repr(v) if isinstance(v, float)
            else str(v) for v in values]


def write_csv(path, header: list[str], blocks) -> None:
    """Write ``header``, then each block of rows in turn.

    A block is a list of equal-length columns of formatted fields
    (:func:`float_cells`, :func:`cells`), so a large table can be written
    a block at a time without its text ever being whole.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


def sample_header(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


def write_samples_csv(path, samples) -> None:
    samples = np.atleast_2d(samples)
    write_csv(path, sample_header(samples.shape[1]), [[float_cells(col) for col in samples.T]])


def read_table(path) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) body of a CSV table of finite numbers.

    Raises ConfigError, naming the file and the 1-based line, when the
    header is missing, the body is empty, a blank line sits inside the
    body, a row is not as wide as the header, or a field is not a finite
    number. Blank lines after the last row are ignored. The caller checks
    the header's names.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    while rows and not rows[-1][1]:
        rows.pop()
    if not rows or not rows[0][1]:
        raise ConfigError(f"line 1 of {path}: no header")
    (header_line, header), body = rows[0], rows[1:]
    if not body:
        raise ConfigError(f"line {header_line + 1} of {path}: no rows after the header")
    data = np.empty((len(body), len(header)))
    for i, (line, row) in enumerate(body):
        if len(row) != len(header):
            what = "a blank line" if not row else f"{len(row)} fields under a header of {len(header)}"
            raise ConfigError(f"line {line} of {path}: {what}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError:
            raise ConfigError(f"line {line} of {path}: {row} are not all numbers") from None
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        line, row = body[int(np.argmin(finite))]
        raise ConfigError(f"line {line} of {path}: {row} are not all finite")
    return header, data


def read_samples_csv(path) -> np.ndarray:
    """The (n, d) samples of a sample file, a :func:`read_table` table with
    the header x0..x{d-1}."""
    header, data = read_table(path)
    if header != sample_header(len(header)):
        raise ConfigError(f"line 1 of {path}: header {header} is not x0..x{{d-1}}")
    return data


# -- JSON lines ---------------------------------------------------------------------


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):  # e.g. a guide run's per-step shift norms
        return all(map(_finite, value))
    return True


def write_jsonl(fh, records) -> None:
    """Write each record, a dict, as one line of strict JSON to the open text file ``fh``.

    All lines are formed before any is written. A NaN or infinite value,
    also inside a list, raises NumericError naming the file, the key and
    the record's text fields (a metric record's name), and writes nothing.
    """
    lines = []
    for rec in records:
        bad = [f"{key}={value!r}" for key, value in rec.items() if not _finite(value)]
        if bad:
            text = ", ".join(f"{key}={value!r}" for key, value in rec.items() if isinstance(value, str))
            raise NumericError(f"{fh.name}: non-finite {', '.join(bad)} in the record of {text or '-'}; "
                               "JSON lines hold finite numbers only")
        lines.append(json.dumps(rec, allow_nan=False) + "\n")
    fh.write("".join(lines))


def _finite_number(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def read_jsonl(path) -> list[dict]:
    """The records of a JSON-lines file: every line one JSON object of finite
    numbers, else ConfigError naming the file and the 1-based line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    records = []
    for i, line in enumerate(lines, 1):
        try:
            rec = json.loads(line, parse_float=_finite_number, parse_constant=_finite_number)
        except ValueError as exc:
            raise ConfigError(f"line {i} of {path}: {exc}") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"line {i} of {path}: not a JSON object")
        records.append(rec)
    return records
