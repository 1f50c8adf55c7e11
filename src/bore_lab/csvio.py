"""The one CSV reader, CSV writer and JSON writer of bore_lab."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError

# Rows formatted per write: bounds the transient text and float objects
# to a few hundred kB whatever the table length.
_BLOCK_ROWS = 1024
_MIN_ROWS = 10  # fewer samples resolve no profile or gauge trace


def read_csv(path, names):
    """The columns of a numeric CSV table, as float arrays.

    names is the header tuple the first line must match, or a column count
    for a table whose header is optional: then a first line holding a
    non-number is skipped.  One policy holds for every table: blank lines
    are skipped, every row holds exactly that many finite numbers, the
    first column strictly increases, and at least 10 rows follow.  A
    violation raises ConfigError naming the path and the line.
    """
    width = names if isinstance(names, int) else len(names)
    rows = []
    with open(path) as fh:
        lines = ((n, [p.strip() for p in raw.split(",")])
                 for n, raw in enumerate(fh, start=1) if raw.strip())
        for k, (lineno, parts) in enumerate(lines):
            at = f"{path}: line {lineno}"
            if k == 0 and not isinstance(names, int):
                if tuple(parts) != names:
                    raise ConfigError(f"{at}: expected the header {','.join(names)}")
                continue
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if k == 0:
                    continue  # the optional header
                raise ConfigError(f"{at}: non-numeric value") from None
            if len(row) != width:
                raise ConfigError(f"{at}: expected {width} columns, got {len(row)}")
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"{at}: non-finite value")
            if rows and row[0] <= rows[-1][0]:
                raise ConfigError(f"{at}: the first column must strictly increase")
            rows.append(row)
    if len(rows) < _MIN_ROWS:
        raise ConfigError(f"{path}: needs at least {_MIN_ROWS} rows, got {len(rows)}")
    return list(np.array(rows).T)


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a one-line header, each value as %.17g.

    The bytes are those of np.savetxt(path, np.column_stack(columns),
    fmt="%.17g", delimiter=",", header=header, comments=""): one `%`
    format per block of rows instead of one per row.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def write_json(path, data) -> None:
    """Write data as JSON indented by two spaces, with a trailing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
