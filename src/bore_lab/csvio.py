"""The one CSV writer and the one JSON writer behind every file bore_lab exports."""

from __future__ import annotations

import json

import numpy as np

# Rows formatted per write: bounds the transient text and float objects
# to a few hundred kB whatever the table length.
_BLOCK_ROWS = 1024


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
        json.dump(data, fh, indent=2)
        fh.write("\n")
