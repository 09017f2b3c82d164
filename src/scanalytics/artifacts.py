"""The table writer and the JSON dump behind every artifact.

A table is a header plus rows of cells. A float cell is written as `.10g`,
NaN as `xxx`, any other cell as `str()`. A `.json` path gets a list of
{column: cell text} objects; any other path gets CSV with the same text.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["MISSING_MARK", "write_table", "write_json"]

MISSING_MARK = "xxx"


def _cell_text(value) -> str:
    if isinstance(value, float):
        return MISSING_MARK if math.isnan(value) else f"{value:.10g}"
    return str(value)


def write_table(path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write `rows` under `header` as CSV, or as JSON when `path` ends in `.json`."""
    texts = ([_cell_text(value) for value in row] for row in rows)
    if Path(path).suffix == ".json":
        write_json([dict(zip(header, row)) for row in texts], path)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(texts)


def write_json(payload, path) -> None:
    """Dump `payload` with sorted keys, two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
