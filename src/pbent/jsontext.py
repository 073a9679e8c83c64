"""JSON text of the reports, written from byte arrays.

A non-bent spectrum's |W|^2 histogram can have about one key per point, some
78k on a random 3^12 table.  format_rows writes its keys from per-column
byte tables, HistogramJSON gathers the histogram's JSON text in one uint8
array, and json_text splices that text into json.dumps of the rest of the
report, with the bytes json.dumps(sort_keys=True, indent=2) would give.
Only classify and spectrum write a histogram, so WalshSpectrum and the CLI
import this module when they do: loaded at start-up, its code raised the
peak RSS of a search, which never uses it, by 0.1-0.3 MiB.
"""
from __future__ import annotations

import json

import numpy as np

from .pfunc import ascii_text, digit_cells


def _byte_column(text: bytes, k: int) -> np.ndarray:
    """k rows of the same bytes, a read-only view to stack beside others."""
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (k, len(text)))


def _left_align(cells: np.ndarray) -> np.ndarray:
    """Each row's non-NUL bytes moved to its front, in order, NULs after them."""
    out = np.zeros_like(cells)
    pos = np.arange(0, cells.size, cells.shape[1])  # next free byte of each row
    flat = out.reshape(-1)
    for col in cells.T:
        hit = col != 0
        flat[pos[hit]] = col[hit]
        pos += hit
    return out


def format_rows(rows: np.ndarray) -> np.ndarray:
    """format_coeffs of every row of an int64 coefficient array (entries
    above -2^63, whose magnitude int64 holds), as ASCII: one uint8 row each,
    the text left-aligned and NUL-padded.  Each term is gathered from
    per-column byte tables (sign, digits, unit), as dump_tt writes digits,
    so no Python string is made per row."""
    k = len(rows)
    terms = []
    first = np.ones(k, dtype=bool)  # no nonzero term written yet
    for j, c in enumerate(rows.T):
        sign = np.zeros((k, 3), dtype=np.uint8)  # "-", " + " or " - "
        sign[:, 1] = np.where(c < 0, ord("-"), np.where(first, 0, ord("+")))
        sign[~first, 0] = sign[~first, 2] = ord(" ")
        mag = digit_cells(np.abs(c))
        if j:  # e^j alone stands for 1*e^j
            mag[np.abs(c) == 1] = 0
        unit = b"" if j == 0 else b"e" if j == 1 else b"e^%d" % j
        term = np.hstack([sign, mag, _byte_column(unit, k)])
        term[c == 0] = 0
        terms.append(term)
        first &= c == 0
    cells = np.hstack(terms)
    cells[first, 0] = ord("0")
    return _left_align(cells)


class HistogramJSON(dict):
    """A |W|^2 histogram as JSON data, {value text: count} in coefficient
    order, built from the keys' ASCII rows (format_rows) and the counts.

    text() writes, from those byte rows and without a Python string per key,
    the text that json.dumps(sort_keys=True, indent=2) gives for the
    histogram as a top-level value, which json_text splices in.  It
    describes the contents the dict was built with.
    """

    def __init__(self, keys: np.ndarray, counts: np.ndarray) -> None:
        newline = _byte_column(b"\n", len(keys))
        super().__init__(zip(ascii_text(np.hstack([keys, newline]))[:-1].split("\n"),
                             counts.tolist()))
        self._keys, self._counts = keys, counts

    def text(self) -> str:
        keys, k = self._keys, len(self._keys)
        order = np.argsort(keys.view(f"S{keys.shape[1]}")[:, 0])  # as sort_keys orders them
        lines = np.hstack([_byte_column(b'    "', k), keys[order], _byte_column(b'": ', k),
                           digit_cells(self._counts[order]), _byte_column(b",\n", k)])
        return "{\n" + ascii_text(lines)[:-2] + "\n  }"


def json_text(obj: dict) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of a report, with the text of
    each top-level histogram spliced in instead of encoded key by key."""
    hists = {key: v for key, v in obj.items() if isinstance(v, HistogramJSON)}
    text = json.dumps({**obj, **dict.fromkeys(hists)}, sort_keys=True, indent=2)
    for key, hist in hists.items():
        head = f"\n  {json.dumps(key)}: "  # top-level keys alone sit at indent 2
        text = text.replace(head + "null", head + hist.text(), 1)
    return text
