"""JSON text of the reports, written from byte arrays a block at a time.

A report's large members are jsontext members: a spectrum's N rows of
values (RowsJSON) and a non-bent spectrum's |W|^2 histogram (HistogramJSON),
which has about one key per point, some 78k on a random 3^12 table.  A
member gives its Python value for to_json (plain), or its JSON text in
chunks, which json_chunks splices into json.dumps of the rest of the
report, with the bytes json.dumps(sort_keys=True, indent=2) would give.  A
chunk is the text of a block of items, gathered in one uint8 array from
byte tables (sign, digits, separators), as format_rows writes the
histogram's keys, so the CLI makes no Python object per key or value and
never holds the whole text: `spectrum` of a random 3^12 table writes 20 MB
of values in chunks of _TEXT_ENTRIES numbers.

Only classify and spectrum write these members, so WalshSpectrum,
ClassReport and the CLI import this module when they do: loaded at
start-up, its code raised the peak RSS of a search, which never uses it,
by 0.1-0.3 MiB.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from itertools import chain

import numpy as np

from .pfunc import ascii_text, digit_cells
from .walsh import int_rows

# Numbers, or bytes of histogram keys, written per chunk: a chunk's byte
# tables and their digit temporaries then take about 1 MiB.
_TEXT_ENTRIES = 1 << 15


def _byte_column(text: bytes, k: int) -> np.ndarray:
    """k rows of the same bytes, a read-only view to stack beside others."""
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (k, len(text)))


def _byte_table(texts: list[bytes]) -> np.ndarray:
    """One uint8 row per text, NUL-padded to the longest, to gather rows from."""
    table = np.array(texts)
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def format_rows(rows: np.ndarray) -> np.ndarray:
    """format_coeffs of every row of an int64 coefficient array (entries
    above -2^63, whose magnitude int64 holds), as ASCII: one uint8 row each,
    the text left-aligned and NUL-padded.  Each term is gathered from
    per-column byte tables (sign, digits, unit), as dump_tt writes digits,
    so no Python string is made per row.  The bytes are laid out a text
    column per array row, so that each write and the left-align read
    contiguous rows: built row-major, this took twice as long."""
    k = len(rows)
    terms = []
    first = np.ones(k, dtype=bool)  # no nonzero term written yet
    for j, c in enumerate(rows.T):
        if not c.any():  # writes nothing (as |W|^2's e^1 coefficient, always 0)
            continue
        mag = digit_cells(np.abs(c)).T
        unit = b"" if j == 0 else b"e" if j == 1 else b"e^%d" % j
        term = np.zeros((3 + len(mag) + len(unit), k), dtype=np.uint8)
        term[1] = np.where(c < 0, ord("-"), np.where(first, 0, ord("+")))  # "-", " + " or " - "
        term[0] = term[2] = np.where(first, 0, ord(" "))
        term[3 : 3 + len(mag)] = mag if j == 0 else mag * (np.abs(c) != 1)  # e^j, not 1e^j
        term[3 + len(mag) :] = np.frombuffer(unit, dtype=np.uint8)[:, None]
        term *= c != 0
        terms.append(term)
        first &= c == 0
    zero = np.where(first, ord("0"), 0).astype(np.uint8)  # the one byte of a zero row
    out = np.zeros((k, sum(map(len, terms)) + 1), dtype=np.uint8)
    pos = np.arange(0, out.size, out.shape[1])  # next free byte of each row
    flat = out.reshape(-1)
    for col in chain(*terms, [zero]):  # a NUL written at pos is overwritten by the next byte
        flat[pos] = col
        pos += col != 0
    return out


def _comma_rows(n: int, step: int, cells: Callable[[int, int], np.ndarray]) -> Iterator[str]:
    """The text of n items, step at a time: cells(r0, r1) are the byte rows
    of items r0..r1, each led by the "," that separates it from the one
    before, which the first item drops."""
    for r0 in range(0, n, step):
        text = ascii_text(cells(r0, min(r0 + step, n)))
        yield text[1:] if r0 == 0 else text


class Member:
    """A report member that json_chunks writes as text chunks and plain
    turns into its Python value."""

    def value(self):
        raise NotImplementedError

    def chunks(self) -> Iterator[str]:
        """The member's JSON text as a top-level value at indent=2."""
        raise NotImplementedError


class RowsJSON(Member):
    """An N x w array of integral rows (int64, or float rows that hold
    integers) as a JSON list of lists."""

    def __init__(self, rows: np.ndarray) -> None:
        self._rows = rows

    def value(self) -> list[list[int]]:
        return int_rows(self._rows).tolist()

    def _cells(self, r0: int, r1: int) -> np.ndarray:
        """One byte row per number of rows r0..r1: its lead (a new row's
        "[" before a row's first number), sign, digits and, after a row's
        last number, the row's "]"."""
        w = self._rows.shape[1]
        v = int_rows(self._rows[r0:r1]).reshape(-1)
        j = np.arange(v.size) % w  # the column of each number
        lead = _byte_table([b",\n    [\n      ", b",\n      "])[np.minimum(j, 1)]
        sign = np.where(v < 0, ord("-"), 0).astype(np.uint8)[:, None]
        close = _byte_table([b"", b"\n    ]"])[(j == w - 1).view(np.int8)]
        return np.hstack([lead, sign, digit_cells(np.abs(v)), close])

    def chunks(self) -> Iterator[str]:
        yield "["
        step = max(1, _TEXT_ENTRIES // self._rows.shape[1])
        yield from _comma_rows(len(self._rows), step, self._cells)
        yield "\n  ]"


class HistogramJSON(Member):
    """A |W|^2 histogram, {value text: count} in coefficient order, from a
    call that gives the distinct |W|^2 rows and their counts: the rows are
    formed when the member is written, and their text by format_rows."""

    def __init__(self, distinct: Callable[[], tuple[np.ndarray, np.ndarray]]) -> None:
        self._distinct = distinct

    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        rows, counts = self._distinct()
        return format_rows(rows), counts

    def value(self) -> dict[str, int]:
        keys, counts = self._keys()
        newline = _byte_column(b"\n", len(keys))
        return dict(zip(ascii_text(np.hstack([keys, newline]))[:-1].split("\n"), counts.tolist()))

    def chunks(self) -> Iterator[str]:
        keys, counts = self._keys()
        # as sort_keys orders them; a stable sort took a quarter of the time,
        # since keys in coefficient order come in long sorted runs
        order = np.argsort(keys.view(f"S{keys.shape[1]}")[:, 0], kind="stable")

        def cells(r0: int, r1: int) -> np.ndarray:
            at = order[r0:r1]
            return np.hstack([_byte_column(b',\n    "', len(at)), keys[at],
                              _byte_column(b'": ', len(at)), digit_cells(counts[at])])

        yield "{"
        yield from _comma_rows(len(keys), max(1, _TEXT_ENTRIES // keys.shape[1]), cells)
        yield "\n  }"


def plain(obj: dict) -> dict:
    """A report with each jsontext member replaced by its value."""
    return {key: v.value() if isinstance(v, Member) else v for key, v in obj.items()}


def json_chunks(obj: dict) -> Iterator[str]:
    """json.dumps(plain(obj), sort_keys=True, indent=2) of a report, in
    chunks: the text of the rest of the report, with each top-level member's
    chunks spliced in where json.dumps wrote its placeholder null."""
    spliced = {key: v for key, v in obj.items() if isinstance(v, Member)}
    text = json.dumps({**obj, **dict.fromkeys(spliced)}, sort_keys=True, indent=2)
    pos = 0
    for key in sorted(spliced):  # the order sort_keys writes them in
        head = f"\n  {json.dumps(key)}: "  # top-level keys alone sit at indent 2
        at = text.index(head + "null", pos) + len(head)
        yield text[pos:at]
        yield from spliced[key].chunks()
        pos = at + len("null")
    yield text[pos:]
