"""File formats: graphs, recovery tables, measures, and codes.

Words are written as digit strings with digits beyond 9 encoded as lowercase
letters (alphabets up to size 36).  Floating-point values are written with 17
significant digits, which round-trips doubles bit-identically; a measure file
formats each distinct value of a block of rows once and gathers its cells'
text from those.  Measures are only written: no command reads a measure
file back.  Graphs, recovery tables and codes are also read, and a malformed
file raises ValueError naming the missing graph field or the bad table or
code line.  Code files hold one codeword per line in sorted order; they are
written from and read into the rows of a `WordRows` by `bytes.translate`
through two 256-byte tables, symbol to digit and digit to symbol, with no
per-symbol Python work.  A code file laid out as it is written, equal lines
each ending in a newline, is read as one byte block, with no string per
line; other text, such as padded or CRLF lines, goes through the line
reader, which defines the format.  Recovery tables are written the same
way, from the rows of a `RecoveryTable`.  Graphs are written from their
label and edge rows, in the layout of ``json.dumps(..., indent=1)``, and
read back into those rows with one translation per kind of label.

Every format is defined once, by a generator of chunks, each the text of at
most `_CHUNK_ITEMS` vertices, edge rows, table lines or measure cells:
`graph_to_json`, `recovery_table_to_text` and `measure_to_text` join their
format's chunks, and each ``save_*`` writes them as they come through
`_write_chunks`, so no writer holds a file's text whole.  A
writer's checks, such as a symbol outside [0, 36) or a measure over
`MEASURE_TEXT_CELLS`, run before its first chunk, and so before its file
is opened: a refused write makes no file.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import index, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .graphs import LabeledDigraph, Word, _ranked, _words_from_symbols
from .measures import EpsilonConstruction, MarkovMeasure
from .storage import WordRows
from .systems import RecoveryTable

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
# `bytes.translate` tables.  Symbol s < 36 is written as DIGITS[s] and
# _NEWLINE as a line break; a byte is read as its digit's symbol, a line
# break as _NEWLINE, and any other byte as 255 (find's -1).
_NEWLINE = len(DIGITS)
_TEXT = (DIGITS + "\n").encode()
_SYMBOL_BYTES = _TEXT.ljust(256, b"?")
_BYTE_SYMBOLS = bytes(_TEXT.find(b) % 256 for b in range(256))
_SYMBOL_RANGE = "text encoding supports alphabets up to size 36: symbols 0 to 35"
# Largest measure file, in cells (states**2): truncated q=16, 4,096 states,
# writes about 121 MB of text at eps = 0.1.
MEASURE_TEXT_CELLS = 4096**2
# Vertices, edge rows, table lines or measure cells in one chunk of a written
# file, about a megabyte of text at most.  A writer holds two chunks at a
# time, the one written and the one made next, with their Python strings.
_CHUNK_ITEMS = 1 << 14


def word_to_text(w: Word) -> str:
    if w and (min(w) < 0 or max(w) >= len(DIGITS)):
        raise ValueError(_SYMBOL_RANGE)
    return "".join(DIGITS[c] for c in w)


def text_to_word(s: str) -> Word:
    try:
        return tuple(DIGITS.index(c) for c in s)
    except ValueError:
        raise ValueError(f"{s!r} is not a digit-string word") from None


def fmt(x: float) -> str:
    return format(x, ".17g")


def graph_to_json(G: LabeledDigraph) -> str:
    """The text of ``json.dumps(doc, indent=1)`` for the graph's document.

    `doc` holds q, label_len, the vertices as ``{"id", "label"}`` and the
    edges as ``{"from", "to", "label"}`` in `G.edges` order.  The text is
    written from the rows, each row repeated `count` times, with each
    vertex label and each label word formatted once, from its row.
    """
    return "".join(_graph_chunks(G))


def _graph_chunks(G: LabeledDigraph) -> Iterator[str]:
    """The chunks of `graph_to_json`; `np.repeat` expands one block of edge rows at a time."""
    _check_symbols(G.label_rows)
    words = _row_texts(G.word_rows)
    step = _CHUNK_ITEMS
    yield f'{{\n "q": {G.q},\n "label_len": {G.label_len},\n "vertices": '
    yield from _json_list(_vertex_texts(G, s, s + step) for s in range(0, G.n_vertices, step))
    yield ',\n "edges": '
    yield from _json_list(_edge_texts(G, words, s, s + step) for s in range(0, len(G.count), step))
    yield "\n}"


def _vertex_texts(G: LabeledDigraph, start: int, stop: int) -> list[str]:
    """The JSON items of the vertices start..stop-1."""
    labels = _row_texts(G.label_rows[start:stop])
    return [f'  {{\n   "id": {i},\n   "label": "{w}"\n  }}' for i, w in enumerate(labels, start)]


def _edge_texts(G: LabeledDigraph, words: list[str], start: int, stop: int) -> list[str]:
    """The JSON items of the edges of rows start..stop-1, each row repeated `count` times."""
    count = G.count[start:stop]
    src, dst, lab = (np.repeat(row[start:stop], count).tolist() for row in (G.src, G.dst, G.lab))
    return [
        f'  {{\n   "from": {u},\n   "to": {v},\n   "label": "{words[a]}"\n  }}'
        for u, v, a in zip(src, dst, lab)
    ]


def _row_texts(rows: np.ndarray) -> list[str]:
    """Each row of symbols as its digit string."""
    _check_symbols(rows)
    if not rows.size:
        return [""] * len(rows)
    m = rows.shape[1]
    return np.frombuffer(_text_bytes(rows), dtype=f"S{m}").astype(f"U{m}").tolist()


def _text_bytes(rows: np.ndarray) -> bytes:
    """The rows' bytes, row after row, through `_SYMBOL_BYTES`: symbols must lie in [0, 36]."""
    return rows.astype(np.uint8, copy=False).tobytes().translate(_SYMBOL_BYTES)


def _json_list(blocks: Iterable[list[str]]) -> Iterator[str]:
    """The chunks of a JSON list at depth 1, its item texts given block by block."""
    opening = "[\n"
    for items in filter(None, blocks):
        yield opening + ",\n".join(items)
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n ]"


def _write_chunks(path: str | Path, chunks: Iterable[str | bytes | np.ndarray]) -> None:
    """Write the chunks, ASCII text or uint8 buffers, as they come, then a final newline.

    The first chunk is made before the file is opened, so the checks that a
    writer runs before its first chunk refuse with no file created.
    """
    chunks = iter(chunks)
    first = next(chunks, b"")
    with open(path, "wb") as f:
        for chunk in chain((first,), chunks):
            f.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
        f.write(b"\n")


def graph_from_json(text: str) -> LabeledDigraph:
    """The graph of a graph file, its labels decoded through `_BYTE_SYMBOLS`.

    Vertices may come in any order of their ids, which must be 0..n-1; the
    edge label words are ranked into the graph's word table by one row sort.
    A missing field, a boolean where an integer belongs, a label that is not
    a digit string and every check of `LabeledDigraph` raise ValueError.
    """
    doc = json.loads(text)
    try:
        vertices, edges = doc["vertices"], doc["edges"]
        ids = np.fromiter(map(_integer, map(itemgetter("id"), vertices)), dtype=np.int64, count=len(vertices))
        labels = _label_rows("vertex", list(map(itemgetter("label"), vertices)))
        src, dst = (
            np.fromiter(map(_integer, map(itemgetter(end), edges)), dtype=np.int64, count=len(edges))
            for end in ("from", "to")
        )
        words, lab = _ranked(_label_rows("edge", list(map(itemgetter("label"), edges))))
        q = _integer(doc["q"])
        label_len = _integer(doc["label_len"])
    except KeyError as exc:
        raise ValueError(f"malformed graph file: missing field {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed graph file: {exc}") from None
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(len(ids))):
        raise ValueError("vertex ids must be 0..n-1, each exactly once")
    G = LabeledDigraph._from_rows(q, labels[order], words, src, dst, lab, np.ones(len(lab)))
    if G.label_len != label_len:
        raise ValueError("label_len field disagrees with the vertex labels")
    return G


def _integer(x) -> int:
    """`x` as an int, refusing the JSON booleans that `operator.index` reads as 0 and 1."""
    if isinstance(x, bool):
        raise TypeError(f"{str(x).lower()} is a boolean, not an integer")
    return index(x)


def _label_rows(kind: str, texts: list[str]) -> np.ndarray:
    """The digit-string `texts` as rows of symbols; a bad digit raises ValueError."""
    symbols, lengths, bad = _text_symbols(texts)
    if bad is not None:
        raise ValueError(f"{texts[bad]!r} is not a digit-string word")
    return _words_from_symbols(kind, symbols, lengths)


def _text_symbols(texts: list[str]) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The symbols of all `texts` in turn, each text's length, and the first bad text.

    One `_BYTE_SYMBOLS` translation of the joined text; the bad text is the
    index of the first with a character that is not a digit, or None.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # Replacing each non-ASCII character by "?" keeps one byte per character.
    data = "".join(texts).encode("ascii", "replace").translate(_BYTE_SYMBOLS)
    symbols = np.frombuffer(data, dtype=np.uint8)
    bad = symbols >= _NEWLINE
    if not bad.any():
        return symbols, lengths, None
    return symbols, lengths, int(np.searchsorted(np.cumsum(lengths), bad.argmax(), side="right"))


def save_graph(G: LabeledDigraph, path: str | Path) -> None:
    """Write ``graph_to_json(G) + "\\n"`` chunk by chunk; a symbol outside [0, 36) makes no file."""
    _write_chunks(path, _graph_chunks(G))


def recovery_table_to_text(table: Mapping[tuple[Word, Word], Word]) -> str:
    """One ``alpha beta -> middle`` line per entry, in (alpha, beta) order.

    Written from the rows of ``RecoveryTable.of(table)``: a `RecoveryTable`
    as it is, any other mapping sorted as ``sorted(table.items())`` sorts
    it, and refused there if its word lengths differ between entries.
    """
    return b"".join(_table_chunks(table)).decode()


def _table_chunks(table: Mapping[tuple[Word, Word], Word]) -> Iterator[np.ndarray]:
    """The uint8 text of `recovery_table_to_text`, at most `_CHUNK_ITEMS` lines a chunk."""
    table = RecoveryTable.of(table)
    rows, (a, ab) = table.rows, table.ends
    _check_symbols(rows)
    # one line per row: its digits go where the template holds "0"
    template = b"%s %s -> %s\n" % (b"0" * a, b"0" * (ab - a), b"0" * (rows.shape[1] - ab))
    template = np.frombuffer(template, dtype=np.uint8)
    digits = template == ord("0")
    for s in range(0, len(rows), _CHUNK_ITEMS):
        block = rows[s : s + _CHUNK_ITEMS]
        text = np.tile(template, (len(block), 1))
        text[:, digits] = np.frombuffer(_text_bytes(block), dtype=np.uint8).reshape(block.shape)
        # the last line's newline is the file's final one
        yield text.ravel()[: -1 if s + _CHUNK_ITEMS >= len(rows) else None]


def save_recovery_table(table: Mapping[tuple[Word, Word], Word], path: str | Path) -> None:
    """Write ``recovery_table_to_text(table) + "\\n"`` chunk by chunk; a refused table makes no file."""
    _write_chunks(path, _table_chunks(table))


def recovery_table_from_text(text: str) -> RecoveryTable:
    """One ``alpha beta -> middle`` line per boundary pair; blank lines are skipped.

    A malformed line or a pair given twice raises ValueError naming the line;
    word lengths that differ between lines, in `RecoveryTable.of`, name the entry.
    """
    table: dict[tuple[Word, Word], Word] = {}
    for no, ln in enumerate(text.splitlines(), 1):
        if not (ln := ln.strip()):
            continue
        m = re.fullmatch(r"(\S+)\s+(\S+)\s*->\s*(\S+)", ln)
        if m is None:
            raise ValueError(f"line {no} {ln!r}: expected 'alpha beta -> middle'")
        try:
            alpha, beta, middle = map(text_to_word, m.groups())
        except ValueError as exc:
            raise ValueError(f"line {no} {ln!r}: {exc}") from None
        if (alpha, beta) in table:
            raise ValueError(f"line {no} {ln!r}: boundary pair given twice")
        table[alpha, beta] = middle
    return RecoveryTable.of(table)


def measure_to_text(M: MarkovMeasure | EpsilonConstruction) -> str:
    """The measure's header, states, P rows and p row, one cell per state.

    An `EpsilonConstruction` is written as its `measure`, byte for byte,
    without building it: its P rows are the rows ``mu.P[:, parent] *
    weight`` of its base measure mu, row i being row ``parent[i]``, and
    each cell is the same float product as in the dense chain; each of
    those rows is formatted once.  A file is states**2 cells, so more than
    `MEASURE_TEXT_CELLS` raise ValueError before any row or text is made.
    """
    return "".join(_measure_chunks(M))


def _measure_chunks(M: MarkovMeasure | EpsilonConstruction) -> Iterator[str]:
    """The chunks of `measure_to_text`, each at most `_CHUNK_ITEMS` cells of P rows."""
    n = len(M.state_rows)
    if n * n > MEASURE_TEXT_CELLS:
        raise ValueError(
            f"a measure on {n} states is {n * n} cells of text, "
            f"over the cap of {MEASURE_TEXT_CELLS}"
        )
    mu = M.base_measure if isinstance(M, EpsilonConstruction) else M
    lines = [f"q {mu.q}", f"emit {mu.emit}", f"log_base {mu.q**mu.emit}", f"states {n}"]
    yield "\n".join([*lines, *_row_texts(M.state_rows), "P", ""])
    step = max(1, _CHUNK_ITEMS // max(n, 1))
    if mu is M:
        blocks = (_cell_texts(M.P[s : s + step]) for s in range(0, n, step))
    else:
        # row i is row parent[i] of mu.P[:, parent] * weight, each formatted once
        cells = (mu.P[s : s + step, M.parent] * M.weight for s in range(0, len(mu.P), step))
        base = [row for block in cells for row in _cell_texts(block)]
        blocks = ([base[i] for i in M.parent[s : s + step].tolist()] for s in range(0, n, step))
    for rows in blocks:
        yield "\n".join([*rows, ""])
    yield "p\n" + _cell_texts(M.p[None])[0]


def _cell_texts(cells: np.ndarray) -> list[str]:
    """Each row of `cells` as its comma-joined cell texts.

    Each distinct nonzero value is formatted once, the values ranked by one
    sort and a run mask; zero cells, most of a sparse chain's, are "0"
    without the sort.  A measure's cells are products of nonnegative
    factors, so a zero is +0.0, whose text is "0".
    """
    live = cells != 0
    values, inverse = _ranked(cells[live][:, None])
    text = np.full(cells.shape, "0", dtype=object)
    text[live] = np.array([fmt(x) for x in values[:, 0].tolist()], dtype=object)[inverse]
    return [",".join(row) for row in text.tolist()]


def save_measure(M: MarkovMeasure | EpsilonConstruction, path: str | Path) -> None:
    """Write ``measure_to_text(M) + "\\n"`` chunk by chunk; a measure over the cap makes no file."""
    _write_chunks(path, _measure_chunks(M))


def codewords_to_text(words: WordRows) -> str:
    """The words as digit strings, one per line in sorted order."""
    rows = words.rows
    _check_symbols(rows)
    text = np.full((len(rows), rows.shape[1] + 1), _NEWLINE, dtype=np.uint8)
    text[:, :-1] = rows
    return _text_bytes(text)[:-1].decode()


def _check_symbols(rows: np.ndarray) -> None:
    """Refuse a symbol outside [0, 36), which `_SYMBOL_BYTES` would misread or wrap.

    Symbols must be integers: an int too large for int64 makes an object
    array, and a float one a float array, and both are refused.
    """
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(DIGITS)):
        raise ValueError(_SYMBOL_RANGE)


def codewords_from_text(text: str) -> WordRows:
    """The codewords of a code file's text.

    Text laid out as `codewords_to_text` writes it, N lines of n >= 1
    digits each ending in a newline, is read as one (N, n + 1) byte block
    through one `_BYTE_SYMBOLS` translation.  Any other text goes through
    the line reader, `_codewords_from_lines`, which defines the format and
    its errors.
    """
    if text.isascii() and (n := text.find("\n")) > 0 and len(text) % (n + 1) == 0:
        data = text.encode("ascii").translate(_BYTE_SYMBOLS)
        block = np.frombuffer(data, dtype=np.uint8).reshape(-1, n + 1)
        if (block[:, n] == _NEWLINE).all() and block[:, :n].max() < _NEWLINE:
            return WordRows(block[:, :n])
    return _codewords_from_lines(text)


def _codewords_from_lines(text: str) -> WordRows:
    """One codeword per nonblank line, stripped; a line given twice counts once.

    A bad digit raises ValueError naming the first line with one, and lines
    of different lengths name the first whose length differs from the first
    nonblank line's.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    symbols, lengths, i = _text_symbols(lines)
    if i is not None:
        raise ValueError(f"line {i + 1} {lines[i]!r}: {lines[i]!r} is not a digit-string word")
    nonblank = np.flatnonzero(lengths)
    width = int(lengths[nonblank[0]]) if nonblank.size else 0
    ragged = nonblank[lengths[nonblank] != width]
    if ragged.size:
        i = ragged[0]
        raise ValueError(
            f"line {i + 1} {lines[i]!r}: length {lengths[i]}, "
            f"but line {nonblank[0] + 1} has length {width}"
        )
    return WordRows(symbols.reshape(nonblank.size, width))
