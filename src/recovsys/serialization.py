"""File formats: graphs, recovery tables, measures, and codes.

Words are written as digit strings with digits beyond 9 encoded as lowercase
letters (alphabets up to size 36).  Floating-point values are written with 17
significant digits, which round-trips doubles bit-identically; a measure file
formats each distinct value once and gathers its cells' text from those.
Measures are only written: no command reads a measure file back.  Graphs,
recovery tables and codes are also read, and a malformed file raises
ValueError naming the missing graph field or the bad table or code line.
Code files hold one codeword per line in sorted order; they are written from
and read into the rows of a `WordRows` through byte lookup tables, with no
per-symbol Python work.  A code file laid out as it is written, equal lines
each ending in a newline, is read as one byte block, with no string per
line; other text, such as padded or CRLF lines, goes through the line
reader, which defines the format.  Recovery tables are written the same
way, from the rows of a `RecoveryTable`.  Graphs are written from their
label and edge rows, one formatted string per vertex and per edge, in the
layout of ``json.dumps(..., indent=1)``, and read back into those rows with
one byte lookup per kind of label.  A symbol outside [0, 36) is refused by
every writer before any text is made.
"""

from __future__ import annotations

import json
import re
from operator import index, itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .graphs import LabeledDigraph, Word, _ranked, _words_from_symbols
from .measures import EpsilonConstruction, MarkovMeasure
from .storage import WordRows
from .systems import RecoveryTable

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_BYTES = np.frombuffer(DIGITS.encode(), dtype=np.uint8)
# The symbol of each byte, -1 for a byte that is not a digit.
_BYTE_SYMBOLS = np.full(256, -1, dtype=np.int8)
_BYTE_SYMBOLS[_DIGIT_BYTES] = np.arange(len(DIGITS))
_SYMBOL_RANGE = "text encoding supports alphabets up to size 36: symbols 0 to 35"
# Largest measure file, in cells (states**2): truncated q=16, 4,096 states,
# writes about 335 MB of text.
MEASURE_TEXT_CELLS = 4096**2


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
    words = _row_texts(G.word_rows)
    vertices = [
        f'  {{\n   "id": {i},\n   "label": "{w}"\n  }}' for i, w in enumerate(_row_texts(G.label_rows))
    ]
    src, dst, lab = (np.repeat(row, G.count).tolist() for row in (G.src, G.dst, G.lab))
    edges = [
        f'  {{\n   "from": {u},\n   "to": {v},\n   "label": "{words[a]}"\n  }}'
        for u, v, a in zip(src, dst, lab)
    ]
    return (
        f'{{\n "q": {G.q},\n "label_len": {G.label_len},\n'
        f' "vertices": {_json_list(vertices)},\n "edges": {_json_list(edges)}\n}}'
    )


def _row_texts(rows: np.ndarray) -> list[str]:
    """Each row of symbols as its digit string."""
    _check_symbols(rows)
    if not rows.size:
        return [""] * len(rows)
    m = rows.shape[1]
    return _DIGIT_BYTES[rows].view(f"S{m}")[:, 0].astype(f"U{m}").tolist()


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def graph_from_json(text: str) -> LabeledDigraph:
    """The graph of a graph file, its labels decoded through `_BYTE_SYMBOLS`.

    Vertices may come in any order of their ids, which must be 0..n-1; the
    edge label words are ranked into the graph's word table by one row sort.
    A missing field, a label that is not a digit string and every check of
    `LabeledDigraph` raise ValueError.
    """
    doc = json.loads(text)
    try:
        vertices, edges = doc["vertices"], doc["edges"]
        ids = np.fromiter(map(index, map(itemgetter("id"), vertices)), dtype=np.int64, count=len(vertices))
        labels = _label_rows("vertex", list(map(itemgetter("label"), vertices)))
        src, dst = (
            np.fromiter(map(index, map(itemgetter(end), edges)), dtype=np.int64, count=len(edges))
            for end in ("from", "to")
        )
        words, lab = _ranked(_label_rows("edge", list(map(itemgetter("label"), edges))))
        q = index(doc["q"])
        label_len = index(doc["label_len"])
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


def _label_rows(kind: str, texts: list[str]) -> np.ndarray:
    """The digit-string `texts` as rows of symbols; a bad digit raises ValueError."""
    symbols, lengths, bad = _text_symbols(texts)
    if bad is not None:
        raise ValueError(f"{texts[bad]!r} is not a digit-string word")
    return _words_from_symbols(kind, symbols, lengths)


def _text_symbols(texts: list[str]) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The symbols of all `texts` in turn, each text's length, and the first bad text.

    One `_BYTE_SYMBOLS` lookup over the joined text; the bad text is the
    index of the first with a character that is not a digit, or None.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # Replacing each non-ASCII character by "?" keeps one byte per character.
    data = "".join(texts).encode("ascii", "replace")
    symbols = _BYTE_SYMBOLS[np.frombuffer(data, dtype=np.uint8)]
    bad = symbols < 0
    if not bad.any():
        return symbols, lengths, None
    return symbols, lengths, int(np.searchsorted(np.cumsum(lengths), bad.argmax(), side="right"))


def save_graph(G: LabeledDigraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(G) + "\n")


def recovery_table_to_text(table: Mapping[tuple[Word, Word], Word]) -> str:
    """One ``alpha beta -> middle`` line per entry, in (alpha, beta) order.

    Written from the rows of ``RecoveryTable.of(table)``: a `RecoveryTable`
    as it is, any other mapping sorted as ``sorted(table.items())`` sorts
    it, and refused there if its word lengths differ between entries.
    """
    table = RecoveryTable.of(table)
    rows, (a, ab) = table.rows, table.ends
    _check_symbols(rows)
    # one line per row: its digits go where the template holds "0"
    template = b"%s %s -> %s\n" % (b"0" * a, b"0" * (ab - a), b"0" * (rows.shape[1] - ab))
    template = np.frombuffer(template, dtype=np.uint8)
    text = np.tile(template, (len(rows), 1))
    text[:, template == ord("0")] = _DIGIT_BYTES[rows]
    return text.tobytes()[:-1].decode()


def save_recovery_table(table: Mapping[tuple[Word, Word], Word], path: str | Path) -> None:
    Path(path).write_text(recovery_table_to_text(table) + "\n")


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
    each cell is the same float product as in the dense chain.  A file is
    states**2 cells, so more than `MEASURE_TEXT_CELLS` raise ValueError
    before any row or text is made.
    """
    n = len(M.state_rows)
    if n * n > MEASURE_TEXT_CELLS:
        raise ValueError(
            f"a measure on {n} states is {n * n} cells of text, "
            f"over the cap of {MEASURE_TEXT_CELLS}"
        )
    if isinstance(M, EpsilonConstruction):
        q, emit = M.base_measure.q, M.base_measure.emit
        P, row_of = M.base_measure.P[:, M.parent] * M.weight, M.parent.tolist()
    else:
        q, emit, P, row_of = M.q, M.emit, M.P, range(n)
    lines = [f"q {q}", f"emit {emit}", f"log_base {q**emit}", f"states {n}"]
    lines += _row_texts(M.state_rows)
    # Each distinct value of P and p is formatted once, and each row of P
    # joined once.  A measure's cells are products of nonnegative factors,
    # so a zero is +0.0, whose text is "0".
    values, inverse = np.unique(np.vstack((P, M.p)), return_inverse=True)
    text = np.array([fmt(x) if x else "0" for x in values.tolist()], dtype=object)
    rows = [",".join(row) for row in text[inverse.reshape(-1, n)].tolist()]
    lines += ["P", *(rows[i] for i in row_of), "p", rows[-1]]
    return "\n".join(lines)


def save_measure(M: MarkovMeasure | EpsilonConstruction, path: str | Path) -> None:
    Path(path).write_text(measure_to_text(M) + "\n")


def codewords_to_text(words: WordRows) -> str:
    """The words as digit strings, one per line in sorted order."""
    rows = words.rows
    _check_symbols(rows)
    text = np.full((len(rows), rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = _DIGIT_BYTES[rows]
    return text.tobytes()[:-1].decode()


def _check_symbols(rows: np.ndarray) -> None:
    """Refuse a symbol outside [0, 36), which `_DIGIT_BYTES` would wrap.

    Symbols must be integers: an int too large for int64 makes an object
    array, and a float one a float array, and both are refused.
    """
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(DIGITS)):
        raise ValueError(_SYMBOL_RANGE)


def codewords_from_text(text: str) -> WordRows:
    """The codewords of a code file's text.

    Text laid out as `codewords_to_text` writes it, N lines of n >= 1
    digits each ending in a newline, is read as one (N, n + 1) byte block
    with one `_BYTE_SYMBOLS` lookup.  Any other text goes through the line
    reader, `_codewords_from_lines`, which defines the format and its errors.
    """
    if text.isascii() and (n := text.find("\n")) > 0 and len(text) % (n + 1) == 0:
        block = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, n + 1)
        symbols = _BYTE_SYMBOLS[block[:, :n]]
        if (block[:, n] == ord("\n")).all() and (symbols >= 0).all():
            return WordRows(symbols.view(np.uint8))
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
    return WordRows(symbols.view(np.uint8).reshape(nonblank.size, width))
