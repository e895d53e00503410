"""Dense 0/1 matrices over the Boolean semiring.

Rows are bit-packed into numpy uint8 arrays (little bit order), so OR, AND
and equality run word-parallel; padding bits past the last column are kept
zero, which makes byte-level comparisons exact.  Matrices are immutable
after construction and safe to share across threads.

Dense results above the materialization limit are refused: the
``BOOLRANK_MAX_ENTRIES`` environment variable (default ``2^31`` entries) is
the only setting, for library calls and the CLI alike, and no function
takes a limit of its own.  :func:`require_materializable` is the one place
that turns the limit into a :class:`MaterializationLimitError`; callers
working above it verify covers lazily instead (see :mod:`boolrank.cover`).

This module also holds the text layer that every file format shares: the
line reader with its block header/body/trailing-line checks and the
index-list parser and formatter.  No text is held whole: matrix text is
read and written a block of characters at a time, and every other format
a line at a time, so text in memory is bounded by a block or a line, not
by the file.  Matrix text is written from a reader of packed rows
(:data:`Reader`, :func:`reader_lines`): a matrix's bits, crown(n) made on
demand, or :func:`_kron_reader`, which holds two factors and makes their
product's rows from them, so no writer holds the matrix it writes.  Index
lists are parsed into int64 arrays, which
:class:`~boolrank.cover.Rectangle` narrows to the dtype its sides are held
in, and are written from one decimal string per distinct index whenever
such a table holds no more entries than the lists hold indices.
"""

from __future__ import annotations

import os
import stat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DimensionError, FormatError, MaterializationLimitError

#: Dense results above this many entries are refused unless the environment
#: variable below sets another limit.
DEFAULT_MAX_ENTRIES = 2**31

_ENV_MAX_ENTRIES = "BOOLRANK_MAX_ENTRIES"

T = TypeVar("T")

#: ``read(row0, row1)``: packed rows ``row0`` up to ``row1``, clipped to the rows.
Reader = Callable[[int, int], np.ndarray]

#: Entries handled at once by every block loop: the product rows of a
#: Kronecker block and the crown's pairwise set tests.  Matrix text is read,
#: parsed and written an eighth of this many characters at a time
#: (:func:`_text_chars`).  The cover verifiers read member rows, split
#: coverage classes and count misses ``_block_rows(64 * packed bytes per
#: row)`` rows at a time, a 64th of this in packed bytes (64 KiB), so their
#: blocks stay in cache.
_BLOCK_ENTRIES = 1 << 22


def max_entries_limit() -> int:
    """The materialization limit: ``BOOLRANK_MAX_ENTRIES``, else the default.

    Read on every call, so a change to the environment takes effect at once.
    """
    env = os.environ.get(_ENV_MAX_ENTRIES)
    if not env:
        return DEFAULT_MAX_ENTRIES
    if not _is_decimal(env):
        raise ValueError(
            f"{_ENV_MAX_ENTRIES} must be a non-negative decimal integer, got {env!r}"
        )
    return int(env)


def require_materializable(what: str, entries: int) -> None:
    """Refuse a dense ``what`` of ``entries`` entries above the limit."""
    limit = max_entries_limit()
    if entries > limit:
        raise MaterializationLimitError(
            f"{what} has {entries} entries, limit is {limit}"
        )


class BoolMatrix:
    """An immutable 0/1 matrix with bit-packed rows.

    ``bits`` has shape ``(rows, ceil(cols/8))`` and dtype uint8; bit ``j`` of
    row ``i`` lives at ``bits[i, j >> 3] >> (j & 7)``.
    """

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: np.ndarray):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative dimensions {rows}x{cols}")
        nbytes = (cols + 7) // 8
        if bits.shape != (rows, nbytes) or bits.dtype != np.uint8:
            raise DimensionError(
                f"packed buffer shape {bits.shape} does not match {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        # a caller's buffer is copied; library builders pass theirs read-only
        if bits.flags.writeable:
            bits = bits.copy()
            bits.flags.writeable = False
        self.bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray | Sequence[Sequence[int]]) -> BoolMatrix:
        arr = np.asarray(dense, dtype=np.uint8)
        if arr.ndim != 2:
            raise DimensionError("dense input must be 2-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("entries must be 0 or 1")
        rows, cols = arr.shape
        packed = np.packbits(arr, axis=1, bitorder="little")
        if packed.shape[1] != (cols + 7) // 8:  # degenerate 0-column case
            packed = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)
        packed.flags.writeable = False
        return cls(rows, cols, packed)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BoolMatrix:
        bits = np.zeros((rows, (cols + 7) // 8), dtype=np.uint8)
        bits.flags.writeable = False
        return cls(rows, cols, bits)

    @classmethod
    def ones(cls, rows: int, cols: int) -> BoolMatrix:
        return cls.from_dense(np.ones((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> BoolMatrix:
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionError(f"index ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.bits[i, j >> 3] >> (j & 7)) & 1

    def to_dense(self) -> np.ndarray:
        if self.cols == 0:
            return np.zeros((self.rows, 0), dtype=np.uint8)
        return np.unpackbits(self.bits, axis=1, bitorder="little", count=self.cols)

    def count_ones(self) -> int:
        return int(np.bitwise_count(self.bits).sum())

    def is_zero(self) -> bool:
        return not self.bits.any()

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"BoolMatrix({self.rows}x{self.cols}, {self.count_ones()} ones)"


def boolean_sum(ms: Iterable[BoolMatrix]) -> BoolMatrix:
    """Entrywise OR of equally-sized matrices."""
    ms = list(ms)
    if not ms:
        raise DimensionError("boolean_sum of an empty list")
    first = ms[0]
    acc = first.bits.copy()
    for m in ms[1:]:
        if (m.rows, m.cols) != (first.rows, first.cols):
            raise DimensionError(
                f"dimension mismatch: {first.rows}x{first.cols} vs {m.rows}x{m.cols}"
            )
        np.bitwise_or(acc, m.bits, out=acc)
    acc.flags.writeable = False
    return BoolMatrix(first.rows, first.cols, acc)


def kronecker(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Kronecker product; block (i, j) equals ``a[i, j] * b``.

    Raises :class:`MaterializationLimitError` for results above the
    ``BOOLRANK_MAX_ENTRIES`` limit, so that callers fall back to lazy
    verification.  The result is read from :func:`_kron_reader` a block of
    ``_BLOCK_ENTRIES`` entries at a time, so no dense copy of it is built.
    """
    require_materializable("kronecker result", a.rows * b.rows * a.cols * b.cols)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    read = _kron_reader(a, b)
    bits = np.empty((rows, (cols + 7) // 8), dtype=np.uint8)
    block = _block_rows(cols)
    for row0 in range(0, rows, block):
        bits[row0:row0 + block] = read(row0, row0 + block)
    bits.flags.writeable = False
    return BoolMatrix(rows, cols, bits)


def _bits_reader(m: BoolMatrix) -> Reader:
    """The reader of a matrix: its rows are views of its bits."""
    bits = m.bits
    return lambda row0, row1: bits[row0:row1]


def _kron_reader(a: BoolMatrix, b: BoolMatrix) -> Reader:
    """The reader of ``a (x) b``, which holds the factors and not the product.

    Row ``x * b.rows + y`` is the outer product of row x of ``a`` and row y
    of ``b``.  A read unpacks the rows of ``a`` it spans, takes each of its
    rows' outer product with its row of ``b``, kept dense, and packs them, so
    it makes the dense rows it returns and no more, wherever it starts or
    ends in a block of ``b.rows`` rows.  The dense rows are written into one
    buffer, kept and grown only for a longer read, so a scan does not
    allocate them again; each read's packed rows are a new array.
    """
    rows, cols = a.rows * b.rows, a.cols * b.cols
    dense_b = b.to_dense()
    dense = np.empty((0, a.cols, b.cols), dtype=np.uint8)

    def read(row0: int, row1: int) -> np.ndarray:
        nonlocal dense
        r = np.arange(row0, max(row0, min(row1, rows)))
        if not r.size:
            return np.zeros((0, (cols + 7) // 8), dtype=np.uint8)
        if r.size > len(dense):
            dense = np.empty((r.size, a.cols, b.cols), dtype=np.uint8)
        x, y = np.divmod(r, b.rows)
        dense_a = np.unpackbits(
            a.bits[x[0]:x[-1] + 1], axis=1, bitorder="little", count=a.cols
        )
        outer = np.bitwise_and(
            dense_a[x - x[0], :, None], dense_b[y, None, :], out=dense[:r.size]
        )
        return np.packbits(outer.reshape(r.size, cols), axis=1, bitorder="little")
    return read


def _row_ints(m: BoolMatrix) -> list[int]:
    """Each row as a Python int with bit j set iff entry j is 1.

    ``bits`` is packed little-endian, so a row's bytes are already that int.
    """
    return [int.from_bytes(row.tobytes(), "little") for row in m.bits]


def _bit_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _ones(m: BoolMatrix) -> list[tuple[int, int]]:
    """The 1-entries (i, j) of ``m`` in row-major order."""
    return list(map(tuple, np.argwhere(m.to_dense()).tolist()))


# -- text formats -------------------------------------------------------------
#
# Apart from the matrix format, every format is made of blocks: a
# "TAG n1 n2 ..." header of non-negative decimal fields, whose last field
# counts the body lines that follow; the matrix's "rows cols" header follows
# the same field rule.  Only blank lines may follow the last block.  Lines
# end at "\n"; files are read with universal newlines.  Block text is parsed
# a line at a time, as :class:`_Lines` takes it from a file or a
# ``StringIO``, and written a line at a time.

def _universal_newlines(data: bytes | bytearray) -> bytes | bytearray:
    """``data`` with CRLF and lone CR turned into LF."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _is_decimal(field: str) -> bool:
    return field.isascii() and field.isdigit()


class _Lines:
    """The lines of a block-format text, taken one at a time.

    ``source`` holds the lines, such as an open text file or a
    ``StringIO(text, newline="\\n")``.  Each line keeps its newline, which
    every parser strips as whitespace.  ``lineno`` is the number of the last
    line taken.
    """

    def __init__(self, source: Iterable[str]):
        self._lines = iter(source)
        self.lineno = 0

    def __iter__(self) -> Iterator[str]:
        """The lines not taken yet."""
        return self._lines

    def take(self) -> str | None:
        """The next line, or None at the end of the text."""
        line = next(self._lines, None)
        if line is not None:
            self.lineno += 1
        return line

    def header(self, tag: str, fields: str) -> list[int]:
        """The fields of the ``tag`` header on the next line."""
        lineno = self.lineno + 1
        head = (self.take() or "").split()
        if len(head) != 1 + len(fields.split()) or head[0] != tag:
            raise FormatError(f"expected '{tag} {fields}'", line=lineno)
        if not all(map(_is_decimal, head[1:])):
            raise FormatError(
                f"{tag} header fields must be non-negative decimal integers", line=lineno
            )
        return [int(f) for f in head[1:]]

    def _body_line(self, tag: str, size: int) -> str:
        line = self.take()
        if line is None:
            raise FormatError(
                f"expected {size} lines after the {tag} header", line=self.lineno + 1
            )
        return line

    def skip(self, tag: str, size: int, count: int) -> None:
        """Take ``count`` more lines of a ``size``-line ``tag`` body, and
        raise the missing-lines error if the text ends first."""
        for _ in range(count):
            self._body_line(tag, size)

    def body(self, tag: str, size: int, parse: Callable[[str, int], T]) -> list[T]:
        """``parse(line, lineno)`` of each line of a ``size``-line ``tag``
        body.  A missing line outranks a bad one, so when ``parse`` raises,
        the rest of the body is taken before the error is passed on."""
        out = []
        for left in range(size - 1, -1, -1):
            line = self._body_line(tag, size)
            try:
                out.append(parse(line, self.lineno))
            except FormatError:
                self.skip(tag, size, left)
                raise
        return out

    def end(self, tag: str) -> None:
        """Allow only blank lines from here on."""
        while (line := self.take()) is not None:
            if line.strip():
                raise FormatError(f"trailing content after the {tag} block", line=self.lineno)


def _parse_block(
    lines: _Lines, tag: str, fields: str, parse: Callable[[str, int], T]
) -> tuple[list[int], list[T]]:
    """Header fields and parsed body lines of a text holding one ``tag``
    block.  Missing and trailing lines outrank a bad body line."""
    head = lines.header(tag, fields)
    try:
        body = lines.body(tag, head[-1], parse)
    except FormatError:
        lines.end(tag)
        raise
    lines.end(tag)
    return head, body


def _read_text(path: str, parse: Callable[[_Lines], T]) -> T:
    """``parse`` of the lines of the file at ``path``, read as UTF-8 with
    universal newlines, a line at a time."""
    with open(path, encoding="utf-8") as fh:
        return parse(_Lines(fh))


def _parse_index_list(token: str, lineno: int) -> np.ndarray:
    """Comma-separated decimal indices, in any order; "" is the empty list."""
    if not token:
        return np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(token.encode("ascii", "replace"), dtype=np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    widths = np.diff(np.concatenate(([-1], commas, [raw.size]))) - 1
    # at most 18 digits, so every index fits an int64
    if (
        ((raw - np.uint8(ord("0")) > 9) & (raw != ord(","))).any()
        or widths.min() < 1
        or widths.max() > 18
    ):
        raise FormatError(f"bad index list {token!r}", line=lineno)
    return np.fromstring(token, dtype=np.int64, sep=",")


def _format_index_list(idx: Iterable[int]) -> str:
    # a list comprehension joins faster than map(str, ...) or a generator
    return ",".join([str(i) for i in idx])


def _table_size(sides: Iterable[np.ndarray]) -> int:
    """Entries of a table of every value up to the largest index of the
    sorted, nonempty index arrays ``sides``, or 0 when the sides hold fewer
    indices than that: a huge index in a short list never sizes a table."""
    count, hi = 0, -1
    for side in sides:
        count += len(side)
        hi = max(hi, int(side[-1]))
    return hi + 1 if hi < count else 0


def _decimal_table(size: int) -> list[str]:
    """The decimal strings of 0 up to ``size`` - 1."""
    return [str(i) for i in range(size)]


def _index_writer(sides: Iterable[np.ndarray]) -> Callable[[list[int]], str]:
    """A formatter of lists of ints that takes one decimal string per value
    from a table shared by the index arrays ``sides``, when
    :func:`_table_size` allows one; otherwise :func:`_format_index_list`."""
    size = _table_size(sides)
    if not size:
        return _format_index_list
    table = _decimal_table(size)
    return lambda idx: ",".join([table[i] for i in idx])


def _block_rows(cols: int) -> int:
    """Rows of a ``cols``-wide block handled at once."""
    return max(1, _BLOCK_ENTRIES // max(1, cols))


def _text_chars() -> int:
    """Characters of matrix text read, parsed or written at once: an eighth
    of ``_BLOCK_ENTRIES``, so a text block costs no more than the packed
    rows it holds."""
    return max(1, _BLOCK_ENTRIES // 8)


def _grid_text(bits: np.ndarray, cols: int) -> str:
    """The text of packed rows: a ``(rows, cols + 1)`` grid of each row's
    digits and its newline."""
    grid = np.empty((len(bits), cols + 1), dtype=np.uint8)
    grid[:, cols] = ord("\n")
    np.add(np.unpackbits(bits, axis=1, bitorder="little", count=cols), ord("0"),
           out=grid[:, :cols])
    return str(grid, "ascii")


def reader_lines(rows: int, cols: int, read: Reader) -> Iterator[str]:
    """Matrix text format: ``rows cols`` then one 0/1 line per row.

    Yields the header line, then the text of each row block of about
    :func:`_text_chars` characters (at least one row), filled from the
    packed rows ``read`` gives.  Only the block being written is held, so a
    reader that makes its rows on demand writes a matrix that is never held.
    """
    yield f"{rows} {cols}\n"
    block = max(1, _text_chars() // (cols + 1))
    for row0 in range(0, rows, block):
        yield _grid_text(read(row0, row0 + block), cols)


def matrix_lines(m: BoolMatrix) -> Iterator[str]:
    """The lines of :func:`reader_lines` of a matrix's bits."""
    return reader_lines(m.rows, m.cols, _bits_reader(m))


def format_matrix(m: BoolMatrix) -> str:
    """The text of :func:`matrix_lines` as one string."""
    return "".join(matrix_lines(m))


def _file_pieces(fh, size: int) -> Iterator[bytearray]:
    """The bytes of a binary file with universal newlines: its first line
    (at most ``size`` bytes), then ``size`` bytes at a time, so a reader
    that sizes pieces to whole rows gets pieces that hold whole rows.  A
    piece of a regular file is no larger than what is left of it, but at
    least a byte, so a small file never sizes a buffer and a file that grows
    is still read to its end; a pipe's pieces are ``size`` bytes.  Each
    piece is a new, writable buffer, which the parser may overwrite.  A CR
    that ends a piece is carried into the next, which may start with its LF."""
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    cr = False  # the last piece ended in a CR, held back
    piece = bytearray(fh.readline(size))
    while piece:
        if cr:
            piece[:0] = b"\r"
        if cr := piece.endswith(b"\r"):
            del piece[-1]
        # handed on through a list, so this frame holds no reference to the
        # piece while it is parsed and used, nor while the next is read
        out = [_universal_newlines(piece)]
        del piece
        if out[0]:
            yield out.pop()
        left = os.fstat(fh.fileno()).st_size - fh.tell() if regular else size
        piece = bytearray(max(1, min(size, left)))
        del piece[fh.readinto(piece):]
    if cr:
        yield bytearray(b"\n")


def _newlines(buf: np.ndarray) -> np.ndarray:
    """The positions of the LFs in ``buf``, found a 64th of
    ``_BLOCK_ENTRIES`` bytes at a time, so no mask as large as ``buf`` is
    made."""
    step = max(1, _BLOCK_ENTRIES // 64)
    found = [np.flatnonzero(buf[lo:lo + step] == ord("\n")) + lo
             for lo in range(0, buf.size, step)]
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def _line_blocks(pieces: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Whole lines of a text given as byte pieces, a block at a time.

    Yields ``(buf, ends)``, where the lines of ``buf`` end at ``ends``, each
    at its newline.  The text's last line, which has none, comes alone and
    ends at the end of its block; it may be empty.  A line split across
    pieces is joined into a block of its own, and every other block is a
    view of its piece.
    """
    held: list[np.ndarray] = []  # the start of a line no piece has ended yet
    for piece in pieces:
        buf = np.frombuffer(piece, dtype=np.uint8)
        ends = _newlines(buf)
        if held and ends.size:
            cut = int(ends[0]) + 1
            line = np.concatenate([*held, buf[:cut]])
            yield line, np.array([line.size - 1])
            buf, ends, held = buf[cut:], ends[1:] - cut, []
        cut = int(ends[-1]) + 1 if ends.size else 0
        if cut < buf.size:
            held.append(buf[cut:].copy())
        # the block is handed on through a list, so that while the scan uses
        # what is parsed from it, no reference to its piece is left here
        block = [buf[:cut]] if ends.size else []
        del piece, buf
        if block:
            yield block.pop(), ends
    last = np.concatenate(held) if held else np.zeros(0, dtype=np.uint8)
    yield last, np.array([last.size])


def _matrix_header(header: bytes) -> tuple[int, int]:
    if not header.strip():
        raise FormatError("missing header", line=1)
    head = header.split()
    if len(head) != 2:
        raise FormatError("header must be 'rows cols'", line=1)
    if not all(map(_is_decimal, head)):
        raise FormatError("header fields must be non-negative decimal integers", line=1)
    return int(head[0]), int(head[1])


def _require_rows(blocks: Iterator, seen: int, rows: int) -> None:
    """Raise the missing-rows error unless the text has more than ``rows``
    lines; ``seen`` lines came before ``blocks``, which is read only as far
    as needed."""
    if seen <= rows:
        for _, ends in blocks:
            seen += ends.size
            if seen > rows:
                return
        raise FormatError(f"expected {rows} row lines", line=seen)


def _packed_grid(buf: np.ndarray, count: int, cols: int) -> np.ndarray | int:
    """The packed bits of ``count`` rows of ``cols`` characters and a
    newline each at the start of ``buf``, or the index of the first row
    with a character other than 0 and 1.  A writable ``buf`` is overwritten
    with the rows' digit values, so no copy of the text is made."""
    # the rows sit at a fixed stride
    writeable = buf.flags.writeable
    grid = np.lib.stride_tricks.as_strided(
        buf, shape=(count, cols), strides=(cols + 1, 1), writeable=writeable
    )
    digits = np.subtract(grid, np.uint8(ord("0")), out=grid if writeable else None)
    bad = np.flatnonzero(digits.max(axis=1, initial=0) > 1)
    if bad.size:
        return int(bad[0])
    return np.packbits(digits, axis=1, bitorder="little")


def _with_rows(
    bits: np.ndarray | None, filled: int, packed: np.ndarray, rows: int
) -> np.ndarray:
    """``bits`` with the ``packed`` rows written from row ``filled`` on.

    The array is doubled when it is too short, up to the header's ``rows``,
    so it grows with the rows read and a header alone sizes nothing.
    """
    if bits is None:
        return packed
    stop = filled + len(packed)
    if stop > len(bits):
        bits.resize((min(rows, max(stop, 2 * len(bits))), bits.shape[1]), refcheck=False)
    bits[filled:stop] = packed
    return bits


def _matrix_blocks(pieces: Iterable) -> tuple[int, int, Iterator[np.ndarray]]:
    """The header's rows and cols of a matrix text given as byte pieces,
    and its rows as validated packed blocks, one per block of whole lines
    (:func:`_line_blocks`); see :func:`parse_matrix`.

    Only the header is parsed here.  A block is checked as a whole before
    it is yielded, and a bad line raises the ``FormatError`` a line-by-line
    reader would, a missing row outranking a bad one.  The checks for
    missing rows and trailing content follow the last block, so the text is
    valid only once every block is taken.
    """
    blocks = _row_blocks(_line_blocks(pieces))
    rows, cols = next(blocks)
    return rows, cols, blocks


def _row_blocks(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> Iterator:
    """The header's (rows, cols), then the packed rows of each line block."""
    line = 0  # the text line the block starts on; 0 is the header
    for buf, ends in blocks:
        starts = np.concatenate(([0], ends[:-1] + 1))
        lengths = ends - starts
        first = 0
        if not line:
            rows, cols = _matrix_header(buf[:ends[0]].tobytes())
            yield rows, cols
            first = 1
        # the block's lines first..body-1 are rows; later ones are trailing
        body = max(first, min(ends.size, rows + 1 - line))
        short_or_long = np.flatnonzero(lengths[first:body] != cols)
        regular = first + int(short_or_long[0]) if short_or_long.size else body
        if regular > first:
            packed = _packed_grid(buf[starts[first]:], regular - first, cols)
            if isinstance(packed, int):
                regular = first + packed
        if regular < body:
            # a missing row outranks a bad one
            _require_rows(blocks, line + ends.size, rows)
            raise FormatError(
                f"row must be exactly {cols} characters of 0/1", line=line + regular + 1
            )
        trailing = np.flatnonzero(lengths[body:])
        if trailing.size:
            raise FormatError(
                "trailing content after matrix", line=line + body + int(trailing[0]) + 1
            )
        line += ends.size
        del buf  # its piece is not held while the next is read
        if body > first:
            yield packed
    _require_rows(blocks, line, rows)


def _parse_matrix(pieces: Iterable) -> BoolMatrix:
    """The matrix of a text given as byte pieces: the blocks of
    :func:`_matrix_blocks`, written into one array."""
    rows, cols, blocks = _matrix_blocks(pieces)
    bits, filled = None, 0  # the packed rows, and how many are read
    for packed in blocks:
        bits = _with_rows(bits, filled, packed, rows)
        filled += len(packed)
    if not rows:
        return BoolMatrix.zeros(0, cols)
    bits.flags.writeable = False
    return BoolMatrix(rows, cols, bits)


def parse_matrix(text: str | bytes) -> BoolMatrix:
    """Inverse of :func:`format_matrix`; lines are split on ``\\n`` only.

    ``text`` may also be bytes.  It is parsed :func:`_text_chars`
    characters at a time by the parser :func:`read_matrix` uses: bytes as
    views, and a str as ASCII with "?" for anything else, so no non-ASCII
    character passes as 0/1.  Each block's rows are checked as one byte
    grid and packed into one array, which grows with the rows read, and
    every error names the line a line-by-line reader would.
    """
    step = _text_chars()
    if isinstance(text, str):
        pieces = (text[lo:lo + step].encode("ascii", "replace")
                  for lo in range(0, len(text), step))
    else:
        view = memoryview(text)
        pieces = (view[lo:lo + step] for lo in range(0, len(view), step))
    return _parse_matrix(pieces)


def write_matrix(path: str, m: BoolMatrix) -> None:
    with open(path, "w") as fh:
        fh.writelines(matrix_lines(m))


def read_matrix(path: str) -> BoolMatrix:
    """The matrix in the file at ``path``, read a block at a time with
    universal newlines; see :func:`parse_matrix`."""
    with open(path, "rb") as fh:
        return _parse_matrix(_file_pieces(fh, _text_chars()))
