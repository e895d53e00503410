"""Rectangle covers: certificates, verification, and Kronecker composition.

A :class:`Cover` lists all-ones rectangles whose union must equal the
support of a target matrix.  Covers of two factors compose into a cover
of their Kronecker product; the composition hypotheses can be
verified *lazily* (without materializing the product), which is what
makes crown-matrix instances with ~5e7-square products checkable.  Each
factor's entries are grouped into classes, the sets of matrices (the
factor and its family's members) with a 1 there, and the hypotheses are
decided from the two sets of classes alone: a class of the first factor's
1-entries selects n-members, and those sum to the second factor exactly
when they agree with the factor bit of every class of its entries.  The
classes come straight from the packed bits, by splitting block masks
matrix by matrix for small families and from bit-transposed signatures
for larger ones, so no dense Boolean sum is built on the success path.

Every-q covering of a family is decided in one pass over its members with
saturating bit counters, so it is always exhaustive, however many
q-subsets there are.

The verifiers read a family's members a scan block at a time, about
64 KiB of packed bytes (:func:`_scan_rows`), straight from its
decompositions, and drop each block once it is used, so no whole member is
built or held; :attr:`MatrixFamily.members` is for callers that want the
members whole.  All rows are read through one reader per matrix or cover,
made once per scan (:func:`_row_reader`): a cover's rectangles are taken in
groups, each with a uint8 code per row and an OR table no larger than a
block (:func:`_row_groups`), so a block of its sum is one gather per group.
A verifier's target is read the same way (:func:`_reading`), and need not
be held whole: besides a :class:`BoolMatrix` it may be any
:class:`RowSource`, such as a matrix file parsed a scan block at a time
(:class:`MatrixFile`) or crown(n) made on demand
(:class:`~boolrank.crown.CrownTarget`).

Every failed verification reports the first failing entry in row-major
order (or the lexicographically first failing subset), so tests and CLI
output are deterministic.

Rectangle sides are read-only numpy index arrays, each of the narrowest
dtype of uint16, uint32 and int64 that holds its last (largest) index
(:func:`_side`), so an index below 65536 costs 2 bytes.  Arithmetic on a
side widens it to int64 first.  :attr:`Rectangle.row_set` and
:attr:`Rectangle.col_set` are tuple views of the sides, made on each
access, for callers that want Python ints; the writers take ``tolist()``
once per side instead, and write from one decimal string per distinct
index (see :mod:`boolrank.boolmat`).
"""

from __future__ import annotations

import io
import math
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    Reader,
    _bits_reader,
    _block_rows,
    _format_index_list,
    _index_writer,
    _file_pieces,
    _Lines,
    _matrix_blocks,
    _parse_block,
    _parse_index_list,
    _read_text,
    _text_chars,
    require_materializable,
)
from .errors import (
    DimensionError,
    FormatError,
    VerificationError,
)


def _side(name: str, idx: Sequence[int] | np.ndarray) -> np.ndarray:
    """A rectangle side as a narrow read-only index array (see the module
    docstring).

    ``idx`` is any sequence of ints or an index array, which is copied into
    an int64 array and checked by array compares; an int at or past 2^63
    raises ``OverflowError``.  A side that is empty, or not sorted, distinct
    and 0-based, raises ``ValueError``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if not idx.size:
        raise ValueError(f"rectangle {name} must be nonempty")
    if idx[0] < 0 or np.count_nonzero(idx[1:] <= idx[:-1]):
        raise ValueError(f"rectangle {name} must be sorted distinct >= 0")
    top = int(idx[-1])
    side = idx.astype(np.uint16 if top < 1 << 16 else np.uint32 if top < 1 << 32 else np.int64)
    side.flags.writeable = False
    return side


@dataclass(frozen=True, eq=False)
class Rectangle:
    """A rank-1 cover element: (row indices) x (column indices).

    Each side is nonempty, sorted, distinct and 0-based; the constructor
    takes any two index sequences or arrays, checks them, and keeps each as
    a narrow read-only array (:func:`_side`).  Equality and hash are those
    of the sides' values, whatever their dtypes, and the hash is that of
    the pair of tuple views.
    """

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _side("row_set", self.rows))
        object.__setattr__(self, "cols", _side("col_set", self.cols))

    @property
    def row_set(self) -> tuple[int, ...]:
        """The rows as a tuple of ints, made on each access."""
        return tuple(self.rows.tolist())

    @property
    def col_set(self) -> tuple[int, ...]:
        """The columns as a tuple of ints, made on each access."""
        return tuple(self.cols.tolist())

    @property
    def area(self) -> int:
        return self.rows.size * self.cols.size

    @cached_property
    def _col_mask(self) -> np.ndarray:
        """Packed bits (little order) of the columns, up to the last one's
        byte; kept, since every row block of a cover reads it."""
        return _index_mask(self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        return self is other or (
            np.array_equal(self.rows, other.rows) and np.array_equal(self.cols, other.cols)
        )

    def __hash__(self) -> int:
        return hash((self.row_set, self.col_set))


def _index_mask(idx: np.ndarray) -> np.ndarray:
    """Packed bits (little order) of sorted indices, up to the last one's byte."""
    ind = np.zeros(int(idx[-1]) + 1, dtype=np.uint8)  # int: a narrow dtype would wrap
    ind[idx] = 1
    return np.packbits(ind, bitorder="little")


@dataclass(frozen=True)
class Cover:
    """An ordered list of rectangles certifying a cover of a rows x cols target."""

    rows: int
    cols: int
    rects: tuple[Rectangle, ...]

    def __post_init__(self):
        for r in self.rects:
            if int(r.rows[-1]) >= self.rows or int(r.cols[-1]) >= self.cols:
                raise DimensionError(
                    f"rectangle index out of range for {self.rows}x{self.cols}"
                )

    @property
    def size(self) -> int:
        return len(self.rects)


def _scan_rows(cols: int) -> int:
    """Rows of the blocks in which verifiers read member rows: about 64 KiB
    of packed bytes (a 64th of ``_BLOCK_ENTRIES``), so they stay in cache."""
    return _block_rows(64 * ((cols + 7) // 8))


def _row_groups(c: Cover) -> list[tuple[np.ndarray, np.ndarray]]:
    """(code, table) per group of the cover's rectangles, g at a time.

    Bit r of a row's uint8 code is set iff rectangle r of the group holds
    the row, and row x of the 2^g-row table is the OR of the column masks
    of the rectangles whose bits x sets, so ``table[code]`` is the group's
    sum.  g is the largest number, at most 8 and at least 1, with 2^g rows
    in one scan block (:func:`_scan_rows`): a table takes at most one
    block, or two rows (twice the column mask its one rectangle caches)
    when a row alone is past a block.  A cover with no rectangle has one
    group of code 0 and one zero row.
    """
    nbytes = (c.cols + 7) // 8
    g = min(8, max(1, _scan_rows(c.cols).bit_length() - 1))
    if not c.rects:
        return [(np.zeros(c.rows, dtype=np.uint8), np.zeros((1, nbytes), dtype=np.uint8))]
    groups = []
    for k in range(0, c.size, g):
        group = c.rects[k:k + g]
        code = np.zeros(c.rows, dtype=np.uint8)
        table = np.zeros((1 << len(group), nbytes), dtype=np.uint8)
        for r, rect in enumerate(group):
            code[rect.rows] |= np.uint8(1 << r)
            mask = rect._col_mask
            table[1 << r:2 << r] = table[:1 << r]
            table[1 << r:2 << r, :mask.size] |= mask
        groups.append((code, table))
    return groups


class RowSource(Protocol):
    """A verifier target that is not held as a :class:`BoolMatrix`: a
    matrix file (:class:`MatrixFile`) or a matrix made on demand, such as
    :class:`~boolrank.crown.CrownTarget`.  ``reader()`` gives the reader of
    one scan, as a context manager; its rows are read-only and valid until
    its next read.  Like a matrix, it counts its 1-entries."""

    rows: int
    cols: int

    def reader(self) -> AbstractContextManager[Reader]: ...

    def count_ones(self) -> int: ...


def _row_reader(m: BoolMatrix | Cover) -> Reader:
    """The reader of a matrix, or of a cover's Boolean sum.

    A matrix's rows are a view of its bits.  A cover's are a new array, the
    caller's: its groups' codes and tables (:func:`_row_groups`) are made
    once, here, so a read is one gather per group, ``table[code[row0:row1]]``,
    OR'd over the groups.  Make one reader per scan and drop it after; a
    scan that may read a :class:`RowSource` target takes its readers from
    :func:`_reading`.
    """
    if isinstance(m, BoolMatrix):
        return _bits_reader(m)
    (first_code, first_table), *rest = _row_groups(m)

    def read(row0: int, row1: int) -> np.ndarray:
        rows = first_table[first_code[row0:row1]]
        for code, table in rest:
            rows |= table[code[row0:row1]]
        return rows
    return read


@contextmanager
def _reading(
    sources: Iterable[BoolMatrix | Cover | RowSource],
) -> Iterator[list[Reader]]:
    """One reader per matrix, cover or target, for one scan.

    A matrix or a cover gets its :func:`_row_reader`, and a
    :class:`RowSource` its own ``reader()``, entered here: a matrix file's
    is parsed to the end of the file when the scan ends, even a scan that
    stops early, so a malformed file raises before any verdict, and its
    file is closed on every path.
    """
    with ExitStack() as stack:
        yield [
            _row_reader(m) if isinstance(m, (BoolMatrix, Cover))
            else stack.enter_context(m.reader())
            for m in sources
        ]


def _forward_reader(blocks: Iterator[np.ndarray], rows: int, cols: int) -> Reader:
    """The reader of ``rows`` rows given as consecutive packed blocks, for
    one forward scan: a read may not start before the last one did, and the
    rows it passes are dropped.  A read that is one whole block is that
    block, so no row is copied; any other joins the blocks it spans.
    """
    held = np.zeros((0, (cols + 7) // 8), dtype=np.uint8)  # rows from start on
    start = 0

    def read(row0: int, row1: int) -> np.ndarray:
        nonlocal held, start
        if row0 < start:
            raise RuntimeError("a matrix file is read forward only")
        row1 = min(row1, rows)
        if row1 <= row0:
            return held[:0]
        parts, end = [held[row0 - start:]], start + len(held)
        while end < row1:
            block = next(blocks)
            parts.append(block[max(0, row0 - end):])
            end += len(block)
        parts = [part for part in parts if len(part)]
        held = parts[0] if len(parts) == 1 else np.concatenate(parts)
        held.flags.writeable = False
        start = row0
        return held[:row1 - row0]
    return read


class MatrixFile:
    """A matrix text file as a verifier target (a :class:`RowSource`).

    Making one reads the header alone.  Each scan reads the file from its
    start, in pieces of whole scan blocks of text, through the one matrix
    parser (:func:`~boolrank.boolmat._matrix_blocks`), so the scan holds
    about one block of the matrix, never all of it.  The scan parses the
    rest of the file when it ends (:func:`_reading`), so every scan checks
    the whole file.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as fh:
            self.rows, self.cols, _ = _matrix_blocks(_file_pieces(fh, _text_chars()))

    @contextmanager
    def reader(self) -> Iterator[Reader]:
        # a scan block's text when it fits two text blocks, so a header
        # alone never sizes a read
        size = min(_scan_rows(self.cols) * (self.cols + 1), 2 * _text_chars())
        with open(self.path, "rb") as fh:
            rows, cols, blocks = _matrix_blocks(_file_pieces(fh, size))
            if (rows, cols) != (self.rows, self.cols):
                raise FormatError("matrix header changed since it was read", line=1)
            yield _forward_reader(blocks, rows, cols)
            for _ in blocks:  # the rows the scan did not read are checked too
                pass

    def count_ones(self) -> int:
        """The matrix's 1-entries, counted in one scan."""
        block, count = _scan_rows(self.cols), 0
        with _reading([self]) as (read,):
            for row0 in range(0, self.rows, block):
                count += int(np.bitwise_count(read(row0, row0 + block)).sum())
        return count


def cover_matrix(c: Cover) -> BoolMatrix:
    """Boolean sum of the cover's rectangles, read from its row codes."""
    bits = _row_reader(c)(0, c.rows)
    bits.flags.writeable = False
    return BoolMatrix(c.rows, c.cols, bits)


@dataclass(frozen=True)
class MatrixFamily:
    """Equally sized matrices, held as their rank-1 decompositions only.

    A member is derived: it is the Boolean sum of its decomposition's
    rectangles.  :attr:`members` builds them all on first use and keeps
    them, for callers that want whole members; the verifiers never read it
    and build member rows a block at a time from the decompositions
    instead.  Length, dimensions and ranks are read from the
    decompositions, so they build no member.
    """

    decompositions: tuple[Cover, ...]

    def __post_init__(self):
        if not self.decompositions:
            raise DimensionError("family must be nonempty")
        if not all(isinstance(d, Cover) for d in self.decompositions):
            raise TypeError("family members must be given as covers")
        if any((d.rows, d.cols) != self.dims for d in self.decompositions):
            raise DimensionError("family members must share dimensions")

    def __len__(self) -> int:
        return len(self.decompositions)

    @property
    def dims(self) -> tuple[int, int]:
        return self.decompositions[0].rows, self.decompositions[0].cols

    @cached_property
    def members(self) -> tuple[BoolMatrix, ...]:
        return tuple(map(cover_matrix, self.decompositions))

    def ranks(self) -> tuple[int, ...]:
        """Decomposition sizes (upper bounds on the members' Boolean ranks)."""
        return tuple(d.size for d in self.decompositions)


def _union(fam: MatrixFamily) -> Cover:
    """Every rectangle of every decomposition: its sum is the members' sum."""
    return Cover(*fam.dims, tuple(r for d in fam.decompositions for r in d.rects))


@dataclass(frozen=True)
class KronCoverDescription:
    """A composed cover of a Kronecker product, held in factored form.

    The cover's rectangles are the products of the t-th decompositions of
    the two families, t-major.  They are generated on demand rather than
    stored, since at gap-witness scale a single rectangle can have ~10^7
    rows.  A description certifies a cover only once the composition
    hypotheses hold for its families (:func:`verify_kron_hypotheses`).
    """

    m_family: MatrixFamily
    n_family: MatrixFamily

    def __post_init__(self):
        if len(self.m_family) != len(self.n_family):
            raise DimensionError("families must have equal length")

    @property
    def size(self) -> int:
        return sum(
            dm.size * dn.size
            for dm, dn in zip(self.m_family.decompositions, self.n_family.decompositions)
        )

    @property
    def indices(self) -> int:
        """The row and column indices in the cover's text: the product of
        rm and rn has |rm| |rn| rows and likewise columns."""
        count = 0
        for dm, dn in zip(self.m_family.decompositions, self.n_family.decompositions):
            (rows_m, cols_m), (rows_n, cols_n) = _side_lengths(dm), _side_lengths(dn)
            count += rows_m * rows_n + cols_m * cols_n
        return count

    @property
    def target_dims(self) -> tuple[int, int]:
        (ra, ca), (rb, cb) = self.m_family.dims, self.n_family.dims
        return ra * rb, ca * cb

    def iter_rectangles(self) -> Iterator[Rectangle]:
        """All products of the t-th decompositions' rectangles, t-major.

        The product of rm and rn has rows ``i * rows_b + i'`` for i in rm and
        i' in rn, and likewise columns, where rows_b x cols_b are n_family's
        dims.  The m-side is widened to int64 before it is scaled, and the
        n-side's narrow dtype promotes to int64 in the sum, so no product
        index wraps.
        """
        rb, cb = self.n_family.dims
        for dm, dn in zip(self.m_family.decompositions, self.n_family.decompositions):
            for rm in dm.rects:
                row_a = rm.rows.astype(np.int64)[:, None] * rb
                col_a = rm.cols.astype(np.int64)[:, None] * cb
                for rn in dn.rects:
                    yield Rectangle((row_a + rn.rows).ravel(), (col_a + rn.cols).ravel())

    def to_cover(self) -> Cover:
        """The rectangles themselves, refused (``MaterializationLimitError``)
        when their :attr:`indices` are above the ``BOOLRANK_MAX_ENTRIES``
        limit."""
        require_materializable("product cover", self.indices)
        return Cover(*self.target_dims, tuple(self.iter_rectangles()))


# -- results ----------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a verification; falsy iff it failed.

    ``witness`` is the first failing entry (i, j) in row-major order.
    """

    ok: bool
    witness: tuple[int, int] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SubsetCheckResult:
    """Outcome of a q-out-of-s covering check.

    The check decides every q-subset.  ``witness`` is the lexicographically
    first failing subset (member indices), and ``checked`` counts the
    subsets up to and including it in lexicographic order, or all C(s, q)
    of them when none fails.
    """

    ok: bool
    checked: int
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _first_set_bit(diff: np.ndarray, cols: int) -> tuple[int, int]:
    """Row-major position of the first set bit in a packed 2-D buffer."""
    rows_nz = np.nonzero(diff.any(axis=1))[0]
    i = int(rows_nz[0])
    byte_idx = int(np.nonzero(diff[i])[0][0])
    byte = int(diff[i, byte_idx])
    j = byte_idx * 8 + (byte & -byte).bit_length() - 1
    if j >= cols:  # cannot happen with zeroed padding; guard anyway
        raise AssertionError("set bit in padding")
    return i, j


def _first_difference(
    a: BoolMatrix | RowSource, c: Cover
) -> tuple[int, int, bool] | None:
    """First entry (i, j) in row-major order where ``a`` and the cover's sum
    differ, and whether ``a`` has a 1 there.

    Both are read (:func:`_reading`) and compared a scan block at a time,
    and the scan stops at the first block that differs.
    """
    block = _scan_rows(a.cols)
    with _reading([a, c]) as (target, read):
        for row0 in range(0, a.rows, block):
            ones = target(row0, row0 + block)
            diff = read(row0, row0 + block)
            diff ^= ones
            if diff.any():
                i, j = _first_set_bit(diff, a.cols)
                return row0 + i, j, bool(ones[i, j >> 3] >> (j & 7) & 1)
    return None


def verify_cover(a: BoolMatrix | RowSource, c: Cover) -> VerifyResult:
    """Check that the rectangles are all-ones in ``a`` and cover its support."""
    if (a.rows, a.cols) != (c.rows, c.cols):
        raise DimensionError(
            f"cover is {c.rows}x{c.cols}, target is {a.rows}x{a.cols}"
        )
    found = _first_difference(a, c)
    if found is None:
        return VerifyResult(True)
    i, j, one = found
    reason = "uncovered one entry" if one else "rectangle covers a zero entry"
    return VerifyResult(False, (i, j), reason)


# -- lazy hypothesis verification --------------------------------------------

def _signature_dtype(s: int) -> np.dtype:
    """Narrowest unsigned type with one bit per matrix (bytes as void past 64)."""
    for nbytes in (1, 2, 4, 8):
        if s <= 8 * nbytes:
            return np.dtype(f"<u{nbytes}")
    return np.dtype((np.void, -(-s // 8)))


#: Delta swaps, as (shift, mask), that transpose the 8x8 bit matrix held in
#: a little-endian uint64 whose byte t is row t.
_TRANSPOSE_8X8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0))
)


def _signature_blocks(
    matrices: Sequence[BoolMatrix | Cover | RowSource],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row0, signatures) per row block of the matrices' common shape.

    A matrix may be given as a cover, whose Boolean sum it is, or as a
    :class:`RowSource`.  ``signatures`` has shape (block_rows, 8 * packed
    bytes per row): bit t of an entry's signature marks that matrix t has a
    1 there, and the padding entries past the last column have signature 0.
    Signatures are transposed straight from the packed bits, eight matrices
    at a time: the t-th bytes of eight matrices form an 8x8 bit matrix, and
    its transpose holds one signature byte per entry.  Each matrix's rows of
    the scan block (:func:`_scan_rows`) are read when its group of eight is
    transposed, from one reader per matrix (:func:`_reading`).  The dtype
    is the narrowest holding s bits; past 64 matrices a signature is its bytes
    viewed as one void scalar, so it still compares as one value.
    """
    s = len(matrices)
    rows, cols = matrices[0].rows, matrices[0].cols
    nbytes = (cols + 7) // 8
    dtype, block = _signature_dtype(s), _scan_rows(cols)
    with _reading(matrices) as readers:
        for row0 in range(0, rows, block):
            stop = min(rows, row0 + block)
            size = (stop - row0) * nbytes
            sig = np.zeros((size * 8, dtype.itemsize), dtype=np.uint8)
            for k in range(0, s, 8):
                words = np.zeros((size, 8), dtype=np.uint8)
                for t, read in enumerate(readers[k:k + 8]):
                    words[:, t] = read(row0, stop).ravel()
                w = words.view("<u8")
                for shift, mask in _TRANSPOSE_8X8:
                    swap = (w ^ (w >> shift)) & mask
                    w ^= swap ^ (swap << shift)
                sig[:, k // 8] = words.ravel()
            yield row0, sig.view(dtype).reshape(stop - row0, 8 * nbytes)


def _signature_int(key: np.generic) -> int:
    """A signature as a Python int: bit t set iff matrix t has a 1 there."""
    return int.from_bytes(key.tobytes(), "little")


def _split_classes(matrices: Sequence[BoolMatrix | Cover | RowSource]) -> set[int]:
    """:func:`_classes`, split straight from the packed bits.

    A scan block (:func:`_scan_rows`, about 64 KiB of packed bytes) starts
    as one live mask of all its bits.  Matrix t splits every live mask into
    the bits it has (class bit t set) and the bits it lacks, and empty
    halves are dropped; after the last matrix each live mask holds the
    entries of one class.  Padding bits are 0 in every matrix, so they only
    reach class 0.  The masks stay in cache while they are split, and a
    mask that is dropped is reused rather than freed, so splitting
    allocates almost nothing.  Matrix t's rows of the block are read
    (:func:`_reading`) just before it splits, so one block of one matrix
    is held at a time.
    """
    rows, nbytes = matrices[0].rows, (matrices[0].cols + 7) // 8
    classes: set[int] = set()
    spare: list[np.ndarray] = []
    block = _scan_rows(matrices[0].cols)
    with _reading(matrices) as readers:
        # a matrix of no columns has no class, but a file of one is still read
        for row0 in range(0, rows if nbytes else 0, block):
            size = (min(rows, row0 + block) - row0) * nbytes
            if spare and spare[0].size != size:  # the last, shorter block
                spare.clear()
            mask = spare.pop() if spare else np.empty(size, dtype=np.uint8)
            mask.fill(0xFF)
            live = [(0, mask)]
            for t, read in enumerate(readers):
                bits = read(row0, row0 + block).ravel()
                split = []
                for cls, mask in live:
                    hit = np.bitwise_and(mask, bits, out=spare.pop() if spare else None)
                    if not hit.max():  # max, not any: a third of the time
                        spare.append(hit)
                        split.append((cls, mask))
                        continue
                    split.append((cls | 1 << t, hit))
                    mask ^= hit
                    if mask.max():
                        split.append((cls, mask))
                    else:
                        spare.append(mask)
                live = split
            classes.update(cls for cls, _ in live)
            spare.extend(mask for _, mask in live)
    return classes


def _classes(matrices: Sequence[BoolMatrix | Cover | RowSource]) -> set[int]:
    """Distinct classes over all entries: bit t set iff matrix t has a 1 there.

    A matrix may be given as a cover, whose Boolean sum it is, or as a
    :class:`RowSource`, which every scan reads through to its end.

    Up to 9 matrices the classes are split from the packed bits.  A split
    costs a pass per live class, so it wins while classes are few, as they
    are for families that cover a matrix, but with every class present it
    takes 3 to 4 times as long as a scan at 8 or 9 matrices and doubles
    with each further one.  Past 9 the entries' signatures are marked in a
    table of all 2^s of them, at most 1 MiB, or hashed past 20 matrices.
    """
    s = len(matrices)
    if s <= 9:
        return _split_classes(matrices)
    if s <= 20:
        # mark the (at most 2^20) possible signatures: no sorting or counting
        marked = np.zeros(1 << s, dtype=bool)
        for _, sig in _signature_blocks(matrices):
            marked[sig.ravel()] = True
        return set(np.flatnonzero(marked).tolist())
    seen: set[int] = set()
    for _, sig in _signature_blocks(matrices):
        seen.update(_signature_int(key) for key in np.unique(sig))
    return seen


def _failing_signatures(p: set[int], q: set[int], s: int) -> list[int]:
    """Member signatures of a's 1-entries whose n-members do not sum to b.

    ``p`` and ``q`` are the classes of ``a`` with the m-members and of
    ``b`` with the n-members, for families of size s: bit 0 marks the
    factor and bit t + 1 member t.  An entry of ``b`` in class T is covered
    by the n-members of a signature S iff S meets T's members, so S fails
    iff it meets the members of a class of b's 0-entries or misses all
    members of a class of its 1-entries.
    """
    on_zero = 0  # n-members covering some 0 of b
    on_one = set()  # the n-members of each class of b's 1-entries
    for cls in q:
        if cls & 1:
            on_one.add(cls >> 1)
        else:
            on_zero |= cls >> 1
    ones = sorted(cls >> 1 for cls in p if cls & 1)
    if s > 64:
        return [x for x in ones if x & on_zero or not all(x & t for t in on_one)]
    # one array op per signature, however many classes b has
    needs = np.fromiter(on_one, dtype=np.uint64, count=len(on_one))
    return [x for x in ones if x & on_zero or not (needs & np.uint64(x)).all()]


def verify_kron_hypotheses(
    a: BoolMatrix | RowSource,
    m_fam: MatrixFamily,
    b: BoolMatrix | RowSource,
    n_fam: MatrixFamily,
) -> VerifyResult:
    """Verify the composition hypotheses for covering ``a (x) b``.

    True iff ``m_fam`` covers ``a`` and, for every (i, j) with a[i, j] = 1,
    the members of ``n_fam`` positionally matching the m-members that cover
    (i, j) form a cover of ``b``.  This certifies the composed cover of the
    product without materializing it.

    Both sides are reduced to their classes (:func:`_classes`): P of
    ``a`` and the m-members, Q of ``b`` and the n-members, where bit 0
    marks the factor; the members' rows are built from the decompositions.
    The m-family sums to ``a`` iff in every class of P the a-bit is set
    exactly when some member bit is.  The n-members that a signature S
    selects sum to ``b`` iff every class T of Q has
    ``bool(S & T's members) == T's b-bit``, since that is their sum at the
    entries of class T (:func:`_failing_signatures`).  This is the dense
    check ``boolean_sum(selected n-members) != b``, decided without
    building a sum.  Q is P when both sides are the same matrix and family
    (the same object, for a :class:`RowSource`), so its scan is not repeated.
    """
    if len(m_fam) != len(n_fam):
        raise DimensionError("families must have equal length")
    if m_fam.dims != (a.rows, a.cols):
        raise DimensionError("m-family dimensions do not match the first factor")
    if n_fam.dims != (b.rows, b.cols):
        raise DimensionError("n-family dimensions do not match the second factor")

    p = _classes([a, *m_fam.decompositions])
    if any(bool(cls & 1) != (cls > 1) for cls in p):
        return VerifyResult(
            False,
            _first_difference(a, _union(m_fam))[:2],
            "m-family does not cover the first factor",
        )

    q = p if (b, n_fam) == (a, m_fam) else _classes([b, *n_fam.decompositions])
    failing = _failing_signatures(p, q, len(m_fam))
    if not failing:
        return VerifyResult(True)

    dtype = _signature_dtype(len(m_fam))
    keys = np.frombuffer(
        b"".join(f.to_bytes(dtype.itemsize, "little") for f in failing), dtype=dtype
    )
    for row0, sig in _signature_blocks(m_fam.decompositions):
        # the 0-entries of a carry signature 0, which is never failing
        hits = np.flatnonzero(np.isin(sig[:, :a.cols], keys))
        if hits.size:
            i, j = divmod(int(hits[0]), a.cols)
            return VerifyResult(
                False,
                (row0 + i, j),
                "selected n-members do not cover the second factor",
            )
    raise AssertionError("failing signature disappeared on rescan")


def compose_kron_cover(m_fam: MatrixFamily, n_fam: MatrixFamily) -> Cover:
    """Build the product cover out of two families with decompositions.

    The families must satisfy the composition hypotheses for the matrices
    they cover (the Boolean sums of the families); rectangles are emitted
    as all products of the t-th decompositions, t-major.
    """
    return compose_kron_description(m_fam, n_fam).to_cover()


def compose_kron_description(
    m_fam: MatrixFamily, n_fam: MatrixFamily
) -> KronCoverDescription:
    """The product cover of :func:`compose_kron_cover`, in factored form.

    The composition hypotheses are checked for the matrices the families
    cover (their Boolean sums); a :class:`VerificationError` is raised
    when they fail.
    """
    description = KronCoverDescription(m_fam, n_fam)
    a = cover_matrix(_union(m_fam))
    b = cover_matrix(_union(n_fam))
    res = verify_kron_hypotheses(a, m_fam, b, n_fam)
    if not res:
        raise VerificationError(
            f"composition hypotheses fail at entry {res.witness}: {res.reason}",
            witness=res.witness,
        )
    return description


def best_triple_pairing(
    m_fam: MatrixFamily, n_fam: MatrixFamily
) -> tuple[MatrixFamily, int]:
    """Reorder a length-3 n-family to minimize the composed-cover size.

    Enumerates the six pairings and returns the reordered family together
    with the achieved bound a1*b1 + a2*b2 + a3*b3; ties break on the
    lexicographically smallest permutation.  Families are never reordered
    implicitly anywhere else.
    """
    if len(m_fam) != 3 or len(n_fam) != 3:
        raise DimensionError("pairing helper requires two length-3 families")
    a_sizes = m_fam.ranks()
    b_sizes = n_fam.ranks()
    best_perm = min(
        permutations(range(3)),
        key=lambda p: (sum(a_sizes[t] * b_sizes[p[t]] for t in range(3)), p),
    )
    bound = sum(a_sizes[t] * b_sizes[best_perm[t]] for t in range(3))
    reordered = MatrixFamily(tuple(n_fam.decompositions[p] for p in best_perm))
    return reordered, bound


# -- q-out-of-s covering ------------------------------------------------------

def check_q_covering(
    a: BoolMatrix | RowSource, fam: MatrixFamily, q: int
) -> SubsetCheckResult:
    """Check that every q-subset of the family sums to ``a``.

    That holds exactly when every member is dominated by ``a`` and no
    1-entry of ``a`` is missed by q or more members.  Both are decided in
    one pass over the members, a scan block (:func:`_scan_rows`, about
    64 KiB of packed bytes) at a time: each member's rows of the block are
    read from its decomposition (:func:`_reading`) and XORed with ``a``'s,
    which marks the 1-entries it misses and the 0-entries it covers, and q
    saturating bit counters record, per entry, whether more than k members
    have marked it so far.  At the 1-entries that counts misses, so the
    answer is always exhaustive.  At the 0-entries the first counter is
    the members' OR, so domination is tested once per block, after the
    members below the least one known to cover a 0, and those are read
    again only when one of them covers a 0 of the block, so each re-read
    finds a smaller one.  The counters and a member's rows are a block each.

    On failure the witness is the lexicographically first failing q-subset,
    the least of two kinds of candidates: for each entry missed by q or more
    members, the q smallest members missing it; for each member that covers
    a 0 of ``a``, the first q-subset containing it.
    """
    s = len(fam)
    if not 1 <= q <= s:
        raise DimensionError(f"q={q} outside 1..{s}")
    if fam.dims != (a.rows, a.cols):
        raise DimensionError("family dimensions do not match the target")
    first_over = s  # smallest member covering a 0 of a
    witness: tuple[int, ...] | None = None
    block = _scan_rows(a.cols)
    with _reading([a, *fam.decompositions]) as (target, *readers):
        for row0 in range(0, a.rows, block):
            row1 = row0 + block
            ones = target(row0, row1)
            # missed[k]: entries marked by more than k members so far
            missed = [np.zeros_like(ones) for _ in range(q)]
            both = np.empty_like(ones)

            def mark(members: Sequence[Reader]) -> None:
                for read in members:
                    miss = read(row0, row1)
                    miss ^= ones
                    for k in range(q - 1, 0, -1):
                        missed[k] |= np.bitwise_and(missed[k - 1], miss, out=both)
                    missed[0] |= miss

            head = first_over
            mark(readers[:head])
            if np.bitwise_and(missed[0], ~ones, out=both).any():
                zeros = ~ones
                first_over = next(
                    t for t in range(head) if (readers[t](row0, row1) & zeros).any()
                )
            mark(readers[head:])
            missed[-1] &= ones
            if missed[-1].any():
                rows = (read(row0, row1) for read in readers)
                found = _first_missing_subset(missed[-1], rows, q)
                witness = found if witness is None else min(witness, found)
    if first_over < s:
        found = tuple(range(q - 1)) + (max(first_over, q - 1),)
        witness = found if witness is None else min(witness, found)
    if witness is None:
        return SubsetCheckResult(True, math.comb(s, q))
    return SubsetCheckResult(False, _lex_rank(witness, s) + 1, witness)


def _first_missing_subset(
    missed: np.ndarray, members: Iterable[np.ndarray], q: int
) -> tuple[int, ...]:
    """Lex-first q members that all miss one of the packed entries ``missed``.

    Greedy in member order: take the next member missing any entry still
    in play, and keep only the entries it misses.  Every entry of
    ``missed`` is missed by at least q members, so q are always found, and
    no member past the q-th is read.
    """
    chosen: list[int] = []
    for t, bits in enumerate(members):
        hit = missed & ~bits
        if hit.any():
            chosen.append(t)
            missed = hit
            if len(chosen) == q:
                break
    return tuple(chosen)


def _lex_rank(subset: tuple[int, ...], s: int) -> int:
    """Position of a sorted subset among the same-size subsets of range(s)."""
    q = len(subset)
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        rank += sum(math.comb(s - 1 - j, q - 1 - i) for j in range(prev + 1, c))
        prev = c
    return rank


# -- text formats -------------------------------------------------------------

def _rect_line(rows: str, cols: str) -> str:
    """A cover body line, with its newline, from the text of its two index lists."""
    return f"R {rows} C {cols}\n"


def _sides(covers: Iterable[Cover]) -> Iterator[np.ndarray]:
    """The row side and then the column side of every rectangle, in order."""
    return (side for c in covers for r in c.rects for side in (r.rows, r.cols))


def _side_lengths(c: Cover) -> tuple[int, int]:
    """The summed row-side and column-side lengths of a cover's rectangles."""
    return sum(r.rows.size for r in c.rects), sum(r.cols.size for r in c.rects)


def _format_rectangle(
    r: Rectangle, write: Callable[[list[int]], str] = _format_index_list
) -> str:
    """A cover body line; ``write`` gets each side as a list of ints."""
    return _rect_line(write(r.rows.tolist()), write(r.cols.tolist()))


def _cover_lines(c: Cover, write: Callable[[list[int]], str]) -> Iterator[str]:
    yield f"COVER {c.rows} {c.cols} {c.size}\n"
    for r in c.rects:
        yield _format_rectangle(r, write)


def cover_lines(c: Cover) -> Iterator[str]:
    """The lines of :func:`format_cover`, one at a time."""
    return _cover_lines(c, _index_writer(_sides([c])))


def format_cover(c: Cover) -> str:
    return "".join(cover_lines(c))


def _picker(side: list[int]) -> Callable[[list[str]], Sequence[str]]:
    """``lambda seq: [seq[j] for j in side]`` for a nonempty side, made in C
    (``itemgetter`` gives a lone item, not a tuple, for one index, so one
    index is taken as a slice)."""
    if len(side) == 1:
        return itemgetter(slice(side[0], side[0] + 1))
    return itemgetter(*side)


def _runs(
    pairs: Sequence[tuple[int, Sequence[list[int]], Sequence[list[int]]]],
) -> list[list[dict[int, str]]]:
    """Per (width, outer sides, inner sides) and per inner side, the text
    of ``i * width + j`` over its j, keyed by each i of the outer sides.

    The decimal strings of an i's block of a width, ``i * width`` up to
    ``(i + 1) * width``, are made once for every pair of that width, and
    dropped before the next i's.
    """
    outer = [set().union(*sides) for _, sides, _ in pairs]
    pickers = [list(map(_picker, inner)) for _, _, inner in pairs]
    runs = [[{} for _ in inner] for _, _, inner in pairs]
    for i in set().union(*outer):
        blocks: dict[int, list[str]] = {}
        for (width, _, _), keys, pair_pickers, pair_runs in zip(pairs, outer, pickers, runs):
            if i in keys:
                if width not in blocks:
                    blocks[width] = [str(v) for v in range(i * width, (i + 1) * width)]
                for run, pick in zip(pair_runs, pair_pickers):
                    run[i] = ",".join(pick(blocks[width]))
    return runs


def kron_cover_lines(d: KronCoverDescription) -> Iterator[str]:
    """The lines of ``format_cover(d.to_cover())``, built from the factors.

    A product rectangle's row list is, for each row i of its m-side
    rectangle in turn, the run ``i * rows_b + j`` over the rows j of its
    n-side rectangle.  A run's text does not depend on the m-side
    rectangle, so it is built once per t, n-side rectangle and row i, from
    the decimal strings of row i's block of the product (:func:`_runs`),
    and each line only joins runs.  Columns likewise; when the n-family is
    square, as a crown's is, one block of strings serves both.  No product
    rectangle, no int per product index and no table of the product's
    indices is made; each factor side is made a list of ints once per t, so
    i * width + j is Python arithmetic and never wraps.
    """
    rows, cols = d.target_dims
    rb, cb = d.n_family.dims
    yield f"COVER {rows} {cols} {d.size}\n"
    for dm, dn in zip(d.m_family.decompositions, d.n_family.decompositions):
        rows_m = [r.rows.tolist() for r in dm.rects]
        cols_m = [r.cols.tolist() for r in dm.rects]
        row_runs, col_runs = _runs([
            (rb, rows_m, [r.rows.tolist() for r in dn.rects]),
            (cb, cols_m, [r.cols.tolist() for r in dn.rects]),
        ])
        for side_rows, side_cols in zip(rows_m, cols_m):
            for row_run, col_run in zip(row_runs, col_runs):
                row_text = ",".join([row_run[i] for i in side_rows])
                col_text = ",".join([col_run[j] for j in side_cols])
                yield _rect_line(row_text, col_text)


def _parse_rectangle(line: str, lineno: int) -> Rectangle:
    """A cover body line.  Both index lists are read before either side's
    order is checked, on the arrays, by the constructor."""
    parts = line.split()
    if len(parts) != 4 or parts[0] != "R" or parts[2] != "C":
        raise FormatError("expected 'R i1,i2,... C j1,j2,...'", line=lineno)
    rows = _parse_index_list(parts[1], lineno)
    cols = _parse_index_list(parts[3], lineno)
    try:
        return Rectangle(rows, cols)
    except ValueError:
        raise FormatError(
            "indices must be sorted, distinct, 0-based", line=lineno
        ) from None


def _parse_cover(lines: _Lines) -> Cover:
    (rows, cols, _), rects = _parse_block(lines, "COVER", "rows cols s", _parse_rectangle)
    return Cover(rows, cols, tuple(rects))


def parse_cover(text: str) -> Cover:
    return _parse_cover(_Lines(io.StringIO(text, newline="\n")))


def family_lines(fam: MatrixFamily) -> Iterator[str]:
    """The lines of :func:`format_family`, one at a time."""
    write = _index_writer(_sides(fam.decompositions))
    yield f"FAMILY {fam.dims[0]} {fam.dims[1]} {len(fam)}\n"
    for c in fam.decompositions:
        yield from _cover_lines(c, write)


def format_family(fam: MatrixFamily) -> str:
    """A FAMILY header, then one COVER block per member, all written from
    one table of decimal strings."""
    return "".join(family_lines(fam))


def _parse_family(lines: _Lines) -> MatrixFamily:
    rows, cols, s = lines.header("FAMILY", "rows cols s")
    members = []
    for _ in range(s):
        at = lines.lineno + 1
        head = lines.header("COVER", "rows cols s")
        if head[:2] != [rows, cols]:
            lines.skip("COVER", head[-1], head[-1])  # a missing line outranks this
            raise FormatError("member cover dimensions mismatch family header", line=at)
        members.append(lines.body("COVER", head[-1], _parse_rectangle))
    lines.end("FAMILY")
    # the covers check their rectangles only once the whole text is read
    return MatrixFamily(tuple(Cover(rows, cols, tuple(rects)) for rects in members))


def parse_family(text: str) -> MatrixFamily:
    """A FAMILY header, then one COVER block per member."""
    return _parse_family(_Lines(io.StringIO(text, newline="\n")))


def write_cover(path: str, c: Cover) -> None:
    with open(path, "w") as fh:
        fh.writelines(cover_lines(c))


def read_cover(path: str) -> Cover:
    return _read_text(path, _parse_cover)


def write_family(path: str, fam: MatrixFamily) -> None:
    with open(path, "w") as fh:
        fh.writelines(family_lines(fam))


def read_family(path: str) -> MatrixFamily:
    return _read_text(path, _parse_family)
