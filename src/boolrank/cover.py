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

The verifiers read a family's members a row block at a time, straight
from its decompositions (:func:`cover_rows`), and drop each block once it
is used, so no whole member is built or held; :attr:`MatrixFamily.members`
is for callers that want the members whole.

Every failed verification reports the first failing entry in row-major
order (or the lexicographically first failing subset), so tests and CLI
output are deterministic.

Rectangle sides are tuples of ints, shared one int per distinct index
across a cover or family read or built at once, and written from one
decimal string per distinct index (see :mod:`boolrank.boolmat`).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    _block_rows,
    _decimal_table,
    _format_index_list,
    _index_writer,
    _IntPool,
    _Lines,
    _parse_block,
    _parse_index_list,
    _read_text,
    kronecker,
    require_materializable,
)
from .errors import (
    DimensionError,
    FormatError,
    VerificationError,
)


@dataclass(frozen=True)
class Rectangle:
    """A rank-1 cover element: (row index set) x (column index set).

    Each side is nonempty, sorted, distinct and 0-based.  The constructor
    checks that on the tuples; the cover readers, the crown builders and
    the product covers check their index arrays instead, in
    :func:`_rectangle_of`, which makes the same rectangle.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]

    def __post_init__(self):
        for name, idx in (("row_set", self.row_set), ("col_set", self.col_set)):
            if not idx:
                raise ValueError(f"rectangle {name} must be nonempty")
            if not all(map(operator.lt, idx, idx[1:])) or idx[0] < 0:
                raise ValueError(f"rectangle {name} must be sorted distinct >= 0")

    @property
    def area(self) -> int:
        return len(self.row_set) * len(self.col_set)

    @cached_property
    def _col_mask(self) -> np.ndarray:
        """Packed bits (little order) of the columns, up to the last one's
        byte; kept, since every row block of a cover reads it."""
        return _index_mask(np.array(self.col_set, dtype=np.intp))


def _index_mask(idx: np.ndarray) -> np.ndarray:
    """Packed bits (little order) of sorted indices, up to the last one's byte."""
    ind = np.zeros(idx[-1] + 1, dtype=np.uint8)
    ind[idx] = 1
    return np.packbits(ind, bitorder="little")


def _rectangle_of(
    rows: np.ndarray, cols: np.ndarray, pool: _IntPool, limit: int
) -> Rectangle:
    """``Rectangle`` of two index arrays, checked on the arrays.

    It raises the constructor's ``ValueError`` for a side that is empty or
    not sorted, distinct and 0-based, and takes its sides from ``pool``,
    grown to at most ``limit``.  A column mask no larger than the column
    array is kept at once, so it is never made back from the tuple.
    """
    for name, idx in (("row_set", rows), ("col_set", cols)):
        if not idx.size:
            raise ValueError(f"rectangle {name} must be nonempty")
        if idx[0] < 0 or (idx.size > 1 and np.diff(idx).min() <= 0):
            raise ValueError(f"rectangle {name} must be sorted distinct >= 0")
    rect = object.__new__(Rectangle)
    fields = vars(rect)
    fields.update(row_set=pool.tuple(rows, limit), col_set=pool.tuple(cols, limit))
    if cols[-1] < 8 * cols.nbytes:
        fields["_col_mask"] = _index_mask(cols)
    return rect


@dataclass(frozen=True)
class Cover:
    """An ordered list of rectangles certifying a cover of a rows x cols target."""

    rows: int
    cols: int
    rects: tuple[Rectangle, ...]

    def __post_init__(self):
        for r in self.rects:
            if r.row_set[-1] >= self.rows or r.col_set[-1] >= self.cols:
                raise DimensionError(
                    f"rectangle index out of range for {self.rows}x{self.cols}"
                )

    @property
    def size(self) -> int:
        return len(self.rects)


def cover_rows(c: Cover, row0: int, row1: int) -> np.ndarray:
    """Packed rows ``row0`` up to ``row1`` of the cover's Boolean sum.

    ``row1`` is clipped to the cover's rows, and the array is the caller's.

    Rectangles are taken eight at a time.  A row's 8-bit code says which of
    them contain it, a 256-row table holds the OR of column masks for every
    code, and one gather writes each row once per group of eight.  A
    rectangle with no row in the range adds nothing to the table.
    """
    row1 = min(row1, c.rows)
    nbytes = (c.cols + 7) // 8
    if not c.size:
        return np.zeros((row1 - row0, nbytes), dtype=np.uint8)
    for g in range(0, c.size, 8):
        group = c.rects[g:g + 8]
        code = np.zeros(row1 - row0, dtype=np.uint8)
        table = np.zeros((1 << len(group), nbytes), dtype=np.uint8)
        for r, rect in enumerate(group):
            rows = rect.row_set
            rows = rows[bisect_left(rows, row0):bisect_left(rows, row1)]
            if rows:
                code[np.subtract(rows, row0)] |= np.uint8(1 << r)
                mask = rect._col_mask
                table[1 << r:2 << r] = table[:1 << r]
                table[1 << r:2 << r, :mask.size] |= mask
        if g:
            bits |= table[code]
        else:
            bits = table[code]
    return bits


def cover_matrix(c: Cover) -> BoolMatrix:
    """Boolean sum of the cover's rectangles: :func:`cover_rows` over all rows."""
    bits = cover_rows(c, 0, c.rows)
    bits.flags.writeable = False
    return BoolMatrix(c.rows, c.cols, bits)


def _packed_rows(m: BoolMatrix | Cover, row0: int, row1: int) -> np.ndarray:
    """Packed rows ``row0`` up to ``row1`` of a matrix or of a cover's sum."""
    if isinstance(m, Cover):
        return cover_rows(m, row0, row1)
    return m.bits[row0:row1]


def _chunk_rows(cols: int) -> int:
    """Rows of the blocks in which verifiers build member rows."""
    return _block_rows(8 * ((cols + 7) // 8))


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
        dims.  Each is made by :func:`_rectangle_of` from its index arrays,
        and all take their ints from one pool.
        """
        (rb, cb), pool, limit = self.n_family.dims, _IntPool(), max(self.target_dims)
        for dm, dn in zip(self.m_family.decompositions, self.n_family.decompositions):
            for rm in dm.rects:
                row_a = np.array(rm.row_set) * rb
                col_a = np.array(rm.col_set) * cb
                for rn in dn.rects:
                    rows = (row_a[:, None] + np.array(rn.row_set)).ravel()
                    cols = (col_a[:, None] + np.array(rn.col_set)).ravel()
                    yield _rectangle_of(rows, cols, pool, limit)

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


def _first_difference(a: BoolMatrix, c: Cover) -> tuple[int, int] | None:
    """First entry in row-major order where ``a`` and the cover's sum differ.

    The sum is built and compared a row block at a time, and the scan stops
    at the first block that differs.
    """
    block = _chunk_rows(a.cols)
    for row0 in range(0, a.rows, block):
        diff = cover_rows(c, row0, row0 + block)
        diff ^= a.bits[row0:row0 + block]
        if diff.any():
            i, j = _first_set_bit(diff, a.cols)
            return row0 + i, j
    return None


def verify_cover(a: BoolMatrix, c: Cover) -> VerifyResult:
    """Check that the rectangles are all-ones in ``a`` and cover its support."""
    if (a.rows, a.cols) != (c.rows, c.cols):
        raise DimensionError(
            f"cover is {c.rows}x{c.cols}, target is {a.rows}x{a.cols}"
        )
    witness = _first_difference(a, c)
    if witness is None:
        return VerifyResult(True)
    if a.get(*witness):
        return VerifyResult(False, witness, "uncovered one entry")
    return VerifyResult(False, witness, "rectangle covers a zero entry")


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
    matrices: Sequence[BoolMatrix | Cover],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row0, signatures) per row block of the matrices' common shape.

    A matrix may be given as a cover, whose Boolean sum it is.
    ``signatures`` has shape (block_rows, 8 * packed bytes per row): bit t
    of an entry's signature marks that matrix t has a 1 there, and the
    padding entries past the last column have signature 0.  Signatures are
    transposed straight from the packed bits, eight matrices at a time: the
    t-th bytes of eight matrices form an 8x8 bit matrix, and its transpose
    holds one signature byte per entry.  Each matrix's rows of the block
    are built when its group of eight is transposed.  The dtype is the
    narrowest holding s bits; past 64 matrices a signature is its bytes
    viewed as one void scalar, so it still compares as one value.
    """
    s = len(matrices)
    rows, cols = matrices[0].rows, matrices[0].cols
    nbytes = (cols + 7) // 8
    dtype = _signature_dtype(s)
    block = _chunk_rows(cols)
    for row0 in range(0, rows, block):
        stop = min(rows, row0 + block)
        size = (stop - row0) * nbytes
        sig = np.zeros((size * 8, dtype.itemsize), dtype=np.uint8)
        for k in range(0, s, 8):
            words = np.zeros((size, 8), dtype=np.uint8)
            for t, m in enumerate(matrices[k:k + 8]):
                words[:, t] = _packed_rows(m, row0, stop).ravel()
            w = words.view("<u8")
            for shift, mask in _TRANSPOSE_8X8:
                swap = (w ^ (w >> shift)) & mask
                w ^= swap ^ (swap << shift)
            sig[:, k // 8] = words.ravel()
        yield row0, sig.view(dtype).reshape(stop - row0, 8 * nbytes)


def _signature_int(key: np.generic) -> int:
    """A signature as a Python int: bit t set iff matrix t has a 1 there."""
    return int.from_bytes(key.tobytes(), "little")


def _split_classes(matrices: Sequence[BoolMatrix | Cover]) -> set[int]:
    """:func:`_classes`, split straight from the packed bits.

    A row block starts as one live mask of all its bits.  Matrix t splits
    every live mask into the bits it has (class bit t set) and the bits it
    lacks, and empty halves are dropped; after the last matrix each live
    mask holds the entries of one class.  Padding bits are 0 in every
    matrix, so they only reach class 0.  A block is about 64 KiB of packed
    bytes, so the masks stay in cache while they are split, and a mask
    that is dropped is reused rather than freed, so splitting allocates
    almost nothing.  The matrices' rows are built a whole number of blocks
    at a time, about ``_chunk_rows`` rows.
    """
    rows, nbytes = matrices[0].rows, (matrices[0].cols + 7) // 8
    if not nbytes:
        return set()
    block = _block_rows(64 * nbytes)
    chunk = block * max(1, _chunk_rows(matrices[0].cols) // block)
    classes: set[int] = set()
    spare: list[np.ndarray] = []
    for chunk0 in range(0, rows, chunk):
        chunks = [_packed_rows(m, chunk0, chunk0 + chunk) for m in matrices]
        for row0 in range(0, len(chunks[0]), block):
            blocks = [c[row0:row0 + block].ravel() for c in chunks]
            if spare and spare[0].size != blocks[0].size:  # the last, shorter block
                spare.clear()
            mask = spare.pop() if spare else np.empty_like(blocks[0])
            mask.fill(0xFF)
            live = [(0, mask)]
            for t, bits in enumerate(blocks):
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


def _classes(matrices: Sequence[BoolMatrix | Cover]) -> set[int]:
    """Distinct classes over all entries: bit t set iff matrix t has a 1 there.

    A matrix may be given as a cover, whose Boolean sum it is.

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
    a: BoolMatrix,
    m_fam: MatrixFamily,
    b: BoolMatrix,
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
    building a sum.  Q is P when both sides are the same matrix and family.
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
            _first_difference(a, _union(m_fam)),
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

def check_q_covering(a: BoolMatrix, fam: MatrixFamily, q: int) -> SubsetCheckResult:
    """Check that every q-subset of the family sums to ``a``.

    That holds exactly when every member is dominated by ``a`` and no
    1-entry of ``a`` is missed by q or more members.  Both are decided in
    one pass over the members, a row block at a time: each member's rows
    of the block are built from its decomposition and XORed with ``a``,
    which marks the 1-entries it misses and the 0-entries it covers, and q
    saturating bit counters record, per entry, whether more than k members
    have marked it so far.  At the 1-entries that counts misses, so the
    answer is always exhaustive.  At the 0-entries the first counter is
    the members' OR, so domination is tested once per block, after the
    members below the least one known to cover a 0, and those are read
    again only when one of them covers a 0 of the block, so each re-read
    finds a smaller one.  Blocks are half the rows of
    :func:`_chunk_rows`, so the counters and a member's rows stay small.

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
    decomps = fam.decompositions
    first_over = s  # smallest member covering a 0 of a
    witness: tuple[int, ...] | None = None
    block = max(1, _chunk_rows(a.cols) // 2)
    for row0 in range(0, a.rows, block):
        row1 = row0 + block
        ones = a.bits[row0:row1]
        # missed[k]: entries marked by more than k members so far
        missed = [np.zeros_like(ones) for _ in range(q)]
        both = np.empty_like(ones)

        def mark(members: Sequence[Cover]) -> None:
            for d in members:
                miss = cover_rows(d, row0, row1)
                miss ^= ones
                for k in range(q - 1, 0, -1):
                    missed[k] |= np.bitwise_and(missed[k - 1], miss, out=both)
                missed[0] |= miss

        head = first_over
        mark(decomps[:head])
        if np.bitwise_and(missed[0], ~ones, out=both).any():
            zeros = ~ones
            first_over = next(
                t for t in range(head) if (cover_rows(decomps[t], row0, row1) & zeros).any()
            )
        mark(decomps[head:])
        missed[-1] &= ones
        if missed[-1].any():
            rows = (cover_rows(d, row0, row1) for d in decomps)
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


def check_half_covering(a: BoolMatrix, fam: MatrixFamily) -> SubsetCheckResult:
    """Check that every ceil(s/2)-subset of the family covers ``a``."""
    return check_q_covering(a, fam, (len(fam) + 1) // 2)


# -- family extraction --------------------------------------------------------

def _all_ones_on(m: BoolMatrix, r: Rectangle) -> bool:
    mask = r._col_mask
    return not (mask & ~m.bits[list(r.row_set), :mask.size]).any()


def extract_families(
    a: BoolMatrix, b: BoolMatrix, c: Cover
) -> tuple[MatrixFamily, MatrixFamily]:
    """Project a cover of ``a (x) b`` into two rank-1 families.

    Each rectangle P_t splits by index arithmetic into factors (M_t, N_t)
    with P_t <= M_t (x) N_t (the same split the four-index projection
    produces).  Each family holds those one-rectangle decompositions, and
    its members are derived from them.  The returned families always
    satisfy the composition hypotheses when the input is a valid cover;
    this is re-verified and a :class:`VerificationError` raised otherwise.

    The per-rectangle all-ones checks and the extracted-family hypotheses
    prove the cover when every rectangle is the exact product of its
    factors' index sets, since the rectangles' union then equals the sum of
    the M_t (x) N_t.  Otherwise, or when the cover is empty, a union falling
    short of the product's support would go unseen, so the cover is also
    verified against the materialized product, and a
    :class:`MaterializationLimitError` is raised when that is above the
    ``BOOLRANK_MAX_ENTRIES`` limit.
    """
    rb, cb = b.rows, b.cols
    if c.rows != a.rows * rb or c.cols != a.cols * cb:
        raise DimensionError("cover dimensions do not match the product")

    decomps_a, decomps_b = [], []
    exact = bool(c.rects)  # nonempty, each rectangle rows_a x rows_b by cols_a x cols_b
    for rect in c.rects:
        rect_a = Rectangle(
            tuple(sorted({r // rb for r in rect.row_set})),
            tuple(sorted({x // cb for x in rect.col_set})),
        )
        rect_b = Rectangle(
            tuple(sorted({r % rb for r in rect.row_set})),
            tuple(sorted({x % cb for x in rect.col_set})),
        )
        if not _all_ones_on(a, rect_a) or not _all_ones_on(b, rect_b):
            raise VerificationError(
                "input cover invalid: a rectangle covers a zero entry",
                witness=rect,
            )
        exact = exact and rect.area == rect_a.area * rect_b.area
        decomps_a.append(Cover(a.rows, a.cols, (rect_a,)))
        decomps_b.append(Cover(b.rows, b.cols, (rect_b,)))
    if not exact:
        res = verify_cover(kronecker(a, b), c)
        if not res:
            raise VerificationError(
                f"input cover invalid at entry {res.witness}: {res.reason}",
                witness=res.witness,
            )

    m_fam = MatrixFamily(tuple(decomps_a))
    n_fam = MatrixFamily(tuple(decomps_b))
    res = verify_kron_hypotheses(a, m_fam, b, n_fam)
    if not res:
        raise VerificationError(
            f"input cover invalid (hypotheses fail at {res.witness}): {res.reason}",
            witness=res.witness,
        )
    return m_fam, n_fam


# -- text formats -------------------------------------------------------------

def _rect_line(rows: str, cols: str) -> str:
    """A cover body line, with its newline, from the text of its two index lists."""
    return f"R {rows} C {cols}\n"


def _sides(covers: Iterable[Cover]) -> Iterator[tuple[int, ...]]:
    """The row side and then the column side of every rectangle, in order."""
    return (side for c in covers for r in c.rects for side in (r.row_set, r.col_set))


def _side_lengths(c: Cover) -> tuple[int, int]:
    """The summed row-side and column-side lengths of a cover's rectangles."""
    return sum(len(r.row_set) for r in c.rects), sum(len(r.col_set) for r in c.rects)


def _format_rectangle(
    r: Rectangle, write: Callable[[Sequence[int]], str] = _format_index_list
) -> str:
    return _rect_line(write(r.row_set), write(r.col_set))


def _cover_lines(c: Cover, write: Callable[[Sequence[int]], str]) -> Iterator[str]:
    yield f"COVER {c.rows} {c.cols} {c.size}\n"
    for r in c.rects:
        yield _format_rectangle(r, write)


def cover_lines(c: Cover) -> Iterator[str]:
    """The lines of :func:`format_cover`, one at a time."""
    return _cover_lines(c, _index_writer(_sides([c])))


def format_cover(c: Cover) -> str:
    return "".join(cover_lines(c))


def _runs(
    digits: list[str],
    width: int,
    outer: Sequence[tuple[int, ...]],
    inner: Sequence[tuple[int, ...]],
) -> list[dict[int, str]]:
    """Per inner side, the text of ``i * width + j`` over its j, keyed by i.

    Every i of an outer side is a key.
    """
    runs: list[dict[int, str]] = [{} for _ in inner]
    for i in set().union(*outer):
        block = digits[i * width:(i + 1) * width]
        for run, side in zip(runs, inner):
            run[i] = ",".join([block[j] for j in side])
    return runs


def kron_cover_lines(d: KronCoverDescription) -> Iterator[str]:
    """The lines of ``format_cover(d.to_cover())``, built from the factors.

    A product rectangle's row list is, for each row i of its m-side
    rectangle in turn, the run ``i * rows_b + j`` over the rows j of its
    n-side rectangle.  A run's text does not depend on the m-side
    rectangle, so it is built once per n-side rectangle and row i, from one
    table of the decimal strings below max(rows, cols) of the product, and
    each line only joins runs.  Columns likewise.  No product rectangle and
    no int per product index is made.
    """
    rows, cols = d.target_dims
    rb, cb = d.n_family.dims
    digits = _decimal_table(max(rows, cols))
    yield f"COVER {rows} {cols} {d.size}\n"
    for dm, dn in zip(d.m_family.decompositions, d.n_family.decompositions):
        row_runs = _runs(
            digits, rb, [r.row_set for r in dm.rects], [r.row_set for r in dn.rects]
        )
        col_runs = _runs(
            digits, cb, [r.col_set for r in dm.rects], [r.col_set for r in dn.rects]
        )
        for rm in dm.rects:
            for row_run, col_run in zip(row_runs, col_runs):
                row_text = ",".join([row_run[i] for i in rm.row_set])
                col_text = ",".join([col_run[j] for j in rm.col_set])
                yield _rect_line(row_text, col_text)


def _rectangle_parser(lines: _Lines) -> Callable[[str, int], Rectangle]:
    """A parser of the cover body lines taken from ``lines``.

    Both index lists are read before either side's order is checked, on
    the arrays (:func:`_rectangle_of`); each side then becomes a tuple
    sharing the ints of one :class:`~boolrank.boolmat._IntPool` with every
    other side of the text.
    """
    pool = _IntPool()

    def parse(line: str, lineno: int) -> Rectangle:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "R" or parts[2] != "C":
            raise FormatError("expected 'R i1,i2,... C j1,j2,...'", line=lineno)
        rows = _parse_index_list(parts[1], lineno)
        cols = _parse_index_list(parts[3], lineno)
        try:
            return _rectangle_of(rows, cols, pool, lines.chars)
        except ValueError:
            raise FormatError(
                "indices must be sorted, distinct, 0-based", line=lineno
            ) from None
    return parse


def _parse_cover(lines: _Lines) -> Cover:
    (rows, cols, _), rects = _parse_block(
        lines, "COVER", "rows cols s", _rectangle_parser(lines)
    )
    return Cover(rows, cols, tuple(rects))


def parse_cover(text: str) -> Cover:
    return _parse_cover(_Lines(text))


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
    parse = _rectangle_parser(lines)
    members = []
    for _ in range(s):
        at = lines.lineno + 1
        head = lines.header("COVER", "rows cols s")
        if head[:2] != [rows, cols]:
            lines.skip("COVER", head[-1], head[-1])  # a missing line outranks this
            raise FormatError("member cover dimensions mismatch family header", line=at)
        members.append(lines.body("COVER", head[-1], parse))
    lines.end("FAMILY")
    # the covers check their rectangles only once the whole text is read
    return MatrixFamily(tuple(Cover(rows, cols, tuple(rects)) for rects in members))


def parse_family(text: str) -> MatrixFamily:
    """A FAMILY header, then one COVER block per member."""
    return _parse_family(_Lines(text))


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
