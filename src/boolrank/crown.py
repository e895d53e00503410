"""Crown matrices and their subset-family covers.

The n x n crown matrix (zero diagonal, ones elsewhere) has Boolean rank
sigma(n), the least k with n <= C(k, ceil(k/2)).  Assigning ceil(k/2)-subsets
of [k] to rows and their complements to columns realizes the crown as an
intersection matrix; the k "element" rectangles then cover it.

Permuting the subset labelling with a carefully chosen bijection yields a
second cover sharing its first rectangles with the original, which is how
the coverable triples behind the sub-multiplicativity gaps are built: an
[r]-preserving, [r]-intersection-shifting bijection gives three matrices of
ranks (r, k-r, k-r) of which every two cover the crown.  Only r = 1 is
built, from the {1}-preserving bijection h of :func:`_h_held`; a level
checks it once, in linear time, by the lemma of :func:`_checked_h`.  The
exhaustive checks :func:`is_L_preserving` and
:func:`is_L_intersection_shifting` are kept as oracles for tests.

Every construction here, and the every-q family of :mod:`.algebraic`, is a
sum of element rectangles: given each row a set, the rectangle of element
t takes the rows whose set holds t by the columns whose set lacks it.
:func:`_element_cover` builds them all.  Subset families are enumerated in
colexicographic order throughout, so partial families are prefixes and all
constructions are deterministic.  A family is built as its membership
array, one bool row per set, each row unranked from its colex index by the
combinatorial number system (:func:`_colex`); a σ-level stays in that form
from its sets to the checked h.

Covers and families come from :mod:`.cover`, which the functions that
build them import, so a process that only computes sigma(n) or writes
crown(n) does not load it.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from math import comb
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .boolmat import BoolMatrix, Reader, _block_rows, require_materializable
from .errors import DimensionError, VerificationError

if TYPE_CHECKING:
    from .cover import Cover, MatrixFamily


def crown_matrix(n: int) -> BoolMatrix:
    """The n x n matrix with zero diagonal and ones everywhere else."""
    return BoolMatrix(n, n, _crown_reader(n)(0, n))


def _crown_reader(n: int) -> Reader:
    """The reader of crown(n) (see :func:`cover._row_reader`).

    It keeps one block of all-ones rows, made at the first read and grown
    only for a longer read.  Each read sets again the diagonal bits the last
    one cleared, and clears those of the rows it reads, so a scan makes no
    new block.  The rows are a read-only view of that block, valid until the
    next read.
    """
    if n < 1:
        raise DimensionError("crown matrix needs n >= 1")
    one_row = np.packbits(np.ones(n, dtype=np.uint8), bitorder="little")
    ones = np.zeros((0, one_row.size), dtype=np.uint8)
    cleared = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0, dtype=np.uint8),)

    def read(row0: int, row1: int) -> np.ndarray:
        nonlocal ones, cleared
        count = max(0, min(row1, n) - row0)
        if count > len(ones):
            ones = np.tile(one_row, (count, 1))
        else:
            i, byte, bit = cleared
            ones[i, byte] |= bit
        i = np.arange(count)
        j = row0 + i
        cleared = (i, j >> 3, np.uint8(1) << (j & 7).astype(np.uint8))
        ones[i, j >> 3] &= ~cleared[2]
        rows = ones[:count]
        rows.flags.writeable = False
        return rows
    return read


class CrownTarget:
    """crown(n) as a verifier target (a :class:`~boolrank.cover.RowSource`):
    its rows are made a scan block at a time as they are read, so the
    n x n matrix is never built."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError("crown matrix needs n >= 1")
        self.rows = self.cols = n

    def reader(self) -> AbstractContextManager[Reader]:
        return nullcontext(_crown_reader(self.rows))

    def count_ones(self) -> int:
        return self.rows * (self.rows - 1)


def sigma(n: int) -> int:
    """Smallest k with n <= C(k, ceil(k/2)); the Boolean rank of the crown."""
    if n < 1:
        raise DimensionError("sigma needs n >= 1")
    k = 0
    while comb(k, (k + 1) // 2) < n:
        k += 1
    return k


def _colex(k: int, ell: int, n: int) -> np.ndarray:
    """The first n ell-subsets of range(k) in colex order, as an n x k
    membership array.

    Row r is unranked by the combinatorial number system: r = sum_j
    C(c_j, j) over its elements c_ell > ... > c_1, each the largest c with
    C(c, j) at most what is left of r.  Table entries are clamped at n, which
    no rank reaches, so they fit int64 for any k.
    """
    require_materializable("subset family", n * k)
    held = np.zeros((n, k), dtype=bool)
    rows, rank = np.arange(n), np.arange(n, dtype=np.int64)
    for j in range(ell, 0, -1):
        table = np.array([min(comb(c, j), n) for c in range(k)], dtype=np.int64)
        c = np.searchsorted(table, rank, side="right") - 1
        held[rows, c] = True
        rank -= table[c]
    return held


def _sets(held: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The 1-based sets of a membership array whose rows hold equally many."""
    size = int(held[:1].sum())
    return tuple(map(tuple, (np.nonzero(held)[1] + 1).reshape(len(held), size).tolist()))


def _held(sets: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """The len(sets) x k membership array of 1-based sets: [i, e-1] iff e in sets[i]."""
    held = np.zeros((len(sets), k), dtype=bool)
    rows = [i for i, s in enumerate(sets) for _ in s]
    held[rows, [e - 1 for s in sets for e in s]] = True
    return held


def _masks(held: np.ndarray) -> np.ndarray:
    """Row i of a membership array as an int64 bitmask (column e -> bit e);
    more than 63 columns overflow and raise."""
    if held.shape[1] > 63:
        raise OverflowError(f"{held.shape[1]} columns do not fit an int64 bitmask")
    packed = np.zeros((len(held), 8), dtype=np.uint8)
    packed[:, :(held.shape[1] + 7) // 8] = np.packbits(held, axis=1, bitorder="little")
    return packed.view("<i8")[:, 0]


def _element_cover(held: np.ndarray, ts: Iterable[int]) -> Cover:
    """The element rectangles of the 0-based columns ``ts`` of a membership
    array, empty ones dropped: element t gives the rows that hold it by the
    rows that lack it."""
    from .cover import Cover, Rectangle
    n = len(held)
    rects = []
    for t in ts:
        rows, cols = np.flatnonzero(held[:, t]), np.flatnonzero(~held[:, t])
        if rows.size and cols.size:
            rects.append(Rectangle(rows, cols))
    return Cover(n, n, tuple(rects))


def _canonical_cover(k: int, n: int) -> Cover:
    """The element rectangles of the first n ceil(k/2)-subsets of [k] in
    colex order (:func:`_canonical_held`): a cover of crown(n)."""
    return _element_cover(_canonical_held(k, n), range(k))


def _canonical_held(k: int, n: int) -> np.ndarray:
    """The membership array of the first n ceil(k/2)-subsets of [k] in
    colex order."""
    ell = (k + 1) // 2
    if n > comb(k, ell):
        raise DimensionError(f"n={n} exceeds C({k},{ell})={comb(k, ell)}")
    return _colex(k, ell, n)


# -- bijections ---------------------------------------------------------------

def _g(held: np.ndarray) -> np.ndarray:
    """A bijection g on the (ell-1)-subsets F of [k-1] with F and g(F)
    disjoint, on each row of their membership array.

    Odd k: plain complement within [k-1].  Even k: [k-1] has 2*ell - 1
    elements (an odd number of columns), and the Greene-Kleitman bracket
    rule lifts F to an ell-set.  Reading 1..k-1 in order, each element
    absent from F opens a bracket and each present one closes the latest
    open bracket; with x the first absent element left unmatched, F -> F +
    {x} is a bijection onto the ell-subsets, and g(F) = [k-1] - (F + {x}).
    Any bijection with F and g(F) disjoint serves :func:`_h_held`; this one
    is built without search.

    x is the first absent column whose bracket no later present one
    closes: with a running count of +1 per absent column and -1 per
    present one, the first absent column whose count never falls below
    its own value later.
    """
    images = ~held
    if held.shape[1] % 2:
        count = np.cumsum(np.where(held, np.int8(-1), np.int8(1)), axis=1, dtype=np.int8)
        later = np.minimum.accumulate(count[:, ::-1], axis=1)[:, ::-1]
        images[np.arange(len(held)), np.argmax(images & (later == count), axis=1)] = False
    return images


def _h_held(k: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The membership arrays of all ceil(k/2)-subsets of [k], in colex
    order, and of their images under an {i}-preserving, {i}-intersection
    shifting bijection h.

    Sets holding i map to g(F - {i}) + {i}, with g of :func:`_g` relabelled
    onto [k] - {i}: the rows holding i take :func:`_g` on the other
    columns, kept in order.  Other sets are fixed.  The counting argument
    behind the shifting property needs k >= 5.  For i = 1, h meets the
    hypotheses of the lemma in :func:`_checked_h`, which checks them once
    per level.
    """
    ell = (k + 1) // 2
    sets = _colex(k, ell, comb(k, ell))
    images = sets.copy()
    moved = np.ix_(np.flatnonzero(sets[:, i - 1]), np.delete(np.arange(k), i - 1))
    images[moved] = _g(sets[moved])
    return sets, images


def is_L_preserving(sets: np.ndarray, images: np.ndarray, L: Sequence[int]) -> bool:
    """Exhaustive check of a bijection given as the membership arrays of
    its sets and of their images, row by row, as :func:`_h_held` returns
    them: every set meets the 1-based L exactly as its image does.

    An oracle for tests; the triples check h by the lemma of
    :func:`_checked_h` instead.
    """
    cols = [e - 1 for e in set(L)]
    return bool(np.array_equal(sets[:, cols], images[:, cols]))


def is_L_intersection_shifting(
    sets: np.ndarray, images: np.ndarray, L: Sequence[int]
) -> bool:
    """Exhaustive check over all pairs (D, E) of the shifting property, for
    a bijection given as :func:`is_L_preserving` takes it.

    Whenever D meets the complement of E only inside L (and does meet it),
    the image pair must intersect outside L.  An O(N^2) oracle for tests;
    the triples check h by the lemma of :func:`_checked_h`.
    """
    full = (1 << sets.shape[1]) - 1
    l_mask = sum(1 << (e - 1) for e in set(L))
    d_masks, h_masks = _masks(sets), _masks(images)
    comp = full & ~d_masks
    comp_h = full & ~h_masks
    n = len(d_masks)
    block = _block_rows(n)
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        inter = d_masks[r0:r1, None] & comp[None, :]
        need = (inter != 0) & ((inter & ~l_mask) == 0)
        if not need.any():
            continue
        shifted = (h_masks[r0:r1, None] & comp_h[None, :]) & ~l_mask
        if np.any(need & (shifted == 0)):
            return False
    return True


# -- coverable triples ---------------------------------------------------------

def triple_cover(k: int, r: int = 1) -> MatrixFamily:
    """Three matrices of ranks (1, k-1, k-1), every two covering the crown.

    Uses the full colex family of ceil(k/2)-subsets of [k], so the target is
    the crown of order C(k, ceil(k/2)).  Only r = 1 is built; any other r
    raises :class:`DimensionError`.
    """
    if r != 1 or k < 5:
        raise DimensionError(f"triples are built for r = 1 and k >= 5, got k={k}, r={r}")
    return _triple_prefix(_checked_h(k), comb(k, (k + 1) // 2))


def _checked_h(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The membership arrays of the sets and of their images under h =
    :func:`_h_held` (k, 1), once h is checked to be a bijection of the
    level and, by the lemma below, {1}-preserving and {1}-intersection
    shifting.

    Lemma.  Let h be a bijection of ell-subsets of [k], ell >= 3, that
    fixes every set without 1, and so maps sets holding 1 to sets holding
    1, and that keeps D - {1} and h(D) - {1} disjoint for each D holding 1.
    Then h is {1}-preserving and {1}-intersection shifting.  Proof: the
    only pairs to check are D holding 1 and E = (D - {1}) + {y}, where
    h(E) = E.  So h(D) - {1} inside E would force h(D) - {1} inside {y},
    which cannot be, since h(D) - {1} has ell - 1 >= 2 elements.

    The sets must be the whole level in colex order: C(k, ell) rows of ell
    elements with strictly increasing bitmasks.  h is a bijection when the
    sorted image bitmasks are the set bitmasks; a map that is not onto can
    meet the count below (at k = 6, say).  The lemma's check counts, in
    O(N k) for N sets, the elements each set shares with its image: all ell
    for a set without 1, which is so fixed, and one for a set holding 1.
    That one is 1, since the fixed sets leave only the sets holding 1 as
    images.  :func:`is_L_preserving` and :func:`is_L_intersection_shifting`
    are the exhaustive oracles it is tested against.
    """
    ell = (k + 1) // 2
    sets, images = _h_held(k, 1)
    masks = _masks(sets)
    if (
        sets.shape != (comb(k, ell), k) or images.shape != sets.shape
        or (sets.sum(axis=1) != ell).any() or (np.diff(masks) <= 0).any()
        or not np.array_equal(np.sort(_masks(images)), masks)
    ):
        raise VerificationError(f"h is not a bijection of the colex {ell}-subsets of [{k}]")
    shared = (sets & images).sum(axis=1)
    if ell < 3 or (shared != np.where(sets[:, 0], 1, ell)).any():
        raise VerificationError("bijection is not {1}-preserving and {1}-intersection shifting")
    return sets, images


def _triple_prefix(level: tuple[np.ndarray, np.ndarray], n: int) -> MatrixFamily:
    """The (1, k-1, k-1) triple on the first n sets of a level.

    ``level`` is :func:`_checked_h`'s pair of arrays.  Member 1 is element
    1's rectangle and member 2 those of elements 2..k, over the sets;
    member 3 takes elements 2..k over their images under the checked h.
    Its properties hold for every pair of sets, so every two members cover
    the order-n crown.
    """
    from .cover import MatrixFamily
    sets, images = level[0][:n], level[1][:n]
    k = sets.shape[1]
    return MatrixFamily((
        _element_cover(sets, range(1)),
        _element_cover(sets, range(1, k)),
        _element_cover(images, range(1, k)),
    ))


def c5_triple() -> MatrixFamily:
    """The explicit (2, 2, 3) triple for the order-5 crown.

    Rows carry the 4-subsets {1,4,5,7}, {1,3,6,7}, {2,4,6,7}, {2,3,5,7},
    {3,4,5,6} of [7]; the members group the element rectangles at {1,2},
    {3,4} and {5,6,7}.  Every two members cover the crown.
    """
    from .cover import MatrixFamily
    held = _held(((1, 4, 5, 7), (1, 3, 6, 7), (2, 4, 6, 7), (2, 3, 5, 7), (3, 4, 5, 6)), 7)
    return MatrixFamily(tuple(
        _element_cover(held, ts) for ts in (range(0, 2), range(2, 4), range(4, 7))
    ))


def c4_triple() -> MatrixFamily:
    """A (2, 2, 2) triple for the order-4 crown, every two covering it.

    The three members pair up the four indices in the three possible ways
    ({0,1}|{2,3}, {0,3}|{1,2}, {0,2}|{1,3}); found once by exhaustive search
    over rank-<=2 matrices below the crown and frozen here.
    """
    from .cover import Cover, MatrixFamily, Rectangle
    splits = (
        ((0, 1), (2, 3)),
        ((0, 3), (1, 2)),
        ((0, 2), (1, 3)),
    )
    return MatrixFamily(tuple(
        Cover(4, 4, (Rectangle(x, y), Rectangle(y, x))) for x, y in splits
    ))


def coverable_triple(n: int) -> MatrixFamily:
    """A triple for the order-n crown with every two members covering it.

    n >= 7 builds the (1, k-1, k-1) construction on the first n colex sets,
    k = sigma(n); n in {4, 5} uses the explicit small triples.  No triple is
    available for n = 6 (or for pairing two order-5 crowns).
    """
    if n >= 7:
        return _triple_prefix(_checked_h(sigma(n)), n)
    if n == 5:
        return c5_triple()
    if n == 4:
        return c4_triple()
    raise DimensionError(f"no coverable triple available for n={n}")


def gap_families(n: int, m: int) -> tuple[MatrixFamily, MatrixFamily]:
    """The pair of triples whose composition covers crown(n) (x) crown(m).

    The second triple is reordered to minimize the composed size; for
    n, m >= 7 the minimum is sigma(n) * sigma(m) - 1.  When sigma(n) =
    sigma(m), both triples are cut from one checked bijection.
    """
    if n == 5 and m == 5:
        raise DimensionError("no gap construction is known for two order-5 crowns")
    from .cover import best_triple_pairing
    if n >= 7 and m >= 7 and sigma(n) == sigma(m):
        level = _checked_h(sigma(n))
        m_fam, n_fam = _triple_prefix(level, n), _triple_prefix(level, m)
    else:
        m_fam, n_fam = coverable_triple(n), coverable_triple(m)
    n_fam, _ = best_triple_pairing(m_fam, n_fam)
    return m_fam, n_fam


def gap_cover(n: int, m: int) -> Cover:
    """An explicit cover of crown(n) (x) crown(m) beating the rank product."""
    from .cover import compose_kron_cover
    m_fam, n_fam = gap_families(n, m)
    return compose_kron_cover(m_fam, n_fam)

