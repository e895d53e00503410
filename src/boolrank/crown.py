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
built, from the {1}-preserving bijection of :func:`build_h`.

Every construction here, and the every-q family of :mod:`.algebraic`, is a
sum of element rectangles: given each row a set, the rectangle of element
t takes the rows whose set holds t by the columns whose set lacks it.
:func:`_element_cover` builds them all.  Subset families are enumerated in
colexicographic order throughout, so partial families are prefixes and all
constructions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    _block_rows,
    _format_block,
    _format_index_list,
    _IntPool,
    _Lines,
    _parse_block,
    _parse_index_list,
)
from .cover import (
    Cover,
    MatrixFamily,
    Rectangle,
    best_triple_pairing,
    compose_kron_cover,
    cover_matrix,
)
from .errors import DimensionError, FormatError, VerificationError


def crown_matrix(n: int) -> BoolMatrix:
    """The n x n matrix with zero diagonal and ones everywhere else."""
    if n < 1:
        raise DimensionError("crown matrix needs n >= 1")
    nbytes = (n + 7) // 8
    row = np.packbits(np.ones(n, dtype=np.uint8), bitorder="little")
    bits = np.tile(row, (n, 1))
    idx = np.arange(n)
    bits[idx, idx >> 3] &= ~(np.uint8(1) << (idx & 7).astype(np.uint8))
    bits.flags.writeable = False
    return BoolMatrix(n, n, bits)


def sigma(n: int) -> int:
    """Smallest k with n <= C(k, ceil(k/2)); the Boolean rank of the crown."""
    if n < 1:
        raise DimensionError("sigma needs n >= 1")
    k = 0
    while comb(k, (k + 1) // 2) < n:
        k += 1
    return k


def colex_subsets(elements: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """All size-subsets of a sorted sequence in colexicographic order."""
    elements = tuple(elements)
    if size == 0:
        yield ()
        return
    for m in range(size - 1, len(elements)):
        for prefix in colex_subsets(elements[:m], size - 1):
            yield prefix + (elements[m],)


@dataclass(frozen=True)
class SubsetFamily:
    """An ordered collection of distinct ell-subsets of [k], 1-based."""

    k: int
    ell: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for s in self.sets:
            if len(s) != self.ell:
                raise ValueError(f"set {s} does not have size {self.ell}")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError(f"set {s} must be sorted strictly increasing")
            if s and (s[0] < 1 or s[-1] > self.k):
                raise ValueError(f"set {s} has elements outside [1..{self.k}]")
            if s in seen:
                raise ValueError(f"duplicate set {s}")
            seen.add(s)

    def __len__(self) -> int:
        return len(self.sets)

    def masks(self) -> np.ndarray:
        """Bitmask array of the sets (element e -> bit e-1)."""
        return _masks(_held(self.sets, self.k))


def _held(sets: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """The len(sets) x k membership array of 1-based sets: [i, e-1] iff e in sets[i]."""
    held = np.zeros((len(sets), k), dtype=bool)
    rows = [i for i, s in enumerate(sets) for _ in s]
    held[rows, [e - 1 for s in sets for e in s]] = True
    return held


def _masks(held: np.ndarray) -> np.ndarray:
    """Row i of a membership array as an int64 bitmask (column e -> bit e);
    more than 63 columns overflow and raise."""
    return held @ np.array([1 << e for e in range(held.shape[1])], dtype=np.int64)


def _element_cover(held: np.ndarray, ts: Iterable[int], pool: _IntPool) -> Cover:
    """The element rectangles of the 0-based columns ``ts`` of a membership
    array, empty ones dropped: element t gives the rows that hold it by the
    rows that lack it.  Their sides take their ints from ``pool``."""
    n = len(held)
    rects = []
    for t in ts:
        rows, cols = np.flatnonzero(held[:, t]), np.flatnonzero(~held[:, t])
        if rows.size and cols.size:
            rects.append(Rectangle(pool.tuple(rows, n), pool.tuple(cols, n)))
    return Cover(n, n, tuple(rects))


def canonical_family(k: int, n: int) -> SubsetFamily:
    """The first n ceil(k/2)-subsets of [k] in colex order."""
    ell = (k + 1) // 2
    if n > comb(k, ell):
        raise DimensionError(f"n={n} exceeds C({k},{ell})={comb(k, ell)}")
    sets = tuple(islice(colex_subsets(range(1, k + 1), ell), n))
    return SubsetFamily(k, ell, sets)


def family_matrix(f: SubsetFamily) -> BoolMatrix:
    """The intersection matrix B_F: entry (i, j) = 1 iff F_i meets [k] \\ F_j.

    It is the sum of the family's element rectangles.  For distinct subsets
    of size ceil(k/2) it equals the crown matrix.
    """
    return cover_matrix(family_cover(f))


def intersection_rectangle(f: SubsetFamily, t: int) -> Rectangle:
    """The rank-1 matrix P_F(t): rows whose set holds t, columns whose set lacks t."""
    if not 1 <= t <= f.k:
        raise DimensionError(f"element {t} outside [1..{f.k}]")
    rects = _element_cover(_held(f.sets, f.k), (t - 1,), _IntPool()).rects
    if not rects:
        raise ValueError(f"element {t} yields an empty rectangle in this family")
    return rects[0]


def family_cover(f: SubsetFamily) -> Cover:
    """Cover of B_F by the element rectangles P_F(1..k), skipping empty ones."""
    return _element_cover(_held(f.sets, f.k), range(f.k), _IntPool())


# -- bijections ---------------------------------------------------------------

@dataclass(frozen=True)
class FamilyBijection:
    """A bijection of a subset family onto itself, stored positionally."""

    domain: SubsetFamily
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != len(self.domain.sets):
            raise ValueError("images must pair with domain sets")
        if set(self.images) != set(self.domain.sets):
            raise ValueError("images are not a permutation of the domain")

    def apply(self, s: tuple[int, ...]) -> tuple[int, ...]:
        try:
            return self.images[self.domain.sets.index(s)]
        except ValueError:
            raise KeyError(f"{s} not in bijection domain") from None

    def mapping(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(zip(self.domain.sets, self.images))


def build_g(k: int) -> FamilyBijection:
    """A bijection g on the (ell-1)-subsets of [k-1] with F and g(F) disjoint.

    Odd k: plain complement within [k-1].  Even k: [k-1] has 2*ell - 1
    elements, and the Greene-Kleitman bracket rule lifts F to an ell-set.
    Reading 1..k-1 in order, each element absent from F opens a bracket and
    each present one closes the latest open bracket; with x the first
    absent element left unmatched, F -> F + {x} is a bijection onto the
    ell-subsets, and g(F) = [k-1] - (F + {x}).  Any bijection with F and
    g(F) disjoint serves :func:`build_h`; this one is built without search.
    """
    if k < 2:
        raise DimensionError("build_g needs k >= 2")
    ell = (k + 1) // 2
    ground = tuple(range(1, k))
    domain_sets = tuple(colex_subsets(ground, ell - 1))
    domain = SubsetFamily(k - 1, ell - 1, domain_sets)

    images = []
    for s in domain_sets:
        absent, opened = [], []
        for e in ground:
            if e not in s:
                absent.append(e)
                opened.append(e)
            elif opened:
                opened.pop()
        if k % 2 == 0:
            absent.remove(opened[0])
        images.append(tuple(absent))
    return FamilyBijection(domain, tuple(images))


def build_h(k: int, i: int) -> FamilyBijection:
    """An {i}-preserving, {i}-intersection-shifting bijection of all
    ceil(k/2)-subsets of [k].

    Sets containing i map to g(F - {i}) + {i} with g from :func:`build_g`
    relabelled onto [k] - {i}; other sets are fixed.  The counting argument
    behind the shifting property needs k >= 5.
    """
    if k < 5:
        raise DimensionError("build_h needs k >= 5")
    if not 1 <= i <= k:
        raise DimensionError(f"element {i} outside [1..{k}]")
    ell = (k + 1) // 2
    domain = canonical_family(k, comb(k, ell))
    g = build_g(k)
    g_map = g.mapping()
    others = tuple(e for e in range(1, k + 1) if e != i)
    to_g = {e: idx + 1 for idx, e in enumerate(others)}
    from_g = {idx + 1: e for idx, e in enumerate(others)}

    images = []
    for s in domain.sets:
        if i in s:
            relabelled = tuple(sorted(to_g[e] for e in s if e != i))
            image = g_map[relabelled]
            images.append(tuple(sorted([from_g[e] for e in image] + [i])))
        else:
            images.append(s)
    return FamilyBijection(domain, tuple(images))


def is_L_preserving(h: FamilyBijection, L: Sequence[int]) -> bool:
    """Exhaustive check: every set meets L exactly as its image does."""
    l_set = set(L)
    return all(
        set(s) & l_set == set(img) & l_set for s, img in zip(h.domain.sets, h.images)
    )


def is_L_intersection_shifting(h: FamilyBijection, L: Sequence[int]) -> bool:
    """Exhaustive check over all pairs (D, E) of the shifting property.

    Whenever D meets the complement of E only inside L (and does meet it),
    the image pair must intersect outside L.
    """
    full = (1 << h.domain.k) - 1
    l_mask = sum(1 << (e - 1) for e in set(L))
    d_masks = h.domain.masks()
    h_masks = _masks(_held(h.images, h.domain.k))
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
    return _triple_prefix(k, comb(k, (k + 1) // 2))


def _triple_prefix(k: int, n: int) -> MatrixFamily:
    """The (1, k-1, k-1) triple on the first n colex ceil(k/2)-subsets of [k].

    Member 1 is element 1's rectangle and member 2 those of elements 2..k,
    over the sets; member 3 takes elements 2..k over their images under
    h = :func:`build_h` (k, 1), which is checked to be {1}-preserving and
    {1}-intersection shifting.  The properties hold for every pair of sets,
    so every two members cover the order-n crown.
    """
    h = build_h(k, 1)
    if not is_L_preserving(h, (1,)) or not is_L_intersection_shifting(h, (1,)):
        raise VerificationError(
            "bijection is not {1}-preserving and {1}-intersection shifting"
        )
    held = _held(h.domain.sets[:n], k)
    pool = _IntPool()
    return MatrixFamily((
        _element_cover(held, range(1), pool),
        _element_cover(held, range(1, k), pool),
        _element_cover(_held(h.images[:n], k), range(1, k), pool),
    ))


def c5_triple() -> MatrixFamily:
    """The explicit (2, 2, 3) triple for the order-5 crown.

    Rows carry the 4-subsets {1,4,5,7}, {1,3,6,7}, {2,4,6,7}, {2,3,5,7},
    {3,4,5,6} of [7]; the members group the element rectangles at {1,2},
    {3,4} and {5,6,7}.  Every two members cover the crown.
    """
    held = _held(((1, 4, 5, 7), (1, 3, 6, 7), (2, 4, 6, 7), (2, 3, 5, 7), (3, 4, 5, 6)), 7)
    pool = _IntPool()
    return MatrixFamily(tuple(
        _element_cover(held, ts, pool) for ts in (range(0, 2), range(2, 4), range(4, 7))
    ))


def c4_triple() -> MatrixFamily:
    """A (2, 2, 2) triple for the order-4 crown, every two covering it.

    The three members pair up the four indices in the three possible ways
    ({0,1}|{2,3}, {0,3}|{1,2}, {0,2}|{1,3}); found once by exhaustive search
    over rank-<=2 matrices below the crown and frozen here.
    """
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
        return _triple_prefix(sigma(n), n)
    if n == 5:
        return c5_triple()
    if n == 4:
        return c4_triple()
    raise DimensionError(f"no coverable triple available for n={n}")


def gap_families(n: int, m: int) -> tuple[MatrixFamily, MatrixFamily]:
    """The pair of triples whose composition covers crown(n) (x) crown(m).

    The second triple is reordered to minimize the composed size; for
    n, m >= 7 the minimum is sigma(n) * sigma(m) - 1.
    """
    if n == 5 and m == 5:
        raise DimensionError("no gap construction is known for two order-5 crowns")
    m_fam = coverable_triple(n)
    n_fam = coverable_triple(m)
    n_fam, _ = best_triple_pairing(m_fam, n_fam)
    return m_fam, n_fam


def gap_cover(n: int, m: int) -> Cover:
    """An explicit cover of crown(n) (x) crown(m) beating the rank product."""
    m_fam, n_fam = gap_families(n, m)
    return compose_kron_cover(m_fam, n_fam)


# -- text format ----------------------------------------------------------------

def format_subset_family(f: SubsetFamily) -> str:
    return _format_block(
        "FAMILY-SETS", (f.k, f.ell, len(f)), map(_format_index_list, f.sets)
    )


def _subset(line: str, lineno: int) -> tuple[int, ...]:
    return tuple(_parse_index_list(line.strip(), lineno).tolist())


def parse_subset_family(text: str) -> SubsetFamily:
    (k, ell, _), sets = _parse_block(_Lines(text), "FAMILY-SETS", "k ell n", _subset)
    try:
        return SubsetFamily(k, ell, tuple(sets))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
