"""Exact Boolean rank at small scale, isolation sets, and product lower bounds.

The exact rank is NP-hard in general; this solver enumerates the maximal
all-ones rectangles (closing the row supports under intersection) and runs
an iterative-deepening branch and bound over them, so it doubles as the
verification oracle for the closed-form crown rank.  Everything is
deterministic: rectangles are ordered by descending area then
lexicographically, the lexicographically first uncovered entry is branched
on, and ties in witnesses resolve to the smallest.  Sets of entries are
packed into uint64 words, and a node decides all its children together in
numpy (dominance, remaining entries, largest residual) before it counts
and enters them one at a time.

Lower bounds never round: ratios are exact fractions and ceilings exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .boolmat import BoolMatrix, _bit_indices, _block_rows, _ones, _row_ints
from .cover import Cover, Rectangle, format_cover, verify_cover
from .crown import crown_matrix, sigma
from .errors import BudgetExceededError, DimensionError, VerificationError

#: The search budgets, read on every call: closed column sets that
#: :func:`maximal_rectangles` may make, and nodes that the rank and
#: isolation searches may visit.  Past either the search raises
#: :class:`BudgetExceededError`, or :func:`isolation_number` returns what it
#: found, marked inexact.
RECTANGLE_CAP = 200_000
NODE_BUDGET = 20_000_000


def maximal_rectangles(a: BoolMatrix) -> list[Rectangle]:
    """All maximal all-ones rectangles of ``a``.

    Closes the set of row supports under pairwise intersection (every
    maximal rectangle's column set is an intersection of row supports) and
    maps each closed column set to the full set of rows containing it.
    More than :data:`RECTANGLE_CAP` closed sets raise.
    """
    row_masks = _row_ints(a)
    base = sorted({m for m in row_masks if m})
    closed = set(base)
    frontier = list(base)
    while frontier:
        fresh = []
        for y in frontier:
            for b in base:
                z = y & b
                if z and z not in closed:
                    closed.add(z)
                    fresh.append(z)
        if len(closed) > RECTANGLE_CAP:
            raise BudgetExceededError(
                f"more than {RECTANGLE_CAP} closed column sets while enumerating rectangles"
            )
        frontier = fresh
    rects = []
    for y in sorted(closed):
        rows = tuple(i for i, rm in enumerate(row_masks) if rm & y == y)
        rects.append(Rectangle(rows, _bit_indices(y)))
    return rects


def is_crown(a: BoolMatrix) -> bool:
    return a.rows == a.cols and a.rows >= 1 and a == crown_matrix(a.rows)


@dataclass(frozen=True)
class RankCertificate:
    """Exact value (when determined) plus its two-sided witnesses.

    ``upper`` always verifies against the input; ``lower`` is what the
    search proved (kind "search"), and equals the upper size iff ``exact``.
    """

    value: int | None
    upper: Cover
    lower: int
    lower_kind: str
    exact: bool


def exact_boolean_rank(a: BoolMatrix, limit: int | None = None) -> RankCertificate:
    """Exact minimum rectangle cover by iterative-deepening branch and bound.

    Each bound is searched depth first, branching on the first uncovered
    entry over the rectangles that hold it.  A node decides its children
    together: it drops a child whose residual lies inside an earlier one's,
    and prunes a child whose uncovered entries need more rectangles of the
    largest residual than the bound leaves.  Children are still counted as
    nodes one at a time, in order, so :data:`NODE_BUDGET` counts every node
    the search reaches.

    With ``limit`` the search may stop early: it either determines the exact
    value or proves no cover smaller than ``limit`` exists ("\\u2265 limit"
    certificate).  A limit of 0 would prove nothing and is refused.
    Exceeding the node budget raises with the bound proved so far and the
    greedy cover's size; a wrong exact value is never returned.
    """
    if limit is not None and limit < 0:
        raise DimensionError(f"limit must be non-negative, got {limit}")
    if limit == 0:
        raise DimensionError("limit 0 proves no lower bound; give at least 1")
    if a.is_zero():
        empty = Cover(a.rows, a.cols, ())
        return RankCertificate(0, empty, 0, "search", True)

    rects = maximal_rectangles(a)
    ordering = sorted(
        range(len(rects)),
        key=lambda t: (-rects[t].area, rects[t].row_set, rects[t].col_set),
    )
    rects = [rects[t] for t in ordering]

    entries = _ones(a)
    bit_of = {e: b for b, e in enumerate(entries)}
    words = -(-len(entries) // 64)
    masks = []
    for r in rects:
        m, cols = 0, r.cols.tolist()
        for i in r.rows.tolist():
            for j in cols:
                m |= 1 << bit_of[(i, j)]
        masks.append(m)
    # A set of entries is a list of `words` uint64 words, word w holding
    # entries 64w..64w+63; planes[w][t] is word w of rectangle t.
    planes = list(np.frombuffer(
        b"".join(m.to_bytes(8 * words, "little") for m in masks), "<u8"
    ).reshape(len(masks), words).T.copy())
    by_bit: list[list[int]] = [[] for _ in entries]
    for t, m in enumerate(masks):
        for b in _bit_indices(m):
            by_bit[b].append(t)
    holder_ids = [np.array(ts) for ts in by_bit]
    holder_planes = [[p[ts] for p in planes] for ts in holder_ids]
    add = partial(np.add, dtype=np.min_scalar_type(len(entries)))

    def bits(x: list[np.ndarray]) -> np.ndarray:
        """Sizes of the sets whose words are the arrays in ``x``."""
        return reduce(add, map(np.bitwise_count, x))

    # greedy upper bound (ties to the earliest rectangle in the ordering)
    universe = [np.bitwise_or.reduce(p) for p in planes]  # rectangles cover every 1
    rem = universe
    greedy: list[int] = []
    while any(rem):
        t = int(np.argmax(bits([p & r for p, r in zip(planes, rem)])))
        greedy.append(t)
        rem = [r & ~p[t] for p, r in zip(planes, rem)]
    ub = len(greedy)
    ub_witness = greedy

    max_area = max(m.bit_count() for m in masks)
    lb = max(1, -(-len(entries) // max_area))

    nodes = 0
    # children decided per slice; no temporary holds more than _BLOCK_ENTRIES
    # words, since a node has at most as many children as there are rectangles
    step = _block_rows(len(masks) * words)
    position = np.arange(max(map(len, holder_ids)))

    def count(more: int) -> None:
        nonlocal nodes
        nodes += more
        if nodes > NODE_BUDGET:
            raise BudgetExceededError(
                f"rank search exceeded {NODE_BUDGET} nodes; proved rank >= {bound};"
                f" greedy cover has {ub} rectangles"
            )

    def dfs(rem: list, room: np.intp, chosen: list[int]) -> list[int] | None:
        """Search below a counted node that the bound kept, whose children
        may add ``room`` more rectangles after their own.

        A child whose residual lies inside an earlier child's is dropped:
        inside is transitive, so the earlier child, or one it lies inside,
        was tried.  A kept child is entered when nothing is left uncovered or
        ceil(left / max residual) <= room, where left is its uncovered
        entries and max residual their most in any one rectangle.
        """
        w = 0
        while not rem[w]:
            w += 1
        low = int(rem[w])
        target = 64 * w + (low & -low).bit_length() - 1
        ids = holder_ids[target]
        resid = [p & r for p, r in zip(holder_planes[target], rem)]
        outside = [~a for a in resid]
        for k in range(0, len(ids), step):
            kids = [a[k:k + step] for a in resid]
            # [i, j] is 0 iff residual j holds residual i, as i holds itself
            loose = reduce(np.bitwise_or, [a[:, None] & b for a, b in zip(kids, outside)])
            keep = loose.argmin(axis=1) == position[k:k + len(loose)]
            kept = ids[k:k + step][keep].tolist()
            rems = [(r ^ a)[keep] for a, r in zip(kids, rem)]
            left = bits(rems)
            reach = np.maximum.reduce(
                bits([a[:, None] & p for a, p in zip(rems, planes)]), axis=1)
            done = 0
            for j in (left <= room * reach).nonzero()[0].tolist():
                count(j + 1 - done)
                done = j + 1
                chosen.append(kept[j])
                found = dfs([a[j] for a in rems], room - 1, chosen) if left[j] else list(chosen)
                chosen.pop()
                if found is not None:
                    return found
            count(len(kept) - done)
        return None

    top = ub if limit is None else min(ub, limit)
    exact_sol: list[int] | None = None
    for bound in range(lb, top):
        count(1)  # the root, which the area bound lb keeps live
        # room is a numpy integer, so room * reach cannot wrap in the small
        # unsigned type the set sizes are counted in
        sol = dfs(universe, np.intp(bound - 1), [])
        if sol is not None:
            exact_sol = sol
            break

    if exact_sol is not None:
        witness = exact_sol
        value = len(witness)
    elif limit is None or ub <= limit:
        witness = ub_witness
        value = ub
    else:
        # proved >= limit but the true value may be anywhere in [limit, ub]
        cov = Cover(a.rows, a.cols, tuple(rects[t] for t in ub_witness))
        return RankCertificate(None, cov, limit, "search", False)

    cov = Cover(a.rows, a.cols, tuple(rects[t] for t in witness))
    res = verify_cover(a, cov)
    if not res:
        raise VerificationError(
            f"rank search produced an invalid cover at entry {res.witness}: {res.reason}",
            witness=res.witness,
        )
    return RankCertificate(value, cov, value, "search", True)


class _StopSearch(Exception):
    pass


@dataclass(frozen=True)
class IsolationResult:
    """Largest found set of pairwise-isolated 1-entries.

    Exact unless the search ran out of budget, in which case the value is
    still a valid lower bound with its witness.
    """

    value: int
    witness: tuple[tuple[int, int], ...]
    exact: bool


def isolation_number(a: BoolMatrix) -> IsolationResult:
    """Maximum set of 1-entries, pairwise in distinct rows and columns, no
    two inside an all-ones 2x2 submatrix (maximum-clique search), or the
    largest found within :data:`NODE_BUDGET` nodes."""
    dense = a.to_dense()
    verts = _ones(a)
    nv = len(verts)
    if nv == 0:
        return IsolationResult(0, (), True)
    adj = [0] * nv
    for u in range(nv):
        i, j = verts[u]
        for v in range(u + 1, nv):
            i2, j2 = verts[v]
            if i == i2 or j == j2:
                continue
            if dense[i, j2] and dense[i2, j]:
                continue  # the two would sit in an all-ones 2x2
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    best: list[int] = []
    nodes = 0
    exact = True

    def expand(cur: list[int], cand: int) -> None:
        nonlocal best, nodes, exact
        nodes += 1
        if nodes > NODE_BUDGET:
            exact = False
            raise _StopSearch
        if len(cur) + cand.bit_count() <= len(best):
            return
        if not cand:
            if len(cur) > len(best):
                best = list(cur)
            return
        while cand:
            if len(cur) + cand.bit_count() <= len(best):
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            cur.append(v)
            expand(cur, cand & adj[v])
            cur.pop()

    try:
        expand([], (1 << nv) - 1)
    except _StopSearch:
        pass
    return IsolationResult(len(best), tuple(verts[v] for v in best), exact)


@dataclass(frozen=True)
class MuResult:
    """ones(A) / max-rectangle-area as an exact fraction, with the witness."""

    value: Fraction
    ones: int
    max_rectangle_area: int
    witness: Rectangle
    via: str


def mu(a: BoolMatrix) -> MuResult:
    """Number of ones divided by the largest all-ones rectangle area.

    Crown matrices take the closed form n(n-1) / (ceil(n/2) * floor(n/2));
    everything else maximizes over the enumerated maximal rectangles.
    """
    ones = a.count_ones()
    if ones == 0:
        raise ValueError("mu is undefined for the zero matrix")
    if is_crown(a):
        n = a.rows
        h = (n + 1) // 2
        witness = Rectangle(tuple(range(h)), tuple(range(h, n)))
        area = h * (n - h)
        return MuResult(Fraction(n * (n - 1), area), ones, area, witness, "crown-closed-form")
    rects = maximal_rectangles(a)
    witness = min(rects, key=lambda r: (-r.area, r.row_set, r.col_set))
    return MuResult(
        Fraction(ones, witness.area), ones, witness.area, witness, "enumeration"
    )


@dataclass(frozen=True)
class KronLowerBound:
    """Lower bounds for the Boolean rank of a Kronecker product.

    ``value`` is the density bound ceil(max(mu(A) R(B), mu(B) R(A)));
    ``isolation_bound`` the classical max(i(A) R(B), R(A) i(B)).
    """

    value: int
    isolation_bound: int
    mu_a: Fraction
    mu_b: Fraction
    rank_a: int
    rank_b: int
    isolation_a: int
    isolation_b: int

    @property
    def best(self) -> int:
        return max(self.value, self.isolation_bound)


def _rank_value(m: BoolMatrix) -> int:
    if is_crown(m):
        return sigma(m.rows)
    cert = exact_boolean_rank(m)
    if not cert.exact:
        raise BudgetExceededError("exact rank unavailable for lower-bound factor")
    return cert.value


def kron_lower_bound(a: BoolMatrix, b: BoolMatrix) -> KronLowerBound:
    """Certified lower bound on the rank of ``a (x) b`` (both orders tried).

    When ``b`` is ``a``, each factor bound is computed once.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("lower bound requires nonzero factors")

    def both(bound):
        x = bound(a)
        return x, x if b is a else bound(b)

    mu_a, mu_b = both(lambda m: mu(m).value)
    rank_a, rank_b = both(_rank_value)
    iso_a, iso_b = both(isolation_number)
    if not (iso_a.exact and iso_b.exact):
        raise BudgetExceededError("isolation search exceeded its budget")
    value = math.ceil(max(mu_a * rank_b, mu_b * rank_a))
    iso_bound = max(iso_a.value * rank_b, rank_a * iso_b.value)
    return KronLowerBound(
        value, iso_bound, mu_a, mu_b, rank_a, rank_b, iso_a.value, iso_b.value
    )


def format_rank_certificate(cert: RankCertificate) -> str:
    return format_cover(cert.upper) + f"LOWER kind={cert.lower_kind} value={cert.lower}\n"
