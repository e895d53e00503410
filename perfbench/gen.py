"""Input files and expected answers, built with numpy alone.

Nothing here imports boolrank: every input the benchmark feeds the CLI, and
every answer it checks the CLI against, is derived from the constructions
themselves, so a defect in the program cannot hide in its own test data.
The text is written in boolrank's file formats (see the README there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np


def sigma(n: int) -> int:
    """Boolean rank of the order-n crown: least k with n <= C(k, ceil(k/2))."""
    k = 0
    while math.comb(k, (k + 1) // 2) < n:
        k += 1
    return k


def crown_dense(n: int) -> np.ndarray:
    a = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(a, 0)
    return a


def matrix_text(a: np.ndarray) -> bytes:
    """Matrix format: ``rows cols`` then one 0/1 line per row."""
    rows, cols = a.shape
    body = np.full((rows, cols + 1), ord("\n"), dtype=np.uint8)
    body[:, :cols] = a.astype(np.uint8) + ord("0")
    return f"{rows} {cols}\n".encode() + body.tobytes()


# A rectangle is a pair of sorted int arrays (rows, cols).

def cover_text(rows: int, cols: int, rects) -> str:
    lines = [f"COVER {rows} {cols} {len(rects)}"]
    for r, c in rects:
        lines.append(f"R {','.join(map(str, r.tolist()))} C {','.join(map(str, c.tolist()))}")
    return "\n".join(lines) + "\n"


def family_text(n: int, blocks: list[str]) -> str:
    """Family format around members already in cover format."""
    return f"FAMILY {n} {n} {len(blocks)}\n" + "".join(blocks)


def family_of(n: int, members) -> str:
    return family_text(n, [cover_text(n, n, m) for m in members])


def colex(ground, size):
    return sorted(combinations(ground, size), key=lambda s: s[::-1])


def canonical_cover(n: int):
    """sigma(n) element rectangles of the crown over the first n colex sets."""
    k = sigma(n)
    sets = colex(range(1, k + 1), (k + 1) // 2)[:n]
    rects = []
    for t in range(1, k + 1):
        has = np.array([t in s for s in sets])
        if has.any() and not has.all():
            rects.append((np.nonzero(has)[0], np.nonzero(~has)[0]))
    return rects


def product_cover(n: int):
    """All products of two canonical crown covers: a cover of crown(n) (x) crown(n)."""
    base = canonical_cover(n)
    return [
        ((r1[:, None] * n + r2).ravel(), (c1[:, None] * n + c2).ravel())
        for r1, c1 in base
        for r2, c2 in base
    ]


def rect_union(rows: int, cols: int, rects) -> np.ndarray:
    u = np.zeros((rows, cols), dtype=bool)
    for r, c in rects:
        mask = np.zeros(cols, dtype=bool)
        mask[c] = True
        u[r] |= mask
    return u


def first_set(diff: np.ndarray) -> tuple[int, int] | None:
    flat = np.flatnonzero(diff)
    if flat.size == 0:
        return None
    return divmod(int(flat[0]), diff.shape[1])


@dataclass(frozen=True)
class Algebraic:
    """The every-q family for d, q: p - 1 members over the crown of order p^q.

    Member i (1-based) has one rectangle per element t of block 1 = [2d]:
    rows z whose chosen d-subset B[g_i(z)] holds t, columns whose does not,
    with g_i(x) = sum_t i^(t-1) x_t mod p and z = sum_t x_t p^(t-1).
    """

    d: int
    q: int

    @property
    def p(self) -> int:
        m = math.comb(2 * self.d, self.d)
        while any(m % f == 0 for f in range(2, math.isqrt(m) + 1)):
            m -= 1
        return m

    @property
    def n(self) -> int:
        return self.p**self.q

    def members(self):
        p, q, n, d = self.p, self.q, self.n, self.d
        subsets = colex(range(1, 2 * d + 1), d)[:p]
        in_b = np.array([[t in s for t in range(1, 2 * d + 1)] for s in subsets])
        z = np.arange(n, dtype=np.int64)
        digits = np.stack([(z // p**t) % p for t in range(q)], axis=1)
        out = []
        for i in range(1, p):
            g = digits @ np.array([pow(i, t, p) for t in range(q)], dtype=np.int64) % p
            rects = []
            for col in range(2 * d):
                sel = in_b[g, col]
                if sel.any() and not sel.all():
                    rects.append((np.nonzero(sel)[0], np.nonzero(~sel)[0]))
            out.append(rects)
        return out


def asymptotic_d(n: int, q: int, s: int) -> int:
    """Smallest d whose family has a prime p > q, p - 1 >= s members and
    p^q >= n, as the asymptotic pipeline with explicit q and s picks it."""
    d = 1
    while True:
        p = Algebraic(d, q).p
        if p > q and p - 1 >= s and p**q >= n:
            return d
        d += 1


def restrict(members, n: int):
    """Each member's rectangles cut to the leading n x n corner; empty ones dropped."""
    out = []
    for rects in members:
        cut = [(r[r < n], c[c < n]) for r, c in rects]
        out.append([(r, c) for r, c in cut if r.size and c.size])
    return out


def row_coverage(rects, z: int, n: int) -> np.ndarray:
    """Columns of row z that a member (given by its rectangles) covers."""
    out = np.zeros(n, dtype=bool)
    for r, c in rects:
        if z in r:
            out[c] = True
    return out


def remove_entry(rects, z: int, zc: int):
    """The member's rectangles with entry (z, zc) cut out of every one holding it."""
    out = []
    for r, c in rects:
        if z in r and zc in c:
            rest = r[r != z]
            if rest.size:
                out.append((rest, c))
            cols = c[c != zc]
            if cols.size:
                out.append((np.array([z]), cols))
        else:
            out.append((r, c))
    return out


def qcover_negative(members, n: int, q: int, rng: np.random.Generator):
    """Weaken member 0 at one entry that exactly q - 1 others miss.

    Returns the weakened family and the lex-first failing q-subset, found by
    scanning all q-subsets against the brute-force coverage of that entry.
    Every other entry keeps its coverage, so q-subsets fail only through it
    (the unweakened family is checked by the positive qcover job).  Member 1
    is required among the missers so the failing subset sits early in lex
    order and the negative job costs the same for every seed.
    """
    s = len(members)
    while True:
        z = int(rng.integers(n))
        cov = np.stack([row_coverage(m, z, n) for m in members])
        missed_by = (~cov).sum(axis=0)
        ok = cov[0] & ~cov[1] & (missed_by == q - 1)
        ok[z] = False
        cand = np.nonzero(ok)[0]
        if cand.size:
            break
    zc = int(cand[rng.integers(cand.size)])
    weak = list(members)
    weak[0] = remove_entry(members[0], z, zc)
    covers_e = [bool(row_coverage(m, z, n)[zc]) for m in weak]
    witness = next(
        sub for sub in combinations(range(s), q) if not any(covers_e[t] for t in sub)
    )
    return weak, witness


def kron_negative(members, n: int, rng: np.random.Generator):
    """Cut one entry e of b out of two members of the n-family.

    e is held by four members; the two cut are chosen so that the other two
    are exactly the members missing some entry of a, whose signature then
    fails.  Returns the weakened family and the witness of ``verify kron a
    fam b weak``: the first 1-entry of a (row-major) whose covering members,
    taken from the weakened family, fail to cover b, by brute force over
    every entry and every signature.
    """
    a = crown_dense(n).astype(bool)
    s = len(members)
    dense = [rect_union(n, n, m) for m in members]
    sig = np.zeros((n, n), dtype=np.int64)
    for t, m in enumerate(dense):
        sig |= m.astype(np.int64) << t
    present = set(np.unique(sig[a]).tolist())
    full = (1 << s) - 1
    held4 = np.argwhere(a & (np.bitwise_count(sig) == 4))
    while True:
        z, zc = (int(x) for x in held4[rng.integers(len(held4))])
        holders = [t for t in range(s) if sig[z, zc] >> t & 1]
        keep = rng.permutation(holders)[:2].tolist()
        if full ^ (1 << keep[0]) ^ (1 << keep[1]) in present:
            break
    cut = [t for t in holders if t not in keep]
    weak = [remove_entry(m, z, zc) if t in cut else m for t, m in enumerate(members)]
    weak_dense = [rect_union(n, n, m) for m in weak]
    failing = []
    for value in sorted(present):
        union = np.zeros((n, n), dtype=bool)
        for t in range(s):
            if value >> t & 1:
                union |= weak_dense[t]
        if not np.array_equal(union, a):
            failing.append(value)
    return weak, first_set(a & np.isin(sig, failing))


def cover_negative(n: int, rects, rng: np.random.Generator):
    """Drop one rectangle that alone covers some entry; witness by brute force."""
    target = np.kron(crown_dense(n), crown_dense(n)).astype(bool)
    while True:
        drop = int(rng.integers(len(rects)))
        kept = rects[:drop] + rects[drop + 1:]
        witness = first_set(target & ~rect_union(target.shape[0], target.shape[1], kept))
        if witness is not None:
            return kept, witness


# Isolation number of crown(n), n >= 3.  Entries (i, j) and (i2, j2) of a
# crown, in distinct rows and columns, are isolated iff j2 = i or j = i2.
# Read (i, j) as an arc i -> j: an arc meets at most one arc at its head and
# one at its tail, so at most 3 arcs are pairwise isolated, and a directed
# triangle has 3.
CROWN_ISOLATION = 3


def crown_mu(n: int) -> Fraction:
    h = (n + 1) // 2
    return Fraction(n * (n - 1), h * (n - h))


def isolated_set(a: np.ndarray, entries) -> bool:
    """1-entries in distinct rows and columns, no two inside an all-ones 2x2."""
    for (i, j), (i2, j2) in combinations(entries, 2):
        if i == i2 or j == j2 or (a[i, j2] and a[i2, j]):
            return False
    return all(a[i, j] for i, j in entries)
