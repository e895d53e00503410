"""Spanoids: monotone inference systems generalizing rectangle covers.

A spanoid is a finite universe with reflexive, monotone inference rules
(S, i) read "S spans i"; the span of a set is its derivation closure and
the rank is the smallest spanning set.  The spanoid attached to a 0/1
matrix has the rank-1 submatrices as universe and Boolean-sum domination as
inference; its rank equals the matrix's Boolean rank, and the rank of the
Kronecker-style product of two matrix spanoids equals the Boolean rank of
the matrices' Kronecker product.

Rank search is brute force over subsets in lexicographic order and is
capped (subset size, universe size); these propositions are only checkable
at tiny scale.  The caps are the module constants below, read on every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .boolmat import (
    BoolMatrix,
    _bit_indices,
    _Lines,
    _parse_block,
    _parse_index_list,
    _parse_text,
    _read_text,
    _row_ints,
    read_matrix,
)
from .errors import BudgetExceededError, DimensionError, FormatError

MATRIX_UNIVERSE_CAP = 10_000
PRODUCT_UNIVERSE_CAP = 100
RANK_SIZE_CAP = 6
SUBSET_BUDGET = 10**7


class Spanoid:
    """Base class: a universe plus an ``infers`` predicate.

    ``infers(S, i)`` must be reflexive (i in S implies True) and monotone in
    S; :meth:`span` computes the least fixed point, which monotonicity makes
    independent of the order elements are added in.
    """

    universe: Sequence

    def __len__(self) -> int:
        return len(self.universe)

    def infers(self, subset: frozenset[int], i: int) -> bool:
        raise NotImplementedError

    def span(self, t: Iterable[int]) -> frozenset[int]:
        current = set(t)
        for i in current:
            if not 0 <= i < len(self.universe):
                raise DimensionError(f"element {i} outside universe")
        changed = True
        while changed:
            changed = False
            for i in range(len(self.universe)):
                if i not in current and self.infers(current, i):
                    current.add(i)
                    changed = True
        return frozenset(current)

    def spans_all(self, t: Iterable[int]) -> bool:
        return len(self.span(t)) == len(self.universe)


class RuleSpanoid(Spanoid):
    """A spanoid given by an explicit rule list over universe 0..u-1."""

    def __init__(self, size: int, rules: Sequence[tuple[frozenset[int], int]]):
        if size < 0:
            raise DimensionError("universe size must be non-negative")
        self.universe = range(size)
        self.rules = tuple((frozenset(s), i) for s, i in rules)
        for s, i in self.rules:
            if not 0 <= i < size or any(not 0 <= x < size for x in s):
                raise DimensionError(f"rule ({sorted(s)}, {i}) outside universe")
        self._by_target: dict[int, list[frozenset[int]]] = {}
        for s, i in self.rules:
            self._by_target.setdefault(i, []).append(s)

    def infers(self, subset: frozenset[int], i: int) -> bool:
        if i in subset:
            return True
        return any(req <= subset for req in self._by_target.get(i, ()))


class MatrixSpanoid(Spanoid):
    """The spanoid of a 0/1 matrix: rank-1 submatrices under sum domination.

    The universe enumerates all nonempty all-ones (row set, column set)
    pairs dominated by the matrix, in colex order of the index bitmasks, and
    in particular contains every single-1 matrix on the support.
    """

    def __init__(self, matrix: BoolMatrix):
        self.matrix = matrix
        r, c = matrix.rows, matrix.cols
        row_bits = _row_ints(matrix)
        elems: list[tuple[int, int]] = []
        masks: list[int] = []
        for rowmask in range(1, 1 << r):
            rows = _bit_indices(rowmask)
            allowed = (1 << c) - 1
            for i in rows:
                allowed &= row_bits[i]
            if not allowed:
                continue
            # nonempty submasks of `allowed` in increasing (= colex) order
            for colmask in range(1, allowed + 1):
                if colmask & ~allowed:
                    continue
                if len(elems) >= MATRIX_UNIVERSE_CAP:
                    raise BudgetExceededError(
                        f"matrix spanoid universe exceeds cap {MATRIX_UNIVERSE_CAP}"
                    )
                elems.append((rowmask, colmask))
                masks.append(sum(colmask << (i * c) for i in rows))
        self.universe = tuple(elems)
        self.entry_masks = tuple(masks)
        self.support_mask = sum(bits << (i * c) for i, bits in enumerate(row_bits))

    def _union(self, t: Iterable[int]) -> int:
        """Entries (bit i*cols + j) covered by the elements ``t``."""
        acc = 0
        for i in t:
            acc |= self.entry_masks[i]
        return acc

    def infers(self, subset: frozenset[int], i: int) -> bool:
        return self.entry_masks[i] & ~self._union(subset) == 0

    def span(self, t: Iterable[int]) -> frozenset[int]:
        # adding a dominated element never grows the Boolean sum, so the
        # closure is a single domination filter
        acc = self._union(t)
        return frozenset(
            i for i, m in enumerate(self.entry_masks) if m & ~acc == 0
        )

    def spans_all(self, t: Iterable[int]) -> bool:
        return self._union(t) == self.support_mask

    def element_matrix(self, i: int) -> BoolMatrix:
        rowmask, colmask = self.universe[i]
        dense = np.zeros((self.matrix.rows, self.matrix.cols), dtype=np.uint8)
        dense[np.ix_(_bit_indices(rowmask), _bit_indices(colmask))] = 1
        return BoolMatrix.from_dense(dense)


class ProductSpanoid(Spanoid):
    """The Kronecker-style product: universe U1 x U2 with the two lifted
    rule schemas (a rule of either component fires along a fixed other
    coordinate)."""

    def __init__(self, s1: Spanoid, s2: Spanoid):
        self.s1 = s1
        self.s2 = s2
        self.n2 = len(s2.universe)
        # element (i, j) is index i * n2 + j, so nothing is allocated per element
        self.universe = range(len(s1.universe) * self.n2)

    def infers(self, subset: frozenset[int], idx: int) -> bool:
        if idx in subset:
            return True
        i, j = divmod(idx, self.n2)
        proj1 = frozenset(s // self.n2 for s in subset if s % self.n2 == j)
        if self.s1.infers(proj1, i):
            return True
        proj2 = frozenset(s % self.n2 for s in subset if s // self.n2 == i)
        return self.s2.infers(proj2, j)

    def span(self, t: Iterable[int]) -> frozenset[int]:
        # Each product rule acts within one column (s1) or one row (s2), so
        # closing every line in turn until nothing is added reaches the same
        # fixpoint.  Empty lines too: a rule with an empty premise fires there.
        n1, n2 = len(self.s1.universe), self.n2
        current = set(t)
        cols: list[list[int]] = [[] for _ in range(n2)]
        for idx in current:
            if not 0 <= idx < len(self.universe):
                raise DimensionError(f"element {idx} outside universe")
            cols[idx % n2].append(idx // n2)
        size = len(current)
        while True:
            rows = [self.s2.span(r) for r in _transpose(map(self.s1.span, cols), n1)]
            cols = _transpose(rows, n2)
            grown = sum(map(len, rows))
            if grown == size:
                return frozenset(i * n2 + j for i, row in enumerate(rows) for j in row)
            size = grown


def _transpose(lines: Iterable[Iterable[int]], n: int) -> list[list[int]]:
    """Line b of the result lists every a whose line a holds b."""
    out: list[list[int]] = [[] for _ in range(n)]
    for a, line in enumerate(lines):
        for b in line:
            out[b].append(a)
    return out


@dataclass(frozen=True)
class RankResult:
    value: int
    witness: tuple[int, ...]


def spanoid_rank(s: Spanoid) -> RankResult:
    """Smallest spanning set by subset search in lexicographic order.

    Searches sizes 0, 1, ... up to :data:`RANK_SIZE_CAP` and raises when
    the caps or :data:`SUBSET_BUDGET` are exhausted before an answer is
    proven.  A rule spanoid element that no rule infers from other elements
    is in every spanning set, so when there are more such elements than the
    size cap the search is refused before it starts.
    """
    n = len(s.universe)
    if isinstance(s, ProductSpanoid) and n > PRODUCT_UNIVERSE_CAP:
        raise BudgetExceededError(
            f"product universe {n} exceeds cap {PRODUCT_UNIVERSE_CAP}"
        )
    if isinstance(s, RuleSpanoid):
        forced = n - len({i for req, i in s.rules if i not in req})
        if forced > RANK_SIZE_CAP:
            raise BudgetExceededError(
                f"{forced} elements are inferred by no rule, so no spanning set "
                f"has size <= {RANK_SIZE_CAP}"
            )
    examined = 0
    for size in range(0, min(n, RANK_SIZE_CAP) + 1):
        for cand in combinations(range(n), size):
            examined += 1
            if examined > SUBSET_BUDGET:
                raise BudgetExceededError(
                    f"rank search exceeded {SUBSET_BUDGET} subsets"
                )
            if s.spans_all(cand):
                return RankResult(size, cand)
    raise BudgetExceededError(f"no spanning set of size <= {RANK_SIZE_CAP} found")


@dataclass(frozen=True)
class ProductBoundResult:
    """Outcome of the product-rank upper-bound check.

    ``ok`` means the per-element hypothesis holds; ``bound`` is then the
    certified sum of |M_t| * |N_t|.  Otherwise ``witness`` is the first
    element of U1 at which the hypothesis fails.
    """

    ok: bool
    bound: int | None
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_product_bound(
    s1: Spanoid,
    s2: Spanoid,
    m_sets: Sequence[Iterable[int]],
    n_sets: Sequence[Iterable[int]],
) -> ProductBoundResult:
    """Verify the spanoid composition hypothesis and certify the bound.

    Requires, for every i in U1, that the union of the N_t with i in M_t
    spans U2, and returns sum |M_t| |N_t|.  The hypothesis implies that the
    union X of the M_t x N_t spans U1 x U2: row i of X holds that union, so
    the second component's rules along row i span all of {i} x U2, for
    every i.
    """
    if len(m_sets) != len(n_sets):
        raise DimensionError("set lists must have equal length")
    m_sets = [frozenset(m) for m in m_sets]
    n_sets = [frozenset(nn) for nn in n_sets]
    for m in m_sets:
        if any(not 0 <= x < len(s1.universe) for x in m):
            raise DimensionError("m-set element outside first universe")
    for nn in n_sets:
        if any(not 0 <= x < len(s2.universe) for x in nn):
            raise DimensionError("n-set element outside second universe")

    for i in range(len(s1.universe)):
        union: set[int] = set()
        for m, nn in zip(m_sets, n_sets):
            if i in m:
                union |= nn
        if not s2.spans_all(union):
            return ProductBoundResult(False, None, witness=i)
    bound = sum(len(m) * len(nn) for m, nn in zip(m_sets, n_sets))
    return ProductBoundResult(True, bound)


# -- text formats ---------------------------------------------------------------

def format_rule_spanoid(s: RuleSpanoid) -> str:
    return f"SPANOID {len(s.universe)} {len(s.rules)}\n" + "".join(
        [f"S: {','.join(map(str, sorted(req)))} -> {tgt}\n" for req, tgt in s.rules]
    )


def _rule(line: bytes, lineno: int) -> tuple[frozenset[int], int]:
    left, arrow, right = line.partition(b"->")
    if not left.startswith(b"S:") or not arrow:
        raise FormatError("expected 'S: i1,...,ik -> j'", line=lineno)
    target = _parse_index_list(right.strip(), lineno)
    if target.size != 1:
        raise FormatError("a rule infers exactly one index", line=lineno)
    premise = _parse_index_list(left[2:].strip(), lineno)
    return frozenset(premise.tolist()), int(target[0])


def _parse_spanoid(lines: _Lines) -> RuleSpanoid:
    (u, _), rules = _parse_block(lines, "SPANOID", "u r", _rule)
    return RuleSpanoid(u, rules)


def parse_spanoid(text: str | bytes) -> RuleSpanoid:
    return _parse_text(text, _parse_spanoid)


def _rules_or_matrix_file(lines: _Lines) -> RuleSpanoid | str:
    """The spanoid of a SPANOID text, or the matrix file that a one-line
    MATSPANOID text names, in UTF-8."""
    taken = []  # up to the first line that is not blank
    while (line := lines.take()) is not None:
        taken.append(line)
        if line.strip():
            break
    parts = taken[-1].split(None, 1) if taken else []
    if parts[:1] != [b"MATSPANOID"]:
        return _parse_spanoid(_Lines(chain(taken, lines)))
    if len(parts) != 2:
        raise FormatError("expected 'MATSPANOID <matrix-file>'", line=lines.lineno)
    try:
        path = parts[1].strip().decode()
    except UnicodeDecodeError:
        raise FormatError("the matrix file name must be UTF-8", line=lines.lineno) from None
    lines.end("MATSPANOID")
    return path


def read_spanoid(path: str) -> Spanoid:
    """Read a SPANOID rule file or a one-line MATSPANOID matrix reference,
    the rest of its line, relative to the file's directory."""
    found = _read_text(path, _rules_or_matrix_file)
    if isinstance(found, RuleSpanoid):
        return found
    base = os.path.dirname(os.path.abspath(path))
    return MatrixSpanoid(read_matrix(os.path.join(base, found)))


def _index_set(line: bytes, lineno: int) -> frozenset[int]:
    return frozenset(_parse_index_list(line.strip(), lineno).tolist())


def _parse_index_sets(lines: _Lines) -> list[frozenset[int]]:
    return _parse_block(lines, "SETS", "s", _index_set)[1]


def parse_index_sets(text: str | bytes) -> list[frozenset[int]]:
    """SETS format: 'SETS s' then s lines of comma-separated indices
    (an empty line is the empty set)."""
    return _parse_text(text, _parse_index_sets)


def read_index_sets(path: str) -> list[frozenset[int]]:
    return _read_text(path, _parse_index_sets)
