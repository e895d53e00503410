"""Finite-field function families and every-q-cover constructions.

Over a prime p, the p-1 functions g_i(x) = sum_t i^(t-1) * x_t (mod p) have
two properties: fixing all but the first coordinate leaves a bijection in
x_1, and no q distinct functions share a common collision (their coefficient
rows form an invertible Vandermonde system).  Feeding them through the
subset-family machinery yields, for block size 2d and arity q, a family of
p-1 crown covers of order p^q whose members have rank at most 2d and such
that *every q members* cover the crown.

Taking s of those members (s <= p-1, ceil(s/2) >= q) satisfies the
half-covering hypothesis of the cover composition, which certifies a
cover of crown (x) crown of size s * (2d)^2 -- the route to the
sub-multiplicativity gap at scales where the product cannot be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .boolmat import require_materializable
from .cover import KronCoverDescription, MatrixFamily, verify_kron_hypotheses
from .crown import CrownTarget, _colex, _element_cover, _sets, sigma
from .errors import DimensionError, MaterializationLimitError


def largest_prime_leq(m: int) -> int:
    """Largest prime <= m, by trial division."""
    if m < 2:
        raise DimensionError(f"no prime <= {m}")
    for c in range(m, 1, -1):
        if _is_prime(c):
            return c
    raise AssertionError("unreachable")


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class ZpFunctionFamily:
    """The p-1 functions g_i(x) = sum_t i^(t-1) x_t mod p on Z_p^q.

    Tuples are encoded as flat indices with x_1 least significant:
    z = sum_t x_t * p^(t-1).  Both properties are decided from the
    coefficient rows, since every g_i is linear.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DimensionError("need q >= 1")
        if not _is_prime(self.p):
            raise DimensionError(f"p={self.p} is not prime")
        if self.p <= self.q:
            raise DimensionError(f"need p > q, got p={self.p}, q={self.q}")

    def coefficients(self, i: int) -> tuple[int, ...]:
        """The coefficient row (i^0, ..., i^(q-1)) mod p of g_i."""
        if not 1 <= i <= self.p - 1:
            raise DimensionError(f"function index {i} outside [1..{self.p - 1}]")
        return tuple(pow(i, t, self.p) for t in range(self.q))

    def evaluate(self, i: int, n: int) -> np.ndarray:
        """g_i over the first n tuples in the flat encoding."""
        z = np.arange(n, dtype=np.int64)
        digits = np.stack([(z // self.p**t) % self.p for t in range(self.q)], axis=1)
        return (digits @ np.array(self.coefficients(i), dtype=np.int64)) % self.p

    def evaluate_all(self, i: int) -> np.ndarray:
        """g_i over all p^q tuples, indexed by the flat encoding."""
        return self.evaluate(i, self.p**self.q)

    def check_bijection_property(self) -> bool:
        """For each i and fixed tail, x_1 -> g_i(x) is a bijection of Z_p.

        g_i(x) is its x_1 coefficient times x_1 plus a term free of x_1, so
        it is a bijection in x_1 exactly when that coefficient is nonzero.
        """
        return all(self.coefficients(i)[0] != 0 for i in range(1, self.p))

    def check_no_common_collision(self) -> bool:
        """No q distinct functions agree on two distinct tuples.

        Their joint map x -> (g_i1(x), ..., g_iq(x)) is linear, so it has a
        collision exactly when its q coefficient rows have rank < q mod p;
        every q-subset of the p-1 rows is checked.
        """
        rows = [self.coefficients(i) for i in range(1, self.p)]
        return all(
            _rank_mod_p(subset, self.p) == self.q
            for subset in combinations(rows, self.q)
        )


def _rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over Z_p (p prime) of the matrix with these rows, by elimination."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class AlgebraicCoverParams:
    """Shape of one every-q-cover instance.

    ``blocks`` partitions [k] into q runs of 2d elements; ``block_subsets``
    holds the p chosen d-subsets per block (colex-smallest).
    """

    d: int
    q: int
    p: int
    n: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
    block_subsets: tuple[tuple[tuple[int, ...], ...], ...]


def _members(d: int, p: int, q: int, s: int, n: int) -> MatrixFamily:
    """Members 1..s of the every-q family of order p^q, on its n x n corner.

    Element e of block 1 gives member i the rectangle of the z < n whose
    block-1 subset, rewritten through g_i, holds e, by those whose subset
    lacks it; empty rectangles are dropped.
    """
    in_b1 = _colex(2 * d, d, p)
    zp = ZpFunctionFamily(p, q)
    return MatrixFamily(tuple(
        _element_cover(in_b1[zp.evaluate(i, n)], range(2 * d))
        for i in range(1, s + 1)
    ))


def algebraic_family(d: int, q: int) -> tuple[AlgebraicCoverParams, MatrixFamily]:
    """Build the p-1 matrices of rank <= 2d, every q of which cover the crown.

    p is the largest prime <= C(2d, d) and the crown order is n = p^q.  Member
    i sums the element rectangles of block 1 after rewriting each family
    set's block-1 part through g_i.  The family holds each member's
    decomposition, those (at most 2d) rectangles; members are built only
    when read.  An n x n member above the ``BOOLRANK_MAX_ENTRIES`` limit
    raises :class:`MaterializationLimitError`.
    """
    if d < 1:
        raise DimensionError("need d >= 1")
    if q < 2:
        raise DimensionError("need q >= 2")
    p = largest_prime_leq(comb(2 * d, d))
    if p <= q:
        raise DimensionError(f"largest prime {p} <= C({2*d},{d}) does not exceed q={q}")
    n = p**q
    require_materializable("family matrix", n * n)
    fam = _members(d, p, q, p - 1, n)
    blocks = tuple(
        tuple(range((j - 1) * 2 * d + 1, j * 2 * d + 1)) for j in range(1, q + 1)
    )
    subsets = _sets(_colex(2 * d, d, p))
    block_subsets = tuple(
        tuple(tuple(e + block[0] - 1 for e in s) for s in subsets) for block in blocks
    )
    return AlgebraicCoverParams(d, q, p, n, 2 * d * q, blocks, block_subsets), fam


# -- asymptotic pipeline --------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticParams:
    """Derived parameters for covering crown(n) (x) crown(n).

    p is the largest prime <= C(2d, d) and ``bound`` = s (2d)^2.
    ``arithmetic_feasible`` requires p > q and p - 1 >= s (enough family
    members to select from).  Whether the members' indices fit the
    ``BOOLRANK_MAX_ENTRIES`` limit is decided by :func:`asymptotic_cover`,
    before it builds them.  ``k`` is the crown rank padded to even.
    """

    n: int
    d: int
    q: int
    s: int
    p: int
    k: int
    bound: int
    arithmetic_feasible: bool


def _params(n: int, d: int, q: int, s: int) -> AsymptoticParams:
    """The parameters at (d, q, s), with k the crown rank padded to even."""
    if n < 2:
        raise DimensionError("need n >= 2")
    p = largest_prime_leq(comb(2 * d, d))
    k = sigma(n)
    return AsymptoticParams(
        n, d, q, s, p, k + k % 2, s * (2 * d) ** 2, p > q and p - 1 >= s
    )


def asymptotic_params(n: int) -> AsymptoticParams:
    """Parameters of the strict pipeline with arity q = 2^d.

    Picks the smallest d with n <= ((1/2) C(2d, d))^(2^d), reports the family
    size s = 2^(d+1) and the rectangle bound 2^(d+3) d^2, and flags whether
    the prime is large enough to select s members.
    """
    d = 1
    while (comb(2 * d, d) // 2) ** (2**d) < n:
        d += 1
    return _params(n, d, 2**d, 2 ** (d + 1))


def generalized_params(n: int, q: int, s: int) -> AsymptoticParams:
    """Parameters for a caller-chosen arity q and selection size s.

    The smallest d is chosen from the *actual* prime: p = largest prime
    <= C(2d, d) with p > q, p - 1 >= s and p^q >= n.  The composition route
    needs every ceil(s/2)-subset to inherit the every-q property, so
    s >= 2q - 1.
    """
    if q < 2:
        raise DimensionError("need q >= 2")
    if s < 2 * q - 1:
        raise DimensionError(f"need s >= 2q-1 = {2 * q - 1} so half-subsets cover")
    d = 1
    while True:
        p = largest_prime_leq(comb(2 * d, d))
        if p > q and p - 1 >= s and p**q >= n:
            return _params(n, d, q, s)
        d += 1


@dataclass(frozen=True)
class AsymptoticCoverResult:
    """Outcome of the asymptotic pipeline: parameters plus, when feasible,
    the lazily-verified cover description of crown(n) (x) crown(n)."""

    params: AsymptoticParams
    description: KronCoverDescription | None
    message: str

    @property
    def feasible(self) -> bool:
        return self.description is not None


def format_params_line(result: AsymptoticCoverResult) -> str:
    """The PARAMS line; ``feasible=yes`` iff the cover was built and verified."""
    params = result.params
    feasible = "yes" if result.feasible else "no"
    return (
        f"PARAMS d={params.d} q={params.q} p={params.p} n={params.n} "
        f"k={params.k} s={params.s} bound={params.bound} feasible={feasible}"
    )


def asymptotic_cover(
    n: int, q: int | None = None, s: int | None = None
) -> AsymptoticCoverResult:
    """Cover crown(n) (x) crown(n) through the every-q family.

    Without ``q``/``s`` the strict parameters (q = 2^d, s = 2^(d+1)) are
    used; they are arithmetically feasible from n = 82 on.  With explicit
    ``q`` and ``s`` the smallest workable d is chosen.  Either way the
    first s members are built on the leading n x n corner of the order-p^q
    family, and the composition hypotheses are verified symmetrically
    against crown(n), whose rows are made a scan block at a time
    (:class:`~boolrank.crown.CrownTarget`), so neither crown(n) nor the
    product is built.  What is held is the members: their rectangles' sides
    hold at most s 2d n indices, and above the ``BOOLRANK_MAX_ENTRIES``
    limit the members are not built.  At the default limit the strict
    parameters (s 2d = 96) verify for 82 <= n <= 22,369,621, though the
    check's time grows with the n^2 entries it scans.  When the parameters
    are infeasible, or the indices are over the limit, the result carries
    the parameter report only, with the reason in its message.
    """
    if (q is None) != (s is None):
        raise DimensionError("supply both q and s, or neither")
    params = asymptotic_params(n) if q is None else generalized_params(n, q, s)
    if not params.arithmetic_feasible:
        return AsymptoticCoverResult(
            params,
            None,
            f"infeasible: p-1 = {params.p - 1} members available, "
            f"need s = {params.s} (or prime {params.p} <= q = {params.q})",
        )
    try:
        require_materializable("member indices", params.s * 2 * params.d * n)
    except MaterializationLimitError as err:
        return AsymptoticCoverResult(
            params, None, f"{err}: over the materialization limit; report only"
        )
    selected = _members(params.d, params.p, params.q, params.s, n)
    target = CrownTarget(n)
    verify_kron_hypotheses(target, selected, target, selected).require()
    description = KronCoverDescription(selected, selected)
    return AsymptoticCoverResult(
        params, description, f"verified composed cover of size {description.size}"
    )
