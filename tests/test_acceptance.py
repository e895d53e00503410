"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report).  Shared heavyweight constructions come from session
fixtures so the whole suite stays inside its time budgets.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

import numpy as np

from boolrank.algebraic import ZpFunctionFamily, asymptotic_cover, asymptotic_params
from boolrank.boolmat import BoolMatrix, boolean_sum, kronecker
from boolrank.bounds import exact_boolean_rank, isolation_number, kron_lower_bound
from boolrank.cover import (
    Cover,
    MatrixFamily,
    Rectangle,
    check_q_covering,
    compose_kron_cover,
    verify_cover,
    verify_kron_hypotheses,
)
from boolrank.crown import (
    _colex,
    _g,
    _h_held,
    _masks,
    c4_triple,
    c5_triple,
    crown_matrix,
    gap_cover,
    gap_families,
    is_L_intersection_shifting,
    is_L_preserving,
    sigma,
    triple_cover,
)
from boolrank.spanoid import MatrixSpanoid, ProductSpanoid, check_product_bound, spanoid_rank


def _report(num: int, desc: str, ok: bool, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {state} ({time.time() - started:.1f}s): {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_sigma_oracle():
    t0 = time.time()
    ok = all(exact_boolean_rank(crown_matrix(n)).value == sigma(n) for n in range(1, 9))
    _report(1, "sigma(n) equals the exact Boolean rank of the crown for n <= 8", ok, t0)


def test_criterion_02_order4_square():
    t0 = time.time()
    c4 = crown_matrix(4)
    cov = compose_kron_cover(c4_triple(), c4_triple())
    lower = kron_lower_bound(c4, c4).value
    ok = (
        cov.size == 12
        and bool(verify_cover(kronecker(c4, c4), cov))
        and lower == 12
    )
    _report(2, "composed 12-rectangle cover and matching lower bound for C4xC4", ok, t0)


def test_criterion_03_c4_c5_14():
    t0 = time.time()
    from boolrank.cover import best_triple_pairing

    c4, c5 = crown_matrix(4), crown_matrix(5)
    n_fam, _ = best_triple_pairing(c4_triple(), c5_triple())
    cov = compose_kron_cover(c4_triple(), n_fam)
    lower = kron_lower_bound(c4, c5)
    ok = (
        cov.size == 14
        and bool(verify_cover(kronecker(c4, c5), cov))
        and lower.value == 14
        and math.ceil(Fraction(10, 3) * 4) == 14
    )
    _report(3, "14-rectangle cover of C4xC5 with matching lower bound", ok, t0)


def test_criterion_04_c5_special_cover():
    t0 = time.time()
    printed = {
        0: [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 0, 0, 1], [0, 0, 0, 0, 0]],
        1: [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [1, 1, 1, 1, 0]],
        2: [[0, 1, 1, 0, 1], [1, 0, 0, 1, 1], [1, 0, 0, 1, 1], [0, 1, 1, 0, 1], [1, 1, 1, 1, 0]],
    }
    fam = c5_triple()
    ok = all(
        fam.members[i] == BoolMatrix.from_dense(printed[i]) for i in range(3)
    ) and bool(check_q_covering(crown_matrix(5), fam, (len(fam) + 1) // 2))
    _report(4, "the order-5 crown triple is bit-exact and pairwise covering", ok, t0)


def test_criterion_05_gap_covers():
    t0 = time.time()
    ns = [comb(k, (k + 1) // 2) for k in range(5, 11)]  # 10 .. 252
    ok = True
    for k, n in zip(range(5, 11), ns):
        fam = triple_cover(k, 1)
        ok = ok and bool(check_q_covering(crown_matrix(n), fam, (len(fam) + 1) // 2))
    for n in ns:
        for m in ns:
            cov = gap_cover(n, m)
            ok = ok and cov.size == sigma(n) * sigma(m) - 1
            if n * m <= 4900:
                prod = kronecker(crown_matrix(n), crown_matrix(m))
                ok = ok and bool(verify_cover(prod, cov))
            else:
                m_fam, n_fam = gap_families(n, m)
                ok = ok and bool(
                    verify_kron_hypotheses(crown_matrix(n), m_fam, crown_matrix(m), n_fam)
                )
    _report(5, "triples pass pairwise covering and gap covers verify for k in 5..10", ok, t0)


def test_criterion_06_bijection_properties():
    t0 = time.time()
    ok = True
    for k in range(2, 13):
        ell = (k + 1) // 2
        sets = _colex(k - 1, ell - 1, comb(k - 1, ell - 1))
        images = _g(sets)
        ok = ok and np.array_equal(np.sort(_masks(images)), _masks(sets))
        ok = ok and not (sets & images).any()
    for k in range(5, 11):
        for i in range(1, k + 1):
            sets, images = _h_held(k, i)
            ok = ok and is_L_preserving(sets, images, [i])
            ok = ok and is_L_intersection_shifting(sets, images, [i])
    _report(6, "g bijective/disjoint for k <= 12; h preserving/shifting for k in 5..10", ok, t0)


def test_criterion_07_zp_family_properties():
    t0 = time.time()
    ok = True
    for p in (5, 7, 11, 13):
        for q in range(2, p):
            if p**q > 10**6:
                continue
            fam = ZpFunctionFamily(p, q)
            ok = ok and fam.check_bijection_property()
            ok = ok and fam.check_no_common_collision()
    _report(7, "both function-family properties hold exhaustively up to p^q <= 1e6", ok, t0)


def test_criterion_08_algebraic_families(family_3_3, crown_6859):
    t0 = time.time()
    from boolrank.algebraic import algebraic_family

    ok = True
    params, fam = algebraic_family(2, 2)
    res = check_q_covering(crown_matrix(25), fam, 2)
    ok = ok and bool(res) and res.checked == 6
    ok = ok and all(r <= 2 * params.d for r in fam.ranks())

    params, fam = algebraic_family(3, 2)
    res = check_q_covering(crown_matrix(361), fam, 2)
    ok = ok and bool(res) and res.checked == 153
    ok = ok and all(r <= 2 * params.d for r in fam.ranks())

    params, fam = family_3_3
    res = check_q_covering(crown_6859, fam, 3)
    ok = ok and bool(res) and res.checked == 816
    ok = ok and all(r <= 2 * params.d for r in fam.ranks())
    _report(8, "every-q covering at (2,2), (3,2) and (3,3) with ranks <= 2d", ok, t0)


def test_criterion_09_asymptotic_gap_witness(family_3_3, crown_6859):
    t0 = time.time()
    _, fam = family_3_3
    selected = MatrixFamily(fam.decompositions[:6])
    half = check_q_covering(crown_6859, selected, (len(selected) + 1) // 2)
    hyp = verify_kron_hypotheses(crown_6859, selected, crown_6859, selected)
    size = sum(d.size * d.size for d in selected.decompositions)
    # the strict parameters: d = 2 lacks members (p - 1 = 4 < s = 8); d = 3
    # verifies 576 at n = 82, no gap as sigma(82)^2 = 81, and is report
    # only at n = 10^8, whose members exceed the materialization limit
    strict = asymptotic_cover(82)
    big = asymptotic_cover(10**8)
    documented = (
        not asymptotic_params(2).arithmetic_feasible
        and strict.feasible
        and strict.description.size == 576 > sigma(82) ** 2 == 81
        and big.params.arithmetic_feasible
        and not big.feasible
        and "materialization limit" in big.message
    )
    wide = asymptotic_cover(20000, q=4, s=7)
    ok = (
        bool(half)
        and bool(hyp)
        and size <= 216 < sigma(6859) ** 2 == 256
        and documented
        and wide.feasible
        and wide.description.size == 252 < sigma(20000) ** 2 == 289
    )
    _report(
        9,
        "6859- and 20000-crown squares covered with 216 < 256 and 252 < 289 "
        "rectangles, lazily verified",
        ok,
        t0,
    )


def test_criterion_10_lower_bounds():
    t0 = time.time()
    ok = all(isolation_number(crown_matrix(n)).value == 3 for n in range(3, 9))
    lb10 = kron_lower_bound(crown_matrix(10), crown_matrix(10))
    ok = ok and lb10.value == 18
    for n in (7, 8, 9, 10):
        lower = kron_lower_bound(crown_matrix(n), crown_matrix(n)).value
        ok = ok and lower <= gap_cover(n, n).size
    _report(10, "isolation number 3 and density bounds below every produced cover", ok, t0)


def _row_rect_family(m: BoolMatrix, parts: list[list[int]]) -> MatrixFamily:
    """Members assembled from the listed row indices' row rectangles."""
    dense = m.to_dense()
    covers = []
    for rows in parts:
        rects = []
        for i in sorted(rows):
            cols = tuple(int(j) for j in np.nonzero(dense[i])[0])
            if cols:
                rects.append(Rectangle((i,), cols))
        covers.append(Cover(m.rows, m.cols, tuple(rects)))
    return MatrixFamily(tuple(covers))


def test_criterion_11_composition_soundness():
    t0 = time.time()
    rng = random.Random(2026)
    ok = True
    trials = 0
    while trials < 200:
        ra, ca = rng.randint(1, 5), rng.randint(1, 5)
        rb, cb = rng.randint(1, 5), rng.randint(1, 5)
        a = BoolMatrix.from_dense(
            [[1 if rng.random() < 0.6 else 0 for _ in range(ca)] for _ in range(ra)]
        )
        b = BoolMatrix.from_dense(
            [[1 if rng.random() < 0.6 else 0 for _ in range(cb)] for _ in range(rb)]
        )
        scheme = trials % 3
        if scheme == 0:
            m_fam = _row_rect_family(a, [list(range(ra))])
            n_fam = _row_rect_family(b, [list(range(rb))])
        elif scheme == 1:
            s = rng.randint(2, 4)
            parts_a = [
                [i for i in range(ra) if rng.random() < 0.7] for _ in range(s)
            ]
            for i in range(ra):  # every row somewhere, so the family covers
                parts_a[rng.randrange(s)].append(i)
            m_fam = _row_rect_family(a, parts_a)
            n_fam = _row_rect_family(b, [list(range(rb))] * s)
        else:
            if a.is_zero() or b.is_zero():
                continue
            # the row rectangles of a (x) b, each split into its factors':
            # product row i is a-row i // rb times b-row i % rb
            rows = [i for i in range(ra * rb) if a.bits[i // rb].any() and b.bits[i % rb].any()]
            m_fam = _row_rect_family(a, [[i // rb] for i in rows])
            n_fam = _row_rect_family(b, [[i % rb] for i in rows])
        trials += 1
        lazy = verify_kron_hypotheses(a, m_fam, b, n_fam)
        cov = compose_kron_cover(m_fam, n_fam)
        eager = verify_cover(kronecker(a, b), cov)
        ok = ok and bool(lazy) and bool(eager)
        lhs = boolean_sum(
            [kronecker(m, n) for m, n in zip(m_fam.members, n_fam.members)]
        )
        ok = ok and lhs == kronecker(a, b)
        if not ok:
            break
    _report(11, "200 seeded random compositions: lazy = eager and the sum identity", ok, t0)


def test_criterion_12_spanoids():
    t0 = time.time()
    ok = True
    for r in range(1, 4):
        for c in range(1, 4):
            for bits in range(1 << (r * c)):
                dense = [
                    [(bits >> (i * c + j)) & 1 for j in range(c)] for i in range(r)
                ]
                m = BoolMatrix.from_dense(dense)
                s = MatrixSpanoid(m)
                if len(s) > 50:
                    continue
                ok = ok and spanoid_rank(s).value == exact_boolean_rank(m).value
                if not ok:
                    break
    c2 = crown_matrix(2)
    s2 = MatrixSpanoid(c2)
    prod_rank = spanoid_rank(ProductSpanoid(s2, s2)).value
    ok = ok and prod_rank == 4 == exact_boolean_rank(kronecker(c2, c2)).value
    for m_sets, n_sets in [
        ([{0}, {1}], [{0, 1}, {0, 1}]),
        ([{0, 1}], [{0, 1}]),
    ]:
        res = check_product_bound(s2, s2, m_sets, n_sets)
        ok = ok and bool(res) and prod_rank <= res.bound
    _report(12, "spanoid rank matches Boolean rank up to 3x3 and on the C2 product", ok, t0)


def test_criterion_13_central_binomial_fact():
    t0 = time.time()
    # C(r, r/2) >= 2^r / sqrt(2r) squared into exact integers
    ok = all(comb(r, r // 2) ** 2 * 2 * r >= 4**r for r in range(2, 62, 2))
    _report(13, "central binomial inequality holds exactly for even r <= 60", ok, t0)
