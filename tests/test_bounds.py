import inspect
import random
import re
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolrank
from boolrank import boolmat, spanoid
from boolrank.boolmat import BoolMatrix, _ones, kronecker
from boolrank.bounds import (
    IsolationResult,
    RankCertificate,
    exact_boolean_rank,
    format_rank_certificate,
    is_crown,
    isolation_number,
    kron_lower_bound,
    maximal_rectangles,
    mu,
)
from boolrank.cover import Cover, verify_cover
from boolrank.crown import crown_matrix, gap_cover, sigma
from boolrank import bounds
from boolrank.cover import VerifyResult
from boolrank.errors import BudgetExceededError, DimensionError, VerificationError
from boolrank.spanoid import MatrixSpanoid, spanoid_rank
from conftest import rect_matrix


@st.composite
def small_matrices(draw, max_rows=3, max_cols=4):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    return [bits[i * cols:(i + 1) * cols] for i in range(rows)]


def brute_force_rank(dense):
    """Fewest all-ones rectangles covering the 1s, by trying every set.

    A rectangle with row set R widens to all columns that are 1 on every row
    of R and stays all-ones, so covers made of those widened rectangles
    reach the minimum.
    """
    rows, cols = len(dense), len(dense[0])
    ones = {(i, j) for i in range(rows) for j in range(cols) if dense[i][j]}
    rects = []
    for size in range(1, rows + 1):
        for r in combinations(range(rows), size):
            c = [j for j in range(cols) if all(dense[i][j] for i in r)]
            if c:
                rects.append({(i, j) for i in r for j in c})
    return next(
        k for k in range(len(rects) + 1)
        for chosen in combinations(rects, k)
        if set().union(*chosen) == ones
    )


def reference_exact_boolean_rank(a, limit=None):
    """The search as it was first written, deciding one node at a time.

    Returns the certificate and the number of nodes counted, so the search
    that decides a node's children together can be held to the same
    certificate and the same smallest node budget.
    """
    if a.is_zero():
        return RankCertificate(0, Cover(a.rows, a.cols, ()), 0, "search", True), 0
    rects = sorted(maximal_rectangles(a), key=lambda r: (-r.area, r.row_set, r.col_set))
    bit_of = {e: b for b, e in enumerate(_ones(a))}
    universe = (1 << len(bit_of)) - 1
    masks = [sum(1 << bit_of[(i, j)] for i in r.row_set for j in r.col_set) for r in rects]
    holders = [[t for t, m in enumerate(masks) if m >> b & 1] for b in range(len(bit_of))]
    covered, greedy = 0, []
    while covered != universe:
        gains = [(m & ~covered).bit_count() for m in masks]
        greedy.append(gains.index(max(gains)))
        covered |= masks[greedy[-1]]
    lb = max(1, -(-len(bit_of) // max(m.bit_count() for m in masks)))
    nodes = 0

    def dfs(covered, depth, bound, chosen):
        nonlocal nodes
        nodes += 1
        if covered == universe:
            return list(chosen)
        if depth == bound:
            return None
        rem = universe & ~covered
        best = max((m & rem).bit_count() for m in masks)
        if best == 0 or depth + -(-rem.bit_count() // best) > bound:
            return None
        tried = []
        for t in holders[(rem & -rem).bit_length() - 1]:
            resid = masks[t] & rem
            if any(resid & ~prev == 0 for prev in tried):
                continue
            tried.append(resid)
            chosen.append(t)
            found = dfs(covered | masks[t], depth + 1, bound, chosen)
            chosen.pop()
            if found is not None:
                return found
        return None

    top = len(greedy) if limit is None else min(len(greedy), limit)
    sol = next(
        (s for bound in range(lb, top) if (s := dfs(0, 0, bound, [])) is not None), None
    )
    if sol is None and limit is not None and len(greedy) > limit:
        cover = Cover(a.rows, a.cols, tuple(rects[t] for t in greedy))
        return RankCertificate(None, cover, limit, "search", False), nodes
    witness = greedy if sol is None else sol
    cover = Cover(a.rows, a.cols, tuple(rects[t] for t in witness))
    return RankCertificate(len(witness), cover, len(witness), "search", True), nodes


def assert_matches_reference(m, limit=None):
    """Same certificate as the reference, and the same smallest node budget.

    The budget is patched with ``mock.patch.object``, since hypothesis tests
    call this and cannot take the ``monkeypatch`` fixture."""
    cert, nodes = reference_exact_boolean_rank(m, limit)
    with mock.patch.object(bounds, "NODE_BUDGET", nodes):
        assert exact_boolean_rank(m, limit) == cert
    if nodes:
        with (
            mock.patch.object(bounds, "NODE_BUDGET", nodes - 1),
            pytest.raises(BudgetExceededError, match=f"exceeded {nodes - 1} nodes"),
        ):
            exact_boolean_rank(m, limit)


def permuted_crown(n, seed):
    rng = np.random.default_rng(seed)
    dense = crown_matrix(n).to_dense()
    return BoolMatrix.from_dense(dense[rng.permutation(n)][:, rng.permutation(n)])


def rand_matrix(rng, rows, cols, density=0.5):
    dense = [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return BoolMatrix.from_dense(dense)


class TestMaximalRectangles:
    def test_crown3(self):
        rects = maximal_rectangles(crown_matrix(3))
        # row/column index sets of a crown rectangle are disjoint; maximal
        # ones have complementary column sets
        assert len(rects) == 6
        for r in rects:
            assert not set(r.row_set) & set(r.col_set)
            assert set(r.row_set) | set(r.col_set) == {0, 1, 2}

    def test_rectangles_are_all_ones_and_maximal(self):
        rng = random.Random(20)
        for _ in range(25):
            m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            if m.is_zero():
                continue
            dense = m.to_dense()
            rects = maximal_rectangles(m)
            seen = set()
            for r in rects:
                assert all(dense[i, j] for i in r.row_set for j in r.col_set)
                assert r.col_set not in seen
                seen.add(r.col_set)
                # maximality: no row or column extends it
                for i in range(m.rows):
                    if i not in r.row_set:
                        assert not all(dense[i, j] for j in r.col_set)
                for j in range(m.cols):
                    if j not in r.col_set:
                        assert not all(dense[i, j] for i in r.row_set)

    def test_every_one_entry_in_some_rectangle(self):
        rng = random.Random(21)
        for _ in range(25):
            m = rand_matrix(rng, 5, 5)
            if m.is_zero():
                continue
            union = None
            for r in maximal_rectangles(m):
                rm = rect_matrix(r, 5, 5)
                union = rm if union is None else BoolMatrix.from_dense(
                    union.to_dense() | rm.to_dense()
                )
            assert union == m


class TestExactRank:
    def test_trivial_cases(self):
        assert exact_boolean_rank(BoolMatrix.ones(4, 4)).value == 1
        cert = exact_boolean_rank(BoolMatrix.zeros(3, 3))
        assert cert.value == 0 and cert.upper.size == 0 and cert.exact

    def test_c4_is_4(self):
        cert = exact_boolean_rank(crown_matrix(4))
        assert cert.value == 4 and cert.exact
        assert verify_cover(crown_matrix(4), cert.upper)
        assert cert.lower == 4 and cert.lower_kind == "search"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_crown_matches_sigma(self, n):
        cert = exact_boolean_rank(crown_matrix(n))
        assert cert.value == sigma(n)
        assert verify_cover(crown_matrix(n), cert.upper)

    def test_identity_rank(self):
        assert exact_boolean_rank(BoolMatrix.identity(5)).value == 5

    def test_upper_bound_respected_on_random(self):
        rng = random.Random(22)
        for _ in range(20):
            m = rand_matrix(rng, 5, 5)
            cert = exact_boolean_rank(m)
            assert cert.exact
            assert verify_cover(m, cert.upper)
            assert cert.value == cert.upper.size == cert.lower

    def test_limit_proof_token(self):
        cert = exact_boolean_rank(crown_matrix(6), limit=3)
        assert not cert.exact
        assert cert.value is None
        assert cert.lower == 3 and cert.lower_kind == "search"
        assert verify_cover(crown_matrix(6), cert.upper)

    def test_limit_above_value_still_exact(self):
        cert = exact_boolean_rank(crown_matrix(5), limit=10)
        assert cert.exact and cert.value == 4

    def test_invalid_final_cover_raises(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        monkeypatch.setattr(
            bounds, "verify_cover", lambda a, c: VerifyResult(False, (0, 1), "forced")
        )
        with pytest.raises(VerificationError, match="forced"):
            exact_boolean_rank(crown_matrix(4))

    def test_budget_exceeded_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "NODE_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            exact_boolean_rank(crown_matrix(8))

    def test_budget_message_says_what_was_proved(self, monkeypatch):
        # the area bound gives ceil(56 / 16) = 4, the bound being searched
        monkeypatch.setattr(bounds, "NODE_BUDGET", 10)
        with pytest.raises(
            BudgetExceededError,
            match=r"^rank search exceeded 10 nodes; proved rank >= 4; "
            r"greedy cover has 6 rectangles$",
        ):
            exact_boolean_rank(crown_matrix(8))

    def test_negative_limit_refused(self):
        with pytest.raises(DimensionError, match="non-negative"):
            exact_boolean_rank(crown_matrix(3), limit=-1)

    def test_zero_limit_refused(self):
        # a limit of 0 proves nothing, even for the zero matrix
        for m in (crown_matrix(3), BoolMatrix.zeros(2, 2)):
            with pytest.raises(DimensionError, match="limit 0"):
                exact_boolean_rank(m, limit=0)

    @given(small_matrices())
    def test_matches_brute_force_and_spanoid_rank(self, dense):
        m = BoolMatrix.from_dense(dense)
        cert = exact_boolean_rank(m)
        assert cert.exact and verify_cover(m, cert.upper)
        assert cert.value == brute_force_rank(dense)
        assert cert.value == spanoid_rank(MatrixSpanoid(m)).value

    def test_certificate_dump(self):
        cert = exact_boolean_rank(crown_matrix(2))
        text = format_rank_certificate(cert)
        assert text.startswith("COVER 2 2 2\n")
        assert text.endswith("LOWER kind=search value=2\n")


class TestSearchOracle:
    """The search matches the one-node-at-a-time reference exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 9), st.integers(1, 9), st.sampled_from([0.3, 0.5, 0.85, 0.9]),
        st.integers(0, 2**32 - 1), st.integers(1, 9),
    )
    @example(9, 9, 0.9, 0, 4)  # 71 ones: two words per set
    def test_random_matrices(self, rows, cols, density, seed, limit):
        rng = np.random.default_rng(seed)
        m = BoolMatrix.from_dense((rng.random((rows, cols)) < density).astype(np.uint8))
        assert_matches_reference(m)
        assert_matches_reference(m, limit)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_crowns(self, n):
        assert_matches_reference(crown_matrix(n))

    @pytest.mark.parametrize(
        "block_entries", [1, 7, boolmat._BLOCK_ENTRIES], ids=["1", "7", "default"]
    )
    def test_sliced_children(self, block_entries, monkeypatch):
        # slices of one child, of a few, and of all of them
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(3)
        dense = (rng.random((9, 9)) < 0.85).astype(np.uint8)
        assert dense.sum() > 64
        for m in (permuted_crown(7, 1), BoolMatrix.from_dense(dense), crown_matrix(6)):
            assert_matches_reference(m)
        assert_matches_reference(crown_matrix(6), limit=3)


class TestIsolation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity(self, n):
        res = isolation_number(BoolMatrix.identity(n))
        assert res.value == n and res.exact
        assert len(res.witness) == n

    @pytest.mark.parametrize("n", range(3, 9))
    def test_crown_is_3(self, n):
        res = isolation_number(crown_matrix(n))
        assert res.value == 3 and res.exact

    def test_all_ones_2x2(self):
        assert isolation_number(BoolMatrix.ones(2, 2)).value == 1

    def test_witness_is_valid(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rand_matrix(rng, 5, 5)
            res = isolation_number(m)
            dense = m.to_dense()
            w = res.witness
            for a in range(len(w)):
                i, j = w[a]
                assert dense[i, j]
                for b in range(a + 1, len(w)):
                    i2, j2 = w[b]
                    assert i != i2 and j != j2
                    assert not (dense[i, j2] and dense[i2, j])

    def test_out_of_budget_is_a_lower_bound(self, monkeypatch):
        monkeypatch.setattr(bounds, "NODE_BUDGET", 3)
        res = isolation_number(crown_matrix(6))
        assert res == IsolationResult(2, ((0, 1), (1, 0)), False)
        assert 0 < res.value == len(res.witness) < 3
        dense = crown_matrix(6).to_dense()
        for (i, j), (i2, j2) in combinations(res.witness, 2):
            assert dense[i, j] and dense[i2, j2]
            assert i != i2 and j != j2
            assert not (dense[i, j2] and dense[i2, j])

    def test_at_most_rank(self):
        rng = random.Random(24)
        for _ in range(15):
            m = rand_matrix(rng, 4, 4)
            if m.is_zero():
                continue
            assert isolation_number(m).value <= exact_boolean_rank(m).value


class TestMu:
    def test_crown_closed_form(self):
        assert mu(crown_matrix(4)).value == Fraction(3)
        assert mu(crown_matrix(5)).value == Fraction(10, 3)
        res = mu(crown_matrix(5))
        assert res.via == "crown-closed-form"
        assert res.max_rectangle_area == 6

    def test_all_ones(self):
        res = mu(BoolMatrix.ones(3, 4))
        assert res.value == 1

    def test_closed_form_matches_enumeration(self):
        for n in range(2, 9):
            c = crown_matrix(n)
            closed = mu(c)
            best = max(r.area for r in maximal_rectangles(c))
            assert closed.max_rectangle_area == best
            assert closed.value == Fraction(c.count_ones(), best)
            dense = c.to_dense()
            assert all(
                dense[i, j] for i in closed.witness.row_set for j in closed.witness.col_set
            )

    def test_mu_at_most_rank(self):
        rng = random.Random(25)
        for _ in range(15):
            m = rand_matrix(rng, 4, 5)
            if m.is_zero():
                continue
            assert mu(m).value <= exact_boolean_rank(m).value

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            mu(BoolMatrix.zeros(2, 2))


class TestKronLowerBound:
    def test_order4_square_is_12(self):
        res = kron_lower_bound(crown_matrix(4), crown_matrix(4))
        assert res.value == 12
        assert res.isolation_bound == 12
        assert res.best == 12

    def test_c4_c5_is_14(self):
        res = kron_lower_bound(crown_matrix(4), crown_matrix(5))
        assert res.value == 14
        assert res.mu_b == Fraction(10, 3) and res.rank_a == 4

    def test_c10_is_18(self):
        res = kron_lower_bound(crown_matrix(10), crown_matrix(10))
        assert res.value == 18

    def test_sandwich_against_gap_covers(self):
        for n in [7, 8, 9, 10]:
            lower = kron_lower_bound(crown_matrix(n), crown_matrix(n)).value
            assert lower <= gap_cover(n, n).size

    def test_lower_bound_at_most_exact_small(self):
        c2 = crown_matrix(2)
        res = kron_lower_bound(c2, c2)
        assert res.value <= exact_boolean_rank(kronecker(c2, c2)).value

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kron_lower_bound(BoolMatrix.zeros(2, 2), crown_matrix(2))

    def test_same_factor_bounds_computed_once(self, monkeypatch):
        a = BoolMatrix.from_dense([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 0]])
        copy = BoolMatrix(a.rows, a.cols, a.bits.copy())
        expect = kron_lower_bound(a, copy)
        calls = []
        for name in ("mu", "_rank_value", "isolation_number"):
            bound = getattr(bounds, name)

            def counted(m, *args, _name=name, _bound=bound, **kwargs):
                calls.append(_name)
                return _bound(m, *args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        assert kron_lower_bound(a, a) == expect
        assert sorted(calls) == ["_rank_value", "isolation_number", "mu"]
        calls.clear()
        kron_lower_bound(a, copy)
        assert len(calls) == 6


class TestRectangleCap:
    """More closed column sets than the cap raise, through every caller."""

    def test_cap_raises(self, monkeypatch):
        m = BoolMatrix.identity(3)  # a non-crown with 3 closed column sets
        monkeypatch.setattr(bounds, "RECTANGLE_CAP", 3)
        assert len(maximal_rectangles(m)) == 3
        monkeypatch.setattr(bounds, "RECTANGLE_CAP", 2)
        for search in (maximal_rectangles, exact_boolean_rank, mu):
            with pytest.raises(
                BudgetExceededError,
                match="^more than 2 closed column sets while enumerating rectangles$",
            ):
                search(m)


class TestBudgetsAreConstants:
    """Every search budget is a module constant, read on every call, so no
    public function or class takes one.  The tests of each search patch its
    constant low."""

    def test_no_public_name_takes_a_budget(self):
        public = [getattr(boolrank, name) for names in boolrank._EXPORTS.values()
                  for name in names]
        public += [value for module in (bounds, spanoid) for name, value in vars(module).items()
                   if not name.startswith("_") and inspect.isfunction(value)
                   and value.__module__ == module.__name__]
        assert len(public) > 40
        budget = re.compile(r"cap|max_size|.*_budget|.*_cap")
        for value in public:
            params = inspect.signature(value).parameters
            assert not [p for p in params if budget.fullmatch(p)], value


class TestIsCrown:
    def test_detection(self):
        assert is_crown(crown_matrix(5))
        assert not is_crown(BoolMatrix.ones(3, 3))
        assert not is_crown(BoolMatrix.ones(2, 3))
