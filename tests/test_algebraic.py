from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrank.algebraic import (
    algebraic_family,
    asymptotic_cover,
    ZpFunctionFamily,
    _rank_mod_p,
    asymptotic_params,
    format_params_line,
    generalized_params,
    largest_prime_leq,
)
from boolrank import crown
from boolrank.boolmat import _IntPool, boolean_sum
from boolrank.cover import MatrixFamily, check_q_covering, cover_matrix
from boolrank.crown import crown_matrix
from boolrank.errors import DimensionError, MaterializationLimitError
from conftest import restrict_family


class TestPrimes:
    @pytest.mark.parametrize("m,expect", [(2, 2), (6, 5), (20, 19), (70, 67), (100, 97)])
    def test_values(self, m, expect):
        assert largest_prime_leq(m) == expect

    def test_error(self):
        with pytest.raises(DimensionError):
            largest_prime_leq(1)


def _injective(rows, p):
    """Whether x -> Mx is injective on Z_p^q, by enumerating every x."""
    q = len(rows[0])
    images = {
        tuple(sum(a * v for a, v in zip(row, x)) % p for row in rows)
        for x in product(range(p), repeat=q)
    }
    return len(images) == p**q


def oracle_bijection(fam):
    """Every row of g_i's value table, with x_1 varying, is a permutation."""
    expect = np.arange(fam.p, dtype=np.int64)
    for i in range(1, fam.p):
        table = fam.evaluate_all(i).reshape(-1, fam.p)
        if not np.array_equal(np.sort(table, axis=1), np.tile(expect, (table.shape[0], 1))):
            return False
    return True


def oracle_no_common_collision(fam):
    """Every q functions' joint values, read as one base-p number per tuple,
    are distinct over all p^q tuples."""
    n = fam.p**fam.q
    values = np.stack([fam.evaluate_all(i) for i in range(1, fam.p)], axis=0)
    powers = fam.p ** np.arange(fam.q, dtype=np.int64)
    for subset in combinations(range(fam.p - 1), fam.q):
        combined = values[list(subset)].T @ powers
        if np.bincount(combined, minlength=n).max() > 1:
            return False
    return True


ORACLE_CASES = [
    (p, q) for p in (2, 3, 5, 7, 11, 13) for q in range(1, p) if p**q <= 10**4
]


class _Degenerate(ZpFunctionFamily):
    """g_1 ignores x_1 and g_2 repeats g_3, breaking both properties."""

    def coefficients(self, i):
        if i == 1:
            return (0,) + super().coefficients(1)[1:]
        return super().coefficients(3 if i == 2 else i)


class TestZpFamily:
    def test_printed_evaluation(self):
        fam = ZpFunctionFamily(5, 2)
        z = 3 + 4 * 5  # x = (3, 4)
        assert fam.evaluate_all(2)[z] == (3 + 2 * 4) % 5 == 1

    def test_unit_index_is_plain_sum(self):
        fam = ZpFunctionFamily(7, 3)
        g1 = fam.evaluate_all(1)
        for x in [(0, 1, 2), (6, 6, 6), (3, 0, 5)]:
            z = x[0] + 7 * x[1] + 49 * x[2]
            assert g1[z] == sum(x) % 7

    def test_coefficients(self):
        assert ZpFunctionFamily(5, 2).coefficients(2) == (1, 2)
        assert ZpFunctionFamily(7, 3).coefficients(3) == (1, 3, 2)
        for i in (0, 5):
            with pytest.raises(DimensionError):
                ZpFunctionFamily(5, 2).coefficients(i)

    def test_properties_small(self):
        fam = ZpFunctionFamily(5, 2)
        assert fam.check_bijection_property()
        assert fam.check_no_common_collision()

    @pytest.mark.parametrize("p,q", ORACLE_CASES)
    def test_checks_match_enumeration(self, p, q):
        fam = ZpFunctionFamily(p, q)
        assert fam.check_bijection_property() == oracle_bijection(fam)
        assert fam.check_no_common_collision() == oracle_no_common_collision(fam)

    @pytest.mark.parametrize("p,q", [(5, 1), (5, 2), (7, 2), (7, 3)])
    def test_checks_fail_with_enumeration(self, p, q):
        fam = _Degenerate(p, q)
        assert not fam.check_bijection_property() and not oracle_bijection(fam)
        assert not fam.check_no_common_collision()
        assert not oracle_no_common_collision(fam)

    def test_validation(self):
        with pytest.raises(DimensionError):
            ZpFunctionFamily(6, 2)
        with pytest.raises(DimensionError):
            ZpFunctionFamily(5, 5)


class TestRankModP:
    @given(st.data())
    def test_full_rank_iff_injective(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        q = data.draw(st.integers(1, 3))
        row = st.lists(st.integers(0, p - 1), min_size=q, max_size=q)
        rows = data.draw(st.lists(row, min_size=q, max_size=q))
        assert (_rank_mod_p(rows, p) == q) == _injective(rows, p)

    @pytest.mark.parametrize(
        "rows,p,rank",
        [
            ([[1, 2, 3], [1, 2, 3], [0, 0, 1]], 5, 2),  # repeated row
            ([[1, 2], [0, 0]], 3, 1),  # zero row
            ([[1, 2, 3], [3, 6, 2], [0, 1, 0]], 7, 2),  # row 2 is 3 * row 1
            ([[1, 1], [1, 3]], 2, 1),  # singular mod 2 only
        ],
    )
    def test_singular(self, rows, p, rank):
        assert _rank_mod_p(rows, p) == rank
        assert not _injective(rows, p)


class TestAlgebraicFamily:
    def test_d2_q2_shape(self):
        params, fam = algebraic_family(2, 2)
        assert (params.p, params.n, params.k) == (5, 25, 8)
        assert params.blocks == ((1, 2, 3, 4), (5, 6, 7, 8))
        assert len(params.block_subsets[0]) == 5
        assert len(fam) == 4
        assert all(r <= 2 * params.d for r in fam.ranks())

    def test_d2_q2_members_below_crown(self):
        params, fam = algebraic_family(2, 2)
        c = crown_matrix(params.n)
        for m in fam.members:
            assert boolean_sum([m, c]) == c

    def test_d2_q2_every_pair_covers(self):
        params, fam = algebraic_family(2, 2)
        res = check_q_covering(crown_matrix(25), fam, 2)
        assert res and res.checked == 6

    def test_d3_q2_every_pair_covers(self):
        params, fam = algebraic_family(3, 2)
        assert (params.p, params.n) == (19, 361)
        res = check_q_covering(crown_matrix(361), fam, 2)
        assert res and res.checked == comb(18, 2)

    def test_product_family_matches_crown(self):
        # the underlying subset family realizes the crown as B_F
        params, _ = algebraic_family(2, 2)
        sets = []
        for z in range(params.n):
            z1, z2 = z % params.p, z // params.p
            sets.append(
                tuple(sorted(params.block_subsets[0][z1] + params.block_subsets[1][z2]))
            )
        # distinct sets of one size
        assert len(set(sets)) == params.n
        assert {len(s) for s in sets} == {2 * params.d // 2 * params.q}
        held = crown._held(sets, params.k)
        c = crown._element_cover(held, range(params.k), _IntPool())
        assert cover_matrix(c) == crown_matrix(params.n)

    def test_h_i_permutes_the_family(self):
        params, _ = algebraic_family(2, 2)
        zp = ZpFunctionFamily(params.p, params.q)
        n = params.n
        for i in range(1, params.p):
            g = zp.evaluate_all(i)
            mapped = g + params.p * (np.arange(n) // params.p)
            assert np.array_equal(np.sort(mapped), np.arange(n))

    def test_infeasible_parameters(self, monkeypatch):
        with pytest.raises(DimensionError):
            algebraic_family(1, 2)  # largest prime <= C(2,1) = 2 is not > q
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", str(10**6))
        with pytest.raises(MaterializationLimitError):
            algebraic_family(3, 3)


class TestAsymptoticParams:
    def test_examples(self):
        p = asymptotic_params(81)
        assert (p.d, p.q, p.s, p.bound) == (2, 4, 8, 128)
        assert not p.arithmetic_feasible  # p-1 = 4 < s = 8
        p = asymptotic_params(2)
        assert p.d == 2
        p = asymptotic_params(10**8)
        assert p.d == 3 and p.bound == 576

    def test_d4_arithmetically_feasible_not_materializable(self):
        p = asymptotic_params(10**9)
        assert (p.d, p.p, p.s) == (4, 67, 32)
        assert p.arithmetic_feasible
        assert not asymptotic_cover(10**9).feasible  # 10^18 member entries

    def test_padded_rank(self):
        assert asymptotic_params(7).k == 6  # sigma(7) = 5, padded to even
        assert asymptotic_params(6859).k == 16

    def test_params_line_format(self):
        line = format_params_line(asymptotic_cover(81))
        assert line == "PARAMS d=2 q=4 p=5 n=81 k=10 s=8 bound=128 feasible=no"


class TestAsymptoticCover:
    def test_strict_small_is_infeasible_report(self):
        res = asymptotic_cover(81)
        assert not res.feasible
        assert res.description is None
        assert "p-1 = 4" in res.message

    def test_generalized_small_instance(self):
        # d = 2, q = 2, s = 3: every 2 of the 4 member matrices cover, and
        # ceil(3/2) = 2, so 3 members certify a cover of the 25-crown square
        res = asymptotic_cover(25, q=2, s=3)
        assert res.feasible
        assert res.params.d == 2 and res.params.p == 5
        assert res.description.size == sum(
            d.size * d.size for d in res.description.m_family.decompositions
        )
        assert res.description.size <= 3 * 16 < 64  # < sigma(25)^2 = 8^2

    def test_crown_is_never_built(self, monkeypatch):
        # the check reads crown(2000) a scan block at a time, so no n x n
        # matrix is made, by crown_matrix or under another name
        from boolrank import algebraic, crown

        def refuse(n):
            raise AssertionError(f"built crown({n})")

        monkeypatch.setattr(crown, "crown_matrix", refuse)
        monkeypatch.setattr(algebraic, "crown_matrix", refuse, raising=False)
        res = asymptotic_cover(2000, q=3, s=5)
        assert res.feasible and res.description.size == 5 * 6 * 6

    def test_generalized_cover_materializes_and_verifies(self):
        from boolrank.boolmat import kronecker
        from boolrank.cover import verify_cover

        res = asymptotic_cover(25, q=2, s=3)
        cov = res.description.to_cover()
        assert cov.size == res.description.size
        prod = kronecker(crown_matrix(25), crown_matrix(25))
        assert verify_cover(prod, cov)

    def test_prefix_restriction(self):
        res = asymptotic_cover(20, q=2, s=3)
        assert res.feasible
        assert res.description.target_dims == (400, 400)

    def test_strict_d4_is_report_only(self):
        res = asymptotic_cover(10**9)
        assert res.params.arithmetic_feasible and not res.feasible
        assert res.description is None
        assert "materialization limit" in res.message

    def test_generalized_above_limit_is_report_only(self, monkeypatch):
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "100")
        res = asymptotic_cover(25, q=2, s=3)
        assert res.params.arithmetic_feasible and not res.feasible
        assert res.description is None
        assert "materialization limit" in res.message

    def test_limit_reads_the_members_at_order_n(self, monkeypatch):
        # the 3 members of order 20 hold at most 3 * 4 * 20 = 240 indices,
        # which fit a limit of 240 although the order-25 members' 300 do not
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "240")
        res = asymptotic_cover(20, q=2, s=3)
        assert res.feasible and res.params.p**res.params.q == 25
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "239")
        res = asymptotic_cover(20, q=2, s=3)
        assert res.params.arithmetic_feasible and not res.feasible
        assert res.message == (
            "member indices has 240 entries, limit is 239: "
            "over the materialization limit; report only"
        )

    @pytest.mark.parametrize("n, q, s", [
        (20, 2, 3), (25, 2, 3), (49, 2, 3), (361, 2, 4), (2066, 3, 5), (6859, 3, 6),
    ])
    def test_members_built_at_order_n(self, family_3_3, n, q, s):
        # the first s members of the order-p^q family, cut to the n x n corner
        res = asymptotic_cover(n, q=q, s=s)
        d = res.params.d
        _, fam = family_3_3 if (d, q) == (3, 3) else algebraic_family(d, q)
        expect = restrict_family(MatrixFamily(fam.decompositions[:s]), n)
        assert res.description.m_family == expect
        assert res.description.n_family == expect

    def test_s_too_small_for_half_covering(self):
        with pytest.raises(DimensionError):
            generalized_params(25, 2, 2)


class TestMembersBuiltOnUse:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the members built from decompositions."""
        from boolrank import cover

        calls = []
        real = cover.cover_matrix

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(cover, "cover_matrix", counting)
        return calls

    def test_algebraic_family_builds_no_member(self, built):
        algebraic_family(2, 2)
        assert len(built) == 0

    def test_writing_the_family_builds_no_member(self, built, tmp_path):
        from boolrank.cli import main

        assert main(["cover", "algebraic", "2", "2", "-o", str(tmp_path / "a.fam")]) == 0
        assert len(built) == 0

    @pytest.fixture
    def rows_read(self, monkeypatch):
        """Collects the decompositions whose rows are read."""
        from boolrank import cover

        read = []
        real = cover._row_reader

        def recording(m):
            rows = real(m)

            def reading(row0, row1):
                if isinstance(m, cover.Cover):
                    read.append(m)
                return rows(row0, row1)
            return reading

        monkeypatch.setattr(cover, "_row_reader", recording)
        return read

    def test_members_evaluate_only_the_corner(self, monkeypatch):
        # n = 49 below p^q = 361: each g_i is evaluated on the 49 tuples only
        def refuse(self, i):
            raise AssertionError("evaluated all p^q tuples")

        real, lengths = ZpFunctionFamily.evaluate, []

        def recording(self, i, n):
            lengths.append(n)
            return real(self, i, n)

        zp = ZpFunctionFamily(19, 2)
        for i in (1, 7, 18):
            assert np.array_equal(zp.evaluate(i, 49), zp.evaluate_all(i)[:49])
        monkeypatch.setattr(ZpFunctionFamily, "evaluate_all", refuse)
        monkeypatch.setattr(ZpFunctionFamily, "evaluate", recording)
        res = asymptotic_cover(49, q=2, s=3)
        assert res.feasible and res.params.p**res.params.q == 361
        assert lengths == [49, 49, 49]

    def test_asymptotic_cover_builds_only_selected_members(self, built, rows_read):
        # no whole member is built; the row builder reads the 3 selected
        # decompositions and no other
        res = asymptotic_cover(25, q=2, s=3)
        assert res.feasible
        assert len(built) == 0
        selected = res.description.m_family.decompositions
        assert len(selected) == 3
        assert {id(c) for c in rows_read} == {id(c) for c in selected}


class TestCentralBinomialFact:
    def test_exact_inequality_even_r(self):
        # C(r, r/2) >= 2^r / sqrt(2r), squared to stay in integers
        for r in range(2, 62, 2):
            c = comb(r, r // 2)
            assert c * c * 2 * r >= 4**r
