from math import comb

import numpy as np
import pytest

from boolrank.algebraic import (
    algebraic_family,
    asymptotic_cover,
    ZpFunctionFamily,
    asymptotic_params,
    format_params_line,
    generalized_params,
    largest_prime_leq,
)
from boolrank.boolmat import dominated_by
from boolrank.cover import check_q_covering
from boolrank.crown import crown_matrix, family_matrix, SubsetFamily
from boolrank.errors import DimensionError, MaterializationLimitError


class TestPrimes:
    @pytest.mark.parametrize("m,expect", [(2, 2), (6, 5), (20, 19), (70, 67), (100, 97)])
    def test_values(self, m, expect):
        assert largest_prime_leq(m) == expect

    def test_error(self):
        with pytest.raises(DimensionError):
            largest_prime_leq(1)


class TestZpFamily:
    def test_printed_evaluation(self):
        fam = ZpFunctionFamily(5, 2)
        assert fam.evaluate(2, (3, 4)) == (3 + 2 * 4) % 5 == 1

    def test_unit_index_is_plain_sum(self):
        fam = ZpFunctionFamily(7, 3)
        for x in [(0, 1, 2), (6, 6, 6), (3, 0, 5)]:
            assert fam.evaluate(1, x) == sum(x) % 7

    def test_properties_small(self):
        fam = ZpFunctionFamily(5, 2)
        assert fam.check_bijection_property()
        assert fam.check_no_common_collision()

    def test_collision_property_matches_bruteforce(self):
        # independent oracle: scan all index pairs and all tuple pairs
        fam = ZpFunctionFamily(5, 2)
        from itertools import combinations, product

        for i1, i2 in combinations(range(1, 5), 2):
            seen = {}
            for x in product(range(5), repeat=2):
                key = (fam.evaluate(i1, x), fam.evaluate(i2, x))
                assert key not in seen, (i1, i2, x, seen[key])
                seen[key] = x

    def test_validation(self):
        with pytest.raises(DimensionError):
            ZpFunctionFamily(6, 2)
        with pytest.raises(DimensionError):
            ZpFunctionFamily(5, 5)
        fam = ZpFunctionFamily(5, 2)
        with pytest.raises(DimensionError):
            fam.evaluate(0, (1, 2))
        with pytest.raises(DimensionError):
            fam.evaluate(1, (1, 7))


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
            assert dominated_by(m, c)

    def test_d2_q2_every_pair_covers(self):
        params, fam = algebraic_family(2, 2)
        res = check_q_covering(crown_matrix(25), fam, 2)
        assert res and res.exhaustive and res.checked == 6

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
        fam = SubsetFamily(params.k, 2 * params.d // 2 * params.q, tuple(sets))
        assert family_matrix(fam) == crown_matrix(params.n)

    def test_h_i_permutes_the_family(self):
        params, _ = algebraic_family(2, 2)
        zp = ZpFunctionFamily(params.p, params.q)
        n = params.n
        for i in range(1, params.p):
            g = zp.evaluate_all(i)
            mapped = g + params.p * (np.arange(n) // params.p)
            assert np.array_equal(np.sort(mapped), np.arange(n))

    def test_infeasible_parameters(self):
        with pytest.raises(DimensionError):
            algebraic_family(1, 2)  # largest prime <= C(2,1) = 2 is not > q
        with pytest.raises(MaterializationLimitError):
            algebraic_family(3, 3, max_entries=10**6)


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
        assert not p.materializable
        assert not p.feasible

    def test_padded_rank(self):
        assert asymptotic_params(7).k == 6  # sigma(7) = 5, padded to even
        assert asymptotic_params(6859).k == 16

    def test_params_line_format(self):
        line = format_params_line(asymptotic_params(81))
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
        assert res.params.arithmetic_feasible and not res.params.materializable
        assert res.description is None
        assert "materialization limit" in res.message

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

    def test_asymptotic_cover_builds_only_selected_members(self, built):
        res = asymptotic_cover(25, q=2, s=3)
        assert res.feasible
        assert len(built) == 3


class TestCentralBinomialFact:
    def test_exact_inequality_even_r(self):
        # C(r, r/2) >= 2^r / sqrt(2r), squared to stay in integers
        for r in range(2, 62, 2):
            c = comb(r, r // 2)
            assert c * c * 2 * r >= 4**r
