import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolrank import spanoid
from boolrank.boolmat import BoolMatrix, boolean_sum, kronecker
from boolrank.bounds import exact_boolean_rank
from boolrank.crown import crown_matrix
from boolrank.errors import BudgetExceededError, DimensionError, FormatError
from boolrank.spanoid import (
    MatrixSpanoid,
    ProductSpanoid,
    RankResult,
    RuleSpanoid,
    Spanoid,
    check_product_bound,
    format_rule_spanoid,
    parse_index_sets,
    parse_spanoid,
    spanoid_rank,
)


def all_matrices(max_dim=3):
    for r in range(1, max_dim + 1):
        for c in range(1, max_dim + 1):
            for bits in range(1 << (r * c)):
                dense = [[(bits >> (i * c + j)) & 1 for j in range(c)] for i in range(r)]
                yield BoolMatrix.from_dense(dense)


@st.composite
def small_spanoids(draw):
    """A rule spanoid on at most 4 elements (empty premises allowed), or the
    spanoid of a matrix of at most 2 x 2."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
        return MatrixSpanoid(BoolMatrix.from_dense([bits[i * cols:(i + 1) * cols] for i in range(rows)]))
    u = draw(st.integers(0, 4))
    if u == 0:
        return RuleSpanoid(0, [])
    element = st.integers(0, u - 1)
    return RuleSpanoid(u, draw(st.lists(st.tuples(st.frozensets(element), element), max_size=5)))


def rand_rule_spanoid(rng, size, n_rules):
    rules = []
    for _ in range(n_rules):
        prem = frozenset(rng.sample(range(size), rng.randint(1, min(3, size))))
        rules.append((prem, rng.randrange(size)))
    return RuleSpanoid(size, rules)


class TestSpan:
    def test_empty_span_of_matrix_spanoid(self):
        s = MatrixSpanoid(crown_matrix(3))
        assert s.span([]) == frozenset()

    def test_span_contains_input(self):
        rng = random.Random(30)
        for _ in range(20):
            s = rand_rule_spanoid(rng, 6, 5)
            t = set(rng.sample(range(6), rng.randint(0, 4)))
            assert t <= s.span(t)

    def test_c2_span_single_element(self):
        s = MatrixSpanoid(crown_matrix(2))
        assert len(s) == 2
        assert s.span([0]) == frozenset({0})

    def test_monotone_and_idempotent(self):
        rng = random.Random(31)
        for _ in range(25):
            s = rand_rule_spanoid(rng, 7, 6)
            t1 = set(rng.sample(range(7), rng.randint(0, 3)))
            t2 = t1 | set(rng.sample(range(7), rng.randint(0, 3)))
            sp1, sp2 = s.span(t1), s.span(t2)
            assert sp1 <= sp2
            assert s.span(sp1) == sp1

    def test_matrix_override_matches_generic_fixpoint(self):
        rng = random.Random(32)
        for _ in range(15):
            m = BoolMatrix.from_dense(
                [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
            )
            if m.is_zero():
                continue
            s = MatrixSpanoid(m)
            generic = lambda t: super(MatrixSpanoid, s).span.__get__(s)(t)
            for _ in range(5):
                t = rng.sample(range(len(s)), rng.randint(0, min(3, len(s))))
                assert s.span(t) == generic(t)

    def test_derivation_needs_multiple_steps(self):
        # (0 -> 1), (1 -> 2): reaching 2 from {0} takes two rule firings
        s = RuleSpanoid(3, [(frozenset({0}), 1), (frozenset({1}), 2)])
        assert s.span([0]) == frozenset({0, 1, 2})


class TestMatrixSpanoidUniverse:
    def test_universe_includes_single_ones(self):
        m = BoolMatrix.from_dense([[1, 0], [1, 1]])
        s = MatrixSpanoid(m)
        singles = [
            u for u in s.universe
            if bin(u[0]).count("1") == 1 and bin(u[1]).count("1") == 1
        ]
        assert len(singles) == m.count_ones()

    def test_universe_elements_are_rank_one_dominated(self):
        m = crown_matrix(3)
        s = MatrixSpanoid(m)
        for i in range(len(s)):
            e = s.element_matrix(i)
            # ones exactly on its nonzero rows by its nonzero columns
            dense = e.to_dense()
            rows, cols = dense.any(axis=1), dense.any(axis=0)
            assert rows.any() and np.array_equal(dense, np.outer(rows, cols))
            assert boolean_sum([e, m]) == m

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(spanoid, "MATRIX_UNIVERSE_CAP", 10)
        with pytest.raises(BudgetExceededError, match="^matrix spanoid universe exceeds cap 10$"):
            MatrixSpanoid(BoolMatrix.ones(4, 4))


class TestRank:
    def test_c2_rank(self):
        assert spanoid_rank(MatrixSpanoid(crown_matrix(2))).value == 2

    def test_all_ones_rank_one(self):
        res = spanoid_rank(MatrixSpanoid(BoolMatrix.ones(2, 2)))
        assert res.value == 1

    def test_rank_equals_boolean_rank_spot(self):
        for m in [crown_matrix(3), BoolMatrix.identity(3), BoolMatrix.ones(3, 2)]:
            assert spanoid_rank(MatrixSpanoid(m)).value == exact_boolean_rank(m).value

    def test_witness_spans(self):
        s = MatrixSpanoid(crown_matrix(3))
        res = spanoid_rank(s)
        assert s.spans_all(res.witness)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(spanoid, "SUBSET_BUDGET", 1)
        with pytest.raises(BudgetExceededError, match="^rank search exceeded 1 subsets$"):
            spanoid_rank(MatrixSpanoid(crown_matrix(3)))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(spanoid, "RANK_SIZE_CAP", 2)
        with pytest.raises(BudgetExceededError, match="^no spanning set of size <= 2 found$"):
            spanoid_rank(MatrixSpanoid(crown_matrix(3)))
        with pytest.raises(
            BudgetExceededError,
            match="^3 elements are inferred by no rule, so no spanning set has size <= 2$",
        ):
            spanoid_rank(RuleSpanoid(3, []))

    @given(small_spanoids(), st.integers(0, 4))
    def test_answers_match_plain_search(self, s, max_size):
        """Refusing by the elements no rule infers keeps every answer."""
        n = len(s)
        sizes = range(min(n, max_size) + 1)
        expected = next(
            (RankResult(size, cand) for size in sizes
             for cand in combinations(range(n), size) if s.spans_all(cand)),
            None,
        )
        # patched in place: hypothesis tests cannot take ``monkeypatch``
        with mock.patch.object(spanoid, "RANK_SIZE_CAP", max_size):
            if expected is None:
                with pytest.raises(BudgetExceededError):
                    spanoid_rank(s)
            else:
                assert spanoid_rank(s) == expected


class TestProduct:
    def test_c2_product_rank_is_4(self):
        s = MatrixSpanoid(crown_matrix(2))
        prod = ProductSpanoid(s, s)
        assert spanoid_rank(prod).value == 4
        c2 = crown_matrix(2)
        assert exact_boolean_rank(kronecker(c2, c2)).value == 4

    def test_single_element_side(self):
        one = MatrixSpanoid(BoolMatrix.ones(1, 1))
        s = MatrixSpanoid(crown_matrix(2))
        assert spanoid_rank(ProductSpanoid(one, s)).value == spanoid_rank(s).value

    def test_row_times_column_all_ones(self):
        row = MatrixSpanoid(BoolMatrix.ones(1, 2))
        col = MatrixSpanoid(BoolMatrix.ones(2, 1))
        assert spanoid_rank(ProductSpanoid(row, col)).value == 1

    @pytest.mark.parametrize(
        "a,b",
        [
            ("c2", "c2"),
            ("c2", "ones22"),
            ("ones22", "ones22"),
            ("one", "c2"),
            ("i2", "c2"),
            ("i2", "i2"),
            ("tri", "c2"),
            ("tri", "i2"),
        ],
    )
    def test_product_rank_equals_kron_rank(self, a, b):
        shapes = {
            "c2": crown_matrix(2),
            "ones22": BoolMatrix.ones(2, 2),
            "one": BoolMatrix.ones(1, 1),
            "i2": BoolMatrix.identity(2),
            "tri": BoolMatrix.from_dense([[1, 1], [0, 1]]),
        }
        ma, mb = shapes[a], shapes[b]
        rank_spanoid = spanoid_rank(
            ProductSpanoid(MatrixSpanoid(ma), MatrixSpanoid(mb))
        ).value
        rank_bool = exact_boolean_rank(kronecker(ma, mb)).value
        assert rank_spanoid == rank_bool

    def test_universe_cap(self):
        s = MatrixSpanoid(BoolMatrix.ones(2, 3))
        big = ProductSpanoid(s, s)
        with pytest.raises(BudgetExceededError):
            spanoid_rank(big)

    def test_universe_cap_is_read_per_call(self, monkeypatch):
        c2 = MatrixSpanoid(crown_matrix(2))
        monkeypatch.setattr(spanoid, "PRODUCT_UNIVERSE_CAP", 3)
        with pytest.raises(BudgetExceededError, match="^product universe 4 exceeds cap 3$"):
            spanoid_rank(ProductSpanoid(c2, c2))
        monkeypatch.setattr(spanoid, "PRODUCT_UNIVERSE_CAP", 4)
        assert spanoid_rank(ProductSpanoid(c2, c2)).value == 4

    def test_universe_allocates_nothing(self):
        import tracemalloc

        s = MatrixSpanoid(BoolMatrix.ones(6, 6))
        tracemalloc.start()
        try:
            big = ProductSpanoid(s, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(big) == 63**4 and peak < 1 << 20
        with pytest.raises(BudgetExceededError):
            spanoid_rank(big)

    # a rule with an empty premise fires on every line, empty ones included
    @example(RuleSpanoid(2, [(frozenset(), 1)]), RuleSpanoid(2, []), frozenset())
    @given(small_spanoids(), small_spanoids(), st.frozensets(st.integers(0, 80)))
    def test_span_matches_generic_fixpoint(self, s1, s2, raw):
        prod = ProductSpanoid(s1, s2)
        t = {x % len(prod) for x in raw} if len(prod) else set()
        assert prod.span(t) == Spanoid.span(prod, t)

    def test_span_rejects_outside_element(self):
        s = MatrixSpanoid(crown_matrix(2))
        with pytest.raises(DimensionError):
            ProductSpanoid(s, s).span([len(s) ** 2])


class TestProductBound:
    def test_whole_universe_times_spanning_set(self):
        s1 = MatrixSpanoid(crown_matrix(2))
        s2 = MatrixSpanoid(crown_matrix(2))
        m_sets = [frozenset(range(len(s1)))]
        n_sets = [frozenset(range(len(s2)))]
        res = check_product_bound(s1, s2, m_sets, n_sets)
        assert res and res.bound == len(s1) * len(s2)

    def test_mirrored_cover_families(self):
        s = MatrixSpanoid(crown_matrix(2))
        res = check_product_bound(s, s, [{0}, {1}], [{0, 1}, {0, 1}])
        assert res and res.bound == 4

    def test_hypothesis_failure_witness(self):
        s = MatrixSpanoid(crown_matrix(2))
        res = check_product_bound(s, s, [{0}], [{0, 1}])
        assert not res and res.witness == 1  # element 1 is in no m-set

    def test_sandwich_with_product_rank(self):
        s = MatrixSpanoid(crown_matrix(2))
        res = check_product_bound(s, s, [{0}, {1}], [{0, 1}, {0, 1}])
        assert spanoid_rank(ProductSpanoid(s, s)).value <= res.bound

    def test_length_mismatch(self):
        s = MatrixSpanoid(crown_matrix(2))
        with pytest.raises(DimensionError):
            check_product_bound(s, s, [{0}], [{0}, {1}])

    @given(small_spanoids(), small_spanoids(), st.data())
    def test_passing_bound_spans_the_product(self, s1, s2, data):
        """The eager product span is the oracle for the per-element check."""
        def sets_over(s, t):
            element = st.integers(0, len(s) - 1) if len(s) else st.nothing()
            return st.lists(st.frozensets(element), min_size=t, max_size=t)

        t = data.draw(st.integers(0, 4))
        m_sets = data.draw(sets_over(s1, t))
        n_sets = data.draw(sets_over(s2, t))
        res = check_product_bound(s1, s2, m_sets, n_sets)
        if res:
            n2 = len(s2)
            x = {i * n2 + j for m, nn in zip(m_sets, n_sets) for i in m for j in nn}
            assert ProductSpanoid(s1, s2).spans_all(x)
            assert res.bound == sum(len(m) * len(nn) for m, nn in zip(m_sets, n_sets))


class TestPropositionSmall:
    def test_rank_equals_boolean_rank_exhaustive_2x2(self):
        for m in all_matrices(2):
            if m.is_zero():
                continue
            s = MatrixSpanoid(m)
            assert spanoid_rank(s).value == exact_boolean_rank(m).value

    def test_rank_equals_boolean_rank_all_shapes_up_to_9_entries(self, monkeypatch):
        monkeypatch.setattr(spanoid, "RANK_SIZE_CAP", 9)
        shapes = [
            (r, c) for r in range(1, 10) for c in range(1, 10) if r * c <= 9
        ]
        for r, c in shapes:
            for bits in range(1 << (r * c)):
                dense = [
                    [(bits >> (i * c + j)) & 1 for j in range(c)] for i in range(r)
                ]
                m = BoolMatrix.from_dense(dense)
                s = MatrixSpanoid(m)
                if len(s) > 50:
                    continue
                assert spanoid_rank(s).value == exact_boolean_rank(m).value


class TestFormats:
    def test_rule_round_trip(self):
        s = RuleSpanoid(4, [(frozenset({0, 1}), 2), (frozenset(), 3)])
        back = parse_spanoid(format_rule_spanoid(s))
        assert back.rules == s.rules and len(back.universe) == 4

    def test_header_universe_allocates_nothing(self, tmp_path):
        import tracemalloc

        from boolrank.spanoid import read_spanoid

        (tmp_path / "big.txt").write_text("SPANOID 1000000000 0\n")
        tracemalloc.start()
        try:
            s = read_spanoid(str(tmp_path / "big.txt"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(s) == 10**9 and s.rules == ()
        assert peak < 1 << 20

    def test_exact_text(self):
        s = RuleSpanoid(3, [(frozenset({0, 2}), 1)])
        assert format_rule_spanoid(s) == "SPANOID 3 1\nS: 0,2 -> 1\n"

    def test_matspanoid_reference(self, tmp_path):
        from boolrank.boolmat import write_matrix
        from boolrank.spanoid import read_spanoid

        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        (tmp_path / "sp.txt").write_text("MATSPANOID c2.mat\n")
        s = read_spanoid(str(tmp_path / "sp.txt"))
        assert isinstance(s, MatrixSpanoid) and len(s) == 2

    def test_matspanoid_is_one_line(self, tmp_path):
        from boolrank.boolmat import write_matrix
        from boolrank.spanoid import read_spanoid

        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        (tmp_path / "sp.txt").write_text("MATSPANOID c2.mat\nS: 0 -> 1\n")
        with pytest.raises(FormatError, match="line 2: trailing content"):
            read_spanoid(str(tmp_path / "sp.txt"))
        # blank lines may follow, and the reference may hold spaces
        write_matrix(str(tmp_path / "my c2.mat"), crown_matrix(2))
        (tmp_path / "sp.txt").write_text("MATSPANOID my c2.mat \n\n  \n")
        s = read_spanoid(str(tmp_path / "sp.txt"))
        assert isinstance(s, MatrixSpanoid) and s.matrix == crown_matrix(2)

    def test_matspanoid_path_is_utf8(self, tmp_path):
        from boolrank.boolmat import write_matrix
        from boolrank.spanoid import read_spanoid

        write_matrix(str(tmp_path / "\u043c c2.mat"), crown_matrix(2))
        (tmp_path / "sp.txt").write_bytes("\nMATSPANOID \u043c c2.mat\r\n".encode())
        assert read_spanoid(str(tmp_path / "sp.txt")).matrix == crown_matrix(2)
        (tmp_path / "sp.txt").write_bytes(b"\nMATSPANOID \xff.mat\n")
        with pytest.raises(FormatError, match="line 2: the matrix file name must be UTF-8"):
            read_spanoid(str(tmp_path / "sp.txt"))

    def test_sets_format(self):
        sets = parse_index_sets("SETS 3\n0,1\n\n2\n")
        assert sets == [frozenset({0, 1}), frozenset(), frozenset({2})]
        # the counted body may end with an empty set; the count is still enforced
        assert parse_index_sets("SETS 2\n0\n\n") == [frozenset({0}), frozenset()]
        with pytest.raises(FormatError, match="line 3: expected 2 lines"):
            parse_index_sets("SETS 2\n0\n")

    def test_format_errors(self):
        with pytest.raises(FormatError):
            parse_spanoid("SPANOID x 1\n")
        with pytest.raises(FormatError):
            parse_spanoid("SPANOID 3 1\nnot a rule\n")
        with pytest.raises(FormatError):
            parse_index_sets("WRONG 1\n0\n")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_spanoid, "SPANOID -1 0\n"),
            (parse_spanoid, "SPANOID 3 -1\n"),
            (parse_spanoid, "SPANOID 3 x\n"),
            (parse_index_sets, "SETS -1\n"),
            (parse_index_sets, "SETS +1\n0\n"),
        ],
    )
    def test_header_fields_are_non_negative_decimals(self, parse, text):
        with pytest.raises(FormatError, match="line 1: .*non-negative decimal"):
            parse(text)

    @pytest.mark.parametrize("token", ["+1", "1_0", "0, 1", "\u0661", "0,,1"])
    def test_index_grammar(self, token):
        with pytest.raises(FormatError, match="line 2: bad index list"):
            parse_index_sets(f"SETS 1\n{token}\n")
        with pytest.raises(FormatError, match="line 2: bad index list"):
            parse_spanoid(f"SPANOID 3 1\nS: {token} -> 2\n")
        with pytest.raises(FormatError, match="line 2: bad index list"):
            parse_spanoid(f"SPANOID 3 1\nS: 0 -> {token}\n")

    def test_rule_infers_one_index(self):
        with pytest.raises(FormatError, match="line 2: .*exactly one index"):
            parse_spanoid("SPANOID 3 1\nS: 0 -> 1,2\n")
        with pytest.raises(FormatError, match="line 2: .*exactly one index"):
            parse_spanoid("SPANOID 3 1\nS: 0 -> \n")
