import inspect
import os
import random
import subprocess
import sys
from itertools import combinations, islice
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrank import boolmat, crown
from boolrank.boolmat import BoolMatrix, _IntPool, dominated_by, kronecker
from boolrank.cover import (
    KronCoverDescription,
    best_triple_pairing,
    check_half_covering,
    compose_kron_cover,
    compose_kron_description,
    cover_matrix,
    format_cover,
    kron_cover_lines,
    verify_cover,
    verify_kron_hypotheses,
)
from boolrank.crown import (
    FamilyBijection,
    SubsetFamily,
    build_g,
    build_h,
    c4_triple,
    c5_triple,
    canonical_family,
    coverable_triple,
    crown_matrix,
    family_cover,
    family_matrix,
    format_subset_family,
    gap_cover,
    gap_families,
    intersection_rectangle,
    is_L_intersection_shifting,
    is_L_preserving,
    parse_subset_family,
    sigma,
    triple_cover,
)
from boolrank.errors import (
    DimensionError,
    FormatError,
    MaterializationLimitError,
    VerificationError,
)
from conftest import bracket_g, colex_subsets, level_arrays, restrict_family

C5_PRINTED = {
    "A1": [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 0, 0, 1], [0, 0, 0, 0, 0]],
    "A2": [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [1, 1, 1, 1, 0]],
    "A3": [[0, 1, 1, 0, 1], [1, 0, 0, 1, 1], [1, 0, 0, 1, 1], [0, 1, 1, 0, 1], [1, 1, 1, 1, 0]],
}


class TestCrownAndSigma:
    def test_small_crowns(self):
        assert crown_matrix(1) == BoolMatrix.from_dense([[0]])
        assert crown_matrix(2) == BoolMatrix.from_dense([[0, 1], [1, 0]])
        assert crown_matrix(4) == BoolMatrix.from_dense(
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        )

    @pytest.mark.parametrize(
        "n,expect",
        [(1, 0), (2, 2), (3, 3), (4, 4), (5, 4), (6, 4), (7, 5), (10, 5), (35, 7), (70, 8), (6859, 16)],
    )
    def test_sigma_values(self, n, expect):
        assert sigma(n) == expect

    def test_sigma_is_minimal(self):
        for n in range(1, 300):
            k = sigma(n)
            assert comb(k, (k + 1) // 2) >= n
            if k:
                assert comb(k - 1, k // 2) < n


class TestFamilies:
    def test_colex_order_k4(self):
        assert list(colex_subsets(range(1, 5), 2)) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ]

    def test_canonical_family_examples(self):
        assert canonical_family(4, 6).sets == tuple(colex_subsets(range(1, 5), 2))
        assert len(canonical_family(5, 10)) == 10
        assert canonical_family(4, 4).sets == ((1, 2), (1, 3), (2, 3), (1, 4))

    @pytest.mark.parametrize("k", range(15))
    def test_colex_matches_reference(self, k):
        # unranked rows against the recursive generator: no set, one, a mid
        # prefix and the whole level, for every size
        for ell in range(k + 1):
            full = list(colex_subsets(range(1, k + 1), ell))
            for n in sorted({0, 1, len(full) // 2 + 1, len(full)}):
                held = crown._colex(k, ell, n)
                assert held.shape == (n, k) and held.dtype == bool
                assert crown._sets(held) == tuple(full[:n])

    def test_canonical_family_of_a_wide_level(self):
        # C(100, 50) overflows int64; the rank tables are clamped at n
        first = tuple(islice(colex_subsets(range(1, 101), 50), 5))
        assert canonical_family(100, 5) == SubsetFamily(100, 50, first)

    def test_canonical_family_too_large(self):
        with pytest.raises(DimensionError):
            canonical_family(4, 7)
        with pytest.raises(DimensionError):
            crown._canonical_cover(4, 7)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_canonical_cover_is_the_family_cover(self, k):
        # the same rectangles, in the same order, for prefixes of every size
        full = comb(k, (k + 1) // 2)
        for n in sorted({0, 1, min(2, full), full // 2, full}):
            assert crown._canonical_cover(k, n) == family_cover(canonical_family(k, n))

    def test_cover_canonical_builds_no_subset_family(self, monkeypatch, tmp_path):
        from boolrank.cli import main

        def refuse(self):
            raise AssertionError("built a SubsetFamily")

        want = format_cover(family_cover(canonical_family(sigma(300), 300)))
        monkeypatch.setattr(SubsetFamily, "__post_init__", refuse)
        out = tmp_path / "c.cov"
        assert main(["cover", "canonical", "300", "-o", str(out)]) == 0
        assert out.read_text() == want

    @pytest.mark.parametrize("k", range(2, 11))
    def test_family_matrix_is_crown(self, k):
        n = comb(k, (k + 1) // 2)
        assert family_matrix(canonical_family(k, n)) == crown_matrix(n)

    def test_family_matrix_partial_prefix(self):
        for k, n in [(5, 7), (6, 11), (7, 20)]:
            assert family_matrix(canonical_family(k, n)) == crown_matrix(n)

    def test_family_matrix_arbitrary_distinct_subsets(self):
        # any ordered collection of distinct half-size subsets realizes the
        # crown, not only colex prefixes
        import random

        rng = random.Random(9)
        for k in (4, 5, 6, 8):
            full = list(colex_subsets(range(1, k + 1), (k + 1) // 2))
            for _ in range(5):
                n = rng.randint(2, len(full))
                sets = tuple(rng.sample(full, n))
                fam = SubsetFamily(k, (k + 1) // 2, sets)
                assert family_matrix(fam) == crown_matrix(n)

    @given(st.data())
    def test_family_matrix_is_its_definition(self, data):
        # (i, j) = 1 iff F_i meets [k] - F_j, over families of any set size
        # in any order
        k = data.draw(st.integers(1, 8), label="k")
        ell = data.draw(st.integers(0, k), label="ell")
        pool = list(colex_subsets(range(1, k + 1), ell))
        sets = data.draw(st.permutations(pool), label="order")
        sets = sets[:data.draw(st.integers(1, len(pool)), label="n")]
        dense = [[bool(set(a) - set(b)) for b in sets] for a in sets]
        assert family_matrix(SubsetFamily(k, ell, tuple(sets))).to_dense().tolist() == dense

    @given(st.data())
    def test_element_rectangles_sum_to_intersections(self, data):
        # sets of mixed sizes, repeats allowed, so the sum is not a crown
        k = data.draw(st.integers(1, 8), label="k")
        sets = data.draw(
            st.lists(st.frozensets(st.integers(1, k)), min_size=1, max_size=12), label="sets"
        )
        held = crown._held([sorted(s) for s in sets], k)
        c = crown._element_cover(held, range(k), _IntPool())
        dense = [[bool(a - b) for b in sets] for a in sets]
        assert cover_matrix(c).to_dense().tolist() == dense

    def test_intersection_rectangle_full_k4(self):
        fam = canonical_family(4, 6)
        p1 = intersection_rectangle(fam, 1)
        assert len(p1.row_set) == 3 and len(p1.col_set) == 3
        assert p1.row_set == (0, 1, 3)  # sets containing 1
        assert p1.col_set == (2, 4, 5)  # sets not containing 1

    def test_intersection_rectangle_errors(self):
        fam = canonical_family(4, 6)
        with pytest.raises(DimensionError):
            intersection_rectangle(fam, 5)
        partial = SubsetFamily(4, 2, ((1, 2),))
        with pytest.raises(ValueError):
            intersection_rectangle(partial, 3)  # 3 is in no set

    @pytest.mark.parametrize("k,n", [(3, 3), (4, 6), (4, 4), (5, 10), (5, 7), (6, 20), (7, 35)])
    def test_element_rectangles_cover(self, k, n):
        fam = canonical_family(k, n)
        assert verify_cover(crown_matrix(n), family_cover(fam))


class TestBijections:
    def test_g_odd_is_complement(self):
        g = build_g(5)
        for s, img in zip(g.domain.sets, g.images):
            assert img == tuple(sorted(set(range(1, 5)) - set(s)))

    @pytest.mark.parametrize("k", range(2, 17))
    def test_g_bijective_and_disjoint(self, k):
        g = build_g(k)
        assert set(g.images) == set(g.domain.sets)
        for s, img in zip(g.domain.sets, g.images):
            assert not set(s) & set(img)

    @pytest.mark.parametrize("k", range(2, 19))
    def test_g_matches_bracket_loop(self, k):
        ell = (k + 1) // 2
        sets = list(colex_subsets(range(1, k), ell - 1))
        held = crown._colex(k - 1, ell - 1, len(sets))
        assert crown._sets(held) == tuple(sets)
        expected = crown._held([bracket_g(k, s) for s in sets], k - 1)
        assert np.array_equal(crown._g(held), expected)

    def test_row_blocks_do_not_change_results(self, monkeypatch):
        # the shifting check walks boolmat's row blocks: 2 rows each here,
        # so 35 rows end on a partial block
        fam = canonical_family(7, 35)
        h = build_h(7, 1)
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 70)
        assert boolmat._block_rows(35) == 2
        assert family_matrix(fam) == crown_matrix(35)
        assert is_L_intersection_shifting(h, [1])
        assert not is_L_intersection_shifting(FamilyBijection(fam, fam.sets), [1])

    def test_h_hand_example(self):
        h = build_h(5, 1)
        image = dict(zip(h.domain.sets, h.images))
        assert image[(1, 2, 3)] == (1, 4, 5)
        assert image[(2, 3, 4)] == (2, 3, 4)

    def test_h_shifting_hand_instance(self):
        # D = {1,2,3}, E = {2,3,5}: D meets the complement of E exactly at 1,
        # and the image pair must intersect off 1
        h = build_h(5, 1)
        image = dict(zip(h.domain.sets, h.images))
        d, e = (1, 2, 3), (2, 3, 5)
        comp_e = set(range(1, 6)) - set(e)
        assert set(d) & comp_e == {1}
        shifted = (set(image[d]) & (set(range(1, 6)) - set(image[e]))) - {1}
        assert shifted == {4}

    @pytest.mark.parametrize("k", range(5, 11))
    def test_h_properties_all_i(self, k):
        for i in range(1, k + 1):
            h = build_h(k, i)
            assert is_L_preserving(h, [i])
            assert is_L_intersection_shifting(h, [i])

    def test_h_requires_k5(self):
        with pytest.raises(DimensionError):
            build_h(4, 1)

    def test_identity_preserving_but_not_shifting(self):
        fam = canonical_family(5, 10)
        ident = FamilyBijection(fam, fam.sets)
        assert is_L_preserving(ident, [1])
        assert is_L_preserving(ident, [2, 3])
        assert not is_L_intersection_shifting(ident, [1])


class TestTriples:
    @pytest.mark.parametrize("k", [5, 6, 7, 8, 14])
    def test_triple_cover_properties(self, k):
        n = comb(k, (k + 1) // 2)
        fam = triple_cover(k, 1)
        assert fam.ranks() == (1, k - 1, k - 1)
        assert check_half_covering(crown_matrix(n), fam)

    def test_triple_restriction_keeps_covering(self):
        fam = restrict_family(triple_cover(5, 1), 8)
        assert check_half_covering(crown_matrix(8), fam)

    @pytest.mark.parametrize("k", range(5, 13))
    def test_coverable_triple_is_level_prefix(self, k):
        # every order of levels 5..9, both ends of levels 10..12: the triple
        # built on the n-prefix is the whole level's triple cut to n
        top = comb(k, (k + 1) // 2)
        bottom = comb(k - 1, k // 2) + 1
        whole = triple_cover(k, 1)
        for n in range(bottom, top + 1) if k <= 9 else (bottom, top):
            assert sigma(n) == k
            assert coverable_triple(n) == restrict_family(whole, n)

    def test_bad_bijection_is_refused(self, monkeypatch):
        # the identity is {1}-preserving but not {1}-intersection shifting;
        # whole levels and prefixes both check the bijection they are given
        def identity(k, i):
            fam = canonical_family(k, comb(k, (k + 1) // 2))
            return level_arrays(FamilyBijection(fam, fam.sets))

        monkeypatch.setattr(crown, "_h_held", identity)
        with pytest.raises(VerificationError):
            triple_cover(7)
        with pytest.raises(VerificationError):
            coverable_triple(30)

    def test_level_path_builds_no_tuples(self, monkeypatch):
        builds = (
            lambda: triple_cover(9), lambda: coverable_triple(30), lambda: gap_families(30, 30)
        )
        expected = [build() for build in builds]

        def refuse(*args):
            raise AssertionError("a level was built as tuples")

        monkeypatch.setattr(crown, "SubsetFamily", refuse)
        monkeypatch.setattr(crown, "FamilyBijection", refuse)
        assert [build() for build in builds] == expected

    @pytest.mark.parametrize("r", [0, 2, 3])
    def test_triple_only_r1(self, r):
        with pytest.raises(DimensionError):
            triple_cover(7, r)

    def test_c5_matches_printed_matrices(self):
        fam = c5_triple()
        for member, key in zip(fam.members, ("A1", "A2", "A3")):
            assert member == BoolMatrix.from_dense(C5_PRINTED[key])
        assert fam.ranks() == (2, 2, 3)
        assert check_half_covering(crown_matrix(5), fam)

    def test_c4_triple_valid(self):
        fam = c4_triple()
        assert fam.ranks() == (2, 2, 2)
        assert check_half_covering(crown_matrix(4), fam)
        for m in fam.members:
            assert dominated_by(m, crown_matrix(4))

    def test_c4_triple_found_by_exhaustive_search(self):
        # oracle: search all unions of <= 2 disjoint-index rectangles below
        # the crown for a triple with every two covering; the frozen triple
        # must be among the valid ones
        full = crown_matrix(4)
        target = full.to_dense().tobytes()
        rank1 = []
        idx = list(range(4))
        for rbits in range(1, 16):
            for cbits in range(1, 16):
                if rbits & cbits:
                    continue
                rows = tuple(i for i in idx if rbits >> i & 1)
                cols = tuple(j for j in idx if cbits >> j & 1)
                m = 0
                for i in rows:
                    for j in cols:
                        m |= 1 << (i * 4 + j)
                rank1.append(m)
        cands = sorted(set(rank1) | {a | b for a, b in combinations(rank1, 2)})
        full_mask = 0
        dense = full.to_dense()
        for i in range(4):
            for j in range(4):
                if dense[i, j]:
                    full_mask |= 1 << (i * 4 + j)
        found = None
        for a, b in combinations(cands, 2):
            if a | b != full_mask:
                continue
            for c in cands:
                if a | c == full_mask and b | c == full_mask:
                    found = (a, b, c)
                    break
            if found:
                break
        assert found is not None
        frozen = set()
        for m in c4_triple().members:
            md = m.to_dense()
            frozen.add(sum(1 << (i * 4 + j) for i in range(4) for j in range(4) if md[i, j]))
        for a, b in combinations(sorted(frozen), 2):
            assert a | b == full_mask

    def test_c5_not_222_coverable_by_counting(self):
        # every-two-covering forces each 1-entry into >= 2 members, so the
        # member ones must total >= 2 * ones(crown); rank <= 2 members carry
        # at most 2 * maxrect ones each -- impossible for order 5
        ones = crown_matrix(5).count_ones()
        maxrect = 2 * 3  # ceil(5/2) * floor(5/2)
        assert (2 + 2 + 2) * maxrect < 2 * ones


def lemma_accepts(monkeypatch, h):
    """Whether the level check of the triples accepts ``h`` as the level's
    bijection, given to it as ``_h_held(k, 1)``'s arrays."""
    with monkeypatch.context() as patch:
        patch.setattr(crown, "_h_held", lambda k, i: level_arrays(h))
        try:
            crown._checked_h(h.domain.k)
        except VerificationError:
            return False
    return True


def full_level(k):
    return canonical_family(k, comb(k, (k + 1) // 2))


def conjugate(h, perm):
    """perm h perm^-1, for a relabelling ``perm`` of [k] given as a dict."""
    def relabel(s):
        return tuple(sorted(perm[e] for e in s))

    image = {relabel(d): relabel(img) for d, img in zip(h.domain.sets, h.images)}
    return FamilyBijection(h.domain, tuple(image[s] for s in h.domain.sets))


def random_shift(k, rng):
    """A random bijection meeting the lemma's hypotheses: the sets holding 1
    are matched, by augmenting paths in a random order, to sets holding 1
    disjoint from them off 1; the other sets are fixed."""
    fam = full_level(k)
    ones = [s for s in fam.sets if s[0] == 1]
    source = {}  # image -> the set mapped to it

    def augment(d, seen):
        targets = [e for e in ones if not set(e[1:]) & set(d[1:])]
        rng.shuffle(targets)
        for e in targets:
            if e not in seen:
                seen.add(e)
                if e not in source or augment(source[e], seen):
                    source[e] = d
                    return True
        return False

    for d in rng.sample(ones, len(ones)):
        assert augment(d, set())
    image = {d: e for e, d in source.items()}
    return FamilyBijection(fam, tuple(image.get(s, s) for s in fam.sets))


def not_onto(k, i, real=crown._h_held):
    """h's arrays with one set holding 1 sent to the image of another,
    which is disjoint from it off 1: the shared-element count still holds,
    and the map is not onto."""
    sets, images = real(k, i)
    ones = sets[:, 0].nonzero()[0]
    a, b = next(
        (a, b) for a in ones for b in ones if a != b and not (sets[a, 1:] & images[b, 1:]).any()
    )
    images[a] = images[b]
    return sets, images


def swapped(h, i, j):
    """h with the images of its i-th and j-th sets exchanged."""
    images = list(h.images)
    images[i], images[j] = images[j], images[i]
    return FamilyBijection(h.domain, tuple(images))


class TestLemmaCheck:
    """The triples check each level's bijection once, by the lemma of
    ``_checked_h``; the exhaustive ``is_L_*`` checks are its oracles."""

    @pytest.mark.parametrize("k", range(5, 14))
    def test_build_h_passes_both(self, k):
        h = build_h(k, 1)
        sets, images = crown._checked_h(k)
        assert sets.shape == images.shape == (comb(k, (k + 1) // 2), k)
        assert (sets.sum(axis=1) == h.domain.ell).all()
        assert (images.sum(axis=1) == h.domain.ell).all()
        assert is_L_preserving(h, [1])
        assert is_L_intersection_shifting(h, [1])

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 10])
    def test_conjugates_pass_both(self, monkeypatch, k):
        rng = random.Random(k)
        h = build_h(k, 1)
        for _ in range(3):
            rest = list(range(2, k + 1))
            perm = {1: 1, **dict(zip(rest, rng.sample(rest, len(rest))))}
            hc = conjugate(h, perm)
            assert lemma_accepts(monkeypatch, hc)
            assert is_L_preserving(hc, [1])
            assert is_L_intersection_shifting(hc, [1])

    def test_conjugate_builds_a_covering_triple(self, monkeypatch):
        h = conjugate(build_h(8, 1), {1: 1, 2: 5, 3: 8, 4: 2, 5: 7, 6: 3, 7: 6, 8: 4})
        assert h != build_h(8, 1)
        monkeypatch.setattr(crown, "_h_held", lambda k, i: level_arrays(h))
        fam = triple_cover(8)
        assert fam.ranks() == (1, 7, 7)
        assert check_half_covering(crown_matrix(70), fam)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_rejects_moving_a_set_without_1(self, monkeypatch, k):
        h = build_h(k, 1)
        free = [i for i, s in enumerate(h.domain.sets) if 1 not in s]
        assert lemma_accepts(monkeypatch, h)
        assert not lemma_accepts(monkeypatch, swapped(h, free[0], free[-1]))

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_rejects_losing_element_1(self, monkeypatch, k):
        # a bijection that takes a set holding 1 to one without 1 must move
        # a set without 1
        h = build_h(k, 1)
        bad = swapped(h, 0, h.domain.sets.index(tuple(range(2, h.domain.ell + 2))))
        assert 1 in h.domain.sets[0] and 1 not in bad.images[0]
        assert not is_L_preserving(bad, [1])
        assert not lemma_accepts(monkeypatch, bad)

    @pytest.mark.parametrize("k", [6, 8])
    def test_rejects_an_image_meeting_its_set(self, monkeypatch, k):
        h = build_h(k, 1)
        ones = [i for i, s in enumerate(h.domain.sets) if 1 in s]
        i, j = next(
            (i, j) for i in ones for j in ones
            if set(h.images[j]) & set(h.domain.sets[i]) - {1}
        )
        bad = swapped(h, i, j)
        assert dict(zip(bad.domain.sets, bad.images))[h.domain.sets[i]] == h.images[j]
        assert not lemma_accepts(monkeypatch, bad)

    @pytest.mark.parametrize("k", [6, 8])
    def test_rejects_a_map_that_is_not_onto(self, monkeypatch, k):
        sets, images = not_onto(k, 1)
        shared = (sets & images).sum(axis=1)
        assert (shared == np.where(sets[:, 0], 1, (k + 1) // 2)).all()
        assert len(np.unique(crown._masks(images))) == len(sets) - 1
        monkeypatch.setattr(crown, "_h_held", lambda k, i: (sets, images))
        with pytest.raises(VerificationError, match="not a bijection"):
            crown._checked_h(k)

    @pytest.mark.parametrize("k", [6, 7])
    def test_rejects_a_level_that_is_not_the_colex_level(self, monkeypatch, k):
        # h itself on its sets in reverse order, without its last set, or
        # with that set, which h fixes, replaced by the one before it
        sets, images = crown._h_held(k, 1)
        twice = np.r_[:len(sets) - 1, -2]
        for rows in (np.s_[::-1], np.s_[:-1], twice):
            level = sets[rows], images[rows]
            monkeypatch.setattr(crown, "_h_held", lambda k, i: level)
            with pytest.raises(VerificationError, match="not a bijection"):
                crown._checked_h(k)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_rejects_the_identity(self, monkeypatch, k):
        fam = full_level(k)
        assert not lemma_accepts(monkeypatch, FamilyBijection(fam, fam.sets))

    def test_rejects_pairs(self, monkeypatch):
        # {1, a} -> {1, a + 1 mod [2..5]} on the 2-subsets of [5] meets every
        # other hypothesis, and is not shifting: ell - 1 = 1 leaves no room
        fam = SubsetFamily(5, 2, tuple(colex_subsets(range(1, 6), 2)))
        h = FamilyBijection(fam, tuple(
            (1, s[1] % 4 + 2) if s[0] == 1 else s for s in fam.sets
        ))
        assert is_L_preserving(h, [1])
        assert not is_L_intersection_shifting(h, [1])
        assert not lemma_accepts(monkeypatch, h)

    def test_rejects_level_4(self):
        # level 4's h meets the count; ell - 1 = 1 leaves it no room to shift
        h = FamilyBijection(full_level(4), crown._sets(crown._h_held(4, 1)[1]))
        assert is_L_preserving(h, [1]) and not is_L_intersection_shifting(h, [1])
        with pytest.raises(VerificationError, match="shifting"):
            crown._checked_h(4)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_accepted_means_the_oracles_accept(self, monkeypatch, k):
        # random matchings, then 0, 1 or 2 random swaps of their images
        rng = random.Random(100 + k)
        verdicts = set()
        for sample in range(12):
            h = random_shift(k, rng)
            for _ in range(sample % 3):
                h = swapped(h, *rng.sample(range(len(h.images)), 2))
            accepted = lemma_accepts(monkeypatch, h)
            verdicts.add(accepted)
            if accepted:
                assert is_L_preserving(h, [1])
                assert is_L_intersection_shifting(h, [1])
        assert verdicts == {True, False}

    def test_refusal_survives_python_O(self):
        # the identity at k = 7, and maps that are not onto at k = 6 and 8
        code = (
            "from math import comb\n"
            "from boolrank import crown\n"
            "from boolrank.errors import VerificationError\n"
            "def identity(k, i):\n"
            "    fam = crown.canonical_family(k, comb(k, (k + 1) // 2))\n"
            "    held = crown._held(fam.sets, k)\n"
            "    return held, held.copy()\n"
            f"{inspect.getsource(not_onto)}"
            "for k, level in ((7, identity), (6, not_onto), (8, not_onto)):\n"
            "    crown._h_held = level\n"
            "    try:\n"
            "        crown.triple_cover(k)\n"
            "    except VerificationError:\n"
            "        print(__debug__, 'refused')\n"
        )
        src = str(Path(crown.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False refused\n" * 3, "")


class TestGapCovers:
    @pytest.mark.parametrize(
        "n,m,size",
        [(7, 7, 24), (7, 10, 24), (35, 35, 48), (10, 20, 29)],
    )
    def test_gap_sizes(self, n, m, size):
        cov = gap_cover(n, m)
        assert cov.size == size == sigma(n) * sigma(m) - 1

    def test_gap_7_7_eager(self):
        cov = gap_cover(7, 7)
        prod = kronecker(crown_matrix(7), crown_matrix(7))
        assert verify_cover(prod, cov)

    def test_gap_lazy_hypotheses(self):
        m_fam, n_fam = gap_families(20, 35)
        assert verify_kron_hypotheses(
            crown_matrix(20), m_fam, crown_matrix(35), n_fam
        )

    @pytest.mark.parametrize(
        "n,m", [(4, 4), (4, 5), (5, 4), (4, 10), (7, 7), (7, 12), (12, 7), (20, 35)]
    )
    def test_streamed_text_matches_format_cover(self, n, m):
        description = compose_kron_description(*gap_families(n, m))
        assert "".join(kron_cover_lines(description)) == format_cover(gap_cover(n, m))

    @pytest.mark.parametrize("n,m,builds", [(12, 20, 1), (30, 30, 1), (20, 35, 2), (35, 7, 2)])
    def test_shared_level_builds_h_once(self, monkeypatch, n, m, builds):
        # sigma(12) = sigma(20) = 6 and sigma(30) = 7; both triples are the
        # level's triple cut to n and to m
        calls = []

        def counted(k, i, real=crown._h_held):
            calls.append(k)
            return real(k, i)

        monkeypatch.setattr(crown, "_h_held", counted)
        m_fam, n_fam = gap_families(n, m)
        assert len(calls) == builds
        monkeypatch.undo()
        whole = triple_cover(sigma(n), 1)
        assert m_fam == restrict_family(whole, n)
        assert (m_fam, n_fam) == (
            coverable_triple(n), best_triple_pairing(m_fam, coverable_triple(m))[0]
        )

    def test_shared_level_checks_its_bijection(self, monkeypatch):
        def identity(k, i):
            fam = canonical_family(k, comb(k, (k + 1) // 2))
            return level_arrays(FamilyBijection(fam, fam.sets))

        monkeypatch.setattr(crown, "_h_held", identity)
        with pytest.raises(VerificationError):
            gap_families(30, 30)

    @pytest.mark.parametrize("n,m", [(4, 5), (7, 7), (7, 12), (20, 35)])
    def test_indices_count_the_text(self, n, m):
        lines = kron_cover_lines(compose_kron_description(*gap_families(n, m)))
        next(lines)
        count = sum(len(side.split(",")) for line in lines for side in line.split()[1::2])
        assert KronCoverDescription(*gap_families(n, m)).indices == count

    def test_product_cover_is_gated_on_its_indices(self, monkeypatch):
        # gap_cover(7, 7)'s text holds 608 indices
        m_fam, n_fam = gap_families(7, 7)
        assert KronCoverDescription(m_fam, n_fam).indices == 608
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "607")
        for build in (lambda: gap_cover(7, 7), lambda: compose_kron_cover(m_fam, n_fam)):
            with pytest.raises(MaterializationLimitError, match="product cover has 608"):
                build()
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "608")
        cov = gap_cover(7, 7)
        assert sum(len(r.row_set) + len(r.col_set) for r in cov.rects) == 608
        assert compose_kron_cover(m_fam, n_fam) == cov

    def test_small_crown_combinations(self):
        assert gap_cover(4, 4).size == 12
        assert gap_cover(4, 5).size == 14
        assert gap_cover(5, 4).size == 14
        assert gap_cover(4, 10).size == 18 < sigma(4) * sigma(10)
        assert gap_cover(5, 10).size == 19 < sigma(5) * sigma(10)

    def test_unsupported_pairs(self):
        with pytest.raises(DimensionError):
            gap_cover(5, 5)
        with pytest.raises(DimensionError):
            gap_cover(6, 7)
        with pytest.raises(DimensionError):
            coverable_triple(6)

    def test_strictly_below_rank_product(self):
        for n, m in [(7, 7), (7, 8), (8, 9), (10, 12)]:
            assert gap_cover(n, m).size < sigma(n) * sigma(m)


class TestSubsetFamilyFormat:
    def test_round_trip(self):
        fam = canonical_family(5, 7)
        assert parse_subset_family(format_subset_family(fam)) == fam

    def test_exact_text(self):
        fam = SubsetFamily(3, 2, ((1, 2), (1, 3)))
        assert format_subset_family(fam) == "FAMILY-SETS 3 2 2\n1,2\n1,3\n"

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_subset_family("WRONG 1 2 3\n")
        with pytest.raises(FormatError):
            parse_subset_family("FAMILY-SETS 3 2 2\n1,2\n")
        with pytest.raises(FormatError):
            parse_subset_family("FAMILY-SETS 3 2 1\n2,1\n")

    @pytest.mark.parametrize(
        "header",
        ["FAMILY-SETS -3 2 1", "FAMILY-SETS 3 -2 1", "FAMILY-SETS 3 2 -1", "FAMILY-SETS 3 2 +1"],
    )
    def test_header_fields_are_non_negative_decimals(self, header):
        with pytest.raises(FormatError, match="line 1: .*non-negative decimal"):
            parse_subset_family(header + "\n1,2\n")

    @pytest.mark.parametrize("line", ["+1,2", "1,2_0", "1, 2", "1,\u0662", " ,1"])
    def test_index_grammar(self, line):
        with pytest.raises(FormatError, match="line 2: bad index list"):
            parse_subset_family(f"FAMILY-SETS 3 2 1\n{line}\n")
