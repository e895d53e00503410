import inspect
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, islice
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolrank import boolmat, crown
from boolrank.boolmat import BoolMatrix, boolean_sum, kronecker
from boolrank.cover import (
    Cover,
    KronCoverDescription,
    Rectangle,
    best_triple_pairing,
    check_q_covering,
    compose_kron_cover,
    cover_matrix,
    family_lines,
    format_cover,
    kron_cover_lines,
    verify_cover,
    verify_kron_hypotheses,
)
from boolrank.crown import (
    c4_triple,
    c5_triple,
    coverable_triple,
    crown_matrix,
    gap_cover,
    gap_families,
    is_L_intersection_shifting,
    is_L_preserving,
    sigma,
    triple_cover,
)
from boolrank.errors import DimensionError, MaterializationLimitError, VerificationError
from conftest import bracket_g, colex_subsets, drop_row_0, restrict_family

C5_PRINTED = {
    "A1": [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 0, 0, 1], [0, 0, 0, 0, 0]],
    "A2": [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 0, 1, 0, 0], [1, 1, 1, 1, 0]],
    "A3": [[0, 1, 1, 0, 1], [1, 0, 0, 1, 1], [1, 0, 0, 1, 1], [0, 1, 1, 0, 1], [1, 1, 1, 1, 0]],
}


def element_cover(k, n):
    """Reference: the element rectangles of the first n colex
    ceil(k/2)-subsets of [k], from their definition, empty ones dropped."""
    sets = list(islice(colex_subsets(range(1, k + 1), (k + 1) // 2), n))
    rects = []
    for t in range(1, k + 1):
        rows = tuple(i for i, s in enumerate(sets) if t in s)
        cols = tuple(j for j, s in enumerate(sets) if t not in s)
        if rows and cols:
            rects.append(Rectangle(rows, cols))
    return Cover(n, n, tuple(rects))


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
        assert crown._sets(crown._canonical_held(4, 6)) == tuple(colex_subsets(range(1, 5), 2))
        assert crown._canonical_held(5, 10).shape == (10, 5)
        assert crown._sets(crown._canonical_held(4, 4)) == ((1, 2), (1, 3), (2, 3), (1, 4))

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
        assert crown._sets(crown._canonical_held(100, 5)) == first

    def test_canonical_family_too_large(self):
        with pytest.raises(DimensionError):
            crown._canonical_held(4, 7)
        with pytest.raises(DimensionError):
            crown._canonical_cover(4, 7)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_canonical_cover_is_the_family_cover(self, k):
        # the same rectangles, in the same order, for prefixes of every size
        full = comb(k, (k + 1) // 2)
        for n in sorted({0, 1, min(2, full), full // 2, full}):
            assert crown._canonical_cover(k, n) == element_cover(k, n)

    def test_cover_canonical_builds_no_subset_family(self, monkeypatch, tmp_path):
        # the text is the reference cover's, and _sets, crown's one tuple
        # view of a membership array, is never called on the way
        from boolrank.cli import main

        def refuse(held):
            raise AssertionError("built a family of tuples")

        want = format_cover(element_cover(sigma(300), 300))
        monkeypatch.setattr(crown, "_sets", refuse)
        out = tmp_path / "c.cov"
        assert main(["cover", "canonical", "300", "-o", str(out)]) == 0
        assert out.read_text() == want

    @pytest.mark.parametrize("k", range(2, 11))
    def test_family_matrix_is_crown(self, k):
        n = comb(k, (k + 1) // 2)
        assert cover_matrix(crown._canonical_cover(k, n)) == crown_matrix(n)

    def test_family_matrix_partial_prefix(self):
        for k, n in [(5, 7), (6, 11), (7, 20)]:
            assert cover_matrix(crown._canonical_cover(k, n)) == crown_matrix(n)

    def test_family_matrix_arbitrary_distinct_subsets(self):
        # any ordered collection of distinct half-size subsets realizes the
        # crown, not only colex prefixes
        rng = random.Random(9)
        for k in (4, 5, 6, 8):
            full = list(colex_subsets(range(1, k + 1), (k + 1) // 2))
            for _ in range(5):
                n = rng.randint(2, len(full))
                held = crown._held(rng.sample(full, n), k)
                c = crown._element_cover(held, range(k))
                assert cover_matrix(c) == crown_matrix(n)

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
        c = crown._element_cover(crown._held(sets, k), range(k))
        assert cover_matrix(c).to_dense().tolist() == dense

    @given(st.data())
    def test_element_rectangles_sum_to_intersections(self, data):
        # sets of mixed sizes, repeats allowed, so the sum is not a crown
        k = data.draw(st.integers(1, 8), label="k")
        sets = data.draw(
            st.lists(st.frozensets(st.integers(1, k)), min_size=1, max_size=12), label="sets"
        )
        held = crown._held([sorted(s) for s in sets], k)
        c = crown._element_cover(held, range(k))
        dense = [[bool(a - b) for b in sets] for a in sets]
        assert cover_matrix(c).to_dense().tolist() == dense

    def test_intersection_rectangle_full_k4(self):
        (p1,) = crown._element_cover(crown._canonical_held(4, 6), (0,)).rects
        assert len(p1.row_set) == 3 and len(p1.col_set) == 3
        assert p1.row_set == (0, 1, 3)  # sets containing 1
        assert p1.col_set == (2, 4, 5)  # sets not containing 1

    @pytest.mark.parametrize("k,n", [(3, 3), (4, 6), (4, 4), (5, 10), (5, 7), (6, 20), (7, 35)])
    def test_element_rectangles_cover(self, k, n):
        assert verify_cover(crown_matrix(n), crown._canonical_cover(k, n))


class TestBijections:
    def test_g_odd_is_complement(self):
        held = crown._colex(4, 2, 6)
        assert np.array_equal(crown._g(held), ~held)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_g_bijective_and_disjoint(self, k):
        ell = (k + 1) // 2
        held = crown._colex(k - 1, ell - 1, comb(k - 1, ell - 1))
        images = crown._g(held)
        assert sorted(crown._masks(images)) == sorted(crown._masks(held))
        assert not (held & images).any()

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
        sets, images = crown._h_held(7, 1)
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 70)
        assert boolmat._block_rows(35) == 2
        assert cover_matrix(crown._canonical_cover(7, 35)) == crown_matrix(35)
        assert is_L_intersection_shifting(sets, images, [1])
        assert not is_L_intersection_shifting(sets, sets, [1])

    def test_h_hand_example(self):
        sets, images = crown._h_held(5, 1)
        image = dict(zip(crown._sets(sets), crown._sets(images)))
        assert image[(1, 2, 3)] == (1, 4, 5)
        assert image[(2, 3, 4)] == (2, 3, 4)

    def test_h_shifting_hand_instance(self):
        # D = {1,2,3}, E = {2,3,5}: D meets the complement of E exactly at 1,
        # and the image pair must intersect off 1
        sets, images = crown._h_held(5, 1)
        image = dict(zip(crown._sets(sets), crown._sets(images)))
        d, e = (1, 2, 3), (2, 3, 5)
        comp_e = set(range(1, 6)) - set(e)
        assert set(d) & comp_e == {1}
        shifted = (set(image[d]) & (set(range(1, 6)) - set(image[e]))) - {1}
        assert shifted == {4}

    @pytest.mark.parametrize("k", range(5, 11))
    def test_h_properties_all_i(self, k):
        for i in range(1, k + 1):
            sets, images = crown._h_held(k, i)
            assert is_L_preserving(sets, images, [i])
            assert is_L_intersection_shifting(sets, images, [i])

    def test_h_requires_k5(self):
        # level 4's h is not shifting, so no triple is built from it
        assert not is_L_intersection_shifting(*crown._h_held(4, 1), [1])
        with pytest.raises(DimensionError):
            triple_cover(4)

    def test_identity_preserving_but_not_shifting(self):
        held = crown._canonical_held(5, 10)
        assert is_L_preserving(held, held, [1])
        assert is_L_preserving(held, held, [2, 3])
        assert not is_L_intersection_shifting(held, held, [1])


class TestTriples:
    @pytest.mark.parametrize("k", [5, 6, 7, 8, 14])
    def test_triple_cover_properties(self, k):
        n = comb(k, (k + 1) // 2)
        fam = triple_cover(k, 1)
        assert fam.ranks() == (1, k - 1, k - 1)
        assert check_q_covering(crown_matrix(n), fam, 2)

    def test_triple_restriction_keeps_covering(self):
        fam = restrict_family(triple_cover(5, 1), 8)
        assert check_q_covering(crown_matrix(8), fam, 2)

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

        # _sets is crown's one tuple view of a membership array
        monkeypatch.setattr(crown, "_sets", refuse)
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
        assert check_q_covering(crown_matrix(5), fam, 2)

    def test_c4_triple_valid(self):
        fam = c4_triple()
        assert fam.ranks() == (2, 2, 2)
        assert check_q_covering(crown_matrix(4), fam, 2)
        for m in fam.members:
            assert boolean_sum([m, crown_matrix(4)]) == crown_matrix(4)

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
    """Whether the level check of the triples accepts the bijection ``h``,
    given to it as the (sets, images) membership arrays of ``_h_held(k, 1)``."""
    with monkeypatch.context() as patch:
        patch.setattr(crown, "_h_held", lambda k, i: h)
        try:
            crown._checked_h(h[0].shape[1])
        except VerificationError:
            return False
    return True


def full_level(k):
    return crown._canonical_held(k, comb(k, (k + 1) // 2))


def identity(k, i=1):
    """The identity bijection of level k, as ``_h_held`` returns h."""
    held = full_level(k)
    return held, held.copy()


def conjugate(h, perm):
    """perm h perm^-1, for a relabelling ``perm`` of [k] given as a dict."""
    sets, images = h
    cols = [perm[e] - 1 for e in range(1, sets.shape[1] + 1)]
    moved_sets, moved_images = np.empty_like(sets), np.empty_like(images)
    moved_sets[:, cols], moved_images[:, cols] = sets, images
    # the set s is moved from the set perm^-1(s), whose moved image is s's
    row = {mask: r for r, mask in enumerate(crown._masks(moved_sets).tolist())}
    return sets, moved_images[[row[mask] for mask in crown._masks(sets).tolist()]]


def random_shift(k, rng):
    """A random bijection meeting the lemma's hypotheses: the sets holding 1
    are matched, by augmenting paths in a random order, to sets holding 1
    disjoint from them off 1; the other sets are fixed."""
    sets = crown._sets(full_level(k))
    ones = [s for s in sets if s[0] == 1]
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
    return full_level(k), crown._held([image.get(s, s) for s in sets], k)


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
    sets, images = h[0], h[1].copy()
    images[[i, j]] = images[[j, i]]
    return sets, images


class TestLemmaCheck:
    """The triples check each level's bijection once, by the lemma of
    ``_checked_h``; the exhaustive ``is_L_*`` checks are its oracles."""

    @pytest.mark.parametrize("k", range(5, 14))
    def test_build_h_passes_both(self, k):
        h = crown._h_held(k, 1)
        sets, images = crown._checked_h(k)
        assert np.array_equal(sets, h[0]) and np.array_equal(images, h[1])
        assert sets.shape == images.shape == (comb(k, (k + 1) // 2), k)
        assert (sets.sum(axis=1) == (k + 1) // 2).all()
        assert (images.sum(axis=1) == (k + 1) // 2).all()
        assert is_L_preserving(sets, images, [1])
        assert is_L_intersection_shifting(sets, images, [1])

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 10])
    def test_conjugates_pass_both(self, monkeypatch, k):
        rng = random.Random(k)
        h = crown._h_held(k, 1)
        for _ in range(3):
            rest = list(range(2, k + 1))
            perm = {1: 1, **dict(zip(rest, rng.sample(rest, len(rest))))}
            hc = conjugate(h, perm)
            assert lemma_accepts(monkeypatch, hc)
            assert is_L_preserving(*hc, [1])
            assert is_L_intersection_shifting(*hc, [1])

    def test_conjugate_builds_a_covering_triple(self, monkeypatch):
        h = conjugate(crown._h_held(8, 1), {1: 1, 2: 5, 3: 8, 4: 2, 5: 7, 6: 3, 7: 6, 8: 4})
        assert not np.array_equal(h[1], crown._h_held(8, 1)[1])
        monkeypatch.setattr(crown, "_h_held", lambda k, i: h)
        fam = triple_cover(8)
        assert fam.ranks() == (1, 7, 7)
        assert check_q_covering(crown_matrix(70), fam, 2)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_rejects_moving_a_set_without_1(self, monkeypatch, k):
        h = crown._h_held(k, 1)
        free = np.flatnonzero(~h[0][:, 0])
        assert lemma_accepts(monkeypatch, h)
        assert not lemma_accepts(monkeypatch, swapped(h, free[0], free[-1]))

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_rejects_losing_element_1(self, monkeypatch, k):
        # a bijection that takes a set holding 1 to one without 1 must move
        # a set without 1
        h = crown._h_held(k, 1)
        bad = swapped(h, 0, crown._sets(h[0]).index(tuple(range(2, (k + 1) // 2 + 2))))
        assert h[0][0, 0] and not bad[1][0, 0]
        assert not is_L_preserving(*bad, [1])
        assert not lemma_accepts(monkeypatch, bad)

    @pytest.mark.parametrize("k", [6, 8])
    def test_rejects_an_image_meeting_its_set(self, monkeypatch, k):
        sets, images = h = crown._h_held(k, 1)
        ones = np.flatnonzero(sets[:, 0])
        i, j = next(
            (i, j) for i in ones for j in ones if (images[j, 1:] & sets[i, 1:]).any()
        )
        bad = swapped(h, i, j)
        assert np.array_equal(bad[1][i], images[j])
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
        assert not lemma_accepts(monkeypatch, identity(k))

    def test_rejects_pairs(self, monkeypatch):
        # {1, a} -> {1, a + 1 mod [2..5]} on the 2-subsets of [5] meets every
        # other hypothesis, and is not shifting: ell - 1 = 1 leaves no room
        sets = tuple(colex_subsets(range(1, 6), 2))
        images = [(1, s[1] % 4 + 2) if s[0] == 1 else s for s in sets]
        h = crown._held(sets, 5), crown._held(images, 5)
        assert is_L_preserving(*h, [1])
        assert not is_L_intersection_shifting(*h, [1])
        assert not lemma_accepts(monkeypatch, h)

    def test_rejects_level_4(self):
        # level 4's h meets the count; ell - 1 = 1 leaves it no room to shift
        h = crown._h_held(4, 1)
        assert is_L_preserving(*h, [1]) and not is_L_intersection_shifting(*h, [1])
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
                h = swapped(h, *rng.sample(range(len(h[1])), 2))
            accepted = lemma_accepts(monkeypatch, h)
            verdicts.add(accepted)
            if accepted:
                assert is_L_preserving(*h, [1])
                assert is_L_intersection_shifting(*h, [1])
        assert verdicts == {True, False}

    def test_refusal_survives_python_O(self):
        # the identity at k = 7, and maps that are not onto at k = 6 and 8
        code = (
            "from math import comb\n"
            "from boolrank import crown\n"
            "from boolrank.errors import VerificationError\n"
            "def identity(k, i):\n"
            "    held = crown._canonical_held(k, comb(k, (k + 1) // 2))\n"
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
        description = KronCoverDescription(*gap_families(n, m))
        assert b"".join(kron_cover_lines(description)).decode() == format_cover(gap_cover(n, m))

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

    def test_gap_cover_checks_the_crowns_it_claims(self, monkeypatch):
        # the broken triples compose against their own unions
        broken = tuple(map(drop_row_0, gap_families(7, 7)))
        assert compose_kron_cover(*broken).size == 24
        monkeypatch.setattr(crown, "gap_families", lambda n, m: broken)
        with pytest.raises(VerificationError) as err:
            gap_cover(7, 7)
        assert err.value.witness == (0, 1)
        assert str(err.value) == "entry=(0,1) reason=m-family does not cover the first factor"

    def test_shared_level_checks_its_bijection(self, monkeypatch):
        monkeypatch.setattr(crown, "_h_held", identity)
        with pytest.raises(VerificationError):
            gap_families(30, 30)

    @pytest.mark.parametrize("n,m", [(4, 5), (7, 7), (7, 12), (20, 35)])
    def test_indices_count_the_text(self, n, m):
        lines = kron_cover_lines(KronCoverDescription(*gap_families(n, m)))
        next(lines)
        count = sum(len(side.split(b",")) for line in lines for side in line.split()[1::2])
        assert KronCoverDescription(*gap_families(n, m)).indices == count

    @staticmethod
    def written_peak(lines):
        tracemalloc.start()
        try:
            for _ in lines:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_streamed_text_holds_no_table_of_the_product(self):
        # 0.95 MiB measured: the digit tables of the product's 63504 indices
        # (0.35 MiB) and a line; the decimal strings of each t's runs took
        # 4.4 MiB, and a table of one string per product index 8.1 MiB
        description = KronCoverDescription(*gap_families(252, 252))
        assert self.written_peak(kron_cover_lines(description)) < 2 * 2**20

    def test_family_text_holds_no_string_per_index(self):
        # 1.14 MiB measured: the digit tables of 48620 indices (0.28 MiB)
        # and a line; a table of one decimal string per index took 5.6 MiB
        fam = triple_cover(18, 1)
        assert self.written_peak(family_lines(fam)) < 2 * 2**20

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

