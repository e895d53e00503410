import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolrank import boolmat
from boolrank.boolmat import BoolMatrix, boolean_sum, format_matrix, kronecker
from boolrank import cover as cover_mod
from boolrank.cover import (
    Cover,
    KronCoverDescription,
    MatrixFamily,
    MatrixFile,
    Rectangle,
    best_triple_pairing,
    check_q_covering,
    compose_kron_cover,
    cover_matrix,
    format_cover,
    format_family,
    kron_cover_lines,
    parse_cover,
    parse_family,
    read_family,
    verify_cover,
    verify_kron_hypotheses,
)
from boolrank.crown import CrownTarget, c4_triple, coverable_triple, crown_matrix
from boolrank.errors import DimensionError, FormatError, VerificationError
from conftest import rect_matrix, restrict_family


def row_decomposition(m: BoolMatrix) -> Cover:
    """One rectangle per nonzero row: a valid rank-1 decomposition of any matrix."""
    dense = m.to_dense()
    rects = []
    for i in range(m.rows):
        cols = tuple(int(j) for j in np.nonzero(dense[i])[0])
        if cols:
            rects.append(Rectangle((i,), cols))
    return Cover(m.rows, m.cols, tuple(rects))


def with_row_decompositions(members) -> MatrixFamily:
    return MatrixFamily(tuple(row_decomposition(m) for m in members))


def rand_matrix(rng, rows, cols, density=0.5):
    dense = [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return BoolMatrix.from_dense(dense)


def rand_below(rng, a: BoolMatrix, density: float) -> BoolMatrix:
    """A random matrix dominated by ``a``: each 1 kept with ``density``."""
    keep = [[rng.random() < density for _ in range(a.cols)] for _ in range(a.rows)]
    return BoolMatrix.from_dense(a.to_dense() & np.array(keep, dtype=np.uint8))


@st.composite
def kron_descriptions(draw):
    """Two equal-length families of random decompositions, up to 12 x 12.

    Sides and dimensions of length 1 are frequent, and a decomposition may
    be empty; the families need not satisfy the composition hypotheses.
    """
    s = draw(st.integers(1, 3))

    def side(n):
        return tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))

    def family():
        rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        return MatrixFamily(tuple(
            Cover(rows, cols, tuple(
                Rectangle(side(rows), side(cols)) for _ in range(draw(st.integers(0, 3)))
            ))
            for _ in range(s)
        ))

    return KronCoverDescription(family(), family())


@st.composite
def straddling_descriptions(draw):
    """Like :func:`kron_descriptions`, but each product dimension passes a
    power of ten from 10 to 10^4, and the m-sides favour the rows and
    columns whose products cross it.  Both families' first members end
    with the full rectangle, so the text has more indices than the product
    has rows or columns, and is written from digit tables."""
    s = draw(st.integers(1, 3))
    shapes = []
    for _ in range(2):  # rows, then columns
        edge = 10 ** draw(st.integers(1, 4))
        inner = draw(st.integers(1, 12))
        shapes.append((edge // inner + draw(st.integers(1, 3)), inner, edge // inner))

    def side(n, near=None):
        values = st.integers(0, n - 1)
        if near is not None:
            values |= st.integers(max(0, near - 1), min(n - 1, near + 1))
        return tuple(sorted(draw(st.sets(values, min_size=1, max_size=6))))

    def family(outer):
        (ra, rb, ri), (ca, cb, ci) = shapes
        rows, cols, near_rows, near_cols = (ra, ca, ri, ci) if outer else (rb, cb, None, None)
        full = (Rectangle(range(rows), range(cols)),)
        return MatrixFamily(tuple(
            Cover(rows, cols, tuple(
                Rectangle(side(rows, near_rows), side(cols, near_cols))
                for _ in range(draw(st.integers(0, 3)))
            ) + full * (t == 0))
            for t in range(s)
        ))

    return KronCoverDescription(family(True), family(False))


def brute_q_covering(a, fam, q):
    """Oracle: every q-subset in lex order, full OR, compare; stop at the first failure."""
    checked = 0
    for sub in itertools.combinations(range(len(fam)), q):
        checked += 1
        if boolean_sum([fam.members[t] for t in sub]) != a:
            return False, sub, checked
    return True, None, checked


class TestRectangleAndCover:
    def test_rectangle_invariants(self):
        with pytest.raises(ValueError):
            Rectangle((), (0,))
        with pytest.raises(ValueError):
            Rectangle((1, 0), (0,))
        r = Rectangle((0, 2), (1,))
        assert r.area == 2
        assert rect_matrix(r, 3, 2).to_dense().tolist() == [[0, 1], [0, 0], [0, 1]]

    def test_cover_range_check(self):
        with pytest.raises(DimensionError):
            Cover(2, 2, (Rectangle((0, 2), (0,)),))


class TestVerifyCover:
    def test_worked_example_covers_crown4(self):
        # the two rank-2 summands of the order-4 crown, as 2 + 2 rectangles
        cov = Cover(
            4,
            4,
            (
                Rectangle((0, 1), (2, 3)),
                Rectangle((2, 3), (0, 1)),
                Rectangle((0, 3), (1, 2)),
                Rectangle((1, 2), (0, 3)),
            ),
        )
        assert verify_cover(crown_matrix(4), cov)

    def test_full_rectangle_on_all_ones(self):
        cov = Cover(3, 3, (Rectangle((0, 1, 2), (0, 1, 2)),))
        assert verify_cover(BoolMatrix.ones(3, 3), cov)

    def test_rectangle_on_crown_diagonal_fails(self):
        cov = Cover(3, 3, (Rectangle((0,), (0, 1)),))
        res = verify_cover(crown_matrix(3), cov)
        assert not res
        assert res.witness == (0, 0)
        assert "zero entry" in res.reason

    def test_uncovered_witness_is_row_major_first(self):
        cov = Cover(3, 3, (Rectangle((1, 2), (0,)),))
        res = verify_cover(crown_matrix(3), cov)
        assert not res and res.witness == (0, 1)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            verify_cover(crown_matrix(3), Cover(4, 4, ()))


def dense_sum(c: Cover) -> np.ndarray:
    """Oracle: the cover's Boolean sum, one dense rectangle at a time."""
    dense = np.zeros((c.rows, c.cols), dtype=np.uint8)
    for r in c.rects:
        dense[np.ix_(r.row_set, r.col_set)] = 1
    return dense


def rand_cover(rng, rows, cols, size) -> Cover:
    def side(n):
        return tuple(sorted(rng.sample(range(n), rng.randint(1, n))))

    rects = tuple(Rectangle(side(rows), side(cols)) for _ in range(size))
    return Cover(rows, cols, rects)


class TestRowBlocks:
    """Packed rows of a cover's sum, built for any row range."""

    # up to 20 rectangles: one, two and three groups of eight
    @pytest.mark.parametrize("size", [0, 1, 8, 9, 20])
    def test_cover_rows_match_dense_sum(self, size):
        rng = random.Random(size)
        for _ in range(20):
            rows, cols = rng.randint(1, 12), rng.randint(1, 20)
            c = rand_cover(rng, rows, cols, size)
            dense = dense_sum(c)
            assert cover_matrix(c).to_dense().tolist() == dense.tolist()
            row0 = rng.randrange(rows)
            row1 = rng.randint(row0, rows + 3)
            got = np.unpackbits(cover_mod._row_reader(c)(row0, row1), axis=1,
                                bitorder="little", count=cols)
            assert got.tolist() == dense[row0:row1].tolist()


class TestRowReader:
    """One reader per matrix or cover, its codes and tables made once."""

    @staticmethod
    def unpacked(bits, cols):
        return np.unpackbits(bits, axis=1, bitorder="little", count=cols).tolist()

    # 1 and 40 entries: blocks of one row and tables of two; 2000: g of 2 to 4
    @pytest.mark.parametrize("block_entries", [1, 40, 2000, 1 << 22])
    @pytest.mark.parametrize("sizes", [(0, 0), (1, 8), (9, 20)], ids=["0", "1-8", "9-20"])
    def test_reads_match_dense_sum(self, monkeypatch, block_entries, sizes):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(block_entries + sizes[-1])
        for _ in range(12):
            rows, cols = rng.randint(1, 23), rng.randint(1, 30)
            c = rand_cover(rng, rows, cols, rng.randint(*sizes))
            dense = dense_sum(c).tolist()
            read = cover_mod._row_reader(c)
            for _ in range(6):  # empty ranges and ranges past the end
                row0 = rng.randrange(rows + 3)
                row1 = rng.randint(max(0, row0 - 1), rows + 5)
                got = read(row0, row1)
                assert got.shape == (len(dense[row0:row1]), (cols + 7) // 8)
                assert self.unpacked(got, cols) == dense[row0:row1]
            # a scan of blocks, the last one short unless they divide the rows
            block = cover_mod._scan_rows(cols)
            scan = [read(row0, row0 + block) for row0 in range(0, rows, block)]
            assert self.unpacked(np.concatenate(scan), cols) == dense
            got = read(0, rows)
            got[:] = 0xFF  # the caller's array: no later read sees it
            assert self.unpacked(read(0, rows), cols) == dense
            assert cover_matrix(c).to_dense().tolist() == dense
            m = BoolMatrix.from_dense(dense)
            assert self.unpacked(cover_mod._row_reader(m)(1, rows + 2), cols) == dense[1:]

    @pytest.mark.parametrize("block_entries", [1, 40, 2000, 1 << 22])
    def test_classes_of_covers(self, monkeypatch, block_entries):
        # up to 8 covers of up to 20 rectangles split, 11 take the marked table
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(block_entries)
        for count in (1, 3, 8, 11):
            rows, cols = rng.randint(1, 23), rng.randint(1, 30)
            a = rand_matrix(rng, rows, cols)
            covers = [rand_cover(rng, rows, cols, rng.randint(0, 20)) for _ in range(count)]
            dense = [a.to_dense(), *map(dense_sum, covers)]
            want = {sum(int(d[i, j]) << t for t, d in enumerate(dense))
                    for i in range(rows) for j in range(cols)}
            got = cover_mod._classes([a, *covers])
            assert got - {0} == want - {0} and want <= got

    @pytest.mark.parametrize("block_entries", [1, 40, 2000, 1 << 22])
    def test_q_covering_of_covers(self, monkeypatch, block_entries):
        # witnesses and counts against every q-subset of the dense sums
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(block_entries)
        outcomes = {True: 0, False: 0}
        for _ in range(25):
            rows, cols, s = rng.randint(1, 23), rng.randint(1, 30), rng.randint(1, 5)
            covers = [rand_cover(rng, rows, cols, rng.randint(0, 20)) for _ in range(s)]
            dense = [dense_sum(c) for c in covers]
            target = np.bitwise_or.reduce(dense[:rng.randint(1, s)])
            a = BoolMatrix.from_dense(target)
            fam = MatrixFamily(tuple(covers))
            for q in range(1, s + 1):
                want, checked = (True, None), 0
                for sub in itertools.combinations(range(s), q):
                    checked += 1
                    if not np.array_equal(np.bitwise_or.reduce([dense[t] for t in sub]), target):
                        want = (False, sub)
                        break
                res = check_q_covering(a, fam, q)
                assert (res.ok, res.witness, res.checked) == (*want, checked)
                outcomes[res.ok] += 1
        assert min(outcomes.values()) >= 10

    @pytest.mark.parametrize("block_entries", [1, 64, 5000, 1 << 22])
    @pytest.mark.parametrize("cols", [1, 9, 250, 6859, 70000, 600000])
    def test_tables_fit_one_block(self, monkeypatch, block_entries, cols):
        # a group's 2^g-row table fits one scan block, or takes two rows (g
        # = 1) when a row alone is past a block; g is the largest such, up to 8
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(cols)
        nbytes, block = (cols + 7) // 8, cover_mod._scan_rows(cols)
        g = min(8, max(1, int(math.log2(block))))
        size = 2 * g + 1
        c = Cover(5, cols, tuple(
            Rectangle((rng.randrange(5),), tuple(sorted(rng.sample(range(cols), min(cols, 3)))))
            for _ in range(size)
        ))
        groups = cover_mod._row_groups(c)
        assert [len(t) for _, t in groups] == [1 << g, 1 << g, 2]
        assert all(code.shape == (5,) for code, _ in groups)
        for _, table in groups:
            assert table.nbytes <= max(block, 2) * nbytes
            assert table.nbytes <= max(block_entries // 64, 2 * nbytes)
        assert len(cover_mod._row_groups(Cover(5, cols, ()))) == 1


class TestVerifyCoverOracle:
    """Row-block cover verification against a dense entry-by-entry scan."""

    @pytest.mark.parametrize("block_entries", [1, 7, 1 << 22])
    def test_matches_dense_scan(self, monkeypatch, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(31)
        reasons = {"": 0, "uncovered one entry": 0, "rectangle covers a zero entry": 0}
        for it in range(120):
            rows, cols = rng.randint(1, 9), rng.randint(1, 19)
            a = rand_matrix(rng, rows, cols, 0.7)
            rects = list(row_decomposition(a).rects)
            if it % 3 == 1 and rects:  # drop a rectangle: some 1 may be uncovered
                del rects[rng.randrange(len(rects))]
            if it % 3 == 2:  # add a rectangle: it may cover a 0
                extra = rand_cover(rng, rows, cols, 1).rects[0]
                rects.insert(rng.randrange(len(rects) + 1), extra)
            c = Cover(rows, cols, tuple(rects))
            res = verify_cover(a, c)
            diff = np.argwhere(dense_sum(c) != a.to_dense())
            if not len(diff):
                assert res and res.witness is None
            else:
                i, j = (int(x) for x in diff[0])
                reason = ("uncovered one entry" if a.get(i, j)
                          else "rectangle covers a zero entry")
                assert (res.ok, res.witness, res.reason) == (False, (i, j), reason)
            reasons[res.reason] += 1
        assert min(reasons.values()) >= 10


class TestTargets:
    """A matrix file and crown(n), read a scan block at a time, decide as
    the packed matrix does: the same verdict, witness, reason and count,
    with rows split across text pieces and scan blocks."""

    @staticmethod
    def mutated(rng, a: BoolMatrix, how: str) -> Cover:
        """The rows of ``a`` as rectangles, less one or with one more."""
        rects = list(row_decomposition(a).rects)
        if how == "drop" and rects:  # some 1 may be uncovered
            del rects[rng.randrange(len(rects))]
        if how == "add":  # it may cover a 0
            extra = rand_cover(rng, a.rows, a.cols, 1).rects[0]
            rects.insert(rng.randrange(len(rects) + 1), extra)
        return Cover(a.rows, a.cols, tuple(rects))

    # 1: blocks of one row read from pieces of two characters; 320: blocks
    # of up to 5 rows, whole for a LF file of up to 8 columns
    @given(
        block_entries=st.sampled_from([1, 64, 320, 1 << 22]),
        crown=st.booleans(),
        crlf=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        hows=st.lists(st.sampled_from(["exact", "drop", "add"]), min_size=5, max_size=5),
    )
    def test_same_results(self, tmp_path_factory, block_entries, crown, crlf, seed, hows):
        rng = random.Random(seed)
        if crown:
            n = rng.randint(1, 30)
            a = crown_matrix(n)
        else:
            a = rand_matrix(rng, rng.randint(1, 12), rng.randint(1, 20), 0.7)
        path = tmp_path_factory.mktemp("target") / "a.mat"
        text = format_matrix(a)
        path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode())
        c = self.mutated(rng, a, hows[0])
        s = rng.randint(1, 3)
        fam = MatrixFamily(tuple(self.mutated(rng, a, how) for how in hows[1:1 + s]))
        other = MatrixFamily(tuple(self.mutated(rng, a, how) for how in hows[-s:]))
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
            want = (
                verify_cover(a, c),
                [check_q_covering(a, fam, q) for q in range(1, s + 1)],
                verify_kron_hypotheses(a, fam, a, fam),
                verify_kron_hypotheses(a, fam, a, other),
            )
            makers = [lambda: MatrixFile(str(path))]
            if crown:
                makers.append(lambda: CrownTarget(n))
            for make in makers:
                t, u = make(), make()
                assert t.count_ones() == a.count_ones()
                got = (
                    verify_cover(t, c),
                    [check_q_covering(t, fam, q) for q in range(1, s + 1)],
                    verify_kron_hypotheses(t, fam, t, fam),
                    verify_kron_hypotheses(t, fam, u, other),
                )
                assert got == want

    @pytest.mark.parametrize("block_entries", [1, 64, 1 << 22])
    def test_crown_reads_match_the_matrix(self, monkeypatch, block_entries):
        # a scan of blocks, then reads of other lengths, past the end too
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        for n in (1, 7, 8, 9, 70):
            bits = crown_matrix(n).bits
            with CrownTarget(n).reader() as read:
                block = cover_mod._scan_rows(n)
                scan = [read(row0, row0 + block).copy() for row0 in range(0, n, block)]
                assert np.array_equal(np.concatenate(scan), bits)
                for row0, row1 in ((0, n), (n - 1, n + 3), (2, 5), (n, n + 1)):
                    got = read(row0, row1)
                    assert not got.flags.writeable
                    assert np.array_equal(got, bits[row0:row1])

    @pytest.fixture
    def crown_3000_file(self, tmp_path):
        """A file of crown(3000) and the text piece size its scans read."""
        path = tmp_path / "c3000.mat"
        boolmat.write_matrix(str(path), crown_matrix(3000))
        piece = min(cover_mod._scan_rows(3000) * 3001, 2 * boolmat._text_chars())
        return str(path), piece

    def test_scan_holds_no_text_piece_with_its_block(self, crown_3000_file):
        # the piece a block was parsed from is dropped before the block is
        # used: 80 KB held beyond the reader after a read, not 602 KB
        path, piece = crown_3000_file
        assert piece > 500_000
        tracemalloc.start()
        try:
            with MatrixFile(path).reader() as read:
                base = tracemalloc.get_traced_memory()[0]
                rows = read(0, cover_mod._scan_rows(3000))
                held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, crown_matrix(3000).bits[:len(rows)])
        assert held < piece / 2

    def test_qcover_scan_peaks_below_a_held_piece(self, crown_3000_file, monkeypatch):
        # a verify qcover scan of the file against the same scan with each
        # piece held while the scan uses its block: 1.05 MB against 1.16 MB
        path, piece = crown_3000_file
        fam = coverable_triple(3000)

        def peak():
            tracemalloc.start()
            try:
                assert check_q_covering(MatrixFile(path), fam, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def held_pieces(fh, size):
            for held in pieces(fh, size):
                yield held  # this frame holds the piece while it is used
                del held  # but not while the next is read

        lean = peak()
        pieces = cover_mod._file_pieces
        monkeypatch.setattr(cover_mod, "_file_pieces", held_pieces)
        assert lean < peak() - piece / 8

    def test_file_reads_go_forward(self, tmp_path):
        path = tmp_path / "c.mat"
        path.write_text(format_matrix(crown_matrix(5)))
        with MatrixFile(str(path)).reader() as read:
            assert np.array_equal(read(1, 3), crown_matrix(5).bits[1:3])
            with pytest.raises(RuntimeError, match="forward only"):
                read(0, 1)


class TestKronHypotheses:
    def test_trivial_single_family(self):
        rng = random.Random(10)
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 2, 4)
        res = verify_kron_hypotheses(
            a, with_row_decompositions([a]), b, with_row_decompositions([b])
        )
        assert res

    def test_counterexample_with_witness(self):
        c4 = crown_matrix(4)
        fam = c4_triple()
        # damage one member of the n-side: remove a rectangle from member 0
        broken_first = Cover(4, 4, fam.decompositions[0].rects[:1])
        n_fam = MatrixFamily((broken_first,) + fam.decompositions[1:])
        res = verify_kron_hypotheses(c4, fam, c4, n_fam)
        assert not res
        assert res.witness is not None

    def test_m_family_not_covering(self):
        c4 = crown_matrix(4)
        fam = c4_triple()
        one = MatrixFamily(fam.decompositions[:1])
        res = verify_kron_hypotheses(c4, one, c4, one)
        assert not res and "does not cover the first factor" in res.reason

    def test_selected_members_insufficient(self):
        # two triple members cover the crown as a union, but entries seen by
        # only one of them select a single n-member, which does not cover
        c4 = crown_matrix(4)
        fam = c4_triple()
        pair = MatrixFamily(fam.decompositions[:2])
        res = verify_kron_hypotheses(c4, pair, c4, pair)
        assert not res and "do not cover the second factor" in res.reason

    def test_length_mismatch(self):
        c4 = crown_matrix(4)
        fam = c4_triple()
        with pytest.raises(DimensionError):
            verify_kron_hypotheses(
                c4, fam, c4, MatrixFamily(fam.decompositions[:2])
            )
        with pytest.raises(DimensionError):
            compose_kron_cover(fam, MatrixFamily(fam.decompositions[:2]))

    def test_wide_family_signatures(self):
        # more than 64 members exercises the multi-plane signature path
        a = BoolMatrix.ones(3, 3)
        fam = MatrixFamily(tuple([row_decomposition(a)] * 70))
        assert verify_kron_hypotheses(a, fam, a, fam)


class TestKronHypothesesBruteForce:
    def test_matches_per_entry_definition(self):
        # oracle: the literal definition, one entry at a time
        def brute(a, m_fam, b, n_fam):
            union = boolean_sum(list(m_fam.members))
            ad = a.to_dense()
            if union != a:
                diff = union.to_dense() ^ ad
                i, j = [(i, j) for i in range(a.rows) for j in range(a.cols) if diff[i, j]][0]
                return False, (i, j)
            for i in range(a.rows):
                for j in range(a.cols):
                    if not ad[i, j]:
                        continue
                    sel = [n_fam.members[t] for t in range(len(m_fam)) if m_fam.members[t].get(i, j)]
                    if boolean_sum(sel) != b:
                        return False, (i, j)
            return True, None

        rng = random.Random(14)
        for _ in range(60):
            ra, ca = rng.randint(1, 4), rng.randint(1, 4)
            rb, cb = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, ra, ca, 0.7)
            s = rng.randint(1, 4)
            m_members, n_members = [], []
            for _ in range(s):
                md = a.to_dense() & np.array(
                    [[rng.random() < 0.7 for _ in range(ca)] for _ in range(ra)]
                )
                m_members.append(BoolMatrix.from_dense(md.astype(np.uint8)))
                n_members.append(rand_matrix(rng, rb, cb, 0.7))
            b = rng.choice(n_members + [rand_matrix(rng, rb, cb, 0.7)])
            m_fam = with_row_decompositions(m_members)
            n_fam = with_row_decompositions(n_members)
            got = verify_kron_hypotheses(a, m_fam, b, n_fam)
            want_ok, want_witness = brute(a, m_fam, b, n_fam)
            assert bool(got) == want_ok
            if not want_ok:
                assert got.witness == want_witness


class TestCompose:
    def test_submultiplicative_case(self):
        rng = random.Random(11)
        a = rand_matrix(rng, 4, 3)
        b = rand_matrix(rng, 3, 4)
        m_fam = with_row_decompositions([a])
        n_fam = with_row_decompositions([b])
        cov = compose_kron_cover(m_fam, n_fam)
        assert cov.size == m_fam.ranks()[0] * n_fam.ranks()[0]
        assert verify_cover(kronecker(a, b), cov)

    def test_order4_square_cover_is_12(self):
        cov = compose_kron_cover(c4_triple(), c4_triple())
        assert cov.size == 12
        c4 = crown_matrix(4)
        assert verify_cover(kronecker(c4, c4), cov)

    def test_c4_c5_14(self):
        from boolrank.crown import c5_triple

        m_fam = c4_triple()
        n_fam, bound = best_triple_pairing(m_fam, c5_triple())
        assert bound == 14
        cov = compose_kron_cover(m_fam, n_fam)
        assert cov.size == 14
        assert verify_cover(kronecker(crown_matrix(4), crown_matrix(5)), cov)

    def test_hypothesis_violation_raises(self):
        fam = c4_triple()
        pair = MatrixFamily(fam.decompositions[:2])
        with pytest.raises(VerificationError) as err:
            compose_kron_cover(pair, pair)
        # the witness and text of the check on the pair's Boolean sum
        union = boolean_sum(pair.members)
        res = verify_kron_hypotheses(union, pair, union, pair)
        assert err.value.witness == res.witness
        assert str(err.value) == "entry=(%d,%d) reason=%s" % (*res.witness, res.reason)

    def test_member_product_sum_identity(self):
        # whenever the hypotheses hold, sum of member products equals the product
        rng = random.Random(12)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            b = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            m_fam = with_row_decompositions([a, a])
            n_fam = with_row_decompositions([b, b])
            assert verify_kron_hypotheses(a, m_fam, b, n_fam)
            lhs = boolean_sum(
                [kronecker(m, n) for m, n in zip(m_fam.members, n_fam.members)]
            )
            assert lhs == kronecker(a, b)


class TestSubsetChecks:
    def test_coverable_triple_pairs(self):
        c4 = crown_matrix(4)
        res = check_q_covering(c4, c4_triple(), 2)
        assert res and res.checked == 3

    def test_duplicate_pair(self):
        a = crown_matrix(3)
        fam = with_row_decompositions([a, a])
        assert check_q_covering(a, fam, 1)

    def test_disjoint_supports_fail(self):
        a = crown_matrix(2)
        m1 = BoolMatrix.from_dense([[0, 1], [0, 0]])
        m2 = BoolMatrix.from_dense([[0, 0], [1, 0]])
        res = check_q_covering(a, with_row_decompositions([m1, m2]), 1)
        assert not res and res.witness == (0,)

    def test_q_equals_s(self):
        c4 = crown_matrix(4)
        fam = c4_triple()
        assert check_q_covering(c4, fam, 3)

    def test_exhaustive_count(self):
        params_fam = c4_triple()
        res = check_q_covering(crown_matrix(4), params_fam, 2)
        assert res.checked == math.comb(3, 2)

    def test_large_subset_space_is_exhaustive(self):
        # C(23, 11) = 1352078 subsets, more than the 10**6 at which subsets
        # used to be sampled; the planted failure is found exhaustively.
        a = crown_matrix(3)
        dense = a.to_dense()
        dense[0, 1] = 0
        weak = BoolMatrix.from_dense(dense)
        missers = (0, 1, 2, 3, 4, 6, 9, 11, 14, 18, 21)
        fam = with_row_decompositions([weak if t in missers else a for t in range(23)])
        res = check_q_covering(a, fam, 11)
        assert res.witness == missers
        assert (res.ok, res.witness, res.checked) == brute_q_covering(a, fam, 11)
        ten = with_row_decompositions(
            [weak if t in missers[:10] else a for t in range(23)]
        )
        ok = check_q_covering(a, ten, 11)
        assert ok and ok.checked == math.comb(23, 11)

    def test_non_dominated_member_fails_regardless_of_order(self):
        # A prefix that already sums to a must not hide a later member
        # covering a 0 of a.
        a = BoolMatrix.from_dense([[0, 1], [1, 0]])
        x = BoolMatrix.from_dense([[1, 1], [1, 0]])
        res = check_q_covering(a, with_row_decompositions([a, a, x]), 2)
        assert (res.ok, res.witness, res.checked) == (False, (0, 2), 2)
        res = check_q_covering(a, with_row_decompositions([x, a, a]), 2)
        assert (res.ok, res.witness, res.checked) == (False, (0, 1), 1)

    def test_zero_target_rejects_nonzero_members(self):
        z = BoolMatrix.zeros(2, 2)
        one = BoolMatrix.from_dense([[0, 0], [0, 1]])
        assert check_q_covering(z, with_row_decompositions([z, z]), 1)
        res = check_q_covering(z, with_row_decompositions([z, z, one]), 2)
        assert (res.ok, res.witness, res.checked) == (False, (0, 2), 2)

    def test_drop_matrix_from_tight_family_reports_witness(self):
        from boolrank.algebraic import algebraic_family

        _, fam = algebraic_family(2, 2)
        c25 = crown_matrix(25)
        assert check_q_covering(c25, fam, 2)
        smaller = MatrixFamily(fam.decompositions[:2])
        res = check_q_covering(c25, smaller, 1)
        assert not res
        assert res.witness is not None and len(res.witness) == 1

    def test_q_out_of_range(self):
        with pytest.raises(DimensionError):
            check_q_covering(crown_matrix(4), c4_triple(), 4)


class TestQCoveringBlocks:
    """Witnesses whose evidence lies in a later row block than the first."""

    def with_entries(self, a, entries):
        """``a`` with the entries (i, j) flipped."""
        dense = a.to_dense()
        for i, j in entries:
            dense[i, j] ^= 1
        return BoolMatrix.from_dense(dense)

    def check(self, monkeypatch, a, members, q, witness):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 1)  # one row per block
        fam = with_row_decompositions(members)
        res = check_q_covering(a, fam, q)
        assert res.witness == witness
        assert (res.ok, res.witness, res.checked) == brute_q_covering(a, fam, q)

    def test_later_block_holds_smaller_covering_member(self, monkeypatch):
        # member 3 covers the 0 at (0, 0) in the first block, member 1 the
        # 0 at (2, 2) in the third: the witness takes member 1
        a = crown_matrix(4)
        members = [a] * 5
        members[3] = self.with_entries(a, [(0, 0)])
        members[1] = self.with_entries(a, [(2, 2)])
        self.check(monkeypatch, a, members, 2, (0, 1))

    def test_entry_missed_q_times_only_in_a_later_block(self, monkeypatch):
        a = crown_matrix(4)
        members = [a] * 5
        for t in (1, 4):
            members[t] = self.with_entries(a, [(3, 1)])
        members[2] = self.with_entries(a, [(1, 0)])
        self.check(monkeypatch, a, members, 2, (1, 4))


class TestQCoveringOracle:
    """The one-pass check against every q-subset, OR-ed and compared."""

    @pytest.mark.parametrize("block_entries", [1, 7, 1 << 22])
    def test_matches_brute_force(self, monkeypatch, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(2024)
        outcomes = {True: 0, False: 0}
        over = 0
        for _ in range(150):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 19), 0.7)
            s = rng.randint(1, 7)
            members = [rand_below(rng, a, rng.choice((0.5, 0.8, 0.95))) for _ in range(s)]
            if rng.random() < 0.25:
                members[rng.randrange(s)] = rand_matrix(rng, a.rows, a.cols)
            fam = with_row_decompositions(members)
            over += any(boolean_sum([m, a]) != a for m in members)
            for q in range(1, s + 1):
                res = check_q_covering(a, fam, q)
                assert (res.ok, res.witness, res.checked) == brute_q_covering(a, fam, q)
                outcomes[res.ok] += 1
        assert min(outcomes.values()) > 50 and over > 10


class TestSignatureOracle:
    """Lazy hypothesis check against the eager product and a brute-force scan."""

    @staticmethod
    def first_failing_entry(a, m_fam, b, n_fam):
        m_dense = [m.to_dense() for m in m_fam.members]
        for i, j in zip(*np.nonzero(a.to_dense())):
            chosen = [n for m, n in zip(m_dense, n_fam.members) if m[i, j]]
            if boolean_sum(chosen) != b:
                return int(i), int(j)
        return None

    @staticmethod
    def covering_family(rng, a, s):
        """s members below ``a`` whose union is exactly ``a``, about two per entry."""
        dense = [rand_below(rng, a, min(0.4, 2 / s)).to_dense() for _ in range(s)]
        for i, j in zip(*np.nonzero(a.to_dense())):
            dense[rng.randrange(s)][i, j] = 1
        return with_row_decompositions(BoolMatrix.from_dense(d) for d in dense)

    # 3, 9, 17 and 70 members: uint8, uint16, uint32 and uint64-plane signatures
    @pytest.mark.parametrize("s", [3, 9, 17, 70])
    @pytest.mark.parametrize("block_entries", [4, 1 << 22])
    def test_matches_eager_and_brute_force(self, monkeypatch, s, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(s)
        outcomes = {True: 0, False: 0}
        for _ in range(12):
            a = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 10), 0.7)
            b = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 0.8)
            if a.is_zero() or b.is_zero():
                continue
            m_fam = self.covering_family(rng, a, s)
            density = rng.choice((0.6, 0.9, 1.0))
            n_fam = with_row_decompositions(
                rand_below(rng, b, density) for _ in range(s)
            )
            lazy = verify_kron_hypotheses(a, m_fam, b, n_fam)
            eager = boolean_sum(
                [kronecker(m, n) for m, n in zip(m_fam.members, n_fam.members)]
            ) == kronecker(a, b)
            assert bool(lazy) == eager
            assert lazy.witness == self.first_failing_entry(a, m_fam, b, n_fam)
            outcomes[bool(lazy)] += 1
        assert min(outcomes.values()) >= 2

    # 16 to 19 members and their factor, 17 to 20 matrices, mark a table of
    # at most 2^20 signatures; 20 members, 21 matrices, hash them
    @pytest.mark.parametrize("s", [16, 17, 18, 19, 20])
    def test_marked_table_up_to_20_matrices(self, monkeypatch, s):
        hashed = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: hashed.append(s) or unique(*a, **kw))
        self.test_matches_eager_and_brute_force(monkeypatch, s, 1 << 22)
        assert bool(hashed) == (s + 1 > 20)

    @staticmethod
    def with_stray_one(rng, m, target):
        """``m`` with one more 1, at a random 0 of ``target`` (if it has one)."""
        zeros = np.argwhere(target.to_dense() == 0)
        if not len(zeros):
            return m
        dense = m.to_dense().copy()
        i, j = zeros[rng.randrange(len(zeros))]
        dense[i, j] = 1
        return BoolMatrix.from_dense(dense)

    def expected(self, a, m_fam, b, n_fam):
        """(ok, witness) by the eager product and the per-entry scan."""
        eager = boolean_sum(
            [kronecker(m, n) for m, n in zip(m_fam.members, n_fam.members)]
        ) == kronecker(a, b)
        union = boolean_sum(m_fam.members)
        if union != a:
            diff = union.to_dense() ^ a.to_dense()
            return eager, tuple(int(x) for x in np.argwhere(diff)[0])
        return eager, self.first_failing_entry(a, m_fam, b, n_fam)

    # 5 to 7 members and their factor: classes split from the packed bits.
    # Each case is also checked with both sides the same matrix and family,
    # where the n-side classes are the m-side's.
    @pytest.mark.parametrize("s", [5, 6, 7])
    @pytest.mark.parametrize("block_entries", [4, 200, 1 << 22])
    def test_split_classes_match_eager(self, monkeypatch, s, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(100 + s)
        outcomes = {True: 0, False: 0}
        same_failed = 0
        for it in range(15):
            a = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 11), 0.7)
            b = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 9), 0.8)
            if a.is_zero() or b.is_zero():
                continue
            m_fam = self.covering_family(rng, a, s)
            if it % 5 == 4:  # a member covers a 0 of a
                members = list(m_fam.members)
                members[-1] = self.with_stray_one(rng, members[-1], a)
                m_fam = with_row_decompositions(members)
            density = (0.6, 0.9, 1.0)[it % 3]
            n_members = [rand_below(rng, b, density) for _ in range(s)]
            if it % 5 == 3:  # an n-member covers a 0 of b
                t = rng.randrange(s)
                n_members[t] = self.with_stray_one(rng, n_members[t], b)
            n_fam = with_row_decompositions(n_members)
            lazy = verify_kron_hypotheses(a, m_fam, b, n_fam)
            assert (bool(lazy), lazy.witness) == self.expected(a, m_fam, b, n_fam)
            outcomes[bool(lazy)] += 1
            same = verify_kron_hypotheses(a, m_fam, a, m_fam)
            assert (bool(same), same.witness) == self.expected(a, m_fam, a, m_fam)
            same_failed += not same
        assert min(outcomes.values()) >= 2 and same_failed >= 2

    # both witness kinds, at blocks of one row and of whole matrices; 6 and
    # 12 members take the split and the marked-table class paths
    @pytest.mark.parametrize("s", [6, 12])
    @pytest.mark.parametrize("block_entries", [1, 7, 1 << 22])
    def test_witness_kinds_match_eager(self, monkeypatch, s, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(200 + s)
        reasons = {"m-family does not cover the first factor": 0,
                   "selected n-members do not cover the second factor": 0}
        for it in range(12):
            a = rand_matrix(rng, rng.randint(2, 6), rng.randint(2, 12), 0.7)
            b = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 9), 0.8)
            if a.is_zero() or b.is_zero():
                continue
            m_fam = self.covering_family(rng, a, s)
            if it % 2:  # a member covers a 0 of a, or one misses a 1 of a
                members = list(m_fam.members)
                t = rng.randrange(s)
                if it % 4 == 1:
                    members[t] = self.with_stray_one(rng, members[t], a)
                else:
                    members[t] = BoolMatrix.zeros(a.rows, a.cols)
                m_fam = with_row_decompositions(members)
            n_fam = with_row_decompositions(rand_below(rng, b, 0.8) for _ in range(s))
            lazy = verify_kron_hypotheses(a, m_fam, b, n_fam)
            assert (bool(lazy), lazy.witness) == self.expected(a, m_fam, b, n_fam)
            if not lazy:
                reasons[lazy.reason] += 1
        assert min(reasons.values()) >= 2


class TestVerifiersHoldNoMember:
    """Verifiers build member rows a block at a time and drop them.

    With scan blocks of 4 rows (1 KiB), verifying 18 members of order 2000
    must peak below half of what the members take as whole packed
    matrices; a verifier that built and held the members would need all of
    it.
    """

    @pytest.fixture
    def case(self, monkeypatch, family_3_3):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 1 << 16)
        _, fam = family_3_3
        # a separate family object, so the measured call finds no cached member
        held = sum(m.bits.nbytes for m in restrict_family(fam, 2000).members)
        assert held == 18 * 2000 * 250
        return crown_matrix(2000), restrict_family(fam, 2000), held

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            assert call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_q_covering(self, case):
        a, fam, held = case
        assert self.peak(lambda: check_q_covering(a, fam, 3)) < held / 2

    def test_kron_hypotheses(self, case):
        a, fam, held = case
        assert self.peak(lambda: verify_kron_hypotheses(a, fam, a, fam)) < held / 2

    def test_split_reads_one_block_at_a_time(self):
        # The asymptotic family at n = 2000, at the default block: beyond the
        # masks the split needs on the whole members (read as views), the
        # lazy check may hold one block of member rows, the row codes and
        # a table of at most a block per member, not rows of every member.
        from boolrank.algebraic import asymptotic_cover

        fam = asymptotic_cover(2000, q=3, s=5).description.m_family
        assert [d.size for d in fam.decompositions] == [6] * 5  # one group each
        a = crown_matrix(2000)
        members = [cover_matrix(d) for d in fam.decompositions]
        split = self.peak(lambda: cover_mod._split_classes([a, *members]))
        lazy = self.peak(lambda: verify_kron_hypotheses(a, fam, a, fam))
        block = cover_mod._scan_rows(2000) * 250
        assert block <= 1 << 16
        assert lazy - split < 8 * block < sum(m.bits.nbytes for m in members) // 2


class TestSignatureClasses:
    """Classes and signatures from packed bits against a per-entry scan."""

    @staticmethod
    def dense_signatures(matrices):
        dense = [m.to_dense().astype(object) for m in matrices]
        return sum(d << t for t, d in enumerate(dense))

    @staticmethod
    def rand_matrices(count, rows, cols, seed):
        rng = random.Random(seed)
        return [rand_matrix(rng, rows, cols, rng.choice((0.2, 0.5, 0.9)))
                for _ in range(count)]

    # padding bits only reach class 0, so class 0 may be extra
    @pytest.mark.parametrize("count", range(1, 10))
    @pytest.mark.parametrize("cols", [1, 3, 9, 13, 17])
    @pytest.mark.parametrize("block_entries", [1, 200, 1 << 22])
    def test_split_classes(self, monkeypatch, count, cols, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        matrices = self.rand_matrices(count, 5, cols, 7 * count + cols)
        want = set(self.dense_signatures(matrices).ravel().tolist())
        got = cover_mod._split_classes(matrices)
        assert got - {0} == want - {0} and want <= got

    @staticmethod
    def breadth_first_classes(matrices):
        """Classes split breadth first on whole packed matrices: every live
        mask is split by matrix t before any is split by matrix t + 1.
        Padding bits start in the first mask, so they reach class 0."""
        bits = [(m if isinstance(m, BoolMatrix) else cover_matrix(m)).bits.ravel()
                for m in matrices]
        live = [(0, np.full(bits[0].size, 0xFF, dtype=np.uint8))] if bits[0].size else []
        for t, b in enumerate(bits):
            live = [(cls | bit << t, half) for cls, mask in live
                    for bit, half in ((0, mask & ~b), (1, mask & b)) if half.any()]
        return {cls for cls, _ in live}

    # up to 9 matrices or covers of them, at blocks of one row up to the whole
    @given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 19),
           st.sampled_from([1, 50, 1 << 22]), st.randoms(use_true_random=False))
    def test_depth_first_split_matches_breadth_first(self, count, rows, cols, block_entries,
                                                     rng):
        matrices = [rand_matrix(rng, rows, cols, rng.choice((0.1, 0.5, 0.9)))
                    for _ in range(count)]
        matrices = [row_decomposition(m) if rng.random() < 0.3 else m for m in matrices]
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
            got = cover_mod._split_classes(matrices)
        assert got == self.breadth_first_classes(matrices)

    def test_split_holds_a_mask_per_matrix_not_per_class(self):
        # 9 random 2000 x 2000 matrices have all 512 classes in every block;
        # 0.7 MiB measured, where a mask per live class took 32 MiB
        rng = np.random.default_rng(9)
        matrices = [BoolMatrix.from_dense(rng.random((2000, 2000)) < 0.5) for _ in range(9)]
        tracemalloc.start()
        try:
            classes = cover_mod._split_classes(matrices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes == set(range(512))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("rows, cols", [(2, 0), (0, 3)])
    def test_no_entries(self, rows, cols):
        z = BoolMatrix.zeros(rows, cols)
        assert cover_mod._split_classes([z, z]) == set()
        fam = MatrixFamily((Cover(rows, cols, ()),))
        assert verify_kron_hypotheses(z, fam, z, fam)

    @pytest.mark.parametrize("count", [1, 8, 10, 16, 17, 70])
    @pytest.mark.parametrize("block_entries", [1, 40, 1 << 22])
    def test_signature_blocks_and_classes(self, monkeypatch, count, block_entries):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        matrices = self.rand_matrices(count, 6, 13, count)
        want = self.dense_signatures(matrices)
        blocks = list(cover_mod._signature_blocks(matrices))
        assert [row0 for row0, _ in blocks] == list(
            range(0, 6, boolmat._block_rows(64 * 2))
        )
        sig = np.concatenate([block for _, block in blocks])
        assert sig.shape == (6, 16)
        got = [[cover_mod._signature_int(key) for key in row] for row in sig]
        assert [row[:13] for row in got] == want.tolist()
        assert all(x == 0 for row in got for x in row[13:])
        classes = cover_mod._classes(matrices)
        assert classes - {0} == set(want.ravel().tolist()) - {0}


class TestBestPairing:
    def test_minimizes_and_is_deterministic(self):
        from boolrank.crown import c5_triple, triple_cover

        t = triple_cover(5, 1)  # ranks (1, 4, 4)
        reordered, bound = best_triple_pairing(t, t)
        assert bound == 24  # sigma(10)^2 - 1: the (1,4,4) / (4,1,4) pairing
        assert reordered.ranks() == (4, 1, 4)
        again, bound2 = best_triple_pairing(t, t)
        assert bound2 == bound and again.ranks() == reordered.ranks()

    def test_requires_length_three(self):
        fam = c4_triple()
        with pytest.raises(DimensionError):
            best_triple_pairing(fam, MatrixFamily(fam.decompositions[:2]))


class TestHalfCoveringComposition:
    def test_half_covering_pairs_imply_hypotheses(self):
        # if every ceil(s/2)-subset of each family covers its matrix, the
        # positional pairing satisfies the composition hypotheses
        from boolrank.algebraic import algebraic_family
        from boolrank.crown import c5_triple

        c4, c5 = crown_matrix(4), crown_matrix(5)
        cases = [
            (c4, c4_triple(), c5, c5_triple()),
            (c5, c5_triple(), c4, c4_triple()),
        ]
        _, alg = algebraic_family(2, 2)
        c25 = crown_matrix(25)
        cases.append((c25, alg, c25, alg))
        for a, m_fam, b, n_fam in cases:
            assert check_q_covering(a, m_fam, (len(m_fam) + 1) // 2)
            assert check_q_covering(b, n_fam, (len(n_fam) + 1) // 2)
            assert verify_kron_hypotheses(a, m_fam, b, n_fam)


class TestLazyEagerAgreement:
    def test_soundness_and_mutation_agreement(self):
        rng = random.Random(13)
        for _ in range(40):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            b = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            if a.is_zero() or b.is_zero():
                continue
            m_fam = with_row_decompositions([a, a])
            n_fam = with_row_decompositions([b, b])
            lazy = verify_kron_hypotheses(a, m_fam, b, n_fam)
            cov = compose_kron_cover(m_fam, n_fam)
            eager = verify_cover(kronecker(a, b), cov)
            assert bool(lazy) and bool(eager)
            # drop one of b's ones from *both* n-members: uncovers a product
            # entry, so both verifications must now fail
            dense = b.to_dense().copy()
            i, j = [(i, int(j)) for i in range(b.rows) for j in np.nonzero(dense[i])[0]][0]
            dense[i, j] = 0
            if not dense.any():
                continue
            b_small = BoolMatrix.from_dense(dense)
            n_bad = with_row_decompositions([b_small, b_small])
            lazy_bad = verify_kron_hypotheses(a, m_fam, b, n_bad)
            rects = []
            for dm, dn in zip(m_fam.decompositions, n_bad.decompositions):
                for rm in dm.rects:
                    for rn in dn.rects:
                        rows = tuple(
                            x * b.rows + y for x in rm.row_set for y in rn.row_set
                        )
                        cols = tuple(
                            x * b.cols + y for x in rm.col_set for y in rn.col_set
                        )
                        rects.append(Rectangle(rows, cols))
            eager_bad = verify_cover(
                kronecker(a, b), Cover(a.rows * b.rows, a.cols * b.cols, tuple(rects))
            )
            assert not lazy_bad and not eager_bad


class TestFormats:
    def test_cover_round_trip(self):
        cov = compose_kron_cover(c4_triple(), c4_triple())
        assert parse_cover(format_cover(cov)) == cov

    @given(kron_descriptions())
    # one-index sides whose product index has two digits (row 1 * 11 + 10 = 21)
    @example(KronCoverDescription(
        MatrixFamily((Cover(2, 1, (Rectangle((1,), (0,)),)),)),
        MatrixFamily((Cover(11, 11, (Rectangle((10,), (3,)),)),)),
    ))
    def test_kron_cover_lines_match_format_cover(self, d):
        assert b"".join(kron_cover_lines(d)).decode() == format_cover(d.to_cover())

    @given(straddling_descriptions())
    def test_kron_cover_lines_across_digit_counts(self, d):
        # against one str per index of the product rectangles
        assert d.indices >= max(d.target_dims)
        text = "COVER %d %d %d\n" % (*d.target_dims, d.size) + "".join(
            f"R {','.join(map(str, r.row_set))} C {','.join(map(str, r.col_set))}\n"
            for r in d.iter_rectangles()
        )
        with mock.patch.object(boolmat, "_SHORT_SIDE", 1):  # gather every side
            assert b"".join(kron_cover_lines(d)).decode() == text

    def test_family_round_trip(self):
        fam = c4_triple()
        back = parse_family(format_family(fam))
        assert back.members == fam.members
        assert back.decompositions == fam.decompositions

    def test_family_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(20):
            rows, cols = rng.randint(1, 12), rng.randint(1, 20)
            fam = with_row_decompositions(
                [rand_matrix(rng, rows, cols, 0.6) for _ in range(rng.randint(1, 4))]
            )
            if any(m.is_zero() for m in fam.members):
                continue
            assert parse_family(format_family(fam)) == fam

    def test_from_decompositions_matches_constructor(self):
        fam = c4_triple()
        assert fam.members == tuple(map(cover_matrix, fam.decompositions))
        with pytest.raises(DimensionError):
            MatrixFamily(())
        with pytest.raises(TypeError):
            MatrixFamily((crown_matrix(3),))

    @pytest.mark.parametrize(
        "token, message",
        [
            ("1,x", "bad index list"),
            ("1,,2", "bad index list"),
            ("1,", "bad index list"),
            ("+1", "bad index list"),
            ("1\u00e9", "bad index list"),
            ("1" * 19, "bad index list"),
            ("-1,2", "bad index list"),
            ("2,1", "sorted, distinct"),
            ("1,1", "sorted, distinct"),
        ],
    )
    def test_index_list_errors(self, token, message):
        with pytest.raises(FormatError, match=f"line 2: .*{message}"):
            parse_cover(f"COVER 2 2 1\nR {token} C 0\n")

    def test_cover_exact_text(self):
        cov = Cover(2, 3, (Rectangle((0,), (1, 2)),))
        assert format_cover(cov) == "COVER 2 3 1\nR 0 C 1,2\n"

    def test_format_errors(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_cover("BOGUS\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_cover("COVER 2 2 1\nR 1,0 C 0\n")
        with pytest.raises(FormatError):
            parse_family("FAMILY 2 2 1\n")

    @pytest.mark.parametrize(
        "fields", ["-1 2 0", "2 -1 0", "2 2 -1", "+2 2 0", "2 2 1_0", "2 2 \u0661", "2 2 1.0"]
    )
    def test_cover_header_fields_are_non_negative_decimals(self, fields):
        with pytest.raises(FormatError, match="line 1: .*non-negative decimal"):
            parse_cover(f"COVER {fields}\n")

    def test_family_header_fields_are_non_negative_decimals(self):
        with pytest.raises(FormatError, match="line 1: .*non-negative decimal"):
            parse_family("FAMILY 2 2 -1\n")
        # a negative member count must not stall the member loop on one line
        with pytest.raises(FormatError, match="line 2: .*non-negative decimal"):
            parse_family("FAMILY 2 2 2000000\nCOVER 2 2 -1\n")
        with pytest.raises(FormatError, match="line 3: expected 'COVER rows cols s'"):
            parse_family("FAMILY 2 2 2000000\nCOVER 2 2 0\n")

    def test_counted_body_and_trailing_lines(self):
        cov = "COVER 2 2 1\nR 0 C 1\n"
        assert parse_cover(cov + "\n \n") == parse_cover(cov)
        with pytest.raises(FormatError, match="line 3: expected 2 lines"):
            parse_cover("COVER 2 2 2\nR 0 C 1\n")
        with pytest.raises(FormatError, match="line 3: trailing content"):
            parse_cover(cov + "R 1 C 0\n")
        with pytest.raises(FormatError, match="line 4: trailing content"):
            parse_family("FAMILY 2 2 1\n" + cov + "x\n")

    def test_crlf_and_lone_cr_files(self, tmp_path):
        fam = c4_triple()
        path = tmp_path / "c4.fam"
        for newline in ("\r\n", "\r"):
            path.write_bytes(format_family(fam).replace("\n", newline).encode())
            assert read_family(str(path)) == fam
