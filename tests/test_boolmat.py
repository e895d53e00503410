import hashlib
import random
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boolrank import boolmat
from boolrank.boolmat import (
    BoolMatrix,
    boolean_sum,
    format_matrix,
    kronecker,
    matrix_lines,
    parse_matrix,
    read_matrix,
)
from boolrank.cli import main
from boolrank.cover import Cover, Rectangle, cover_matrix
from boolrank import crown
from boolrank.crown import crown_matrix
from boolrank.errors import DimensionError, FormatError, MaterializationLimitError
from test_formats import mutate, rngs

# the two rank-2 matrices whose sum is the order-4 crown
SUMMAND_1 = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
SUMMAND_2 = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]


def rand_matrix(rng, rows, cols, density=0.5):
    dense = [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return BoolMatrix.from_dense(dense)


def reference_format_matrix(m):
    """The per-entry formatter that ``format_matrix`` must match byte for byte."""
    lines = [f"{m.rows} {m.cols}"]
    dense = m.to_dense()
    for i in range(m.rows):
        lines.append("".join("1" if x else "0" for x in dense[i]))
    return "\n".join(lines) + "\n"


def reference_parse_matrix(data):
    """A line-by-line reader of matrix bytes: the value or the error
    ``(line, message)`` that ``parse_matrix`` must give."""
    lines = data.split(b"\n")
    head = lines[0].split()
    if not head:
        return 1, "missing header"
    if len(head) != 2:
        return 1, "header must be 'rows cols'"
    if not all(field.isdigit() for field in head):  # ASCII digits, as bytes
        return 1, "header fields must be non-negative decimal integers"
    rows, cols = int(head[0]), int(head[1])
    if len(lines) <= rows:
        return len(lines), f"expected {rows} row lines"
    for i, line in enumerate(lines[1:rows + 1]):
        if len(line) != cols or line.strip(b"01"):
            return i + 2, f"row must be exactly {cols} characters of 0/1"
    for i, line in enumerate(lines[rows + 1:]):
        if line:
            return i + rows + 2, "trailing content after matrix"
    if not rows:
        return BoolMatrix.zeros(0, cols)
    return BoolMatrix.from_dense([[c - ord("0") for c in line] for line in lines[1:rows + 1]])


def parsed(parse, source):
    """The matrix ``parse`` reads from ``source``, or its error's line and message."""
    try:
        return parse(source)
    except FormatError as exc:
        return exc.line, exc.args[0].split(": ", 1)[1]


class TestBooleanSum:
    def test_complementary_supports(self):
        a = BoolMatrix.from_dense([[0, 1], [1, 0]])
        b = BoolMatrix.from_dense([[1, 0], [0, 1]])
        assert boolean_sum([a, b]) == BoolMatrix.ones(2, 2)

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert boolean_sum([m, m]) == m

    def test_crown_example_summands(self):
        a = BoolMatrix.from_dense(SUMMAND_1)
        b = BoolMatrix.from_dense(SUMMAND_2)
        assert boolean_sum([a, b]) == crown_matrix(4)

    def test_associative_commutative(self):
        rng = random.Random(2)
        for _ in range(30):
            ms = [rand_matrix(rng, 3, 4) for _ in range(3)]
            ref = boolean_sum(ms)
            assert boolean_sum([ms[2], ms[0], ms[1]]) == ref
            assert boolean_sum([boolean_sum(ms[:2]), ms[2]]) == ref

    def test_errors(self):
        with pytest.raises(DimensionError):
            boolean_sum([])
        with pytest.raises(DimensionError):
            boolean_sum([BoolMatrix.ones(2, 2), BoolMatrix.ones(2, 3)])


class TestKronecker:
    def test_c2_c2(self):
        c2 = crown_matrix(2)
        got = kronecker(c2, c2)
        # oracle: the four-index definition
        expect = np.zeros((4, 4), dtype=np.uint8)
        for ia in range(2):
            for ja in range(2):
                for ib in range(2):
                    for jb in range(2):
                        expect[ia * 2 + ib, ja * 2 + jb] = c2.get(ia, ja) & c2.get(ib, jb)
        assert got == BoolMatrix.from_dense(expect)
        assert got.count_ones() == 4

    def test_scalar_units(self):
        rng = random.Random(4)
        a = rand_matrix(rng, 3, 5)
        assert kronecker(a, BoolMatrix.ones(1, 1)) == a
        z = kronecker(BoolMatrix.zeros(1, 1), a)
        assert z.is_zero() and (z.rows, z.cols) == (3, 5)

    def test_entry_invariant_random(self):
        rng = random.Random(5)
        for _ in range(10):
            a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            b = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            k = kronecker(a, b)
            for r in range(k.rows):
                for c in range(k.cols):
                    (ia, ib), (ja, jb) = divmod(r, b.rows), divmod(c, b.cols)
                    assert k.get(r, c) == (a.get(ia, ja) & b.get(ib, jb))

    def test_materialization_limit(self, monkeypatch):
        a = BoolMatrix.ones(100, 100)
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", str(10**6))
        with pytest.raises(MaterializationLimitError):
            kronecker(a, a)

    @pytest.mark.parametrize("block_entries", [1, 7])
    def test_row_blocks_match_numpy(self, block_entries, monkeypatch):
        # one or a few rows of a per block, and factors with no rows or columns
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(block_entries)
        shapes = [((3, 4), (2, 5)), ((5, 1), (1, 9)), ((1, 1), (7, 3)), ((0, 3), (2, 2)),
                  ((2, 0), (3, 3)), ((4, 4), (3, 0)), ((4, 3), (0, 2))]
        shapes += [(tuple(rng.integers(1, 7, 2)), tuple(rng.integers(1, 7, 2))) for _ in range(20)]
        for shape_a, shape_b in shapes:
            a = rng.integers(0, 2, size=shape_a, dtype=np.uint8)
            b = rng.integers(0, 2, size=shape_b, dtype=np.uint8)
            got = kronecker(BoolMatrix.from_dense(a), BoolMatrix.from_dense(b))
            assert got == BoolMatrix.from_dense(np.kron(a, b)), (shape_a, shape_b)


class TestImmutability:
    def test_packed_buffer_is_read_only(self):
        m = crown_matrix(3)
        with pytest.raises(ValueError):
            m.bits[0, 0] = 0

    def test_operations_return_new_values(self):
        a = crown_matrix(3)
        before = a.to_dense().copy()
        boolean_sum([a, BoolMatrix.ones(3, 3)])
        kronecker(a, a)
        assert np.array_equal(a.to_dense(), before)

    BUILDERS = {
        "from_dense": lambda: BoolMatrix.from_dense([[0, 1, 1], [1, 0, 1]]),
        "zeros": lambda: BoolMatrix.zeros(3, 9),
        "boolean_sum": lambda: boolean_sum([crown_matrix(5), BoolMatrix.identity(5)]),
        "parse_matrix": lambda: parse_matrix("2 3\n011\n101\n"),
        "cover_matrix": lambda: cover_matrix(
            Cover(4, 5, (Rectangle((0, 2), (1, 4)), Rectangle((3,), (0, 1))))
        ),
        "crown_matrix": lambda: crown_matrix(11),
        "kronecker": lambda: kronecker(crown_matrix(3), crown_matrix(4)),
        "family_matrix": lambda: cover_matrix(crown._canonical_cover(5, 10)),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_fresh_buffer_is_kept(self, builder, monkeypatch):
        passed = []
        init = BoolMatrix.__init__

        def spy(self, rows, cols, bits):
            passed.append(bits)
            init(self, rows, cols, bits)

        monkeypatch.setattr(BoolMatrix, "__init__", spy)
        m = self.BUILDERS[builder]()
        assert np.shares_memory(m.bits, passed[-1])
        assert not m.bits.flags.writeable

    def test_caller_buffer_is_copied(self):
        bits = np.array([[0b110], [0b011]], dtype=np.uint8)
        m = BoolMatrix(2, 3, bits)
        bits[:] = 0
        assert m.to_dense().tolist() == [[0, 1, 1], [1, 1, 0]]
        dense = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        m = BoolMatrix.from_dense(dense)
        dense[:] = 1
        assert m == crown_matrix(2)


class TestMatrixFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
            assert parse_matrix(format_matrix(m)) == m

    def test_exact_text(self):
        assert format_matrix(crown_matrix(2)) == "2 2\n01\n10\n"

    def test_errors_carry_line_numbers(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_matrix("nonsense\n")
        with pytest.raises(FormatError, match="line 3"):
            parse_matrix("2 2\n01\n2x\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_matrix("2 2\n011\n10\n")

    # (text, line, message) as reported by the line-by-line reader
    MALFORMED = {
        "short row": ("2 3\n010\n01\n", 3, "row must be exactly 3"),
        "long row": ("2 3\n0101\n010\n", 2, "row must be exactly 3"),
        "digit 2": ("2 3\n010\n012\n", 3, "row must be exactly 3"),
        "space": ("2 3\n0 1\n010\n", 2, "row must be exactly 3"),
        "non-ascii": ("2 3\n010\n0\u00e91\n", 3, "row must be exactly 3"),
        "missing rows": ("3 2\n01\n10", 3, "expected 3 row lines"),
        "missing last row": ("3 2\n01\n10\n", 4, "row must be exactly 2"),
        "trailing content": ("2 2\n01\n10\n11\n", 4, "trailing content"),
        "trailing after blank": ("2 2\n01\n10\n\n \n", 5, "trailing content"),
        "crlf string": ("2 2\r\n01\r\n10\r\n", 2, "row must be exactly 2"),
        "empty": ("", 1, "missing header"),
        "bad header": ("2 x\n", 1, "non-negative decimal integers"),
        "negative": ("-1 2\n", 1, "non-negative decimal integers"),
        "plus sign": ("+2 2\n01\n10\n", 1, "non-negative decimal integers"),
        "underscore": ("2 0_2\n01\n10\n", 1, "non-negative decimal integers"),
        "negative zero": ("-0 2\n", 1, "non-negative decimal integers"),
        "three fields": ("1 2 3\n01\n", 1, "'rows cols'"),
        "huge header": ("2 99999999999999999999\n0\n", 2, "row must be exactly"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_line_numbers(self, case):
        text, line, message = self.MALFORMED[case]
        with pytest.raises(FormatError, match=f"line {line}: .*{message}") as info:
            parse_matrix(text)
        assert info.value.line == line

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 1), (4, 8), (5, 13), (9, 17)])
    def test_round_trip_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = BoolMatrix.from_dense(rng.integers(0, 2, size=shape, dtype=np.uint8))
        assert parse_matrix(format_matrix(m)) == m

    def test_row_blocks(self, monkeypatch):
        # one row per block: packing and the first bad row span blocks
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 1)
        m = rand_matrix(random.Random(3), 6, 11)
        text = format_matrix(m)
        assert parse_matrix(text) == m
        lines = text.split("\n")
        lines[5] = lines[5][:-1] + "x"
        with pytest.raises(FormatError, match="line 6"):
            parse_matrix("\n".join(lines))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (1, 1), (2, 9), (5, 17)])
    def test_matches_reference_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = BoolMatrix.from_dense(rng.integers(0, 2, size=shape, dtype=np.uint8))
        assert format_matrix(m) == reference_format_matrix(m)

    @pytest.mark.parametrize("block_entries", [1, 7])
    def test_matches_reference_in_row_blocks(self, block_entries, monkeypatch):
        # rows span several blocks, and the last block of a body is partial
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
        rng = random.Random(block_entries)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 12), rng.randint(1, 20))
            assert format_matrix(m) == reference_format_matrix(m)

    def test_crown_file_matches_numpy_text(self, tmp_path):
        n = 2100
        assert boolmat._block_rows(n) < n  # the body takes two row blocks
        path = tmp_path / "c2100.mat"
        assert main(["crown", str(n), "-o", str(path)]) == 0
        grid = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
        grid[:, :n] = ord("1")
        grid[np.arange(n), np.arange(n)] = ord("0")
        expected = f"{n} {n}\n".encode() + grid.tobytes()
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == hashlib.sha256(expected).hexdigest()
        )

    @given(
        arrays(np.uint8, st.tuples(st.integers(0, 12), st.integers(0, 40)),
               elements=st.integers(0, 1)),
        st.sampled_from([1, 7, 64, boolmat._BLOCK_ENTRIES]),
    )
    def test_round_trip_property(self, dense, block_entries):
        m = BoolMatrix.from_dense(dense)
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
            text = format_matrix(m)
            assert text == reference_format_matrix(m)
            assert parse_matrix(text) == m

    def test_lines_are_header_then_row_blocks(self, monkeypatch):
        # 64 entries make 8-character text blocks: two 3-column rows a block
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 64)
        m = crown_matrix(3)
        assert list(matrix_lines(m)) == ["3 3\n", "011\n101\n", "110\n"]
        m = BoolMatrix.zeros(5, 3)
        assert list(matrix_lines(m)) == ["5 3\n", "000\n000\n", "000\n000\n", "000\n"]

    @given(
        arrays(np.uint8, st.tuples(st.integers(0, 6), st.integers(0, 12)),
               elements=st.integers(0, 1)),
        rngs,
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.sampled_from([1, 7, 64, boolmat._BLOCK_ENTRIES]),
    )
    def test_file_reader_matches_bytes_parser(
        self, tmp_path_factory, dense, rng, newline, block_entries
    ):
        # a valid text and a mutant of it, each read from a file, parsed from
        # its CR-normalized bytes and its str, and read line by line
        path = tmp_path_factory.getbasetemp() / "differential.mat"
        valid = format_matrix(BoolMatrix.from_dense(dense))
        for text in (valid, mutate(valid, rng)):
            text = text.replace("\n", newline)
            data = text.encode()
            path.write_bytes(data)
            normalized = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
                from_file = parsed(read_matrix, str(path))
                from_bytes = parsed(parse_matrix, normalized)
                from_str = parsed(parse_matrix, text)
            assert from_file == from_bytes == reference_parse_matrix(normalized)
            assert from_str == reference_parse_matrix(text.encode("ascii", "replace"))

    CRLF_CASES = {
        # text with CRLF line ends -> the matrix, or the error line and message
        b"2 2\r\n01\r\n10\r\n": crown_matrix(2),
        b"2 2\r\n01\r\n10": crown_matrix(2),  # no final newline
        b"2 2\r\n01\r\n10\r\n\r\n\r\n": crown_matrix(2),  # trailing blank lines
        b"2 2\r\n01\r\n10\r\n\r\n11\r\n": (5, "trailing content after matrix"),
        b"3 2\r\n01\r\n10\r\n": (4, "row must be exactly 2 characters of 0/1"),
        b"3 2\r\n01\r10": (3, "expected 3 row lines"),
        b"2 2\r\n01\r\n1\xff\r\n": (3, "row must be exactly 2 characters of 0/1"),
        b"3 2\r\n0\xff\r\n": (3, "expected 3 row lines"),  # outranks the bad row
    }

    @pytest.mark.parametrize("case", range(len(CRLF_CASES)))
    def test_crlf_at_every_block_boundary(self, case, tmp_path, monkeypatch):
        data, expect = list(self.CRLF_CASES.items())[case]
        path = tmp_path / "m.mat"
        path.write_bytes(data)
        normalized = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        # every split of the text into pieces, a CRLF split across one too
        for block_entries in range(1, len(data) + 2):
            monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", block_entries)
            assert parsed(read_matrix, str(path)) == expect
            assert parsed(parse_matrix, normalized) == expect

    def test_streams_below_the_text_size(self, tmp_path, monkeypatch):
        # the text of the 2100-crown goes through memory a row block at a time
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 1 << 16)
        n = 2100
        path = tmp_path / "c2100.mat"
        tracemalloc.start()
        try:
            assert main(["crown", str(n), "-o", str(path)]) == 0
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            m = read_matrix(str(path))
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == len(f"{n} {n}\n") + n * (n + 1)  # 4.4 MB
        assert m == crown_matrix(n)
        assert write_peak < size and read_peak < size

    def test_header_sizes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 1 << 16)
        path = tmp_path / "huge.mat"
        path.write_bytes(b"1000000 1000000\n01\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="line 3: expected 1000000 row lines"):
                read_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_crlf_file_parses(self, tmp_path):
        path = tmp_path / "c3.mat"
        path.write_bytes(format_matrix(crown_matrix(3)).replace("\n", "\r\n").encode())
        assert read_matrix(str(path)) == crown_matrix(3)

    def test_file_read_as_bytes(self, tmp_path):
        path = tmp_path / "c3.mat"
        # universal newlines: a lone CR ends a line as CRLF and LF do
        path.write_bytes(b"3 3\r011\r\n101\n110\r")
        assert read_matrix(str(path)) == crown_matrix(3)
        assert parse_matrix(b"3 3\n011\n101\n110\n") == crown_matrix(3)
        # a byte that is not UTF-8 is a bad row, not a decoding error
        path.write_bytes(b"2 2\n01\n1\xff\n")
        with pytest.raises(FormatError, match="line 3: row must be exactly 2"):
            read_matrix(str(path))


class TestMatrixTextBlocks:
    """Matrix text is read and written a text block at a time, an eighth of
    ``_BLOCK_ENTRIES`` characters, so beyond the packed matrix its memory
    is about one block."""

    @given(
        arrays(np.uint8, st.tuples(st.integers(0, 6), st.integers(0, 12)),
               elements=st.integers(0, 1)),
        rngs,
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.sampled_from([1, 7, 64]),
    )
    def test_file_reader_in_text_blocks(
        self, tmp_path_factory, dense, rng, newline, chars
    ):
        # text blocks of 1, 7 and 64 characters split lines and CRLF pairs
        path = tmp_path_factory.getbasetemp() / "blocks.mat"
        m = BoolMatrix.from_dense(dense)
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", 8 * chars):
            assert boolmat._text_chars() == chars
            boolmat.write_matrix(str(path), m)
            assert read_matrix(str(path)) == m
            valid = format_matrix(m)
            for text in (valid, mutate(valid, rng)):
                data = text.replace("\n", newline).encode()
                path.write_bytes(data)
                normalized = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                from_file = parsed(read_matrix, str(path))
                assert from_file == parsed(parse_matrix, normalized)
                assert from_file == reference_parse_matrix(normalized)

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_peak(self, tmp_path):
        # 1.06 MB measured: the block's digit grid and its text, then the
        # text and its encoding (16.8 MB when a block was 4 Mi entries)
        m = crown_matrix(3000)
        path = tmp_path / "c3000.mat"
        _, peak = self.traced_peak(lambda: boolmat.write_matrix(str(path), m))
        assert peak < 1.5e6
        assert path.read_bytes() == format_matrix(m).encode()

    def test_read_peak(self, tmp_path):
        # the 1.1 MB packed matrix plus 1.13 MB measured: a text piece and
        # its newline mask (plus 16.2 MB when pieces were 4 MiB and the
        # packed blocks were joined at the end)
        m = crown_matrix(3000)
        path = tmp_path / "c3000.mat"
        boolmat.write_matrix(str(path), m)
        back, peak = self.traced_peak(lambda: read_matrix(str(path)))
        assert back == m
        assert peak < m.bits.nbytes + 1.5e6

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_small_file_sizes_no_text_block(self, tmp_path, newline):
        # a piece of a file is no larger than what is left of it: 13 KB and
        # 17 KB measured, where a whole text block for each piece made
        # 531 KB and a scan block of text 272 KB
        from boolrank.cover import MatrixFile

        path = tmp_path / "c3.mat"
        path.write_bytes(format_matrix(crown_matrix(3)).replace("\n", newline).encode())
        back, peak = self.traced_peak(lambda: read_matrix(str(path)))
        assert back == crown_matrix(3)
        assert peak < 64 * 1024
        ones, peak = self.traced_peak(lambda: MatrixFile(str(path)).count_ones())
        assert ones == 6
        assert peak < 64 * 1024


class TestStreamedWriters:
    """``crown`` and ``kron`` write their text from readers of its rows
    (``crown._crown_reader`` and ``boolmat._kron_reader``), a text block at
    a time, so neither holds the matrix it writes."""

    @staticmethod
    def printed(argv):
        out = StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.uint8, st.tuples(st.integers(0, 5), st.integers(0, 11)),
               elements=st.integers(0, 1)),
        arrays(np.uint8, st.tuples(st.integers(0, 5), st.integers(0, 11)),
               elements=st.integers(0, 1)),
        st.sampled_from([8, 8 * 9, 8 * 40, boolmat._BLOCK_ENTRIES]),
    )
    def test_kron_text_matches_numpy(self, tmp_path_factory, a, b, block_entries):
        # factors with no rows or columns, widths not a multiple of 8, and
        # text blocks of one row up to whole products
        root = tmp_path_factory.getbasetemp()
        for name, dense in (("a.mat", a), ("b.mat", b)):
            boolmat.write_matrix(str(root / name), BoolMatrix.from_dense(dense))
        expected = format_matrix(BoolMatrix.from_dense(np.kron(a, b)))
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
            assert self.printed(["kron", str(root / "a.mat"), str(root / "b.mat")]) == expected

    @pytest.mark.parametrize("shape_a, shape_b", [((3, 5), (3, 4)), ((4, 2), (5, 7)),
                                                  ((2, 3), (7, 1))])
    def test_kron_blocks_end_inside_a_factor_block(self, shape_a, shape_b, monkeypatch):
        # two rows a text block, which splits every block of b's rows
        rng = np.random.default_rng(sum(shape_a + shape_b))
        a = rng.integers(0, 2, size=shape_a, dtype=np.uint8)
        b = rng.integers(0, 2, size=shape_b, dtype=np.uint8)
        cols = shape_a[1] * shape_b[1]
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", 8 * (2 * cols + 2))
        assert boolmat._text_chars() // (cols + 1) == 2 and shape_b[0] % 2
        read = boolmat._kron_reader(BoolMatrix.from_dense(a), BoolMatrix.from_dense(b))
        text = "".join(boolmat.reader_lines(len(a) * len(b), cols, read))
        assert text == format_matrix(BoolMatrix.from_dense(np.kron(a, b)))
        assert kronecker(BoolMatrix.from_dense(a), BoolMatrix.from_dense(b)) == (
            BoolMatrix.from_dense(np.kron(a, b))
        )

    def test_kron_reader_reads_any_span(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=(4, 3), dtype=np.uint8)
        b = rng.integers(0, 2, size=(3, 5), dtype=np.uint8)
        packed = BoolMatrix.from_dense(np.kron(a, b)).bits
        read = boolmat._kron_reader(BoolMatrix.from_dense(a), BoolMatrix.from_dense(b))
        for row0 in range(14):
            for row1 in range(row0, 15):
                assert np.array_equal(read(row0, row1), packed[row0:row1]), (row0, row1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 70), st.sampled_from([8, 8 * 9, 8 * 40, boolmat._BLOCK_ENTRIES]))
    def test_crown_text_matches_crown_matrix(self, n, block_entries):
        dense = np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)
        expected = format_matrix(BoolMatrix.from_dense(dense))
        with mock.patch.object(boolmat, "_BLOCK_ENTRIES", block_entries):
            assert format_matrix(crown_matrix(n)) == expected
            assert self.printed(["crown", str(n)]) == expected

    @pytest.mark.parametrize("argv", [["crown", "0"], ["crown", "-3"]])
    def test_bad_crown_writes_nothing(self, argv, tmp_path, capsys):
        path = tmp_path / "c.mat"
        assert main(argv + ["-o", str(path)]) == 2
        assert not path.exists()

    # With text blocks of 8 KiB, the reader's rows are a few KiB; a writer
    # that holds its matrix holds all 1.1 MB of packed bits.
    SMALL_BLOCKS = 1 << 16

    def test_crown_writer_holds_no_matrix(self, tmp_path, monkeypatch):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", self.SMALL_BLOCKS)
        path = tmp_path / "c3000.mat"
        _, peak = TestMatrixTextBlocks.traced_peak(
            lambda: main(["crown", "3000", "-o", str(path)])
        )
        packed = crown_matrix(3000).bits.nbytes
        assert peak < packed / 2
        assert read_matrix(str(path)) == crown_matrix(3000)

    def test_kron_writer_holds_no_product(self, tmp_path, monkeypatch):
        monkeypatch.setattr(boolmat, "_BLOCK_ENTRIES", self.SMALL_BLOCKS)
        a, b, path = tmp_path / "c60.mat", tmp_path / "c50.mat", tmp_path / "k.mat"
        boolmat.write_matrix(str(a), crown_matrix(60))
        boolmat.write_matrix(str(b), crown_matrix(50))
        _, peak = TestMatrixTextBlocks.traced_peak(
            lambda: main(["kron", str(a), str(b), "-o", str(path)])
        )
        product = kronecker(crown_matrix(60), crown_matrix(50))
        assert peak < product.bits.nbytes / 2
        assert read_matrix(str(path)) == product
