"""Property tests of the text formats other than the matrix format.

Every formatter's output parses back to the same object, and mutated valid
text either parses or raises ``FormatError`` or ``DimensionError``, the two
types the CLI turns into exit 2.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolrank import boolmat
from boolrank.boolmat import (
    _index_bytes,
    _index_writer,
    _parse_index_list,
    parse_matrix,
)
from boolrank.cover import (
    Cover,
    KronCoverDescription,
    MatrixFamily,
    Rectangle,
    _row_groups,
    cover_lines,
    family_lines,
    format_cover,
    format_family,
    kron_cover_lines,
    parse_cover,
    parse_family,
    read_cover,
    read_family,
    write_cover,
    write_family,
)
from boolrank.errors import DimensionError, FormatError
from boolrank.spanoid import (
    RuleSpanoid,
    format_rule_spanoid,
    parse_index_sets,
    parse_spanoid,
    read_index_sets,
    read_spanoid,
)


# Strategies are built once and their draws reduced below each bound, since
# building a strategy per draw costs more than the parsers under test.
raws = st.lists(st.integers(0, 10**15), max_size=8)
nonempty_raws = st.lists(st.integers(0, 10**15), min_size=1, max_size=8)
dims = st.one_of(st.integers(1, 12), st.integers(1, 10**15))


def below(raw, n):
    """Sorted distinct indices below n."""
    return tuple(sorted({i % n for i in raw}))


rect_sides = st.lists(st.tuples(nonempty_raws, nonempty_raws), max_size=5)


def cover_of(rows, cols, sides):
    return Cover(rows, cols, tuple(Rectangle(below(r, rows), below(c, cols)) for r, c in sides))


covers = st.builds(cover_of, dims, dims, rect_sides)


@st.composite
def families(draw):
    rows, cols = draw(dims), draw(dims)
    members = draw(st.lists(rect_sides, min_size=1, max_size=3))
    return MatrixFamily(tuple(cover_of(rows, cols, sides) for sides in members))


@st.composite
def rule_spanoids(draw):
    u = draw(st.integers(0, 9))
    rules = draw(st.lists(st.tuples(raws, st.integers(0, 10**6)), max_size=6)) if u else []
    return RuleSpanoid(u, [(frozenset(below(r, u)), t % u) for r, t in rules])


def format_index_sets(sets):
    return f"SETS {len(sets)}\n" + "".join(
        ",".join(map(str, sorted(s))) + "\n" for s in sets
    )


index_set_lists = st.lists(raws.map(lambda r: frozenset(below(r, 30))), max_size=5)


# characters of the grammars, plus whitespace, a non-ASCII digit and a sign
ALPHABET = "0123456789,:->RCSETOVFAMILY \t\r\n\u0663+x"


def mutate(text, rng):
    """``text`` after one to four random character or line edits."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("insert", "delete", "replace", "line", "cut"))
        at = rng.randint(0, len(chars))
        if op == "insert":
            chars.insert(at, rng.choice(ALPHABET))
        elif op == "delete" and at < len(chars):
            del chars[at]
        elif op == "replace" and at < len(chars):
            chars[at] = rng.choice(ALPHABET)
        elif op == "line":
            # drop or duplicate one whole line
            lines = "".join(chars).split("\n")
            i = at % len(lines)
            lines[i:i + 1] = [lines[i]] * rng.choice((0, 2))
            chars = list("\n".join(lines))
        elif op == "cut":
            chars = chars[:at]
    return "".join(chars)


def assert_round_trip(parse, text, expect, rng, mutations=10):
    """``text`` parses to ``expect``; mutants of it raise only input errors."""
    assert parse(text) == expect
    for _ in range(mutations):
        bad = mutate(text, rng)
        try:
            parse(bad)
        except (FormatError, DimensionError):
            pass
        except Exception as exc:
            raise AssertionError(f"{bad!r} raised {exc!r}") from exc


# mutants come from a seeded generator: drawing each edit through hypothesis
# costs more than parsing the mutant
rngs = st.integers(0, 2**32 - 1).map(random.Random)


class TestFormats:
    @given(covers, rngs)
    def test_cover(self, c, rng):
        assert_round_trip(parse_cover, format_cover(c), c, rng)

    @given(families(), rngs)
    def test_family(self, fam, rng):
        assert_round_trip(parse_family, format_family(fam), fam, rng)

    @given(rule_spanoids(), rngs)
    def test_rule_spanoid(self, s, rng):
        def parse(text):
            back = parse_spanoid(text)
            return back.universe, back.rules

        assert_round_trip(parse, format_rule_spanoid(s), (s.universe, s.rules), rng)

    @given(index_set_lists, rngs)
    def test_index_sets(self, sets, rng):
        assert_round_trip(parse_index_sets, format_index_sets(sets), sets, rng)


def spanoid_rules(text):
    s = parse_spanoid(text)
    return s.universe, s.rules


class TestSplitOnNewlineOnly:
    """The string parsers split text on "\\n" only.  Each character below
    ends a line for ``str.splitlines``.  The ASCII whitespace among them is
    whitespace inside a line, so text that holds it at every line end and
    before every space gives the same value, or the same error on the same
    line.  The others are refused (:class:`TestSeparators`), and on line 1,
    which holds the first of them: none ends a line."""

    BREAKS = ["\r", "\x85", "\u2028", "\x0b", "\x0c", "\x1c"]

    # valid text, a bad body line, a missing line, and trailing content
    TEXTS = {
        "cover": (parse_cover, [
            "COVER 5 5 2\nR 0 C 1\nR 2,3 C 3\n\n",
            "COVER 5 5 2\nR 0 C 1\nR 2 C x\n",
            "COVER 5 5 3\nR 0 C 1\nR 2 C 3\n",
            "COVER 5 5 1\nR 0 C 1\n\nR 0 C 0\n",
        ]),
        "family": (parse_family, [
            "FAMILY 5 5 2\nCOVER 5 5 1\nR 0 C 1\nCOVER 5 5 0\n",
            "FAMILY 5 5 2\nCOVER 5 5 1\nR 0 C 1\nCOVER 5 4 0\n",
            "FAMILY 5 5 2\nCOVER 5 5 1\nR 0 C 1\n",
            "FAMILY 5 5 1\nCOVER 5 5 0\n\nx\n",
        ]),
        "spanoid": (spanoid_rules, [
            "SPANOID 3 2\nS: 0,1 -> 2\nS:  -> 0\n",
            "SPANOID 3 2\nS: 0,1 -> 2\nS: 0 -> x\n",
            "SPANOID 3 2\nS: 0,1 -> 2\n",
            "SPANOID 3 1\nS: 0,1 -> 2\nS: 0 -> 1\n",
        ]),
        "sets": (parse_index_sets, [
            "SETS 3\n0,4\n\n7\n",
            "SETS 3\n0,4\n\n7,\n",
            "SETS 3\n0,4\n",
            "SETS 1\n0\n\n1\n",
        ]),
    }

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    @pytest.mark.parametrize("fmt", sorted(TEXTS))
    def test_other_breaks_stay_in_their_line(self, fmt, brk):
        parse, texts = self.TEXTS[fmt]
        for text in texts:
            moved = text.replace(" ", brk + " ").replace("\n", brk + "\n")
            assert len(moved.splitlines()) > len(text.splitlines())
            if brk.encode().isspace():  # ASCII whitespace, as bytes.split() takes it
                assert outcome(parse, moved) == outcome(parse, text)
            else:
                assert outcome(parse, moved)[:2] == (FormatError, 1)


def matrix_rows(text):
    m = parse_matrix(text)
    return m.rows, m.cols, m.bits.tobytes()


# every format, with "{0}" where a header field may be followed by a
# separator and "{1}" where a body line's field may
SEPARATED = {
    "matrix": (matrix_rows, "2 2{0}\n01\n10\n"),
    "cover": (parse_cover, "COVER 2 2 1{0}\nR 0{1} C 1\n"),
    "family": (parse_family, "FAMILY 2 2 1{0}\nCOVER 2{0} 2 1\nR 0 C{1} 1\n"),
    "spanoid": (spanoid_rules, "SPANOID 2 1{0}\nS: 0{1} -> 1\n"),
    "sets": (parse_index_sets, "SETS 1{0}\n0,1{1}\n"),
}


class TestSeparators:
    """Fields are separated by ASCII whitespace only, in every format, as
    ``bytes.split()`` splits them: any other separator, such as one that
    ``str.split()`` would take, is a ``FormatError`` on its own line,
    whether the text is a str or its UTF-8 bytes."""

    ACCEPTED = ["\t", "\x0b", "\x0c", "\r"]
    REFUSED = ["\x1c", "\x85", "\xa0", "\u2028"]

    @pytest.mark.parametrize("sep", ACCEPTED, ids=ascii)
    @pytest.mark.parametrize("fmt", sorted(SEPARATED))
    def test_ascii_whitespace_separates(self, fmt, sep):
        parse, text = SEPARATED[fmt]
        plain = parse(text.format("", ""))
        for source in (text.format(sep, sep), text.format(sep, sep).encode()):
            assert parse(source) == plain

    @pytest.mark.parametrize("sep", REFUSED, ids=ascii)
    @pytest.mark.parametrize("fmt", sorted(SEPARATED))
    def test_other_separators_are_refused(self, fmt, sep):
        parse, text = SEPARATED[fmt]
        for at in ("{0}", "{1}"):
            if at not in text:
                continue
            placed = text.replace(at, sep).format("", "")
            line = placed[:placed.index(sep)].count("\n") + 1
            for source in (placed, placed.encode()):
                with pytest.raises(FormatError) as exc:
                    parse(source)
                assert exc.value.line == line

    @pytest.mark.parametrize("fmt", sorted(SEPARATED))
    def test_undecodable_bytes_are_refused(self, fmt, tmp_path):
        # a byte that is not UTF-8 is a FormatError on its line, read from
        # bytes or from a file, where text once failed to decode
        parse, text = SEPARATED[fmt]
        placed = text.replace("{0}", "\xff").format("", "").encode("latin-1")
        path = tmp_path / "f.txt"
        path.write_bytes(placed)
        read = {"matrix": boolmat.read_matrix, "cover": read_cover, "family": read_family,
                "spanoid": read_spanoid, "sets": read_index_sets}[fmt]
        for call in (lambda: parse(placed), lambda: read(str(path))):
            with pytest.raises(FormatError) as exc:
                call()
            assert exc.value.line == 1


def reference_index_list(token):
    """The index-list rule field by field: 1 to 18 ASCII digits each."""
    fields = token.split(b",")
    if not all(f.isascii() and f.isdigit() and len(f) <= 18 for f in fields):
        raise FormatError("bad index list", line=1)
    return [int(f) for f in fields]


class TestIndexListTokenizer:
    """``_parse_index_list`` checks a whole token at once; it agrees with a
    field-by-field reader on every token, and shows at most 40 characters
    of a bad one."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.text("0123456789", min_size=0, max_size=21) | st.sampled_from(["x", "+1", "1\xa0", "-"]),
        min_size=1, max_size=6,
    ).map(",".join).map(str.encode))
    def test_matches_fields(self, token):
        try:
            expected = reference_index_list(token) if token else []
        except FormatError:
            with pytest.raises(FormatError, match="bad index list"):
                _parse_index_list(token, 1)
        else:
            assert _parse_index_list(token, 1).tolist() == expected

    @pytest.mark.parametrize("width", [17, 18, 19, 20, 37])
    @pytest.mark.parametrize("at", ["alone", "first", "middle", "last"])
    def test_widths(self, width, at):
        field = b"0" * (width - 1) + b"7"
        token = {"alone": field, "first": field + b",1,2", "middle": b"1," + field + b",2",
                 "last": b"1,2," + field}[at]
        if width <= 18:
            assert 7 in _parse_index_list(token, 1).tolist()
        else:
            with pytest.raises(FormatError, match="bad index list"):
                _parse_index_list(token, 1)

    @pytest.mark.parametrize("token, shown", [
        (b"x" * 40, "'" + "x" * 40 + "'"),
        (b"x" * 41, "'" + "x" * 40 + "'..."),
        (b"1," * 30 + b"x", "'" + "1," * 20 + "'..."),
        ("\u00e9".encode() * 40, "'" + "\u00e9" * 40 + "'"),
    ])
    def test_shows_40_characters(self, token, shown):
        with pytest.raises(FormatError) as exc:
            _parse_index_list(token, 3)
        assert str(exc.value) == f"line 3: bad index list {shown}"


def oracle_cover_text(c):
    """The cover format, written with one ``str`` per index."""
    lines = [f"COVER {c.rows} {c.cols} {c.size}"] + [
        "R " + ",".join([str(i) for i in r.row_set])
        + " C " + ",".join([str(j) for j in r.col_set])
        for r in c.rects
    ]
    return "\n".join(lines) + "\n"


def oracle_mask(cols):
    """Packed bits (little order) of a tuple of column indices, up to the
    last one's byte."""
    ind = np.zeros(cols[-1] + 1, dtype=np.uint8)
    ind[list(cols)] = 1
    return np.packbits(ind, bitorder="little")


def narrowest(top):
    """The dtype rule for a side whose last index is ``top``."""
    return np.uint16 if top < 2**16 else np.uint32 if top < 2**32 else np.int64


def oracle_family_text(fam):
    rows, cols = fam.dims
    head = f"FAMILY {rows} {cols} {len(fam)}\n"
    return head + "".join(map(oracle_cover_text, fam.decompositions))


@st.composite
def writer_families(draw, far):
    """(far, family) of order n whose members each hold the full n x n
    rectangle, so their indices outnumber the values below n and the
    writers share one table.  With ``far``, the family has ``far + 1``
    columns, above every index count, and that rectangle also has column
    ``far``, so the writers fall back to one ``str`` per index."""
    n = draw(st.integers(1, 12))
    full = Rectangle(tuple(range(n)), (*range(n), far) if far else tuple(range(n)))
    cols = far + 1 if far else n
    members = draw(st.lists(rect_sides, min_size=1, max_size=3))
    covers = (
        Cover(n, cols, (*(Rectangle(below(r, n), below(c, n)) for r, c in sides), full))
        for sides in members
    )
    return far, MatrixFamily(tuple(covers))


def traced(call):
    """``call()``, the memory it still holds and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


# 0, and each value beside a power of ten up to 10^5
DIGIT_EDGES = sorted({0, *(10**k + e for k in range(1, 6) for e in (-1, 0, 1))})
writer_values = st.lists(st.sampled_from(DIGIT_EDGES) | st.integers(0, 10**5 + 1),
                         min_size=1, max_size=80)
side_dtypes = st.sampled_from([np.uint16, np.uint32, np.int64])


def sides(fam):
    """The row side and then the column side of every rectangle, in order."""
    return [side for c in fam.decompositions for r in c.rects for side in (r.rows, r.cols)]


def table_spy():
    """``boolmat._digit_tables``, patched to record its calls."""
    return mock.patch.object(boolmat, "_digit_tables", wraps=boolmat._digit_tables)


class TestSharedIndexTables:
    """Certificates hold narrow index arrays and are written by gathering
    each index's text from digit tables of the values below the larger
    dimension, made only when the text has at least that many indices."""

    # short sides are gathered too when no side counts as short
    @given(side_dtypes, writer_values, st.integers(0, 3),
           st.sampled_from([1, boolmat._SHORT_SIDE]))
    @example(np.uint16, [0], 0, 1)
    @example(np.uint32, [9], 0, 1)
    @example(np.int64, [10**5], 1, 1)
    def test_digit_writer_matches_index_bytes(self, dtype, values, spare, short):
        values = sorted({min(v, np.iinfo(dtype).max) for v in values})
        side = np.array(values, dtype=dtype)
        # a table of exactly the values up to the last, or a few past it
        size = values[-1] + 1 + spare
        with table_spy() as tables:
            write = _index_writer(size, size)
        assert tables.call_count == 1
        with mock.patch.object(boolmat, "_SHORT_SIDE", short):
            assert b"".join(write(side)) == _index_bytes(values)

    # a few small indices and one far past the count of indices
    @given(side_dtypes, st.lists(st.integers(0, 99), max_size=5),
           st.integers(10**6, 10**15))
    def test_sparse_side_takes_the_fallback(self, dtype, small, far):
        values = sorted(set(small)) + [min(far, np.iinfo(dtype).max)]
        side = np.array(values, dtype=dtype)
        with table_spy() as tables:
            assert b"".join(_index_writer(values[-1] + 1, side.size)(side)) == _index_bytes(values)
        tables.assert_not_called()

    @pytest.mark.parametrize("size", [0, 1, 64])
    def test_table_only_up_to_the_index_count(self, size):
        for count, made in ((size - 1, False), (size, size > 0)):
            with table_spy() as tables:
                _index_writer(size, count)
            assert tables.called == made

    @given(st.sampled_from([0, 10**6, 10**15]).flatmap(writer_families))
    def test_writers_match_per_index_str(self, case):
        far, fam = case
        with table_spy() as tables:
            assert format_family(fam) == oracle_family_text(fam)
            for c in fam.decompositions:
                assert format_cover(c) == oracle_cover_text(c)
        # one table per text: the family's, then each member's
        assert tables.call_count == (0 if far else 1 + len(fam))
        assert parse_family(format_family(fam)) == fam

    def test_family_holds_under_4_bytes_per_index(self):
        rng = np.random.default_rng(17)
        n = 3000

        def side():
            return tuple(np.flatnonzero(rng.random(n) < 0.5).tolist())

        fam = MatrixFamily(tuple(
            Cover(n, n, tuple(Rectangle(side(), side()) for _ in range(6)))
            for _ in range(8)
        ))
        indices = sum(len(s) for s in sides(fam))
        assert indices >= 100_000
        text = format_family(fam)
        back, held, _ = traced(lambda: parse_family(text))
        assert back == fam
        # every index is below 65536, so each side is a uint16 array
        assert held < 4 * indices
        assert {s.dtype for s in sides(back)} == {np.dtype(np.uint16)}

    def test_huge_index_sizes_no_table(self):
        text = "COVER 1000000000 1000000000 1\nR 999999999 C 0\n"
        c, _, peak = traced(lambda: parse_cover(text))
        assert c.rects == (Rectangle((999999999,), (0,)),)
        assert peak < 1 << 20
        out, _, peak = traced(lambda: format_cover(c))
        assert out == text and peak < 1 << 20


class TestRectangleSides:
    """The readers check rectangle sides on their index arrays."""

    ORDER = "indices must be sorted, distinct, 0-based"

    @pytest.mark.parametrize("side", ["2,1", "1,1", "0,3,3", "4,0"])
    @pytest.mark.parametrize("row_side", [True, False])
    def test_order_error_at_its_line(self, side, row_side):
        bad = f"R {side} C 0" if row_side else f"R 0 C {side}"
        text = f"COVER 5 5 3\nR 0 C 1\n{bad}\nR 2 C 3\n"
        assert outcome(parse_cover, text) == (FormatError, 3, f"line 3: {self.ORDER}")
        family = f"FAMILY 5 5 1\n{text}"
        assert outcome(parse_family, family) == (FormatError, 4, f"line 4: {self.ORDER}")

    def test_negative_index_is_not_an_index_list(self):
        # a minus sign never reaches the order check
        assert outcome(parse_cover, "COVER 5 5 1\nR -1 C 0\n") == (
            FormatError, 2, "line 2: bad index list '-1'"
        )

    def test_malformed_column_list_outranks_row_order(self):
        assert outcome(parse_cover, "COVER 5 5 1\nR 2,1 C 0,x\n") == (
            FormatError, 2, "line 2: bad index list '0,x'"
        )

    @pytest.mark.parametrize("rows,cols,message", [
        ([], [0], "row_set must be nonempty"),
        ([0], [], "col_set must be nonempty"),
        ([-1, 2], [0], "row_set must be sorted distinct >= 0"),
        ([0], [-3], "col_set must be sorted distinct >= 0"),
        ([1, 1], [0], "row_set must be sorted distinct >= 0"),
        ([0], [2, 1], "col_set must be sorted distinct >= 0"),
    ])
    def test_arrays_raise_the_constructors_error(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            Rectangle(tuple(rows), tuple(cols))
        with pytest.raises(ValueError, match=message):
            Rectangle(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))

    def test_index_past_int64_overflows(self):
        assert Rectangle((0, 2**63 - 1), (0,)).rows.dtype == np.int64
        for rows, cols in [((0, 2**63), (0,)), ((0,), (2**63,))]:
            with pytest.raises(OverflowError):
                Rectangle(rows, cols)

    @given(nonempty_raws, nonempty_raws)
    def test_arrays_make_the_same_rectangle(self, raw_rows, raw_cols):
        rows, cols = below(raw_rows, 10**15), below(raw_cols, 2000)
        made = Rectangle(np.array(rows), np.array(cols))
        direct = Rectangle(tuple(rows), tuple(cols))
        assert made == direct and hash(made) == hash(direct)
        assert (made.row_set, made.col_set) == (direct.row_set, direct.col_set)
        assert made.row_set == tuple(rows) and made.col_set == tuple(cols)
        # the column mask is made on first use, from the array, and kept
        assert "_col_mask" not in vars(made)
        assert np.array_equal(made._col_mask, oracle_mask(cols))
        assert made._col_mask is vars(made)["_col_mask"]

    def test_parsed_masks_match_computed(self):
        fam = parse_family(format_family(MatrixFamily((
            cover_of(9, 70, [([1, 2], [3, 4, 5]), ([4], [0, 69])]),
        ))))
        for r in fam.decompositions[0].rects:
            assert np.array_equal(r._col_mask, Rectangle(r.row_set, r.col_set)._col_mask)


class TestNarrowSides:
    """Each side is held in the narrowest of uint16, uint32 and int64 that
    holds its last index; no reader, writer or mask wraps at the edges."""

    EDGES = [(2**16 - 1, np.uint16), (2**16, np.uint32),
             (2**32 - 1, np.uint32), (2**32, np.int64)]

    @staticmethod
    def edge_cover(top):
        """A (top + 1)-square cover whose sides end at top or below it."""
        return Cover(top + 1, top + 1, (
            Rectangle((0, 7, top), (1, top)),
            Rectangle((top - 9, top - 1), (0, 5, top - 2)),
            Rectangle((3,), (top,)),
        ))

    @pytest.mark.parametrize("top,dtype", EDGES)
    def test_round_trips_at_the_edges(self, top, dtype):
        c = self.edge_cover(top)
        assert c.rects[0].rows.dtype == dtype and c.rects[2].rows.dtype == np.uint16
        assert not c.rects[0].rows.flags.writeable
        text = format_cover(c)
        assert text == oracle_cover_text(c)
        back = parse_cover(text)
        assert back == c and format_cover(back) == text
        for r in back.rects:
            for side in (r.rows, r.cols):
                assert side.dtype == narrowest(int(side[-1]))
        fam = MatrixFamily((c, c))
        assert format_family(parse_family(format_family(fam))) == oracle_family_text(fam)
        # the range check compares ints, so top is in a cover of top + 1 only
        with pytest.raises(DimensionError, match="out of range"):
            Cover(top, top + 1, c.rects)

    @pytest.mark.parametrize("top,dtype", EDGES[:2])
    def test_masks_and_row_groups_at_the_edges(self, top, dtype):
        # uint16 65535 + 1 would wrap to 0; past these edges a column mask
        # is 512 MiB, too large to build here
        c = self.edge_cover(top)
        for r in c.rects:
            assert np.array_equal(r._col_mask, oracle_mask(r.col_set))
        groups = _row_groups(c)
        g = len(groups[0][1]).bit_length() - 1  # rectangles per group
        assert len(groups) == -(-len(c.rects) // g)
        for k, (code, table) in enumerate(groups):
            group = c.rects[k * g:(k + 1) * g]
            want = np.zeros(top + 1, dtype=np.uint8)
            for bit, r in enumerate(group):
                want[list(r.row_set)] |= 1 << bit
            assert np.array_equal(code, want)
            for x in range(1 << len(group)):
                row = np.zeros((top + 8) // 8, dtype=np.uint8)
                for bit, r in enumerate(group):
                    if x >> bit & 1:
                        mask = oracle_mask(r.col_set)
                        row[:mask.size] |= mask
                assert np.array_equal(table[x], row)

    @pytest.mark.parametrize("make", [
        lambda idx: np.array(idx, dtype=np.uint16),
        lambda idx: np.array(idx, dtype=np.int64),
        list,
    ], ids=["uint16", "int64", "list"])
    def test_equality_and_hash_ignore_dtype(self, make):
        rect = Rectangle((1, 5), (0,))
        other = Rectangle(make((1, 5)), make((0,)))
        assert rect == other and hash(rect) == hash(other)
        assert hash(rect) == hash(((1, 5), (0,)))
        assert rect != Rectangle(make((1, 5)), make((1,)))
        assert rect != Rectangle(make((1,)), make((0,)))
        assert rect != ((1, 5), (0,))
        assert Cover(6, 1, (rect,)) == Cover(6, 1, (other,))

    # each example writes indices of products of 66049 to 160000 rows
    @settings(max_examples=30)
    @given(
        st.integers(257, 400), st.integers(1, 20), st.integers(257, 400), st.integers(1, 20),
        st.lists(st.tuples(rect_sides, rect_sides), min_size=1, max_size=2),
    )
    def test_products_of_narrow_factors(self, ra, ca, rb, cb, members):
        # factor sides below 400 are uint16, and product rows reach past
        # 65535: every product index is i * rb + j in Python ints
        pairs = [(cover_of(ra, ca, m), cover_of(rb, cb, n)) for m, n in members]
        d = KronCoverDescription(
            MatrixFamily(tuple(m for m, _ in pairs)), MatrixFamily(tuple(n for _, n in pairs))
        )
        oracle = Cover(ra * rb, ca * cb, tuple(
            Rectangle(
                tuple(i * rb + j for i in rm.row_set for j in rn.row_set),
                tuple(i * cb + j for i in rm.col_set for j in rn.col_set),
            )
            for m, n in pairs for rm in m.rects for rn in n.rects
        ))
        text = oracle_cover_text(oracle)
        assert tuple(d.iter_rectangles()) == oracle.rects
        assert format_cover(d.to_cover()) == text
        assert b"".join(kron_cover_lines(d)) == text.encode()


# -- streamed readers against a whole-text reader -------------------------------

def reference_lines(text):
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def reference_header(lines, pos, tag, fields):
    head = lines[pos].split() if pos < len(lines) else []
    if len(head) != 1 + len(fields.split()) or head[0] != tag:
        raise FormatError(f"expected '{tag} {fields}'", line=pos + 1)
    if not all(f.isascii() and f.isdigit() for f in head[1:]):
        raise FormatError(
            f"{tag} header fields must be non-negative decimal integers", line=pos + 1
        )
    return [int(f) for f in head[1:]]


def reference_cover_block(lines, pos):
    """Header fields and body lines of the COVER block at line ``pos``."""
    head = reference_header(lines, pos, "COVER", "rows cols s")
    if pos + 1 + head[-1] > len(lines):
        raise FormatError(
            f"expected {head[-1]} lines after the COVER header", line=len(lines) + 1
        )
    return head, lines[pos + 1:pos + 1 + head[-1]]


def reference_end(lines, pos, tag):
    for lineno in range(pos, len(lines)):
        if lines[lineno].strip():
            raise FormatError(f"trailing content after the {tag} block", line=lineno + 1)


def reference_rects(body, first):
    rects = []
    for lineno, line in enumerate(body, first):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "R" or parts[2] != "C":
            raise FormatError("expected 'R i1,i2,... C j1,j2,...'", line=lineno)
        # both lists are read before either side's order is checked; the
        # whole-text reader checked the rows' order before reading columns
        sides = [_parse_index_list(parts[k].encode(), lineno) for k in (1, 3)]
        if any((np.diff(side) <= 0).any() for side in sides):
            raise FormatError("indices must be sorted, distinct, 0-based", line=lineno)
        rects.append(Rectangle(*(tuple(side.tolist()) for side in sides)))
    return tuple(rects)


def reference_parse_cover(text):
    """The whole-text cover reader: every line is split first, then the
    header, the body's line count and the trailing lines are checked before
    any body line, and the cover's index ranges last."""
    lines = reference_lines(text)
    (rows, cols, _), body = reference_cover_block(lines, 0)
    reference_end(lines, 1 + len(body), "COVER")
    return Cover(rows, cols, reference_rects(body, 2))


def reference_parse_family(text):
    """The whole-text family reader: each member's header, line count and
    dimensions before its body lines, the trailing lines after every
    member, and the covers' index ranges last."""
    lines = reference_lines(text)
    rows, cols, s = reference_header(lines, 0, "FAMILY", "rows cols s")
    members, pos = [], 1
    for _ in range(s):
        head, body = reference_cover_block(lines, pos)
        if head[:2] != [rows, cols]:
            raise FormatError("member cover dimensions mismatch family header", line=pos + 1)
        members.append(reference_rects(body, pos + 2))
        pos += 1 + len(body)
    reference_end(lines, pos, "FAMILY")
    return MatrixFamily(tuple(Cover(rows, cols, rects) for rects in members))


def outcome(parse, source):
    """What ``parse`` makes of ``source``: its value, or its error's type,
    line and message."""
    try:
        return parse(source)
    except (FormatError, DimensionError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def chunked(chars):
    """Read files ``chars`` bytes at a time, so lines and CRLF pairs fall
    across the reader's pieces."""
    pieces = boolmat._file_pieces
    return mock.patch.object(boolmat, "_file_pieces", lambda fh, size: pieces(fh, chars))


def normalized(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


newlines = st.sampled_from(["\n", "\r\n", "\r"])
text_chunks = st.sampled_from([1, 7, 64])


class TestStreamedReaders:
    """The file readers take a line at a time from the open file; they must
    agree with the string parsers and with a whole-text reader on valid,
    mutated and truncated text, in CRLF and lone-CR files too."""

    def check_file(self, path, text, newline, chars, read, parse, reference):
        path.write_bytes(text.replace("\n", newline).encode())
        with chunked(chars):
            got = outcome(read, str(path))
        assert got == outcome(parse, normalized(text))
        assert got == outcome(reference, normalized(text))
        assert outcome(parse, text) == outcome(reference, text)
        return got

    @given(covers, rngs, newlines, text_chunks)
    def test_cover(self, tmp_path_factory, c, rng, newline, chars):
        path = tmp_path_factory.getbasetemp() / "streamed.cov"
        write_cover(str(path), c)
        assert read_cover(str(path)) == c
        text = format_cover(c)
        args = (newline, chars, read_cover, parse_cover, reference_parse_cover)
        assert self.check_file(path, text, *args) == c
        for _ in range(4):
            self.check_file(path, mutate(text, rng), *args)

    @given(families(), rngs, newlines, text_chunks)
    def test_family(self, tmp_path_factory, fam, rng, newline, chars):
        path = tmp_path_factory.getbasetemp() / "streamed.fam"
        write_family(str(path), fam)
        assert read_family(str(path)) == fam
        text = format_family(fam)
        args = (newline, chars, read_family, parse_family, reference_parse_family)
        assert self.check_file(path, text, *args) == fam
        for _ in range(4):
            self.check_file(path, mutate(text, rng), *args)

    def test_every_truncation(self, tmp_path):
        rng = random.Random(5)
        fam = MatrixFamily(tuple(
            cover_of(9, 7, [([rng.randrange(99)] * 3, [rng.randrange(99)]) for _ in range(3)])
            for _ in range(3)
        ))
        text = format_family(fam) + "\n \n"
        path = tmp_path / "cut.fam"
        for cut in range(len(text) + 1):
            for newline, chars in (("\r\n", 1), ("\r", 7)):
                args = (newline, chars, read_family, parse_family, reference_parse_family)
                self.check_file(path, text[:cut], *args)
                cover = text[text.index("COVER"):text.index("COVER", 20)][:cut]
                args = (newline, chars, read_cover, parse_cover, reference_parse_cover)
                self.check_file(path, cover, *args)

    @given(index_set_lists, newlines, text_chunks)
    def test_index_sets(self, tmp_path_factory, sets, newline, chars):
        path = tmp_path_factory.getbasetemp() / "streamed.sets"
        path.write_bytes(format_index_sets(sets).replace("\n", newline).encode())
        with chunked(chars):
            assert read_index_sets(str(path)) == sets

    @given(rule_spanoids(), newlines, text_chunks)
    def test_rule_spanoid(self, tmp_path_factory, s, newline, chars):
        path = tmp_path_factory.getbasetemp() / "streamed.sp"
        path.write_bytes(format_rule_spanoid(s).replace("\n", newline).encode())
        with chunked(chars):
            back = read_spanoid(str(path))
        assert (back.universe, back.rules) == (s.universe, s.rules)

    def test_writers_yield_lines(self):
        fam = MatrixFamily((
            cover_of(5, 6, [([1, 2], [3]), ([4], [0, 5])]), cover_of(5, 6, []),
        ))
        lines = list(family_lines(fam))
        assert all(line.endswith(b"\n") and line.count(b"\n") == 1 for line in lines)
        assert b"".join(lines).decode() == format_family(fam) == oracle_family_text(fam)
        c = fam.decompositions[0]
        assert list(cover_lines(c)) == [b"COVER 5 6 2\n", b"R 1,2 C 3\n", b"R 4 C 0,5\n"]

    def test_family_read_peak(self, tmp_path):
        # beyond the family, the reader holds about a line: the file's text
        # buffer, the line, its tokens and their index arrays, measured at
        # 7.6 times the longest line (8.1 with sides held as tuples of ints,
        # and 140 when the file was held whole as bytes, str and lines)
        rng = np.random.default_rng(17)
        n = 3000

        def side():
            return tuple(np.flatnonzero(rng.random(n) < 0.5).tolist())

        fam = MatrixFamily(tuple(
            Cover(n, n, tuple(Rectangle(side(), side()) for _ in range(6)))
            for _ in range(8)
        ))
        path = tmp_path / "f.fam"
        write_family(str(path), fam)
        back, held, peak = traced(lambda: read_family(str(path)))
        assert back == fam
        assert peak - held < 10 * max(map(len, path.read_text().splitlines()))
