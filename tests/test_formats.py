"""Property tests of the text formats other than the matrix format.

Every formatter's output parses back to the same object, and mutated valid
text either parses or raises ``FormatError`` or ``DimensionError``, the two
types the CLI turns into exit 2.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from boolrank.cover import (
    Cover,
    MatrixFamily,
    Rectangle,
    format_cover,
    format_family,
    parse_cover,
    parse_family,
)
from boolrank.crown import SubsetFamily, format_subset_family, parse_subset_family
from boolrank.errors import DimensionError, FormatError
from boolrank.spanoid import (
    RuleSpanoid,
    format_rule_spanoid,
    parse_index_sets,
    parse_spanoid,
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
def subset_families(draw):
    k = draw(st.integers(0, 10))
    ell = draw(st.integers(0, k))
    # each set is the ell elements of [k] with the smallest keys
    keys = draw(st.lists(st.lists(st.integers(0, 99), min_size=10, max_size=10), max_size=6))
    sets = (tuple(sorted(sorted(range(1, k + 1), key=lambda e: w[e - 1])[:ell])) for w in keys)
    return SubsetFamily(k, ell, tuple(dict.fromkeys(sets)))


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

    @given(subset_families(), rngs)
    def test_subset_family(self, f, rng):
        assert_round_trip(parse_subset_family, format_subset_family(f), f, rng)

    @given(rule_spanoids(), rngs)
    def test_rule_spanoid(self, s, rng):
        def parse(text):
            back = parse_spanoid(text)
            return back.universe, back.rules

        assert_round_trip(parse, format_rule_spanoid(s), (s.universe, s.rules), rng)

    @given(index_set_lists, rngs)
    def test_index_sets(self, sets, rng):
        assert_round_trip(parse_index_sets, format_index_sets(sets), sets, rng)
