import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import boolrank
from boolrank import boolmat, bounds, cover, spanoid
from boolrank.boolmat import parse_matrix, read_matrix, write_matrix
from boolrank.cli import COMMANDS, GROUP_HELP, main
from boolrank.cover import parse_cover, parse_family, read_cover, write_family
from boolrank.crown import c4_triple, crown_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "sigma", "35")
        assert code == 0 and out == "7\n"

    def test_crown_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "c5.mat")
        code, _, _ = run(capsys, "crown", "5", "-o", path)
        assert code == 0
        assert read_matrix(path) == crown_matrix(5)

    def test_crown_stdout(self, capsys):
        code, out, _ = run(capsys, "crown", "3")
        assert code == 0
        assert parse_matrix(out) == crown_matrix(3)

    def test_kron(self, capsys, tmp_path):
        a = str(tmp_path / "a.mat")
        write_matrix(a, crown_matrix(2))
        code, out, _ = run(capsys, "kron", a, a)
        assert code == 0
        got = parse_matrix(out)
        assert got.rows == 4 and got.count_ones() == 4

    def test_unknown_input_file(self, capsys):
        code, _, err = run(capsys, "sigma", "0")
        assert code == 2
        code, _, err = run(capsys, "mu", "/nonexistent/х.mat")
        assert code == 2


class TestCoverCommands:
    def test_canonical_and_verify(self, capsys, tmp_path):
        mat = str(tmp_path / "c6.mat")
        cov = str(tmp_path / "c6.cov")
        assert run(capsys, "crown", "6", "-o", mat)[0] == 0
        assert run(capsys, "cover", "canonical", "6", "-o", cov)[0] == 0
        code, out, _ = run(capsys, "verify", "cover", mat, cov)
        assert code == 0
        assert out == "VERIFIED cover size=4\n"

    def test_verify_cover_failure_exit_1(self, capsys, tmp_path):
        mat = str(tmp_path / "c3.mat")
        cov = str(tmp_path / "bad.cov")
        write_matrix(mat, crown_matrix(3))
        with open(cov, "w") as fh:
            fh.write("COVER 3 3 1\nR 0 C 0,1\n")
        code, out, _ = run(capsys, "verify", "cover", mat, cov)
        assert code == 1
        assert out.startswith("FAILED entry=(0,0)")

    def test_triple_and_gap(self, capsys, tmp_path):
        fam = str(tmp_path / "t5.fam")
        assert run(capsys, "cover", "triple", "5", "1", "-o", fam)[0] == 0
        with open(fam) as fh:
            parsed = parse_family(fh.read())
        assert parsed.ranks() == (1, 4, 4)

        gap = str(tmp_path / "g.cov")
        code, _, err = run(capsys, "cover", "gap", "7", "7", "-o", gap)
        assert code == 0 and "SIZE 24" in err
        assert read_cover(gap).size == 24

    def test_gap_unsupported_pair_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "cover", "gap", "5", "5")
        assert code == 2 and "invalid input" in err
        path = tmp_path / "g.cov"
        code, out, err = run(capsys, "cover", "gap", "5", "5", "-o", str(path))
        assert code == 2 and out == "" and "invalid input" in err
        assert not path.exists()

    def test_gap_peak_memory_below_file_size(self, capsys, tmp_path):
        # the cover is written a line at a time, never held whole
        path = tmp_path / "g.cov"
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "cover", "gap", "252", "252", "-o", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "SIZE 99\n"
        assert peak < path.stat().st_size

    def test_c4_c5_commands(self, capsys):
        code, out, _ = run(capsys, "cover", "c4")
        assert code == 0 and parse_family(out).ranks() == (2, 2, 2)
        code, out, _ = run(capsys, "cover", "c5")
        assert code == 0 and parse_family(out).ranks() == (2, 2, 3)

    def test_algebraic_family_file(self, capsys, tmp_path):
        fam = str(tmp_path / "alg.fam")
        assert run(capsys, "cover", "algebraic", "2", "2", "-o", fam)[0] == 0
        with open(fam) as fh:
            parsed = parse_family(fh.read())
        assert len(parsed) == 4 and parsed.dims == (25, 25)

    def test_asymptotic_report(self, capsys):
        code, out, err = run(capsys, "cover", "asymptotic", "81")
        assert code == 0
        assert out.splitlines()[0] == "PARAMS d=2 q=4 p=5 n=81 k=10 s=8 bound=128 feasible=no"
        assert "infeasible" in err

    def test_asymptotic_generalized(self, capsys):
        code, out, _ = run(capsys, "cover", "asymptotic", "25", "--q", "2", "--s", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("feasible=yes")
        assert lines[1].startswith("SIZE ") and lines[1].endswith("VERIFIED")

    def test_asymptotic_generalized_above_limit_reports(self, capsys, monkeypatch):
        # the 25 x 25 family matrices have 625 entries
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "100")
        code, out, err = run(capsys, "cover", "asymptotic", "25", "--q", "2", "--s", "3")
        assert code == 0
        assert out == "PARAMS d=2 q=2 p=5 n=25 k=8 s=3 bound=48 feasible=no\n"
        assert "materialization limit" in err

    @pytest.mark.parametrize("limit, expect", [
        ("500", "PARAMS d=2 q=2 p=5 n=20 k=6 s=3 bound=48 feasible=yes\nSIZE 48 VERIFIED\n"),
        ("399", "PARAMS d=2 q=2 p=5 n=20 k=6 s=3 bound=48 feasible=no\n"),
    ], ids=["fits", "over"])
    def test_asymptotic_limit_reads_order_n(self, capsys, monkeypatch, limit, expect):
        # 20^2 = 400 entries per member, below the order-25 family's 625
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", limit)
        code, out, _ = run(capsys, "cover", "asymptotic", "20", "--q", "2", "--s", "3")
        assert (code, out) == (0, expect)


class TestVerifyKronAndQcover:
    def test_verify_kron(self, capsys, tmp_path):
        mat = str(tmp_path / "c4.mat")
        fam = str(tmp_path / "c4.fam")
        write_matrix(mat, crown_matrix(4))
        assert run(capsys, "cover", "c4", "-o", fam)[0] == 0
        code, out, _ = run(capsys, "verify", "kron", mat, fam, mat, fam)
        assert code == 0 and out == "VERIFIED kron-hypotheses size=12\n"

    def test_verify_qcover(self, capsys, tmp_path):
        mat = str(tmp_path / "c25.mat")
        fam = str(tmp_path / "alg.fam")
        write_matrix(mat, crown_matrix(25))
        assert run(capsys, "cover", "algebraic", "2", "2", "-o", fam)[0] == 0
        code, out, _ = run(capsys, "verify", "qcover", mat, fam, "2")
        assert code == 0
        assert out == "VERIFIED qcover q=2 subsets=6 exhaustive=yes\n"

    def test_verify_qcover_failure(self, capsys, tmp_path):
        mat = str(tmp_path / "c25.mat")
        fam = str(tmp_path / "alg.fam")
        write_matrix(mat, crown_matrix(25))
        assert run(capsys, "cover", "algebraic", "2", "2", "-o", fam)[0] == 0
        code, out, _ = run(capsys, "verify", "qcover", mat, fam, "1")
        assert code == 1 and out.startswith("FAILED subset=")

    def test_verify_qcover_non_dominated_member(self, capsys, tmp_path):
        # members 0 and 1 already sum to the matrix; member 2 covers a 0 of it
        mat = str(tmp_path / "c2.mat")
        fam = tmp_path / "aax.fam"
        write_matrix(mat, crown_matrix(2))
        anti = "COVER 2 2 2\nR 0 C 1\nR 1 C 0\n"
        fam.write_text("FAMILY 2 2 3\n" + anti + anti + "COVER 2 2 2\nR 0 C 0,1\nR 1 C 0\n")
        code, out, _ = run(capsys, "verify", "qcover", mat, str(fam), "2")
        assert code == 1 and out == "FAILED subset=(0,2) exhaustive=yes\n"

    def test_family_header_checked_before_members_are_built(
        self, capsys, tmp_path, monkeypatch
    ):
        # a family whose header differs from the target is rejected before
        # any member is built, so its header cannot force an allocation
        def no_member(c):
            raise AssertionError("a family member was built")

        monkeypatch.setattr("boolrank.cover.cover_matrix", no_member)
        mat = str(tmp_path / "c2.mat")
        fam = tmp_path / "c3.fam"
        write_matrix(mat, crown_matrix(2))
        fam.write_text("FAMILY 3 3 1\nCOVER 3 3 0\n")
        code, out, err = run(capsys, "verify", "qcover", mat, str(fam), "1")
        assert code == 2 and out == ""
        assert "family dimensions do not match" in err
        code, out, err = run(capsys, "verify", "kron", mat, str(fam), mat, str(fam))
        assert code == 2 and out == ""
        assert "m-family dimensions do not match" in err


class TestRankAndBounds:
    def test_rank_exact(self, capsys, tmp_path):
        mat = str(tmp_path / "c4.mat")
        write_matrix(mat, crown_matrix(4))
        code, out, _ = run(capsys, "rank", "exact", mat)
        assert code == 0
        assert "LOWER kind=search value=4" in out
        assert out.endswith("RANK 4\n")
        cover_text = out[: out.index("LOWER")]
        assert parse_cover(cover_text).size == 4

    def test_rank_exact_with_limit(self, capsys, tmp_path):
        mat = str(tmp_path / "c6.mat")
        write_matrix(mat, crown_matrix(6))
        code, out, _ = run(capsys, "rank", "exact", mat, "--limit", "3")
        assert code == 0 and out.endswith("RANK >= 3\n")

    def test_bound_lower(self, capsys, tmp_path):
        mat = str(tmp_path / "c4.mat")
        write_matrix(mat, crown_matrix(4))
        code, out, _ = run(capsys, "bound", "lower", mat, mat)
        assert code == 0
        assert out == "LOWER kind=mu value=12\nLOWER kind=isolation value=12\n"

    def test_isolation_and_mu(self, capsys, tmp_path):
        mat = str(tmp_path / "c5.mat")
        write_matrix(mat, crown_matrix(5))
        code, out, _ = run(capsys, "isolation", mat)
        assert code == 0 and out.startswith("ISOLATION value=3")
        code, out, _ = run(capsys, "mu", mat)
        assert code == 0 and out.startswith("MU value=10/3 ones=20 maxrect=6")


class TestIsolationBudget:
    """The out-of-budget isolation paths, reached with a 3-node search."""

    @pytest.fixture
    def c6(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bounds, "isolation_number", partial(bounds.isolation_number, node_budget=3)
        )
        mat = str(tmp_path / "c6.mat")
        write_matrix(mat, crown_matrix(6))
        return mat

    def test_isolation_prints_lower_bound(self, capsys, c6):
        code, out, _ = run(capsys, "isolation", c6)
        assert code == 0 and out == "ISOLATION lower-bound=2 witness=(0,1),(1,0)\n"

    def test_bound_lower_exit_3(self, capsys, c6):
        code, out, err = run(capsys, "bound", "lower", c6, c6)
        assert code == 3 and out == "" and "isolation search exceeded" in err


class TestRankBudget:
    def test_rank_exact_exit_3_says_what_was_proved(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bounds, "exact_boolean_rank", partial(bounds.exact_boolean_rank, node_budget=10)
        )
        mat = str(tmp_path / "c8.mat")
        write_matrix(mat, crown_matrix(8))
        code, out, err = run(capsys, "rank", "exact", mat)
        assert code == 3 and out == ""
        assert err == (
            "budget exceeded: rank search exceeded 10 nodes; proved rank >= 4;"
            " greedy cover has 6 rectangles\n"
        )


class TestSpanoidCommands:
    def test_matspanoid_trailing_content_exit_2(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        f = tmp_path / "sp.txt"
        f.write_text("MATSPANOID c2.mat\nS: 0 -> 1\n")
        code, out, err = run(capsys, "spanoid", "rank", str(f))
        assert code == 2 and out == ""
        assert "line 2: trailing content after the MATSPANOID block" in err

    def test_spanoid_rank_rule_file(self, capsys, tmp_path):
        f = tmp_path / "sp.txt"
        f.write_text("SPANOID 3 2\nS: 0 -> 1\nS: 1 -> 2\n")
        code, out, _ = run(capsys, "spanoid", "rank", str(f))
        assert code == 0 and out == "RANK value=1 witness=0\n"

    def test_spanoid_rank_refuses_unreachable_elements_at_once(
        self, capsys, tmp_path, monkeypatch
    ):
        # 30 elements no rule infers: no spanning set has at most 6 of them
        def refuse(self, t):
            raise AssertionError("the search enumerated a subset")
        monkeypatch.setattr(spanoid.RuleSpanoid, "spans_all", refuse)
        f = tmp_path / "sp.txt"
        f.write_text("SPANOID 30 0\n")
        code, out, err = run(capsys, "spanoid", "rank", str(f))
        assert code == 3 and out == "" and "budget exceeded" in err

    def test_spanoid_product_rank(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        f = tmp_path / "sp.txt"
        f.write_text("MATSPANOID c2.mat\n")
        code, out, _ = run(capsys, "spanoid", "product-rank", str(f), str(f))
        assert code == 0 and out == "RANK value=4 witness=0,1,2,3\n"

    def test_spanoid_bound(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        sp = tmp_path / "sp.txt"
        sp.write_text("MATSPANOID c2.mat\n")
        msets = tmp_path / "m.sets"
        msets.write_text("SETS 2\n0\n1\n")
        nsets = tmp_path / "n.sets"
        nsets.write_text("SETS 2\n0,1\n0,1\n")
        code, out, _ = run(capsys, "spanoid", "bound", str(sp), str(sp), str(msets), str(nsets))
        assert code == 0 and out == "BOUND value=4\n"

    def test_spanoid_bound_failure(self, capsys, tmp_path):
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        sp = tmp_path / "sp.txt"
        sp.write_text("MATSPANOID c2.mat\n")
        msets = tmp_path / "m.sets"
        msets.write_text("SETS 1\n0\n")
        nsets = tmp_path / "n.sets"
        nsets.write_text("SETS 1\n0,1\n")
        code, out, _ = run(capsys, "spanoid", "bound", str(sp), str(sp), str(msets), str(nsets))
        assert code == 1 and out == "FAILED witness=1\n"


class TestPathGivenTwice:
    """A path given twice is read once; a copy under another name is read
    again, and the output is the same."""

    READERS = ((boolmat, "read_matrix"), (cover, "read_family"),
               (spanoid, "read_spanoid"), (spanoid, "read_index_sets"))

    @pytest.fixture
    def reads(self, monkeypatch):
        """The paths passed to the four readers, in call order."""
        log = []
        for module, name in self.READERS:
            def reading(path, real=getattr(module, name)):
                log.append(path)
                return real(path)
            monkeypatch.setattr(module, name, reading)
        return log

    @pytest.fixture
    def files(self, tmp_path):
        write_matrix(str(tmp_path / "c4.mat"), crown_matrix(4))
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        write_family(str(tmp_path / "c4.fam"), c4_triple())
        (tmp_path / "sp.txt").write_text("MATSPANOID c2.mat\n")
        (tmp_path / "m.sets").write_text("SETS 2\n0,1\n0,1\n")
        for name in ("c4.mat", "c4.fam", "sp.txt", "m.sets"):
            shutil.copy(tmp_path / name, tmp_path / f"copy-{name}")
        return tmp_path

    @pytest.mark.parametrize("words", [
        "kron c4.mat c4.mat",
        "verify kron c4.mat c4.fam c4.mat c4.fam",
        "bound lower c4.mat c4.mat",
        "spanoid product-rank sp.txt sp.txt",
        "spanoid bound sp.txt sp.txt m.sets m.sets",
    ])
    def test_read_once(self, capsys, files, reads, words):
        names = [w for w in words.split() if "." in w]
        argv = [str(files / w) if "." in w else w for w in words.split()]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert reads == [str(files / w) for w in dict.fromkeys(names)]

        reads.clear()
        seen = set()
        copies = []
        for w in words.split():
            if w in seen:
                w = f"copy-{w}"
            seen.add(w)
            copies.append(str(files / w) if "." in w else w)
        assert run(capsys, *copies)[:2] == (code, out)
        assert sorted(reads) == sorted(c for c in copies if "." in c)
        assert len(reads) == len(names)


class TestExitCodes:
    def test_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "100")
        mat = str(tmp_path / "c4.mat")
        write_matrix(mat, crown_matrix(4))
        code, _, err = run(capsys, "kron", mat, mat)
        assert code == 3 and "budget exceeded" in err

    def test_kron_above_limit_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # the product is refused before the streamed text opens the file
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "100")
        mat, path = str(tmp_path / "c4.mat"), tmp_path / "k.mat"
        write_matrix(mat, crown_matrix(4))
        code, out, err = run(capsys, "kron", mat, mat, "-o", str(path))
        assert code == 3 and out == "" and "budget exceeded" in err
        assert not path.exists()

    def test_crown_above_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        # the limit is checked before the crown is allocated or written
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "15")
        path = tmp_path / "c4.mat"
        code, out, err = run(capsys, "crown", "4", "-o", str(path))
        assert code == 3 and out == "" and "budget exceeded" in err
        assert not path.exists()
        code, out, _ = run(capsys, "crown", "3")
        assert code == 0 and parse_matrix(out) == crown_matrix(3)

    @pytest.mark.parametrize("value", ["abc", "-5", "1e9", "+7", " 7"])
    def test_bad_max_entries_exit_2(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", value)
        mat = str(tmp_path / "c4.mat")
        write_matrix(mat, crown_matrix(4))
        code, out, err = run(capsys, "kron", mat, mat)
        assert code == 2 and out == ""
        assert "invalid input: BOOLRANK_MAX_ENTRIES must be a non-negative" in err

    def test_negative_rank_limit_exit_2(self, capsys, tmp_path):
        mat = str(tmp_path / "c3.mat")
        write_matrix(mat, crown_matrix(3))
        code, out, err = run(capsys, "rank", "exact", mat, "--limit", "-5")
        assert code == 2 and out == ""
        assert "invalid input: limit must be non-negative, got -5" in err

    def test_zero_rank_limit_exit_2(self, capsys, tmp_path):
        mat = str(tmp_path / "c3.mat")
        write_matrix(mat, crown_matrix(3))
        code, out, err = run(capsys, "rank", "exact", mat, "--limit", "0")
        assert code == 2 and out == ""
        assert "invalid input: limit 0 proves no lower bound" in err

    def test_bad_format_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("not a matrix\n")
        code, _, err = run(capsys, "mu", str(bad))
        assert code == 2 and "invalid input" in err


class TestOptimizedInterpreter:
    """Verifiers still fail under ``python -O``, which strips asserts."""

    INPUTS = {
        "c2.mat": "2 2\n01\n10\n",
        "half.cov": "COVER 2 2 1\nR 0 C 1\n",
        # entry (0,1) of c2 lies only in member 0, so n-member 0 alone must cover c2
        "xy.fam": "FAMILY 2 2 2\nCOVER 2 2 1\nR 0 C 1\nCOVER 2 2 1\nR 1 C 0\n",
        "yx.fam": "FAMILY 2 2 2\nCOVER 2 2 1\nR 1 C 0\nCOVER 2 2 1\nR 0 C 1\n",
        # the family (A, A, X): A sums to c2 and X covers a 0 of it
        "aax.fam": "FAMILY 2 2 3\n" + "COVER 2 2 2\nR 0 C 1\nR 1 C 0\n" * 2
        + "COVER 2 2 2\nR 0 C 0,1\nR 1 C 0\n",
    }

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["cover", "c2.mat", "half.cov"], "FAILED entry=(1,0) reason=uncovered one entry"),
            (
                ["kron", "c2.mat", "xy.fam", "c2.mat", "yx.fam"],
                "FAILED entry=(0,1) reason=selected n-members do not cover the second factor",
            ),
            (["qcover", "c2.mat", "aax.fam", "2"], "FAILED subset=(0,2) exhaustive=yes"),
        ],
    )
    def test_negative_controls_fail(self, tmp_path, argv, line):
        for name, text in self.INPUTS.items():
            (tmp_path / name).write_text(text)
        src = str(Path(boolrank.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "boolrank", "verify", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, line + "\n")


def positionals(spec):
    """(name, is_int) of each positional argument in a command's spec."""
    return [(s.partition(":")[0], s.endswith(":int")) for s in spec if not s.startswith("-")]


def commands_where(keep):
    return [words for words, (_, spec, _) in COMMANDS.items() if keep(spec)]


class TestExitCodeContract:
    """Exit codes of every registered command: a new command joins each test
    whose condition its argument spec meets."""

    # valid values of the int positionals of the writers
    SAMPLE = {"n": "7", "m": "7", "k": "5", "r": "1", "d": "2", "q": "2"}

    @pytest.mark.parametrize(
        "words", commands_where(lambda spec: any(not i for _, i in positionals(spec)))
    )
    def test_missing_file_exit_2(self, capsys, tmp_path, words):
        spec = COMMANDS[words][1]
        missing = str(tmp_path / "missing")
        argv = [*words.split(), *("1" if i else missing for _, i in positionals(spec))]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("invalid input:")

    @pytest.mark.parametrize(
        "words",
        commands_where(lambda spec: positionals(spec) and all(i for _, i in positionals(spec))),
    )
    def test_zero_int_exit_2(self, capsys, words):
        argv = [*words.split(), *("0" for _ in positionals(COMMANDS[words][1]))]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("invalid input:")

    @pytest.mark.parametrize("words", commands_where(lambda spec: "-o" in spec))
    def test_unwritable_output_exit_2(self, capsys, tmp_path, words):
        mat = str(tmp_path / "c2.mat")
        write_matrix(mat, crown_matrix(2))
        target = str(tmp_path / "no-such-dir" / "x")
        args = (self.SAMPLE[name] if i else mat for name, i in positionals(COMMANDS[words][1]))
        code, out, err = run(capsys, *words.split(), *args, "-o", target)
        assert (code, out) == (2, "") and "invalid input:" in err and target in err

    # no command, an unknown one, a group without its command, and every
    # command given one positional too many
    USAGE_ERRORS = [[], ["no-such-command"], *([group] for group in GROUP_HELP)] + [
        [*words.split(), *("1" for _ in positionals(spec)), "extra"]
        for words, (_, spec, _) in COMMANDS.items()
    ]

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "none")
    def test_usage_error_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    # both parameter paths refuse n < 2 (0 alone is in test_zero_int_exit_2)
    @pytest.mark.parametrize(
        "argv", [["1"], ["0", "--q", "2", "--s", "3"], ["1", "--q", "2", "--s", "3"]], ids=" ".join
    )
    def test_asymptotic_below_two_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "cover", "asymptotic", *argv)
        assert (code, out) == (2, "") and err.startswith("invalid input:")

    # only r = 1 is built, and the bijection behind it needs k >= 5
    @pytest.mark.parametrize("argv", [["7", "2"], ["4", "1"]], ids=" ".join)
    def test_triple_outside_construction_exit_2(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "cover", "triple", *argv, "-o", str(out))
        assert (code, stdout) == (2, "") and err.startswith("invalid input:")
        assert "Traceback" not in err and not out.exists()

    # sigma = 14: an even level deep enough that a recursive search for g
    # would overflow the interpreter's stack
    @pytest.mark.parametrize(
        "argv, err",
        [(["cover", "triple", "14", "1"], ""), (["cover", "gap", "1717", "7"], "SIZE 69\n")],
    )
    def test_deep_level_exit_0(self, capsys, tmp_path, argv, err):
        out = tmp_path / "out"
        assert run(capsys, *argv, "-o", str(out)) == (0, "", err)
        assert out.stat().st_size > 0

    # the expanded text of cover gap 7 7 holds 608 indices; the limit refuses
    # it before the hypotheses are checked or the file is opened
    def test_gap_text_above_limit_exit_3(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "g.cov"
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "607")
        code, stdout, err = run(capsys, "cover", "gap", "7", "7", "-o", str(out))
        assert (code, stdout) == (3, "")
        assert err == "budget exceeded: gap cover text has 608 entries, limit is 607\n"
        assert not out.exists()
        monkeypatch.setenv("BOOLRANK_MAX_ENTRIES", "608")
        assert run(capsys, "cover", "gap", "7", "7", "-o", str(out)) == (0, "", "SIZE 24\n")
        assert out.stat().st_size > 0


class TestHelpText:
    """Help text is pinned at 80 columns by sha256 (Python 3.11's argparse)."""

    @pytest.mark.parametrize("group, digest", [
        ("", "d086792d8f9008b98f9248ef005fa72d01e94fe677468d7b25a578fdd9eeffe6"),
        ("cover", "09cced5a6aac9f2941fb8af18f03f4438e8d41842960c90ba5ac315ea5b75a27"),
        ("verify", "d04ea67685d5de79a93fcf09fdf6dade17b216cd7e8e402a163d5177186b1c07"),
        ("rank", "455190525292fff9d909a5fb0bbfab8dab240786f7cf800a7ba19a25a5697ee4"),
        ("bound", "922a1fa3e189cc07cf73e04421774641a42ac6b74c45cb8df01e7076f9995573"),
        ("spanoid", "bd520e4351d291636bbdbf09dc14c3b505d84854c0b7658448aa89cded0a2ba4"),
    ])
    def test_group_help(self, capsys, monkeypatch, group, digest):
        assert self.help_digest(capsys, monkeypatch, [group.split()]) == digest

    def test_every_command_help(self, capsys, monkeypatch):
        argvs = [words.split() for words in COMMANDS]
        digest = "3b0694a1f6f99687f00d844b6409e6d1b3d36d9f51dba8b2801f1322d587a1aa"
        assert self.help_digest(capsys, monkeypatch, argvs) == digest

    @staticmethod
    def help_digest(capsys, monkeypatch, argvs):
        """sha256 of the ``--help`` text of each argv in turn."""
        monkeypatch.setenv("COLUMNS", "80")
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
