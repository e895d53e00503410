"""The workloads: seeded job lists, their input files and answer checks.

Jobs come in four groups (asymptotic, verify, construct, rank).  The
benchmark's two workloads each run two groups in one loop: ``build`` writes
certificates (asymptotic and construct), ``check`` reads and decides them
(verify and rank).  Every group is also a workload of its own, for runs by
hand.  Each job is one ``python -m boolrank ...`` command with the exit code
and output the benchmark expects, derived in gen.py without boolrank.  A
check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

GROUPS = ("asymptotic", "verify", "construct", "rank")
BENCHMARK = {"build": ("asymptotic", "construct"), "check": ("verify", "rank")}
WORKLOADS = {**BENCHMARK, **{group: (group,) for group in GROUPS}}

# sha256 of the inputs that do not depend on the seed; every commit must
# verify these exact bytes.
FIXED_INPUTS = {
    "c6859.mat": "8d0603b9d689877c679289e8ea98fcab4250bb7bebe8e0c8f4d7903047275b9e",
    "a33.fam": "1f1d6265676584f5c466f0b032826346803cd57a1fc4d0f170b46b1baaa16b6c",
    "a6.fam": "a563a44bd0c9e48230989e0ded74ce3c932dd69a69d7660a116fa56b4a278658",
    "k70.mat": "bce319e5970c57f7f5d25a24ffbfa86dc481f0027f0352fe4c6a8152f522b8d7",
    "k70.cov": "016afd437a3511e70cceba3b5ec2ff47dba2d39fb849aead81a8649c08e5b712",
    "c70.mat": "9a70e769866cd59cb0c4e1d0a0e480d19ea2dae610c21e525697104575aed3b6",
    "c400.mat": "5a8c138771c22d77d2a791ea350288d0acca176a4e89885679f58474a2d1b343",
    "r400.fam": "bb96b898352e8689030e725a7968d6a56bb7de06eb5203f0cb7552b027db2472",
}

Check = Callable[[str, str], "str | None"]


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Check
    rc: int = 0
    output: Path | None = None
    group: str = ""


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, str] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expect_stdout(want: str) -> Check:
    def check(out: str, err: str) -> str | None:
        return None if out == want else f"stdout {out[:120]!r} != {want[:120]!r}"
    return check


def expect_file(path: Path, digest: str) -> Check:
    """Empty stdout and stderr, and an output file with this sha256."""
    def check(out: str, err: str) -> str | None:
        if out or err:
            return f"stdout {out[:80]!r} / stderr {err[:80]!r}, want both empty"
        got = sha256(path.read_bytes())
        return None if got == digest else f"{path.name} sha256 {got[:12]} != {digest[:12]}"
    return check


class Inputs:
    """Writes input files into the work directory and records their sha256."""

    def __init__(self, work: Path):
        self.work = work
        self.hashes: dict[str, str] = {}

    def write(self, name: str, data: bytes | str) -> str:
        if isinstance(data, str):
            data = data.encode()
        path = self.work / name
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())  # no writeback of set-up files while jobs are timed
        self.hashes[name] = sha256(data)
        return str(path)

    def verify(self) -> None:
        """Re-read every file from disk and compare with what was written."""
        for name, digest in self.hashes.items():
            got = sha256((self.work / name).read_bytes())
            want = FIXED_INPUTS.get(name) or digest
            if got != digest or got != want:
                raise RuntimeError(f"input {name} has sha256 {got}, expected {want}")


def cli(*args) -> list[str]:
    return [str(a) for a in args]


# -- asymptotic ----------------------------------------------------------------

# Seeded orders come from two narrow bands inside [2000, 6859], where each
# job's cost barely depends on the seed and its peak RSS (about 300 MB) stays
# below the headline job's, so peak_rss_mb is that job's for every seed.
# Higher orders are not used: their peak RSS jumps by about 28 MB between
# nearby orders (308 MB at 3000, 337 MB at 3020; 319 MB at 4438, 347 MB at
# 4475), above the headline job's 313 MB.
ASYM_BANDS = ((2000, 2140), (2160, 2300))


def asymptotic_jobs(work: Path, rng: np.random.Generator) -> Workload:
    """The headline 216 < 256 witness (n = 6859, s = 6) plus two seeded
    smaller orders with s = 5."""
    q = 3
    orders = [(6859, 6)] + [(int(rng.integers(lo, hi + 1)), 5) for lo, hi in ASYM_BANDS]
    jobs = []
    for n, s in orders:
        alg = gen.Algebraic(gen.asymptotic_d(n, q, s), q)
        size = sum(len(m) ** 2 for m in gen.restrict(alg.members()[:s], n))
        bound = s * (2 * alg.d) ** 2
        if size > bound or (n, s) == (6859, 6) and not size < gen.sigma(n) ** 2:
            raise AssertionError(f"size {size} breaks the bound for n={n}, s={s}")
        k = gen.sigma(n) + gen.sigma(n) % 2
        want = (
            f"PARAMS d={alg.d} q={q} p={alg.p} n={n} k={k} s={s} bound={bound} feasible=yes\n"
            f"SIZE {size} VERIFIED\n"
        )
        jobs.append(Job(f"asym-{n}-s{s}", cli("cover", "asymptotic", n, "--q", q, "--s", s),
                        expect_stdout(want)))
    return Workload("asymptotic", jobs)


# -- verify ----------------------------------------------------------------------

KRON_NEG_N = 400


def verify_jobs(work: Path, rng: np.random.Generator) -> Workload:
    """Read-heavy: parse and check the big certificates, plus a negative
    control per verifier whose witness comes from gen.py's brute force."""
    ins = Inputs(work)
    alg = gen.Algebraic(3, 3)
    n = alg.n
    members = alg.members()
    blocks = [gen.cover_text(n, n, m) for m in members]
    c = ins.write("c6859.mat", gen.matrix_text(gen.crown_dense(n)))
    a33 = ins.write("a33.fam", gen.family_text(n, blocks))
    a6 = ins.write("a6.fam", gen.family_text(n, blocks[:6]))
    k70 = ins.write("k70.mat", gen.matrix_text(np.kron(gen.crown_dense(70), gen.crown_dense(70))))
    rects = gen.product_cover(70)
    k70c = ins.write("k70.cov", gen.cover_text(4900, 4900, rects))

    kept, cov_wit = gen.cover_negative(70, rects, rng)
    k70n = ins.write("k70-neg.cov", gen.cover_text(4900, 4900, kept))
    weak, q_wit = gen.qcover_negative(members, n, 3, rng)
    a33n = ins.write("a33-neg.fam", gen.family_text(n, [gen.cover_text(n, n, weak[0]), *blocks[1:]]))
    small = gen.restrict(members[:6], KRON_NEG_N)
    weak_small, k_wit = gen.kron_negative(small, KRON_NEG_N, rng)
    c400 = ins.write("c400.mat", gen.matrix_text(gen.crown_dense(KRON_NEG_N)))
    r400 = ins.write("r400.fam", gen.family_of(KRON_NEG_N, small))
    r400n = ins.write("r400-neg.fam", gen.family_of(KRON_NEG_N, weak_small))
    ins.verify()

    subsets = math.comb(len(members), 3)
    kron_size = sum(len(m) ** 2 for m in members[:6])
    jobs = [
        Job("qcover-c6859", cli("verify", "qcover", c, a33, 3),
            expect_stdout(f"VERIFIED qcover q=3 subsets={subsets} exhaustive=yes\n")),
        Job("kron-c6859-a6", cli("verify", "kron", c, a6, c, a6),
            expect_stdout(f"VERIFIED kron-hypotheses size={kron_size}\n")),
        Job("cover-k70", cli("verify", "cover", k70, k70c),
            expect_stdout(f"VERIFIED cover size={len(rects)}\n")),
        Job("cover-k70-neg", cli("verify", "cover", k70, k70n),
            expect_stdout(f"FAILED entry=({cov_wit[0]},{cov_wit[1]}) reason=uncovered one entry\n"),
            rc=1),
        Job("qcover-c6859-neg", cli("verify", "qcover", c, a33n, 3),
            expect_stdout(f"FAILED subset=({','.join(map(str, q_wit))}) exhaustive=yes\n"),
            rc=1),
        Job("kron-c400-neg", cli("verify", "kron", c400, r400, c400, r400n),
            expect_stdout(f"FAILED entry=({k_wit[0]},{k_wit[1]}) reason=selected n-members "
                          "do not cover the second factor\n"),
            rc=1),
    ]
    return Workload("verify", jobs, ins.hashes)


# -- construct -------------------------------------------------------------------

GAP_PRODUCT = 126 * 126


def gap_check(path: Path, n: int, m: int) -> Check:
    """Gap covers are too large to expand here: check the size line and the
    cover file's shape."""
    size = gen.sigma(n) * gen.sigma(m) - 1

    def check(out: str, err: str) -> str | None:
        if out or err != f"SIZE {size}\n":
            return f"stdout {out[:80]!r} / stderr {err[:80]!r}, want SIZE {size}"
        lines = path.read_text().split("\n")
        if lines[0] != f"COVER {n * m} {n * m} {size}" or len(lines) != size + 2 or lines[-1]:
            return f"{path.name} header {lines[0]!r} with {len(lines) - 2} rectangles"
        if not all(ln.startswith("R ") and " C " in ln for ln in lines[1:-1]):
            return f"{path.name} has a malformed rectangle line"
        return None
    return check


def construct_jobs(work: Path, rng: np.random.Generator) -> Workload:
    """Write-heavy: each job writes a certificate that gen.py also builds.

    The seeded gap pair keeps n * m near 126^2, so its output size and cost
    barely depend on the seed.
    """
    ins = Inputs(work)
    c70 = ins.write("c70.mat", gen.matrix_text(gen.crown_dense(70)))
    ins.verify()
    crown = sha256(gen.matrix_text(gen.crown_dense(6859)))
    k70 = sha256(gen.matrix_text(np.kron(gen.crown_dense(70), gen.crown_dense(70))))
    alg = gen.Algebraic(3, 3)
    a33 = sha256(gen.family_of(alg.n, alg.members()).encode())
    n = int(rng.integers(64, 253))
    m = min(252, round(GAP_PRODUCT / n))
    out = {k: work / f"out-{k}" for k in ("crown", "kron", "alg", "g252", "gnm", "gmn")}
    jobs = [
        Job("crown-6859", cli("crown", 6859, "-o", out["crown"]),
            expect_file(out["crown"], crown), output=out["crown"]),
        Job("kron-c70-c70", cli("kron", c70, c70, "-o", out["kron"]),
            expect_file(out["kron"], k70), output=out["kron"]),
        Job("algebraic-3-3", cli("cover", "algebraic", 3, 3, "-o", out["alg"]),
            expect_file(out["alg"], a33), output=out["alg"]),
        Job("gap-252-252", cli("cover", "gap", 252, 252, "-o", out["g252"]),
            gap_check(out["g252"], 252, 252), output=out["g252"]),
        Job(f"gap-{n}-{m}", cli("cover", "gap", n, m, "-o", out["gnm"]),
            gap_check(out["gnm"], n, m), output=out["gnm"]),
        Job(f"gap-{m}-{n}", cli("cover", "gap", m, n, "-o", out["gmn"]),
            gap_check(out["gmn"], m, n), output=out["gmn"]),
    ]
    return Workload("construct", jobs, ins.hashes)


# -- rank ------------------------------------------------------------------------

def permuted_crown(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows and columns permuted: the rank stays sigma(n), but the matrix is
    no longer literally a crown, so no closed form short-cuts the search."""
    return gen.crown_dense(n)[rng.permutation(n)][:, rng.permutation(n)]


def parse_rects(text: str):
    rects = []
    for line in text.split("\n"):
        if line.startswith("R "):
            _, rows, _, cols = line.split()
            rects.append((np.array(rows.split(","), dtype=int), np.array(cols.split(","), dtype=int)))
    return rects


def rank_check(a: np.ndarray) -> Check:
    n = a.shape[0]
    k = gen.sigma(n)

    def check(out: str, err: str) -> str | None:
        lines = out.split("\n")
        if lines[0] != f"COVER {n} {n} {k}" or lines[-3:] != [
            f"LOWER kind=search value={k}", f"RANK {k}", ""
        ]:
            return f"rank certificate {out[:60]!r}...{out[-40:]!r}, want rank {k}"
        if not np.array_equal(gen.rect_union(n, n, parse_rects(out)), a.astype(bool)):
            return "COVER rectangles do not cover the matrix exactly"
        return None
    return check


def isolation_check(a: np.ndarray) -> Check:
    def check(out: str, err: str) -> str | None:
        head, _, wit = out.rstrip("\n").partition(" witness=")
        entries = [tuple(map(int, e.strip("()").split(","))) for e in wit.split("),(")]
        if (head != f"ISOLATION value={gen.CROWN_ISOLATION}"
                or len(entries) != gen.CROWN_ISOLATION or not gen.isolated_set(a, entries)):
            return f"isolation {out!r}, want value {gen.CROWN_ISOLATION} with an isolated witness"
        return None
    return check


def mu_check(a: np.ndarray) -> Check:
    n = a.shape[0]
    h = (n + 1) // 2

    def check(out: str, err: str) -> str | None:
        want = f"MU value={gen.crown_mu(n)} ones={n * (n - 1)} maxrect={h * (n - h)} R "
        rects = parse_rects(out.replace(" R ", "\nR "))
        if not out.startswith(want) or len(rects) != 1:
            return f"mu {out!r}, want prefix {want!r}"
        rows, cols = rects[0]
        if rows.size * cols.size != h * (n - h) or not a[np.ix_(rows, cols)].all():
            return "mu witness is not an all-ones rectangle of the maximum area"
        return None
    return check


def rank_jobs(work: Path, rng: np.random.Generator) -> Workload:
    """Exact rank by branch and bound on crowns 6-8, and the lower bounds."""
    ins = Inputs(work)
    mats = {}
    for label, n in (("r6", 6), ("r7", 7), ("r8", 8), ("b4", 4), ("b5", 5), ("i7", 7), ("m8", 8)):
        mats[label] = permuted_crown(n, rng)
        ins.write(f"{label}.mat", gen.matrix_text(mats[label]))
    ins.write("sp4.txt", "MATSPANOID b4.mat\n")
    ins.verify()
    path = {name: str(work / name) for name in ins.hashes}
    s4, s5 = gen.sigma(4), gen.sigma(5)
    lower = math.ceil(max(gen.crown_mu(4) * s5, gen.crown_mu(5) * s4))
    jobs = [Job(f"rank-exact-{n}", cli("rank", "exact", path[f"r{n}.mat"]), rank_check(mats[f"r{n}"]))
            for n in (6, 7, 8)]
    jobs += [
        Job("bound-lower-4-5", cli("bound", "lower", path["b4.mat"], path["b5.mat"]),
            expect_stdout(f"LOWER kind=mu value={lower}\n"
                          f"LOWER kind=isolation value={gen.CROWN_ISOLATION * max(s4, s5)}\n")),
        Job("isolation-7", cli("isolation", path["i7.mat"]), isolation_check(mats["i7"])),
        Job("mu-8", cli("mu", path["m8.mat"]), mu_check(mats["m8"])),
        Job("spanoid-rank-4", cli("spanoid", "rank", path["sp4.txt"]), spanoid_check(s4)),
    ]
    return Workload("rank", jobs, ins.hashes)


def spanoid_check(k: int) -> Check:
    def check(out: str, err: str) -> str | None:
        head, _, wit = out.rstrip("\n").partition(" witness=")
        if head != f"RANK value={k}" or len(wit.split(",")) != k:
            return f"spanoid rank {out!r}, want value {k}"
        return None
    return check


BUILDERS = {
    "asymptotic": asymptotic_jobs,
    "verify": verify_jobs,
    "construct": construct_jobs,
    "rank": rank_jobs,
}


def build(name: str, work: Path, seed: int) -> Workload:
    """The workload's groups, each in its own subdirectory of ``work`` and
    with its own generator, so a group's jobs and inputs for a seed do not
    depend on the workload that runs it.

    The groups' job lists are interleaved in proportion to their lengths, so
    within a round the short jobs of one group are spread between the long
    jobs of the other rather than run back to back: a few seconds in which
    the machine runs slow then touch fewer of them.
    """
    ranked, inputs = [], {}
    for group in WORKLOADS[name]:
        (work / group).mkdir(parents=True)
        rng = np.random.default_rng([seed, GROUPS.index(group)])
        part = BUILDERS[group](work / group, rng)
        for i, job in enumerate(part.jobs):
            job.group = group
            ranked.append(((i + 0.5) / len(part.jobs), job))
        inputs.update({f"{group}/{file}": digest for file, digest in part.inputs.items()})
    ranked.sort(key=lambda pair: pair[0])
    return Workload(name, [job for _, job in ranked], inputs)
