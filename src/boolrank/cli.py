"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failed (witness printed on
stdout), 2 invalid input or parameters, 3 budget or materialization limit
exceeded.  Certificates go to stdout, diagnostics to stderr.  The
materialization limit can be overridden with the BOOLRANK_MAX_ENTRIES
environment variable (a non-negative decimal integer).
"""

from __future__ import annotations

import argparse
import sys

from . import algebraic, boolmat, bounds, cover, crown, spanoid
from .boolmat import _format_index_list, _write_file
from .cover import _format_rectangle
from .errors import (
    BudgetExceededError,
    MaterializationLimitError,
    VerificationError,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _entry_str(witness) -> str:
    if witness is None:
        return "none"
    if isinstance(witness, tuple):
        return f"({_format_index_list(witness)})"
    return str(witness)


def _cmd_sigma(args) -> int:
    print(crown.sigma(args.n))
    return EXIT_OK


def _cmd_crown(args) -> int:
    entries, limit = args.n * args.n, boolmat.max_entries_limit()
    if args.n > 0 and entries > limit:
        raise MaterializationLimitError(
            f"crown matrix has {entries} entries, limit is {limit}"
        )
    _write_or_print(boolmat.format_matrix(crown.crown_matrix(args.n)), args.output)
    return EXIT_OK


def _cmd_kron(args) -> int:
    a = boolmat.read_matrix(args.a)
    b = boolmat.read_matrix(args.b)
    _write_or_print(boolmat.format_matrix(boolmat.kronecker(a, b)), args.output)
    return EXIT_OK


def _cmd_cover_canonical(args) -> int:
    fam = crown.canonical_family(crown.sigma(args.n), args.n)
    _write_or_print(cover.format_cover(crown.family_cover(fam)), args.output)
    return EXIT_OK


def _cmd_cover_triple(args) -> int:
    fam = crown.triple_cover(args.k, args.r)
    _write_or_print(cover.format_family(fam), args.output)
    return EXIT_OK


def _cmd_cover_c4(args) -> int:
    _write_or_print(cover.format_family(crown.c4_triple()), args.output)
    return EXIT_OK


def _cmd_cover_c5(args) -> int:
    _write_or_print(cover.format_family(crown.c5_triple()), args.output)
    return EXIT_OK


def _cmd_cover_gap(args) -> int:
    c = crown.gap_cover(args.n, args.m)
    _write_or_print(cover.format_cover(c), args.output)
    print(f"SIZE {c.size}", file=sys.stderr)
    return EXIT_OK


def _cmd_cover_algebraic(args) -> int:
    _, fam = algebraic.algebraic_family(args.d, args.q)
    _write_or_print(cover.format_family(fam), args.output)
    return EXIT_OK


def _cmd_cover_asymptotic(args) -> int:
    result = algebraic.asymptotic_cover(args.n, args.q, args.s)
    print(algebraic.format_params_line(result.params))
    if result.feasible:
        print(f"SIZE {result.description.size} VERIFIED")
    else:
        print(result.message, file=sys.stderr)
    return EXIT_OK


def _cmd_verify_cover(args) -> int:
    a = boolmat.read_matrix(args.matrix)
    c = cover.read_cover(args.cover)
    res = cover.verify_cover(a, c)
    if res:
        print(f"VERIFIED cover size={c.size}")
        return EXIT_OK
    print(f"FAILED entry={_entry_str(res.witness)} reason={res.reason}")
    return EXIT_FAILED


def _cmd_verify_kron(args) -> int:
    a = boolmat.read_matrix(args.a)
    m_fam = cover.read_family(args.fam_m)
    b = boolmat.read_matrix(args.b)
    n_fam = cover.read_family(args.fam_n)
    res = cover.verify_kron_hypotheses(a, m_fam, b, n_fam)
    if res:
        size = cover.KronCoverDescription(m_fam, n_fam).size
        print(f"VERIFIED kron-hypotheses size={size}")
        return EXIT_OK
    print(f"FAILED entry={_entry_str(res.witness)} reason={res.reason}")
    return EXIT_FAILED


def _cmd_verify_qcover(args) -> int:
    a = boolmat.read_matrix(args.matrix)
    fam = cover.read_family(args.family)
    res = cover.check_q_covering(a, fam, args.q)
    if res:
        print(f"VERIFIED qcover q={args.q} subsets={res.checked} exhaustive=yes")
        return EXIT_OK
    print(f"FAILED subset={_entry_str(res.witness)} exhaustive=yes")
    return EXIT_FAILED


def _cmd_rank_exact(args) -> int:
    a = boolmat.read_matrix(args.matrix)
    cert = bounds.exact_boolean_rank(a, limit=args.limit)
    sys.stdout.write(bounds.format_rank_certificate(cert))
    if cert.exact:
        print(f"RANK {cert.value}")
    else:
        print(f"RANK >= {cert.lower}")
    return EXIT_OK


def _cmd_bound_lower(args) -> int:
    a = boolmat.read_matrix(args.a)
    b = boolmat.read_matrix(args.b)
    res = bounds.kron_lower_bound(a, b)
    print(f"LOWER kind=mu value={res.value}")
    print(f"LOWER kind=isolation value={res.isolation_bound}")
    return EXIT_OK


def _cmd_isolation(args) -> int:
    a = boolmat.read_matrix(args.matrix)
    res = bounds.isolation_number(a)
    witness = ",".join(map(_entry_str, res.witness))
    kind = "value" if res.exact else "lower-bound"
    print(f"ISOLATION {kind}={res.value} witness={witness}")
    return EXIT_OK


def _cmd_mu(args) -> int:
    a = boolmat.read_matrix(args.matrix)
    res = bounds.mu(a)
    rect = _format_rectangle(res.witness)
    print(f"MU value={res.value} ones={res.ones} maxrect={res.max_rectangle_area} {rect}")
    return EXIT_OK


def _print_spanoid_rank(sp: spanoid.Spanoid) -> int:
    res = spanoid.spanoid_rank(sp)
    print(f"RANK value={res.value} witness={_format_index_list(res.witness)}")
    return EXIT_OK


def _cmd_spanoid_rank(args) -> int:
    return _print_spanoid_rank(spanoid.read_spanoid(args.file))


def _cmd_spanoid_product_rank(args) -> int:
    s1 = spanoid.read_spanoid(args.f1)
    s2 = spanoid.read_spanoid(args.f2)
    return _print_spanoid_rank(spanoid.ProductSpanoid(s1, s2))


def _cmd_spanoid_bound(args) -> int:
    s1 = spanoid.read_spanoid(args.f1)
    s2 = spanoid.read_spanoid(args.f2)
    m_sets = spanoid.read_index_sets(args.msets)
    n_sets = spanoid.read_index_sets(args.nsets)
    res = spanoid.check_product_bound(s1, s2, m_sets, n_sets)
    if res:
        print(f"BOUND value={res.bound}")
        return EXIT_OK
    print(f"FAILED witness={_entry_str(res.witness)}")
    return EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolrank",
        description="Constructs and verifies rectangle covers of Boolean "
        "matrices and their Kronecker products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="Boolean rank of the order-n crown")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("crown", help="write the order-n crown matrix")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_crown)

    p = sub.add_parser("kron", help="materialize a Kronecker product")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_kron)

    pc = sub.add_parser("cover", help="constructions")
    csub = pc.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("canonical", help="sigma(n)-rectangle cover of the crown")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_canonical)

    p = csub.add_parser("triple", help="(r, k-r, k-r) coverable triple")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_triple)

    p = csub.add_parser("c4", help="the explicit (2,2,2) triple for the order-4 crown")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_c4)

    p = csub.add_parser("c5", help="the explicit (2,2,3) triple for the order-5 crown")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_c5)

    p = csub.add_parser("gap", help="cover of crown(n) (x) crown(m) beating the product")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_gap)

    p = csub.add_parser("algebraic", help="every-q-cover matrix family")
    p.add_argument("d", type=int)
    p.add_argument("q", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cover_algebraic)

    p = csub.add_parser("asymptotic", help="asymptotic pipeline parameter report")
    p.add_argument("n", type=int)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(func=_cmd_cover_asymptotic)

    pv = sub.add_parser("verify", help="verifications")
    vsub = pv.add_subparsers(dest="verification", required=True)

    p = vsub.add_parser("cover", help="check a cover file against a matrix")
    p.add_argument("matrix")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_verify_cover)

    p = vsub.add_parser("kron", help="lazy composition-hypothesis check")
    p.add_argument("a")
    p.add_argument("fam_m")
    p.add_argument("b")
    p.add_argument("fam_n")
    p.set_defaults(func=_cmd_verify_kron)

    p = vsub.add_parser("qcover", help="every q members cover the matrix")
    p.add_argument("matrix")
    p.add_argument("family")
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_verify_qcover)

    pr = sub.add_parser("rank", help="exact Boolean rank")
    rsub = pr.add_subparsers(dest="mode", required=True)
    p = rsub.add_parser("exact")
    p.add_argument("matrix")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_rank_exact)

    pb = sub.add_parser("bound", help="lower bounds")
    bsub = pb.add_subparsers(dest="mode", required=True)
    p = bsub.add_parser("lower")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_bound_lower)

    p = sub.add_parser("isolation", help="isolation (fooling-set) number")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_isolation)

    p = sub.add_parser("mu", help="density lower-bound ratio")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_mu)

    ps = sub.add_parser("spanoid", help="spanoid rank operations")
    ssub = ps.add_subparsers(dest="mode", required=True)
    p = ssub.add_parser("rank")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spanoid_rank)
    p = ssub.add_parser("product-rank")
    p.add_argument("f1")
    p.add_argument("f2")
    p.set_defaults(func=_cmd_spanoid_product_rank)
    p = ssub.add_parser("bound")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("msets")
    p.add_argument("nsets")
    p.set_defaults(func=_cmd_spanoid_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"FAILED {exc}", file=sys.stdout)
        return EXIT_FAILED
    except (MaterializationLimitError, BudgetExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # FormatError, DimensionError too
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
