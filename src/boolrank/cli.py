"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failed (witness printed on
stdout), 2 invalid input or parameters, 3 budget or materialization limit
exceeded.  Certificates go to stdout, diagnostics to stderr.  The
materialization limit (default 2^31 entries) is set only by the
BOOLRANK_MAX_ENTRIES environment variable, a non-negative decimal integer;
it governs the library calls behind every command, and no command takes a
limit option of its own.

The verifiers (``verify cover``, ``verify kron``, ``verify qcover``) open
their matrix files as targets read a scan block at a time
(:class:`~boolrank.cover.MatrixFile`): each scan parses the whole file,
so a malformed one is invalid input before any verdict, and a verifier
holds its covers or families and about one block of the matrix.  The
other commands that read a matrix (``kron``, ``rank``, ``bound``,
``mu``, ``isolation``, ``spanoid``) hold it whole.  The writers hold no
product they write: ``crown`` and ``kron`` write their matrix a text block
at a time from a reader of its rows (``kron`` holds its two factors, not
their product), and ``cover gap`` writes its cover from the two families,
once they are checked against the crowns they claim to cover.

Each command registers once, beside its handler, through :func:`command`.
Only ``boolmat`` and ``errors`` are imported with this module; a handler
imports the other modules it uses in its body, so a process loads only
the code of the command it runs.
A handler takes the parsed arguments and returns the bytes it certifies,
whole or as blocks, each written before the next is taken; it fails by
raising, before it returns.  A verifier that rejects its input raises
``VerificationError`` with the witness text; the cover checks raise it
through :meth:`~boolrank.cover.VerifyResult.require`.  :func:`main` alone writes,
only bytes, to ``-o`` or to stdout's binary buffer, and alone maps
exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from . import boolmat
from .errors import BudgetExceededError, MaterializationLimitError, VerificationError

if TYPE_CHECKING:
    from .spanoid import Spanoid

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

GROUP_HELP = {"cover": "constructions", "verify": "verifications",
              "rank": "exact Boolean rank", "bound": "lower bounds",
              "spanoid": "spanoid rank operations"}

Handler = Callable[[argparse.Namespace], bytes | Iterable[bytes]]
T = TypeVar("T")

# command words -> (help, argument specs, handler), in registration order.
# A spec is "name" (a file), "name:int", "--name:int", or "-o" (write the
# text to a file instead of stdout).
COMMANDS: dict[str, tuple[str, tuple[str, ...], Handler]] = {}


def command(words: str, help: str, *spec: str) -> Callable[[Handler], Handler]:
    """Register the decorated handler as ``boolrank <words>``."""
    def register(handler: Handler) -> Handler:
        COMMANDS[words] = (help, spec, handler)
        return handler
    return register


def _read_two(read: Callable[[str], T], first: str, second: str) -> tuple[T, T]:
    """``read`` of both paths; a path given twice is read once, and a matrix
    file opened once is one target."""
    x = read(first)
    return x, x if second == first else read(second)


def _entry_str(witness) -> str:
    if isinstance(witness, tuple):
        return f"({','.join(map(str, witness))})"
    return str(witness)


@command("sigma", "Boolean rank of the order-n crown", "n:int")
def _cmd_sigma(args) -> bytes:
    from . import crown
    return b"%d\n" % crown.sigma(args.n)


@command("crown", "write the order-n crown matrix", "n:int", "-o")
def _cmd_crown(args) -> Iterator[bytes]:
    from . import crown
    if args.n > 0:  # a bad n is invalid input, whatever its square
        boolmat.require_materializable("crown matrix", args.n * args.n)
    return boolmat.reader_lines(args.n, args.n, crown._crown_reader(args.n))


@command("kron", "materialize a Kronecker product", "a", "b", "-o")
def _cmd_kron(args) -> Iterator[bytes]:
    a, b = _read_two(boolmat.read_matrix, args.a, args.b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    boolmat.require_materializable("kronecker result", rows * cols)
    return boolmat.reader_lines(rows, cols, boolmat._kron_reader(a, b))


@command("cover canonical", "sigma(n)-rectangle cover of the crown", "n:int", "-o")
def _cmd_cover_canonical(args) -> Iterator[bytes]:
    from . import cover, crown
    return cover.cover_lines(crown._canonical_cover(crown.sigma(args.n), args.n))


@command("cover triple", "(1, k-1, k-1) coverable triple", "k:int", "r:int", "-o")
def _cmd_cover_triple(args) -> Iterator[bytes]:
    from . import cover, crown
    return cover.family_lines(crown.triple_cover(args.k, args.r))


@command("cover c4", "the explicit (2,2,2) triple for the order-4 crown", "-o")
def _cmd_cover_c4(args) -> Iterator[bytes]:
    from . import cover, crown
    return cover.family_lines(crown.c4_triple())


@command("cover c5", "the explicit (2,2,3) triple for the order-5 crown", "-o")
def _cmd_cover_c5(args) -> Iterator[bytes]:
    from . import cover, crown
    return cover.family_lines(crown.c5_triple())


@command("cover gap", "cover of crown(n) (x) crown(m) beating the product",
         "n:int", "m:int", "-o")
def _cmd_cover_gap(args) -> Iterator[bytes]:
    from . import cover, crown
    m_fam, n_fam = crown.gap_families(args.n, args.m)
    description = cover.KronCoverDescription(m_fam, n_fam)
    # the text is refused before its hypotheses are checked or -o is opened
    boolmat.require_materializable("gap cover text", description.indices)
    a, b = _read_two(crown.CrownTarget, args.n, args.m)  # one target when n == m
    cover.verify_kron_hypotheses(a, m_fam, b, n_fam).require()
    print(f"SIZE {description.size}", file=sys.stderr)
    return cover.kron_cover_lines(description)


@command("cover algebraic", "every-q-cover matrix family", "d:int", "q:int", "-o")
def _cmd_cover_algebraic(args) -> Iterator[bytes]:
    from . import algebraic, cover
    _, fam = algebraic.algebraic_family(args.d, args.q)
    return cover.family_lines(fam)


@command("cover asymptotic", "verified every-q cover of crown(n) (x) crown(n), "
         "else a parameter report", "n:int", "--q:int", "--s:int")
def _cmd_cover_asymptotic(args) -> bytes:
    from . import algebraic
    result = algebraic.asymptotic_cover(args.n, args.q, args.s)
    params = algebraic.format_params_line(result) + "\n"
    if result.feasible:
        return (params + f"SIZE {result.description.size} VERIFIED\n").encode()
    print(result.message, file=sys.stderr)
    return params.encode()


@command("verify cover", "check a cover file against a matrix", "matrix", "cover")
def _cmd_verify_cover(args) -> bytes:
    from . import cover
    a = cover.MatrixFile(args.matrix)
    c = cover.read_cover(args.cover)
    cover.verify_cover(a, c).require()
    return b"VERIFIED cover size=%d\n" % c.size


@command("verify kron", "lazy composition-hypothesis check", "a", "fam_m", "b", "fam_n")
def _cmd_verify_kron(args) -> bytes:
    from . import cover
    a, b = _read_two(cover.MatrixFile, args.a, args.b)
    m_fam, n_fam = _read_two(cover.read_family, args.fam_m, args.fam_n)
    cover.verify_kron_hypotheses(a, m_fam, b, n_fam).require()
    size = cover.KronCoverDescription(m_fam, n_fam).size
    return b"VERIFIED kron-hypotheses size=%d\n" % size


@command("verify qcover", "every q members cover the matrix", "matrix", "family", "q:int")
def _cmd_verify_qcover(args) -> bytes:
    from . import cover
    a = cover.MatrixFile(args.matrix)
    fam = cover.read_family(args.family)
    res = cover.check_q_covering(a, fam, args.q)
    if not res:
        raise VerificationError(f"subset={_entry_str(res.witness)} exhaustive=yes")
    return b"VERIFIED qcover q=%d subsets=%d exhaustive=yes\n" % (args.q, res.checked)


@command("rank exact", "certified exact Boolean rank", "matrix", "--limit:int")
def _cmd_rank_exact(args) -> bytes:
    from . import bounds
    a = boolmat.read_matrix(args.matrix)
    cert = bounds.exact_boolean_rank(a, limit=args.limit)
    rank = cert.value if cert.exact else f">= {cert.lower}"
    return (bounds.format_rank_certificate(cert) + f"RANK {rank}\n").encode()


@command("bound lower", "lower bounds for the rank of a Kronecker product", "a", "b")
def _cmd_bound_lower(args) -> bytes:
    from . import bounds
    a, b = _read_two(boolmat.read_matrix, args.a, args.b)
    res = bounds.kron_lower_bound(a, b)
    return (f"LOWER kind=mu value={res.value}\n"
            f"LOWER kind=isolation value={res.isolation_bound}\n").encode()


@command("isolation", "isolation (fooling-set) number", "matrix")
def _cmd_isolation(args) -> bytes:
    from . import bounds
    res = bounds.isolation_number(boolmat.read_matrix(args.matrix))
    witness = ",".join(map(_entry_str, res.witness))
    kind = "value" if res.exact else "lower-bound"
    return f"ISOLATION {kind}={res.value} witness={witness}\n".encode()


@command("mu", "density lower-bound ratio", "matrix")
def _cmd_mu(args) -> bytes:
    from . import bounds, cover
    a = boolmat.read_matrix(args.matrix)
    res = bounds.mu(a)
    head = f"MU value={res.value} ones={res.ones} maxrect={res.max_rectangle_area} "
    _, line = cover.cover_lines(cover.Cover(a.rows, a.cols, (res.witness,)))
    return head.encode() + line


def _rank_text(sp: Spanoid) -> bytes:
    from . import spanoid
    res = spanoid.spanoid_rank(sp)
    return b"RANK value=%d witness=%s\n" % (res.value, boolmat._index_bytes(res.witness))


@command("spanoid rank", "rank of a spanoid", "file")
def _cmd_spanoid_rank(args) -> bytes:
    from . import spanoid
    return _rank_text(spanoid.read_spanoid(args.file))


@command("spanoid product-rank", "rank of the product of two spanoids", "f1", "f2")
def _cmd_spanoid_product_rank(args) -> bytes:
    from . import spanoid
    s1, s2 = _read_two(spanoid.read_spanoid, args.f1, args.f2)
    return _rank_text(spanoid.ProductSpanoid(s1, s2))


@command("spanoid bound", "check an upper bound on the product rank",
         "f1", "f2", "msets", "nsets")
def _cmd_spanoid_bound(args) -> bytes:
    from . import spanoid
    s1, s2 = _read_two(spanoid.read_spanoid, args.f1, args.f2)
    m_sets, n_sets = _read_two(spanoid.read_index_sets, args.msets, args.nsets)
    res = spanoid.check_product_bound(s1, s2, m_sets, n_sets)
    if not res:
        raise VerificationError(f"witness={_entry_str(res.witness)}")
    return b"BOUND value=%d\n" % res.bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolrank",
        description="Constructs and verifies rectangle covers of Boolean "
        "matrices and their Kronecker products.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, (help_text, spec, handler) in COMMANDS.items():
        group, _, name = words.rpartition(" ")
        if group not in groups:
            p = groups[""].add_parser(group, help=GROUP_HELP[group])
            groups[group] = p.add_subparsers(dest="command", required=True)
        p = groups[group].add_parser(name, help=help_text)
        for arg in spec:
            arg_name, _, kind = arg.partition(":")
            names = ("-o", "--output") if arg == "-o" else (arg_name,)
            p.add_argument(*names, type=int if kind == "int" else None)
        p.set_defaults(func=handler)
    return parser


def _write(blocks: Iterable[bytes], output: str | None) -> None:
    """Write ``blocks`` to the file ``output``, or else to stdout."""
    if output is not None:
        with open(output, "wb") as out:
            out.writelines(blocks)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text already written to stdout goes first
        sys.stdout.buffer.writelines(blocks)
    else:  # a stdout with no binary buffer, such as a StringIO
        sys.stdout.writelines(str(block, "utf-8") for block in blocks)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        _write([result] if isinstance(result, bytes) else result,
               getattr(args, "output", None))
    except VerificationError as exc:
        _write([f"FAILED {exc}\n".encode()], None)
        return EXIT_FAILED
    except (MaterializationLimitError, BudgetExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # FormatError, DimensionError too
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
