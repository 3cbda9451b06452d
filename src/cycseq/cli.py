"""Command-line interface: every subcommand writes one JSON document to
stdout (or DOT/Newick/CSV text when --format asks for it).

Exit codes: 0 success, 2 usage error, 3 domain error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import clustertree, debruijn, freqspace, lowering, seqcore, twofold
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector


def _emit(obj) -> None:
    print(json.dumps(obj))


def _parse_vector(text: str) -> FrequencyVector:
    try:
        return FrequencyVector.from_json(text)
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise DomainError(f"invalid frequency-vector JSON: {exc}")


def _parse_sequence(text: str, l: int) -> seqcore.CyclicSequence:
    return seqcore.sequence_from_string(text, l)


def _check_printable(log10_digits: float) -> None:
    """Refuse a count whose decimal digits, estimated as 10^log10_digits
    before computing it, exceed Python's integer-to-string limit (absent
    before Python 3.10.7, and 0 when switched off)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and log10_digits > math.log10(limit):
        raise ResourceCapError(
            f"the count would have more than {limit} digits, "
            "the limit for printing an integer (sys.set_int_max_str_digits)"
        )


def cmd_necklaces(args) -> None:
    n, l = args.n, args.alphabet
    if n >= 1 and l >= 2:
        # About l^n / n necklaces: n log10(l) digits.
        _check_printable(math.log10(n * math.log10(l)))
    out = {"count": str(seqcore.necklace_count(n, l))}
    if args.list:
        seqs = seqcore.enumerate_necklaces(args.n, args.alphabet, cap_bits=args.max_bits)
        out["necklaces"] = [str(s) for s in seqs]
    _emit(out)


def cmd_project(args) -> None:
    s = _parse_sequence(args.seq, args.alphabet)
    _emit(freqspace.project(s, args.p).to_obj())


def cmd_raise(args) -> None:
    _emit(freqspace.raise_level(_parse_vector(args.vector)).to_obj())


def cmd_distance(args) -> None:
    a = _parse_sequence(args.a, args.alphabet)
    b = _parse_sequence(args.b, args.alphabet)
    if a == b:
        _emit({"gamma": None, "distance": 0.0})
        return
    g = freqspace.gamma_max(a, b)
    _emit({"gamma": g, "distance": freqspace.ultrametric_distance(a, b)})


def cmd_lower(args) -> None:
    y = _parse_vector(args.vector)
    candidates = lowering.solve_step1(y) if args.raw else lowering.lower(y)
    _emit({"candidates": [z.to_obj() for z in candidates]})


def cmd_members(args) -> None:
    z = _parse_vector(args.vector)
    seqs = debruijn.enumerate_sequences_with_frequency(z, cap_n=args.max_n)
    _emit({"count": str(len(seqs)), "sequences": [str(s) for s in seqs]})


def cmd_tree(args) -> None:
    print("building cluster tree ...", file=sys.stderr)
    tree = clustertree.build_tree(
        args.n,
        args.alphabet,
        max_p=args.max_p,
        half_tree=args.half,
        max_n=args.max_n,
    )
    print(
        f"done: {tree.root.count} sequences, "
        f"branching up to p = {clustertree.max_branching_level(tree)}",
        file=sys.stderr,
    )
    print(clustertree.export_tree(tree, args.format))


def cmd_debruijn_count(args) -> None:
    l, p = args.alphabet, args.p
    if p >= 1 and l >= 2:
        _check_debruijn_printable(l, p)
    _emit({"count": str(debruijn.count_debruijn_sequences(l, p))})


def _check_debruijn_printable(l: int, p: int) -> None:
    """The number of de Bruijn sequences of order p, (l!)^(l^(p-1)) / l^p,
    has about l^(p-1) log10(l!) digits."""
    _check_printable((p - 1) * math.log10(l) + math.log10(math.lgamma(l + 1) / math.log(10)))


# Largest vertex count l^p of G_l(p) that euler-count admits: the dense
# Bareiss determinant of its Laplacian takes about a second at (l, p) = (2, 8)
# and (3, 5), but about eight at (2, 9).
EULER_COUNT_MAX_VERTICES = 256


def cmd_euler_count(args) -> None:
    l, p = args.alphabet, args.p
    if p >= 0 and l >= 2:
        cap = EULER_COUNT_MAX_VERTICES
        # l >= 2, so l^k > cap once k reaches the bit length of cap.
        if l ** min(p, cap.bit_length()) > cap:
            raise ResourceCapError(
                f"G_{l}({p}) has more than {cap} vertices, the cap for euler-count"
            )
        # ec(G_l(p)) is the number of de Bruijn sequences of order p + 1.
        _check_debruijn_printable(l, p + 1)
    g = debruijn.full_graph(l, p)
    _emit({"count": str(debruijn.count_eulerian_cycles(g))})


def _print_table(rows: list[dict], fmt: str, head: dict) -> None:
    """The per-k rows as CSV, or as the JSON document `head` plus "table"."""
    if fmt == "csv":
        print("k,perm_no,phi,cofactor")
        for row in rows:
            print(f"{row['k']},{row['perm_no']},{row['phi']},{row['cofactor']}")
        return
    table = [{k: (str(v) if k != "k" else v) for k, v in row.items()} for row in rows]
    _emit({**head, "table": table})


def cmd_twofold(args) -> None:
    rows = twofold.twofold_table(args.p, max_p=args.max_p)
    # count_twofold's assembly, over the rows already computed.
    head = {"p": args.p, "count": str(sum(r["cofactor"] * r["phi"] for r in rows))}
    if args.table:
        _print_table(rows, args.format, head)
    else:
        _emit(head)


def cmd_phi_table(args) -> None:
    _print_table(twofold.twofold_table(args.p), args.format, {"p": args.p})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycseq",
        description="Exact combinatorics of cyclic symbolic sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("necklaces", help="count (and optionally list) necklaces")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--max-bits", type=int, default=seqcore.DEFAULT_ENUM_CAP_BITS)
    sp.set_defaults(func=cmd_necklaces)

    sp = sub.add_parser("project", help="frequency vector of a sequence")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("raise", help="apply the raising map to a vector")
    sp.add_argument("--vector", required=True)
    sp.set_defaults(func=cmd_raise)

    sp = sub.add_parser("distance", help="ultrametric distance of two sequences")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("lower", help="lowering: candidate vectors one level down")
    sp.add_argument("--vector", required=True)
    sp.add_argument("--raw", action="store_true", help="skip the connectivity filter")
    sp.set_defaults(func=cmd_lower)

    sp = sub.add_parser("members", help="sequences realizing a frequency vector")
    sp.add_argument("--vector", required=True)
    sp.add_argument("--max-n", type=int, default=debruijn.DEFAULT_SEQUENCE_CAP)
    sp.set_defaults(func=cmd_members)

    sp = sub.add_parser("tree", help="build the cluster tree")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--half", action="store_true")
    sp.add_argument("--max-p", type=int, default=None)
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--format", choices=["json", "dot", "newick"], default="json")
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("debruijn-count", help="closed-form de Bruijn sequence count")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_debruijn_count)

    sp = sub.add_parser("euler-count", help="Eulerian cycles of the full graph G_l(p)")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_euler_count)

    sp = sub.add_parser("twofold", help="count two-fold de Bruijn sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--table", action="store_true")
    sp.add_argument("--max-p", type=int, default=4)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_twofold)

    sp = sub.add_parser("phi-table", help="per-k PermNo / Phi / cofactor table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_phi_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
