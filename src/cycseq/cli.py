"""Command-line interface: every subcommand writes one JSON document to
stdout (or DOT/Newick/CSV text when --format asks for it).

Exit codes: 0 success, 2 usage error, 3 domain error, 4 resource cap,
5 output error. A reader that closes the pipe early (`| head`) is not an
error: the command stops quietly and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import clustertree, debruijn, freqspace, lowering, seqcore, twofold
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector


def _emit(obj) -> None:
    print(json.dumps(obj))


def _check_printable(exceeds) -> None:
    """Refuse a count, before computing it, when exceeds(limit) says its
    decimal digits would pass Python's integer-to-string limit (absent
    before Python 3.10.7, 0 when switched off, else at least 640).

    The estimates compare an int argument with a float threshold, which
    Python does exactly and without converting the int, so no size of the
    argument overflows a float."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and exceeds(limit):
        raise ResourceCapError(
            f"the count would have more than {limit} digits, "
            "the limit for printing an integer (sys.set_int_max_str_digits)"
        )


def cmd_necklaces(args) -> None:
    n, l = args.n, args.alphabet
    if n >= 1 and l >= 2:
        # About l^n / n necklaces: n log10(l) digits.
        _check_printable(lambda limit: n > limit / math.log10(l))
    out = {"count": str(seqcore.necklace_count(n, l))}
    if args.list:
        out["necklaces"] = seqcore.necklace_strings(n, l)
    _emit(out)


def cmd_project(args) -> None:
    s = seqcore.sequence_from_string(args.seq, args.alphabet)
    _emit(freqspace.project(s, args.p).to_obj())


def cmd_raise(args) -> None:
    _emit(freqspace.raise_level(FrequencyVector.from_json(args.vector)).to_obj())


def cmd_distance(args) -> None:
    a = seqcore.sequence_from_string(args.a, args.alphabet)
    b = seqcore.sequence_from_string(args.b, args.alphabet)
    if a == b:
        _emit({"gamma": None, "distance": 0.0})
        return
    # ultrametric_distance(a, b) is exp(-gamma_max(a, b)); gamma is found once.
    g = freqspace.gamma_max(a, b)
    _emit({"gamma": g, "distance": math.exp(-g)})


def cmd_lower(args) -> None:
    y = FrequencyVector.from_json(args.vector)
    candidates = lowering.solve_step1(y) if args.raw else lowering.lower(y)
    _emit({"candidates": [z.to_obj() for z in candidates]})


def cmd_members(args) -> None:
    seqs = debruijn.enumerate_sequences_with_frequency(FrequencyVector.from_json(args.vector))
    _emit({"count": str(len(seqs)), "sequences": [str(s) for s in seqs]})


def cmd_tree(args) -> None:
    print("building cluster tree ...", file=sys.stderr)
    tree = clustertree.build_tree(args.n, args.alphabet, max_p=args.max_p, half_tree=args.half)
    print(
        f"done: {tree.root.count} sequences, "
        f"branching up to p = {clustertree.max_branching_level(tree)}",
        file=sys.stderr,
    )
    clustertree.export_tree(tree, args.format, sys.stdout)
    sys.stdout.write("\n")


def cmd_debruijn_count(args) -> None:
    l, p, f = args.alphabet, args.p, args.fold
    if p >= 1 and l >= 2 and f >= 1:
        _check_debruijn_printable(l, p, f)
    _emit({"count": str(debruijn.count_multi_debruijn(l, p, f))})


def _check_debruijn_printable(l: int, p: int, f: int = 1) -> None:
    """The number of f-fold de Bruijn sequences of order p is about
    M^(l^(p-1)) for the multinomial M = (f l)! / (f!)^l (count_multi_debruijn),
    so it has about l^(p-1) log10(M) digits; at f = 1, M = l!.

    M is at least l! and at least C(2f, f). log10(l!) > l once l > 27, and
    log10 C(2f, f) > f / 2 once f > 6, so an alphabet larger than the
    limit, or a fold more than twice the limit, exceeds it at every p (and
    lgamma is then never asked for a number past a float)."""
    _check_printable(
        lambda limit: l > limit
        or f > 2 * limit
        or p - 1
        > math.log(
            limit * math.log(10) / (math.lgamma(f * l + 1) - l * math.lgamma(f + 1)), l
        )
    )


def cmd_euler_count(args) -> None:
    l, p = args.alphabet, args.p
    if p >= 0 and l >= 2:
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
    rows = twofold.twofold_table(args.p)
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
    sp.set_defaults(func=cmd_members)

    sp = sub.add_parser("tree", help="build the cluster tree")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--half", action="store_true")
    sp.add_argument("--max-p", type=int, default=None)
    sp.add_argument("--format", choices=["json", "dot", "newick"], default="json")
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("debruijn-count", help="closed-form de Bruijn sequence count")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--fold", type=int, default=1, help="count f-fold sequences")
    sp.set_defaults(func=cmd_debruijn_count)

    sp = sub.add_parser("euler-count", help="Eulerian cycles of the full graph G_l(p)")
    sp.add_argument("--alphabet", type=int, default=2)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_euler_count)

    sp = sub.add_parser("twofold", help="count two-fold de Bruijn sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--table", action="store_true")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_twofold)

    sp = sub.add_parser("phi-table", help="per-k PermNo / Phi / cofactor table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_phi_table)

    return parser


def _silence_stdout() -> None:
    """Point the file descriptor under stdout at os.devnull, so that the
    flush at interpreter exit does not hit the closed pipe again. A stdout
    with no descriptor (captured in memory) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        _silence_stdout()
        return 0
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
