"""Command-line frontend.

One binary with a subcommand tree (zs / quad / quat / div / tring), sharing
the text syntaxes of the library modules.  Every command emits human-readable
text by default and a stable JSON document with --json; identical inputs give
byte-identical output.  Exit codes: 0 success, 1 domain error (bad input
values, caps, an --out file that cannot be written, a stdout closed before
the output was all written), 2 usage error.

Start-up is kept to what the command needs.  The top-level parser
registers all five families, but only the family named in argv gets its
leaf parsers, and `json` is imported only to write JSON.

Every cap and budget of work lives in the library, next to the work it
bounds, so a handler reads no cap and prices no input: a refusal reaches
it as the library's CapExceeded, a ValueError like any other bad input.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import abelian, divcalc, quadring, quatcheck, tring, zerosum


def _group(args) -> abelian.FinAbGroup:
    return abelian.FinAbGroup.from_text(args.group)


def _cycles(args) -> divcalc.CycleStructure:
    return divcalc.CycleStructure.from_text(args.cycles)


def _lengths_text(lengths) -> str:
    return "{" + ",".join(str(n) for n in sorted(lengths)) + "}"


def _elements(args, G):
    """The coordinate tuples given by --elements, or None for the whole group."""
    if args.elements is None:
        return None
    return [c for c, _ in zerosum.parse_seq(G, args.elements)]


# ----------------------------------------------------------------------
# zs: zero-sum sequence monoid

def cmd_zs_atoms(args):
    G = _group(args)
    atom_list = zerosum.atoms(G, _elements(args, G))
    payload = {"group": args.group, "atoms": [zerosum.format_seq(S) for S in atom_list]}
    human = "\n".join(payload["atoms"]) or "(no atoms)"
    return payload, human


def cmd_zs_factor(args):
    G = _group(args)
    S = zerosum.parse_seq(G, args.seq)
    facts = zerosum.factorizations(G, S)
    text = {p: zerosum.format_seq(p) for p in {p for F in facts for p in F}}
    if args.json:  # only the selected mode is built: both grow with the list
        return {
            "group": args.group,
            "seq": zerosum.format_seq(S),
            "factorizations": [[text[p] for p in F] for F in facts],
            "lengths": sorted({len(F) for F in facts}),
        }, None
    rows = (" * ".join(f"({text[p]})" for p in F) or "(empty product)" for F in facts)
    # the chunks of "\n".join(rows), one a row, so the text is never held whole
    return None, (("\n" if i else "") + row for i, row in enumerate(rows))


def cmd_zs_lengths(args):
    G = _group(args)
    S = zerosum.parse_seq(G, args.seq)
    ls = sorted(zerosum.length_set(G, S))
    return {"group": args.group, "seq": zerosum.format_seq(S), "lengths": ls}, _lengths_text(ls)


def cmd_zs_davenport(args):
    G = _group(args)
    d = zerosum.davenport(G)
    return {"group": args.group, "davenport": d}, str(d)


def cmd_zs_hfwitness(args):
    G = _group(args)
    W = zerosum.half_factorial_witness(G, args.max_len, _elements(args, G))
    if W is None:
        payload = {"group": args.group, "max_len": args.max_len, "witness": None}
        return payload, f"no witness up to length {args.max_len}"
    ls = sorted(zerosum.length_set(G, W))
    payload = {"group": args.group, "max_len": args.max_len,
               "witness": zerosum.format_seq(W), "lengths": ls}
    return payload, f"{zerosum.format_seq(W)}  lengths {_lengths_text(ls)}"


# ----------------------------------------------------------------------
# quad: the quadratic order Z[w], w = (1+sqrt(-23))/2

def cmd_quad_factor(args):
    x = quadring.parse_quadint(args.element)
    facts = quadring.element_factorizations(x)
    payload = {
        "element": quadring.format_quadint(x),
        "factorizations": [[quadring.format_quadint(y) for y in F] for F in facts],
        "lengths": sorted({len(F) for F in facts}),
    }
    lines = [" * ".join(f"({y})" for y in F) or "(unit)" for F in payload["factorizations"]]
    return payload, "\n".join(lines)


def cmd_quad_atoms(args):
    if args.elements and args.norm is not None:
        raise ValueError("give elements or --norm N, not both")
    if args.norm is not None:
        elems = quadring.elements_of_norm(args.norm)
        results = [{
            "element": quadring.format_quadint(y),
            "is_atom": quadring.norm(y) > 1 and quadring.is_atom(y),
        } for y in elems]
        payload = {"norm": args.norm, "results": results}
    else:
        if not args.elements:
            raise ValueError("give elements or --norm N")
        results = []
        for text in args.elements:
            y = quadring.parse_quadint(text)
            results.append({
                "element": quadring.format_quadint(y),
                "is_atom": quadring.is_atom(y),
            })
        payload = {"results": results}
    human = "\n".join(
        f"{r['element']}: {'atom' if r['is_atom'] else 'not an atom'}" for r in results
    ) or "(no elements)"
    return payload, human


def cmd_quad_norm(args):
    results = []
    for text in args.elements:
        y = quadring.parse_quadint(text)
        results.append({"element": quadring.format_quadint(y), "norm": quadring.norm(y)})
    human = "\n".join(f"{r['element']}: {r['norm']}" for r in results)
    return {"results": results}, human


# ----------------------------------------------------------------------
# quat: identity verification over Q(sqrt(3))

def cmd_quat_verify(args):
    factors, product, ok = quatcheck.verify_texts(args.factors, args.product)
    payload = {
        "factors": [quatcheck.format_quat(f) for f in factors],
        "product": quatcheck.format_quat(product),
        "verified": ok,
    }
    return payload, "verified" if ok else "FAILED"


# ----------------------------------------------------------------------
# div: abstract divisor calculus

def cmd_div_compose(args):
    cs = _cycles(args)
    out = cs.format_divisor(divcalc.compose_texts(cs, args.divisors))
    return {"cycles": args.cycles, "result": out}, out


def cmd_div_realizable(args):
    cs = _cycles(args)
    D = cs.parse_divisor(args.divisor)
    ok = divcalc.is_realizable(cs, D)
    payload = {"cycles": args.cycles, "divisor": cs.format_divisor(D), "realizable": ok}
    return payload, "realizable" if ok else "not realizable"


def cmd_div_factor(args):
    cs = _cycles(args)
    D = cs.parse_divisor(args.divisor)
    max_len = args.max_len if args.max_len is not None else divcalc.default_max_len(cs, D)
    words, truncated = divcalc.enumerate_factorizations_ex(cs, D, max_len)
    payload = {
        "cycles": args.cycles,
        "divisor": cs.format_divisor(D),
        "max_len": max_len,
        "words": words,
        "truncated": truncated,
    }
    if args.json:  # no human text: for a long word list it is as large as the words
        return payload, None
    lines = ["*".join(w) or "(empty word)" for w in words]
    if truncated:
        lines.append(f"(search truncated at length {max_len}; more words may exist)")
    return payload, "\n".join(lines) or "(no words)"


def cmd_div_render(args):
    cs = _cycles(args)
    if (args.divisor is None) == (args.word is None):
        raise ValueError("give exactly one of --divisor or --word")
    D = None if args.divisor is None else cs.parse_divisor(args.divisor)
    word = None if args.word is None else cs.parse_word(args.word)
    svg = divcalc.render_svg(cs, D, cycle=args.cycle, word=word)
    shape = cs.format_divisor(D) if word is None else "*".join(word) or "(empty word)"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {"cycles": args.cycles, "target": shape, "out": args.out}, f"wrote {args.out}"


# ----------------------------------------------------------------------
# tring: the triangular-order oracle

def cmd_tring_mul(args):
    acc = tring.mul_all([tring.parse_matrix(text) for text in args.matrices])
    return {"result": acc}, tring.format_matrix(acc)


def cmd_tring_divisor(args):
    A = tring.parse_matrix(args.matrix)
    cs = tring.cycle_structure(len(A))
    D = tring.divisor_of(A)
    out = cs.format_divisor(D)
    return {"divisor": out}, out


def cmd_tring_tau(args):
    A = tring.parse_matrix(args.matrix)
    out = tring.tau_ideal(A)
    return {"result": out}, tring.format_matrix(out)


def cmd_tring_oracle(args):
    report = tring.oracle_report(l=args.size, max_exp=args.max_exp,
                                 seed=args.seed, chain_trials=args.trials)
    lines = [f"corpus: {report['corpus_size']} ideals of T({args.size}), "
             f"exponents <= {args.max_exp}"]
    for name, entry in report["properties"].items():
        lines.append(f"{name}: {'pass' if entry['pass'] else 'FAIL'}")
        if not entry["pass"]:
            import json
            lines.append(f"  counterexample: {json.dumps(entry['counterexample'])}")
    lines.append("all properties pass" if report["all_pass"] else "FAILURES FOUND")
    return report, "\n".join(lines)


# ----------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    # shared flags, accepted before or after the subcommand; SUPPRESS keeps a
    # leaf parser from clobbering a value already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized property checks")
    return common


def _zs_parsers(leaves, common):
    p = leaves.add_parser("atoms", parents=[common], help="all minimal zero-sum sequences")
    p.add_argument("--group", required=True, help="e.g. 3 or 2x4")
    p.add_argument("--elements", help="restrict the ground set, e.g. '1 2' (default: whole group)")
    p.set_defaults(handler=cmd_zs_atoms)
    p = leaves.add_parser("factor", parents=[common], help="all factorizations into minimal zero-sum sequences")
    p.add_argument("--group", required=True)
    p.add_argument("--seq", required=True, help="e.g. '1^3 2^3'")
    p.set_defaults(handler=cmd_zs_factor)
    p = leaves.add_parser("lengths", parents=[common], help="the set of factorization lengths")
    p.add_argument("--group", required=True)
    p.add_argument("--seq", required=True)
    p.set_defaults(handler=cmd_zs_lengths)
    p = leaves.add_parser("davenport", parents=[common], help="longest minimal zero-sum sequence")
    p.add_argument("--group", required=True)
    p.set_defaults(handler=cmd_zs_davenport)
    p = leaves.add_parser("hfwitness", parents=[common], help="search for a sequence with two factorization lengths")
    p.add_argument("--group", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--elements", help="restrict the ground set (default: whole group)")
    p.set_defaults(handler=cmd_zs_hfwitness)


def _quad_parsers(leaves, common):
    p = leaves.add_parser("factor", parents=[common], help="factorizations into atoms, up to associates")
    p.add_argument("element", help="e.g. 8 or 1+1*w")
    p.set_defaults(handler=cmd_quad_factor)
    p = leaves.add_parser("atoms", parents=[common], help="atom tests, or all elements of a given norm")
    p.add_argument("elements", nargs="*")
    p.add_argument("--norm", type=int, default=None)
    p.set_defaults(handler=cmd_quad_atoms)
    p = leaves.add_parser("norm", parents=[common], help="norm form a^2+ab+6b^2")
    p.add_argument("elements", nargs="+")
    p.set_defaults(handler=cmd_quad_norm)


def _quat_parsers(leaves, common):
    p = leaves.add_parser("verify", parents=[common], help="check product and order membership")
    p.add_argument("factors", nargs="+", help="e.g. 'i+j' '-1-i-k'")
    p.add_argument("--product", required=True, help="e.g. '1-2i+k'")
    p.set_defaults(handler=cmd_quat_verify)


def _div_parsers(leaves, common):
    p = leaves.add_parser("compose", parents=[common], help="compose divisors left to right")
    p.add_argument("--cycles", required=True, help="e.g. 'Q1>Q2>Q3;P'")
    p.add_argument("divisors", nargs="+", help="e.g. 2Q1+Q3")
    p.set_defaults(handler=cmd_div_compose)
    p = leaves.add_parser("realizable", parents=[common], help="does some ideal have this divisor?")
    p.add_argument("--cycles", required=True)
    p.add_argument("divisor")
    p.set_defaults(handler=cmd_div_realizable)
    p = leaves.add_parser("factor", parents=[common], help="words of maximal ideals composing to the divisor")
    p.add_argument("--cycles", required=True)
    p.add_argument("divisor")
    p.add_argument("--max-len", type=int, default=None,
                   help="word length bound (default: total count + cycle sizes)")
    p.set_defaults(handler=cmd_div_factor)
    p = leaves.add_parser("render", parents=[common], help="draw the cylinder diagram as SVG")
    p.add_argument("--cycles", required=True)
    p.add_argument("--divisor", default=None)
    p.add_argument("--word", default=None, help="e.g. 'Q1*Q2*Q3'")
    p.add_argument("--cycle", type=int, default=None, help="cycle index to draw")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(handler=cmd_div_render)


def _tring_parsers(leaves, common):
    p = leaves.add_parser("mul", parents=[common], help="min-plus product of exponent matrices")
    p.add_argument("matrices", nargs="+", help="JSON rows, e.g. '[[0,1,1],[0,0,1],[0,0,1]]'")
    p.set_defaults(handler=cmd_tring_mul)
    p = leaves.add_parser("divisor", parents=[common], help="divisor of an ideal (row sums of its exponent matrix)")
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_tring_divisor)
    p = leaves.add_parser("tau", parents=[common], help="double left dual of an ideal")
    p.add_argument("matrix")
    p.set_defaults(handler=cmd_tring_tau)
    p = leaves.add_parser("oracle", parents=[common], help="cross-validate the divisor calculus")
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(handler=cmd_tring_oracle)


# each family's help and the function that adds its leaves, in help order
_FAMILIES = {
    "zs": ("zero-sum sequences over a finite abelian group", _zs_parsers),
    "quad": ("the quadratic order Z[w], w = (1+sqrt(-23))/2", _quad_parsers),
    "quat": ("quaternion identities over Q(sqrt(3))", _quat_parsers),
    "div": ("divisor calculus on cycles of maximal ideals", _div_parsers),
    "tring": ("triangular-order oracle over a DVR", _tring_parsers),
}


def _parser(words) -> argparse.ArgumentParser:
    """The parser with every family registered, and the leaves of only the
    families named among words.  argparse picks a family only by its exact
    name in argv, so passing argv builds every family it can pick."""
    # the top level gets flag actions of its own: argparse shares action
    # objects with every parser built from the same parent, so these
    # defaults would otherwise replace the leaves' SUPPRESS
    parser = argparse.ArgumentParser(
        prog="nufact",
        description="factorization workbench: zero-sum sequences, quadratic "
                    "and quaternion orders, divisor calculus",
        epilog="arguments starting with '-' (e.g. the quaternion '-1-i-k') "
               "must follow a '--' separator",
        parents=[_common_flags()],
    )
    parser.set_defaults(json=False, seed=0)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_leaves) in _FAMILIES.items():
        family = sub.add_parser(name, help=help_text)
        if name in words:
            add_leaves(family.add_subparsers(dest="subcommand", required=True), common)
    return parser


def main(argv=None) -> int:
    args = _parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        payload, human = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # print, since it writes nothing when there is no stdout at all
    try:
        if args.json:
            import json
            # the bytes of json.dumps(payload, indent=2, sort_keys=True),
            # written in batches of chunks rather than built in one piece
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        else:  # a string, or the text of `zs factor` in chunks
            chunks = iter([human]) if isinstance(human, str) else human
        while batch := "".join(itertools.islice(chunks, 4096)):
            print(batch, end="")
        print(flush=True)
    except BrokenPipeError:
        # the reader has gone: send what is left, and the flush at shutdown,
        # to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was all written", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
