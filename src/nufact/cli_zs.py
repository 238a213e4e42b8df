"""The `zs` commands: the monoid of zero-sum sequences over a finite
abelian group.  `nufact.cli` imports this module only when argv names `zs`."""

from __future__ import annotations

from . import abelian, zerosum


def _group(args) -> abelian.FinAbGroup:
    return abelian.FinAbGroup.from_text(args.group)


def _lengths_text(lengths) -> str:
    return "{" + ",".join(str(n) for n in sorted(lengths)) + "}"


def _elements(args, G):
    """The coordinate tuples given by --elements, or None for the whole group."""
    if args.elements is None:
        return None
    return [c for c, _ in zerosum.parse_seq(G, args.elements)]


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


def add_leaves(leaves, common):
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
