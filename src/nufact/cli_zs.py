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


# each leaf: its help, its handler and its arguments, as the name and the
# add_argument keywords of each, in help order
LEAVES = {
    "atoms": ("all minimal zero-sum sequences", cmd_zs_atoms, [
        ("--group", {"required": True, "help": "e.g. 3 or 2x4"}),
        ("--elements", {"help": "restrict the ground set, e.g. '1 2' (default: whole group)"})]),
    "factor": ("all factorizations into minimal zero-sum sequences", cmd_zs_factor, [
        ("--group", {"required": True}), ("--seq", {"required": True, "help": "e.g. '1^3 2^3'"})]),
    "lengths": ("the set of factorization lengths", cmd_zs_lengths, [
        ("--group", {"required": True}), ("--seq", {"required": True})]),
    "davenport": ("longest minimal zero-sum sequence", cmd_zs_davenport, [
        ("--group", {"required": True})]),
    "hfwitness": ("search for a sequence with two factorization lengths", cmd_zs_hfwitness, [
        ("--group", {"required": True}), ("--max-len", {"type": int, "required": True}),
        ("--elements", {"help": "restrict the ground set (default: whole group)"})]),
}
