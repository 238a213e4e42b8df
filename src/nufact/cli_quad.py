"""The `quad` commands: the quadratic order Z[w], w = (1+sqrt(-23))/2.
`nufact.cli` imports this module only when argv names `quad`."""

from . import quadring


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
        payload = {"norm": args.norm}
        tested = ((y, quadring.norm(y) > 1 and quadring.is_atom(y))
                  for y in quadring.elements_of_norm(args.norm))
    elif args.elements:
        payload = {}
        tested = ((y, quadring.is_atom(y)) for y in map(quadring.parse_quadint, args.elements))
    else:
        raise ValueError("give elements or --norm N")
    results = payload["results"] = [{"element": quadring.format_quadint(y), "is_atom": atom}
                                    for y, atom in tested]
    return payload, "\n".join(f"{r['element']}: {'atom' if r['is_atom'] else 'not an atom'}"
                              for r in results) or "(no elements)"


def cmd_quad_norm(args):
    results = []
    for text in args.elements:
        y = quadring.parse_quadint(text)
        results.append({"element": quadring.format_quadint(y), "norm": quadring.norm(y)})
    human = "\n".join(f"{r['element']}: {r['norm']}" for r in results)
    return {"results": results}, human


# each leaf: its help, its handler and its arguments, as the name and the
# add_argument keywords of each, in help order
LEAVES = {
    "factor": ("factorizations into atoms, up to associates", cmd_quad_factor, [
        ("element", {"help": "e.g. 8 or 1+1*w"})]),
    "atoms": ("atom tests, or all elements of a given norm", cmd_quad_atoms, [
        ("elements", {"nargs": "*"}), ("--norm", {"type": int})]),
    "norm": ("norm form a^2+ab+6b^2", cmd_quad_norm, [("elements", {"nargs": "+"})]),
}
