"""The `div` commands: the abstract divisor calculus on cycles of maximal
ideals.  `nufact.cli` imports this module only when argv names `div`, and
`div factor` and `div render` alone run the word search and the drawing."""

from __future__ import annotations

from . import divcalc, divdraw, divwords


def _cycles(args) -> divcalc.CycleStructure:
    return divcalc.CycleStructure.from_text(args.cycles)


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
    words, truncated = divwords.enumerate_factorizations_ex(cs, D, max_len)
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
    svg = divdraw.render_svg(cs, D, cycle=args.cycle, word=word)
    shape = cs.format_divisor(D) if word is None else "*".join(word) or "(empty word)"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {"cycles": args.cycles, "target": shape, "out": args.out}, f"wrote {args.out}"


# each leaf: its help, its handler and its arguments, as the name and the
# add_argument keywords of each, in help order
LEAVES = {
    "compose": ("compose divisors left to right", cmd_div_compose, [
        ("--cycles", {"required": True, "help": "e.g. 'Q1>Q2>Q3;P'"}),
        ("divisors", {"nargs": "+", "help": "e.g. 2Q1+Q3"})]),
    "realizable": ("does some ideal have this divisor?", cmd_div_realizable, [
        ("--cycles", {"required": True}), ("divisor", {})]),
    "factor": ("words of maximal ideals composing to the divisor", cmd_div_factor, [
        ("--cycles", {"required": True}), ("divisor", {}),
        ("--max-len", {"type": int,
                       "help": "word length bound (default: total count + cycle sizes)"})]),
    "render": ("draw the cylinder diagram as SVG", cmd_div_render, [
        ("--cycles", {"required": True}), ("--divisor", {}),
        ("--word", {"help": "e.g. 'Q1*Q2*Q3'"}),
        ("--cycle", {"type": int, "help": "cycle index to draw"}),
        ("--out", {"required": True, "help": "output SVG path"})]),
}
