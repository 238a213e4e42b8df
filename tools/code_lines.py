"""Count the code lines of the package: the lines of `src/nufact/*.py`
that hold a token other than a comment or a docstring.  Blank lines,
comment lines and docstrings are not counted; every line of any other
multi-line token or statement is.  Prints one line per file, its code
lines and its source bytes, then the totals:

    python tools/code_lines.py [file.py ...]

An option, such as --help, prints the usage line, and a path that is not a
file prints one error line; either exits with status 2.

Bytes are printed because compiling a module, which a command does for
every module it imports when there is no bytecode cache, costs memory in
proportion to its whole source, docstrings and comments included.
"""

import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nufact"
USAGE = "usage: python tools/code_lines.py [file.py ...]"
# tokens that hold no code
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens that end a statement, or begin a block
BOUNDARIES = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path) -> int:
    """The number of lines of path that hold code."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIPPED]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        # a string that is a whole statement is a docstring
        docstring = (tok.type == tokenize.STRING
                     and (before is None or before.type in BOUNDARIES)
                     and (after is None or after.type == tokenize.NEWLINE))
        if tok.type not in BOUNDARIES and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    if any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    paths = [pathlib.Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    missing = [path for path in paths if not path.is_file()]
    if missing:
        print(f"error: no such file: {missing[0]}", file=sys.stderr)
        return 2
    rows = [(path.name, code_lines(path), path.stat().st_size) for path in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    for name, n, size in rows:
        print(f"{name:<{width}}  {n:>5}  {size:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
