"""Command-line frontend.

One binary with a subcommand tree (zs / quad / quat / div / tring), sharing
the text syntaxes of the library modules.  Every command emits human-readable
text by default and a stable JSON document with --json; identical inputs give
byte-identical output.  Exit codes: 0 success, 1 domain error (bad input
values, caps, an --out file that cannot be written, a stdout closed before
the output was all written), 2 usage error.

This module is the dispatcher alone: the common flags, the family table,
the two parsers and `main`.  Each family's handlers and its `LEAVES` table,
which gives each leaf's help, handler and arguments, live in a module of
their own, `nufact.cli_<family>`, which is imported, and so compiled, only
when argv names that family.  A command line of the plain shape, exact
long options and one run of positionals, is read straight off that table
in one pass; any other, help and every usage error among them, goes to
argparse, which is imported only then.  Its parsers are built from the
same tables, with all five families registered, so every help text and
usage error is unchanged, and `json` is imported only to write JSON.

Every cap and budget of work lives in the library, next to the work it
bounds, so a handler reads no cap and prices no input: a refusal reaches
it as the library's CapExceeded, a ValueError like any other bad input.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import types

# the flags every parser takes, before or after the subcommand, as the
# name and the add_argument keywords of each, like a leaf's arguments
_COMMON = [("--json", {"action": "store_true", "help": "machine-readable output"}),
           ("--seed", {"type": int, "help": "seed for randomized property checks"})]
_DEFAULTS = {"json": False, "seed": 0}
# each family's help and the module whose LEAVES table holds its leaves,
# in help order
_FAMILIES = {
    "zs": ("zero-sum sequences over a finite abelian group", "cli_zs"),
    "quad": ("the quadratic order Z[w], w = (1+sqrt(-23))/2", "cli_quad"),
    "quat": ("quaternion identities over Q(sqrt(3))", "cli_quat"),
    "div": ("divisor calculus on cycles of maximal ideals", "cli_div"),
    "tring": ("triangular-order oracle over a DVR", "cli_tring"),
}


def _leaves(family: str) -> dict:
    """The family's LEAVES table, imported with its module."""
    return importlib.import_module(f"{__package__}.{_FAMILIES[family][1]}").LEAVES


def _parser(words):
    """The parser with every family registered, and the leaves of only the
    families named among words, whose modules alone are imported.  argparse
    picks a family only by its exact name in argv, so passing argv builds
    every family it can pick."""
    import argparse

    def common_flags():
        # SUPPRESS keeps a leaf parser from clobbering a value already
        # parsed at the top level
        common = argparse.ArgumentParser(add_help=False)
        for name, kwargs in _COMMON:
            common.add_argument(name, default=argparse.SUPPRESS, **kwargs)
        return common

    # the top level gets flag actions of its own: argparse shares action
    # objects with every parser built from the same parent, so these
    # defaults would otherwise replace the leaves' SUPPRESS
    parser = argparse.ArgumentParser(
        prog="nufact",
        description="factorization workbench: zero-sum sequences, quadratic "
                    "and quaternion orders, divisor calculus",
        epilog="arguments starting with '-' (e.g. the quaternion '-1-i-k') "
               "must follow a '--' separator",
        parents=[common_flags()],
    )
    parser.set_defaults(**_DEFAULTS)
    common = common_flags()
    sub = parser.add_subparsers(dest="command", required=True)
    for family, (help_text, _) in _FAMILIES.items():
        family_parser = sub.add_parser(family, help=help_text)
        if family in words:
            leaves = family_parser.add_subparsers(dest="subcommand", required=True)
            for leaf, (leaf_help, handler, arguments) in _leaves(family).items():
                p = leaves.add_parser(leaf, parents=[common], help=leaf_help)
                for name, kwargs in arguments:
                    p.add_argument(name, **kwargs)
                p.set_defaults(handler=handler)
    return parser


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _take(argv, i, kwargs, values):
    """Read the option argv[i] into values; the index after it, or None
    where argparse would read it otherwise or refuse it."""
    if kwargs.get("action") == "store_true":
        values[_dest(argv[i])] = True
        return i + 1
    if i + 1 == len(argv) or argv[i + 1].startswith("-"):
        return None
    try:
        values[_dest(argv[i])] = kwargs.get("type", str)(argv[i + 1])
    except ValueError:
        return None
    return i + 2


def _plain(argv):
    """The namespace argparse gives argv, if argv has the plain shape:
    common flags, a family and a leaf, then the leaf's exact long options
    and one run of positionals, which may follow a `--`.  None for any
    other shape, which argparse then parses: help, `=` forms, abbreviations,
    values that start with `-`, and every usage error.  Linear in argv."""
    values = dict(_DEFAULTS)
    options = dict(_COMMON)
    i = 0
    while i is not None and i < len(argv) and argv[i] in options:
        i = _take(argv, i, options[argv[i]], values)
    if i is None or len(argv) < i + 2 or argv[i] not in _FAMILIES:
        return None
    family, leaf = argv[i:i + 2]
    if leaf not in _leaves(family):
        return None
    _, handler, arguments = _leaves(family)[leaf]
    values.update(command=family, subcommand=leaf, handler=handler)
    positional = None
    for name, kwargs in arguments:
        if name.startswith("-"):
            options[name] = kwargs
            values[_dest(name)] = kwargs.get("default")
        else:
            positional = name, kwargs.get("nargs")
    given, run, i = set(), None, i + 2
    while i < len(argv):
        token = argv[i]
        if token == "--" and run is None:
            run, i = argv[i + 1:], len(argv)
        elif token in options:
            given.add(token)
            i = _take(argv, i, options[token], values)
            if i is None:
                return None
        elif token.startswith("-") or run is not None:
            return None
        else:
            start = i
            while i < len(argv) and not argv[i].startswith("-"):
                i += 1
            run = argv[start:i]
    if any(kwargs.get("required") and name not in given for name, kwargs in arguments):
        return None
    if positional is None:
        return None if run is not None else types.SimpleNamespace(**values)
    name, nargs = positional
    run = run or []
    if (len(run) == 1) if nargs is None else (nargs == "*" or run):
        values[name] = run[0] if nargs is None else run
        return types.SimpleNamespace(**values)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv) or _parser(argv).parse_args(argv)
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
