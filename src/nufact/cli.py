"""Command-line frontend.

One binary with a subcommand tree (zs / quad / quat / div / tring), sharing
the text syntaxes of the library modules.  Every command emits human-readable
text by default and a stable JSON document with --json; identical inputs give
byte-identical output.  Exit codes: 0 success, 1 domain error (bad input
values, caps, an --out file that cannot be written, a stdout closed before
the output was all written), 2 usage error.

This module is the dispatcher alone: the common flags, the top-level
parser and `main`.  Each family's handlers and leaf parsers live in a
module of their own, `nufact.cli_<family>`, which is imported, and so
compiled, only when argv names that family.  The top-level parser
registers all five families with their help, so every help text and usage
error is unchanged, and `json` is imported only to write JSON.

Every cap and budget of work lives in the library, next to the work it
bounds, so a handler reads no cap and prices no input: a refusal reaches
it as the library's CapExceeded, a ValueError like any other bad input.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import os
import sys


def _common_flags() -> argparse.ArgumentParser:
    # shared flags, accepted before or after the subcommand; SUPPRESS keeps a
    # leaf parser from clobbering a value already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized property checks")
    return common


# each family's help and the module whose add_leaves adds its leaves, in
# help order
_FAMILIES = {
    "zs": ("zero-sum sequences over a finite abelian group", "cli_zs"),
    "quad": ("the quadratic order Z[w], w = (1+sqrt(-23))/2", "cli_quad"),
    "quat": ("quaternion identities over Q(sqrt(3))", "cli_quat"),
    "div": ("divisor calculus on cycles of maximal ideals", "cli_div"),
    "tring": ("triangular-order oracle over a DVR", "cli_tring"),
}


def _parser(words) -> argparse.ArgumentParser:
    """The parser with every family registered, and the leaves of only the
    families named among words, whose modules alone are imported.  argparse
    picks a family only by its exact name in argv, so passing argv builds
    every family it can pick."""
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
    for name, (help_text, module) in _FAMILIES.items():
        family = sub.add_parser(name, help=help_text)
        if name in words:
            family_cli = importlib.import_module(f"{__package__}.{module}")
            family_cli.add_leaves(family.add_subparsers(dest="subcommand", required=True), common)
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
