"""Run one nufact CLI command with the public functions of each module
wrapped in timing spans.

    python perfbench/traced.py TRACE_OUT [CLI ARGS...]

Imports ``nufact.cli`` (timed), wraps the functions in LAYERS wherever a
module binds them, calls ``nufact.cli.main(argv)`` through a span of its
own, and writes one record per function to TRACE_OUT as JSON when the
process exits: calls, total time, self time (total minus wrapped children)
and exceptions raised.  A listed function that no longer exists is reported
under "absent".  The program's files are not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "abelian": ["enumerate_elements"],
    "zerosum": ["davenport", "atoms", "factorizations", "length_set",
                "half_factorial_witness"],
    "quadring": ["elements_of_norm", "is_atom", "divides", "element_factorizations"],
    "quatcheck": ["hmul", "in_order", "verify_identity"],
    "divcalc": ["compose", "apply_lifted", "is_realizable",
                "enumerate_factorizations_ex", "render_svg"],
    "tring": ["mul", "is_ideal", "divisor_of", "enumerate_ideals", "oracle_report"],
}


class Tracer:
    """Spans aggregated in memory, one record per function:
    [calls, total_s, self_s, errors]."""

    def __init__(self):
        self.records = {}
        self._children = [0.0]  # wrapped time inside each open span

    def wrap(self, name, fn):
        rec = self.records[name] = [0, 0.0, 0.0, 0]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[3] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = children.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                children[-1] += elapsed
        return span


def install(tracer: Tracer) -> list:
    """Wrap every listed function in every nufact module that binds it (so
    ``tring.compose``, which is ``divcalc.compose``, counts once and nests
    correctly).  Returns the names of listed functions that do not exist."""
    modules = [m for name, m in sys.modules.items()
               if name == "nufact" or name.startswith("nufact.")]
    absent = []
    for mod_name, functions in LAYERS.items():
        try:
            mod = importlib.import_module(f"nufact.{mod_name}")
        except ImportError:
            absent += [f"{mod_name}.{f}" for f in functions]
            continue
        for fname in functions:
            fn = getattr(mod, fname, None)
            if not callable(fn):
                absent.append(f"{mod_name}.{fname}")
                continue
            span = tracer.wrap(f"{mod_name}.{fname}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, span)
    return absent


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import nufact.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    absent = install(tracer)
    cli_main = tracer.wrap("cli.main", nufact.cli.main)
    code = 1
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": code, "absent": absent,
                       "records": tracer.records}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
