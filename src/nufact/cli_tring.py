"""The `tring` commands: the triangular-order oracle.  `nufact.cli`
imports this module only when argv names `tring`, and `tring oracle` alone
runs the oracle module."""

from . import toracle, tring


def cmd_tring_mul(args):
    acc = tring.mul_texts(args.matrices)
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
    report = toracle.oracle_report(l=args.size, max_exp=args.max_exp,
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


def add_leaves(leaves, common):
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
