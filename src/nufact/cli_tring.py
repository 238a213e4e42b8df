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


# each leaf: its help, its handler and its arguments, as the name and the
# add_argument keywords of each, in help order
LEAVES = {
    "mul": ("min-plus product of exponent matrices", cmd_tring_mul, [
        ("matrices", {"nargs": "+", "help": "JSON rows, e.g. '[[0,1,1],[0,0,1],[0,0,1]]'"})]),
    "divisor": ("divisor of an ideal (row sums of its exponent matrix)", cmd_tring_divisor, [
        ("matrix", {})]),
    "tau": ("double left dual of an ideal", cmd_tring_tau, [("matrix", {})]),
    "oracle": ("cross-validate the divisor calculus", cmd_tring_oracle, [
        ("--size", {"type": int, "default": 3}), ("--max-exp", {"type": int, "default": 2}),
        ("--trials", {"type": int, "default": 20})]),
}
