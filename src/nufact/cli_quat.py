"""The `quat` command: identity verification over Q(sqrt(3)).
`nufact.cli` imports this module only when argv names `quat`."""

from . import quatcheck


def cmd_quat_verify(args):
    factors, product, ok = quatcheck.verify_texts(args.factors, args.product)
    payload = {
        "factors": [quatcheck.format_quat(f) for f in factors],
        "product": quatcheck.format_quat(product),
        "verified": ok,
    }
    return payload, "verified" if ok else "FAILED"


def add_leaves(leaves, common):
    p = leaves.add_parser("verify", parents=[common], help="check product and order membership")
    p.add_argument("factors", nargs="+", help="e.g. 'i+j' '-1-i-k'")
    p.add_argument("--product", required=True, help="e.g. '1-2i+k'")
    p.set_defaults(handler=cmd_quat_verify)
