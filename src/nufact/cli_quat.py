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


# the leaf: its help, its handler and its arguments, as the name and the
# add_argument keywords of each, in help order
LEAVES = {
    "verify": ("check product and order membership", cmd_quat_verify, [
        ("factors", {"nargs": "+", "help": "e.g. 'i+j' '-1-i-k'"}),
        ("--product", {"required": True, "help": "e.g. '1-2i+k'"})]),
}
