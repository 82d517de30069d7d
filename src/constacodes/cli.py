"""Command-line front end.

Subcommands: factor, count, enumerate, oracle, selfdual.  All output is
JSON (schema field = 1) except `enumerate --format csv`, which emits a
flat descriptor table.  Exit codes: 0 success, also when the reader of
stdout closes the pipe early; 1 verification mismatch or a failed
internal certificate; 2 invalid input, including an --out path that
cannot be opened, and an output (stdout or --out) that cannot be
written.

`oracle` refuses a word space of more than 32 GF(2) dimensions, before
any set-up; the cap is ambient.DEFAULT_ORACLE_DIM_CAP and has no flag.

Every subcommand refuses n above 2^20 (params.N_CAP), `count` a count
over COUNT_BITS_CAP bits or COUNT_WORK_CAP bit operations, and the
others polynomials over SETUP_BITS_CAP bits or work over SETUP_WORK_CAP
bit operations, before any set-up and before 2^k is built.  `selfdual`
also refuses more than SELFDUAL_CAP listed codes, or, verified, codes
times word dimension 16m.  No cap has a flag.

`count` factors nothing: it reads the factor degrees off cyclotomic
cosets (factorizer.factor_degrees).  Counts and sizes print in full,
however many digits they have.

`enumerate` writes a JSON or CSV page from per-factor fragments.  The
stream is an odometer whose last factor moves fastest, so a factor's
descriptor text (JSON, or CSV fields, from one format string), ideal
size and lifted-word JSON are built when its descriptor changes and
reused by the codes that follow.  Lifted words come from one
lifttable.LiftTable per (factor, family, s, t) block the request
reaches, kept for that request only: in a block the generators are
affine in h, so a descriptor's lift is the block's lift at h = 0 with
one row xored in per set bit of its packed h.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from typing import ContextManager, IO

from . import ambient as amb
from . import enumerator as en
from .factorizer import build_factor_data, factor_degrees
from .lifttable import LiftTable
from .params import Params

SCHEMA = 1

# A count has about m*n*half bits, half = 2^(k-1)*lam, and its Horner
# sums take about half times that many bit operations.
COUNT_BITS_CAP = 1 << 20
COUNT_WORK_CAP = 1 << 34
# Every other subcommand works on polynomials of degree up to n*e,
# e = 2^k*lam, of m-bit coefficients: about m*n*e bits, and the chain
# contexts hold f^0 .. f^e for every factor, about m*n*e^2 bits.
SETUP_BITS_CAP = 1 << 15
SETUP_WORK_CAP = 1 << 24
# selfdual lists 1 + 2^m + 2*4^m codes, and verifying one closes it in
# a word space of 16m GF(2) dimensions.
SELFDUAL_CAP = 1 << 16


def _int_literal(text: str) -> int:
    """An int written as a Python integer literal: 283, 0x11b, 0b111."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, required=True, help="field extension degree")
    parser.add_argument("--n", type=int, default=1, help="odd length factor (default 1)")
    parser.add_argument("--k", type=int, default=2, help="power-of-two exponent (default 2)")
    parser.add_argument("--lambda", dest="lam", type=int, default=2,
                        help="half the u-nilpotency (default 2)")
    parser.add_argument("--delta", type=int, default=1, help="shift constant delta (default 1)")
    parser.add_argument("--alpha", type=int, default=1, help="shift constant alpha (default 1)")
    parser.add_argument("--reduction", type=_int_literal, default=None,
                        help="override the field reduction polynomial (packed bits; "
                             "decimal, or 0x, 0o or 0b prefixed)")
    parser.add_argument("--seed", type=int, default=0,
                        help="ignored; accepted so that existing invocations keep working")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="constacodes")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("factor", help="factor the core polynomial and print split data")
    _common(f)

    c = sub.add_parser("count", help="count all codes; both formulas must agree")
    _common(c)

    e = sub.add_parser("enumerate", help="stream code descriptors")
    _common(e)
    e.add_argument("--offset", type=int, default=0,
                   help="index of the first code; the stream seeks there directly")
    e.add_argument("--limit", type=int, default=None, help="number of codes (default all)")
    e.add_argument("--with-generators", action="store_true",
                   help="attach lifted generator words to each code")
    e.add_argument("--format", choices=("json", "csv"), default="json")

    o = sub.add_parser("oracle", help="diff the enumeration against the brute-force oracle")
    _common(o)

    s = sub.add_parser("selfdual", help="list the self-dual codes of length 4")
    _common(s)
    s.add_argument("--no-verify", dest="verify", action="store_false",
                   help="list the codes without checking self-duality")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main() call."""
    return build_parser()


def _make_params(args) -> Params:
    """The run's parameters, refused (ValueError) if the subcommand's
    work passes its caps: m*n*x bits or m*n*x^2 bit operations, with
    x = 2^(k-1)*lam for count and e = 2^k*lam for the others."""
    params = Params(args.m, args.n, args.k, args.lam, args.delta, args.alpha,
                    reduction=args.reduction)
    if args.cmd == "count":
        shift, bits_cap, work_cap = params.k - 1, COUNT_BITS_CAP, COUNT_WORK_CAP
    else:
        shift, bits_cap, work_cap = params.k, SETUP_BITS_CAP, SETUP_WORK_CAP
    # A k past the caps is refused without building 2^k.
    x = params.lam << min(shift, work_cap.bit_length())
    bits = params.m * params.n * x
    if bits > bits_cap or bits * x > work_cap:
        raise ValueError(f"{args.cmd} over {bits_cap} bits or {work_cap} bit operations")
    if args.cmd == "selfdual":
        codes = 1 + (1 << params.m) + (2 << 2 * params.m)
        if codes * (16 * params.m if args.verify else 1) > SELFDUAL_CAP:
            raise ValueError(f"selfdual over {SELFDUAL_CAP} codes, or verified codes times 16m")
    return params


def _open_out(args) -> ContextManager[IO[str]]:
    """The --out file, or stdout, which stays open for later callers."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open --out: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _decimal(x: int, width: int = 0) -> str:
    """Decimal digits of x >= 0, zero-padded to width.

    str(x) refuses ints over sys.get_int_max_str_digits() digits (4300
    by default); halving x by a power of ten keeps every str() call far
    below that without touching the process-wide limit.
    """
    half = x.bit_length() * 3 // 20  # about half the digit count
    if half < 1000:
        return str(x).zfill(width)
    hi, lo = divmod(x, 10**half)
    return _decimal(hi, width - half) + _decimal(lo, half)


def cmd_factor(args) -> int:
    params = _make_params(args)
    fd = build_factor_data(params)
    doc = {
        "schema": SCHEMA,
        "params": params.as_dict(),
        "factors": [{"degree": ent.degree, "coeffs": list(ent.f)} for ent in fd.entries],
        "cofactors": [list(ent.cofactor) for ent in fd.entries],
        "idempotents": [list(eps) for eps in fd.idempotents],
    }
    with _open_out(args) as out:
        out.write(_dump(doc) + "\n")
    return 0


def cmd_count(args) -> int:
    params = _make_params(args)
    # Sorted degrees list the factors in the order factor_xn_delta
    # gives them, which is sorted by degree first.
    degrees = factor_degrees(params.field, params.n, params.delta_root)
    # factor_counts raises ArithmeticError unless both count forms agree
    # on every factor, so the two totals are one product.
    counts = en.factor_counts(params, degrees)
    total = _decimal(math.prod(counts))
    doc = {
        "schema": SCHEMA,
        "params": params.as_dict(),
        "per_factor": [
            {"degree": d, "count": _decimal(c)} for d, c in zip(degrees, counts)
        ],
        "count_sum_form": total,
        "count_closed_form": total,
        "count": total,
    }
    with _open_out(args) as out:
        out.write(_dump(doc) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    if args.offset < 0 or (args.limit is not None and args.limit < 0):
        raise ValueError("--offset and --limit must be nonnegative")
    if args.with_generators and args.format == "csv":
        raise ValueError("--with-generators needs --format json")
    params = _make_params(args)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    total = en.count_codes(params, fd)
    stream = en.enumerate_codes(params, fd, ctxs, start=args.offset)
    window = itertools.islice(stream, args.limit)

    csv = args.format == "csv"
    # A descriptor's CSV fields or JSON: t, or "" or null when it has
    # none, and the digits of h joined by ";" or ",".
    desc_format, no_t, sep = (("%d,%d,%d,%s,%s", "", ";") if csv else
                              ('{"factor":%d,"family":%d,"s":%d,"t":%s,"h":[%s]}', "null", ","))
    with _open_out(args) as out:
        if csv:
            out.write("index,factor,family,s,t,h,size\n")
        else:
            limit = "null" if args.limit is None else str(args.limit)
            out.write('{"schema":%d,"params":%s,"total":"%s","offset":%d,"limit":%s,"codes":['
                      % (SCHEMA, _dump(params.as_dict()), _decimal(total), args.offset, limit))
        tables: dict[tuple, LiftTable] = {}
        # Per factor: (descriptor, its CSV fields or JSON, its ideal size,
        # its lifted words' JSON).  The stream passes a factor's
        # descriptor on while it is unchanged, so a new object is a new
        # descriptor (or, at worst, an equal one, rebuilt).
        slots = [(None, "", 1, "")] * fd.r
        for i, code in enumerate(window):
            for j, desc in enumerate(code.components):
                if slots[j][0] is not desc:
                    lifted = ""
                    if args.with_generators:
                        block = (j, desc.family, desc.s, desc.t)
                        if block not in tables:
                            tables[block] = LiftTable(params, fd, j, desc, ctxs[j])
                        lifted = tables[block].json(desc.h)
                    size = en.ideal_size(params, fd.entries[j].degree, desc)
                    text = desc_format % (desc.factor, desc.family, desc.s,
                                          no_t if desc.t is None else desc.t,
                                          sep.join(map(str, desc.h)))
                    slots[j] = (desc, text, size, lifted)
            size = _decimal(math.prod(slot[2] for slot in slots))
            if csv:
                out.write("".join(f"{args.offset + i},{slot[1]},{size}\n" for slot in slots))
                continue
            entry = '{"size":"%s","components":[%s]' % (size, ",".join(slot[1] for slot in slots))
            if args.with_generators:
                entry += ',"generators_lifted":[%s]' % ",".join(slot[3] for slot in slots)
            out.write(("," if i else "") + entry + "}")
        if not csv:
            out.write("]}\n")
    return 0


def cmd_oracle(args) -> int:
    params = _make_params(args)
    # First, so that a request over the cap is refused before any set-up.
    ideals = amb.brute_force_ideals(params)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    oracle_bases = {i.basis for i in ideals}

    # A list, not a set: a code enumerated twice must fail the run.
    enum_list = [amb.code_bit_basis(params, fd, code, ctxs).basis
                 for code in en.enumerate_codes(params, fd, ctxs)]
    enum_bases = set(enum_list)

    missing = sorted(oracle_bases - enum_bases)
    extra = sorted(enum_bases - oracle_bases)
    status = "PASS" if not missing and not extra and len(enum_list) == len(oracle_bases) else "FAIL"
    doc = {
        "schema": SCHEMA,
        "params": params.as_dict(),
        "enumerated": len(enum_list),
        "oracle": len(oracle_bases),
        "status": status,
        "missing": [[hex(r) for r in b] for b in missing],
        "extra": [[hex(r) for r in b] for b in extra],
        "ideals": [
            {
                "dim": i.dim,
                "size": _decimal(i.size),
                "generators": [hex(g) for g in amb.recover_generators(params, i)],
            }
            for i in ideals
        ],
    }
    with _open_out(args) as out:
        out.write(_dump(doc) + "\n")
    return 0 if status == "PASS" else 1


def cmd_selfdual(args) -> int:
    params = _make_params(args)
    codes = en.list_self_dual_length4(params)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    entries = []
    all_ok = True
    for code in codes:
        entry = {
            "size": _decimal(en.code_size(params, fd, code)),
            "components": [c.as_dict() for c in code.components],
        }
        if args.verify:
            basis = amb.code_bit_basis(params, fd, code, ctxs).basis
            dual = amb.dual_bit_basis(params, basis)
            entry["self_dual"] = dual == basis
            all_ok = all_ok and entry["self_dual"]
        entries.append(entry)
    expected = 1 + (1 << params.m) + 2 * (1 << (2 * params.m))
    doc = {
        "schema": SCHEMA,
        "params": params.as_dict(),
        "count": len(entries),
        "expected_count": expected,
        "verified": bool(args.verify),
        "codes": entries,
    }
    status_ok = len(entries) == expected and all_ok
    with _open_out(args) as out:
        out.write(_dump(doc) + "\n")
    return 0 if status_ok else 1


_DISPATCH = {
    "factor": cmd_factor,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "oracle": cmd_oracle,
    "selfdual": cmd_selfdual,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = _DISPATCH[args.cmd](args)
        # Flush here so a closed pipe raises inside this try, not at exit.
        sys.stdout.flush()
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has all it wanted.
        return 0
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script.  If stdout cannot take what main left in its
    buffer (a closed pipe or a full device, which main has reported), fd
    1 is pointed at devnull, so that the flush at exit does not raise."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(status)


if __name__ == "__main__":
    entry()
