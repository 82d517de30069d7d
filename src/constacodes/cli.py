"""Command-line front end.

Subcommands: factor, count, enumerate, oracle, selfdual.  All output is
JSON (schema field = 1) except `enumerate --format csv`, which emits a
flat descriptor table.  Exit codes: 0 success, also when the reader of
stdout closes the pipe early; 1 verification mismatch or a failed
internal certificate; 2 invalid input, including an --out path that
cannot be opened, and an output (stdout or --out) that cannot be
written.

An argv that starts with a subcommand name is read by that subcommand's
own parser alone; the top-level parser only prints help and errors,
including the unrecognized arguments the subcommand's parser leaves.

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

`enumerate` writes a JSON or CSV page run by run: enumerator.code_runs
yields the codes in runs that share the leading factors' descriptors
and the last factor's (family, s, t) block and differ only in h.  For
each (factor, family, s, t) block the request reaches it keeps, for
that request only: the descriptor text (JSON, or CSV fields) before h's
digits, the ideal size and, with --with-generators, a
lifttable.LiftTable.  A descriptor's text is then that prefix, h's
digits and a fixed suffix.  Per run it builds the code's size and the
text and lifted words of the leading factors; per code it only joins
h's digits and, with --with-generators, prints the block's words at h.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
        if _self_dual_count(params.m) * (16 * params.m if args.verify else 1) > SELFDUAL_CAP:
            raise ValueError(f"selfdual over {SELFDUAL_CAP} codes, or verified codes times 16m")
    return params


def _self_dual_count(m: int) -> int:
    """1 + 2^m + 2*4^m, the number of codes selfdual lists."""
    return 1 + (1 << m) + (2 << 2 * m)


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


def _write(args, params: Params, **body) -> None:
    """One JSON document, schema and params first, to --out or stdout."""
    with _open_out(args) as out:
        out.write(_dump({"schema": SCHEMA, "params": params.as_dict(), **body}) + "\n")


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
    _write(args, params,
           factors=[{"degree": ent.degree, "coeffs": list(ent.f)} for ent in fd.entries],
           cofactors=[list(cof) for cof in fd.cofactors],
           idempotents=[list(eps) for eps in fd.idempotents])
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
    _write(args, params,
           per_factor=[{"degree": d, "count": _decimal(c)} for d, c in zip(degrees, counts)],
           count_sum_form=total, count_closed_form=total, count=total)
    return 0


def cmd_enumerate(args) -> int:
    if args.offset < 0 or (args.limit is not None and args.limit < 0):
        raise ValueError("--offset and --limit must be nonnegative")
    if args.with_generators and args.format == "csv":
        raise ValueError("--with-generators needs --format json")
    params = _make_params(args)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    if args.with_generators:  # run the certificates before any output
        fd.idempotents
        for ctx in ctxs:
            ctx.u_root
    counts = en.factor_counts(params, [ent.degree for ent in fd.entries])
    total = math.prod(counts)

    csv = args.format == "csv"
    # A descriptor's CSV fields or JSON, split around the digits of h,
    # which are joined by ";" or ","; t is "" or null when it has none.
    desc_format, no_t, sep, close = ((",%d,%d,%d,%s,", "", ";", "") if csv else
                                     ('{"factor":%d,"family":%d,"s":%d,"t":%s,"h":[', "null",
                                      ",", "]}"))
    # Per (factor, family, s, t) block the page reaches: a descriptor's
    # text before h, its ideal size and, with generators, its lift table.
    blocks: dict[tuple, tuple] = {}

    def block(j: int, desc: en.IdealDescriptor) -> tuple:
        at = (j, desc.family, desc.s, desc.t)
        if at not in blocks:
            blocks[at] = (desc_format % (desc.factor, desc.family, desc.s,
                                          no_t if desc.t is None else desc.t),
                           en.ideal_size(params, fd.entries[j].degree, desc),
                           args.with_generators and LiftTable(params, fd, j, desc, ctxs[j]))
        return blocks[at]

    with _open_out(args) as out:
        if csv:
            out.write("index,factor,family,s,t,h,size\n")
        else:
            limit = "null" if args.limit is None else str(args.limit)
            out.write('{"schema":%d,"params":%s,"total":"%s","offset":%d,"limit":%s,"codes":['
                      % (SCHEMA, _dump(params.as_dict()), _decimal(total), args.offset, limit))
        # The page's code indices, shared by the runs; zip takes h first,
        # so a run that runs out uses up no index.
        stop = total if args.limit is None else args.offset + args.limit
        indices = iter(range(args.offset, stop))
        runs = en.code_runs(params, ctxs, counts, args.offset) if args.offset < stop else ()
        for lead, last, hs in runs:
            entries = [block(j, d) for j, d in enumerate((*lead, en.IdealDescriptor(*last)))]
            size = _decimal(math.prod(e[1] for e in entries))
            prefix, _, table = entries.pop()
            texts = [e[0] + sep.join(map(str, d.h)) + close for e, d in zip(entries, lead)]
            if csv:
                end = "," + size + "\n"
                rows = ["", *(t + end for t in texts), ""]
            else:
                head = '{"size":"%s","components":[%s' % (size, "".join(t + "," for t in texts))
                end = close + ('],"generators_lifted":[' + "".join(
                    e[2].json(d.h) + "," for e, d in zip(entries, lead)) if table else "]}")
            for h, index in zip(hs, indices):
                digits = sep.join(map(str, h))
                if csv:
                    out.write(str(index).join(rows) + prefix + digits + end)
                else:
                    out.write(("," if index != args.offset else "") + head + prefix + digits + end
                              + (table.json(h) + "]}" if table else ""))
            if index == stop - 1:
                break
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
    _write(args, params,
           enumerated=len(enum_list),
           oracle=len(oracle_bases),
           status=status,
           missing=[[hex(r) for r in b] for b in missing],
           extra=[[hex(r) for r in b] for b in extra],
           ideals=[{"dim": i.dim, "size": _decimal(i.size),
                    "generators": [hex(g) for g in amb.recover_generators(params, i)]}
                   for i in ideals])
    return 0 if status == "PASS" else 1


def cmd_selfdual(args) -> int:
    params = _make_params(args)
    codes = en.list_self_dual_length4(params)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    entries = []
    all_ok = True
    for code in codes:
        entry = {"size": _decimal(en.code_size(params, fd, code)), **code.as_dict()}
        if args.verify:
            basis = amb.code_bit_basis(params, fd, code, ctxs).basis
            dual = amb.dual_bit_basis(params, basis)
            entry["self_dual"] = dual == basis
            all_ok = all_ok and entry["self_dual"]
        entries.append(entry)
    expected = _self_dual_count(params.m)
    _write(args, params, count=len(entries), expected_count=expected,
           verified=bool(args.verify), codes=entries)
    return 0 if len(entries) == expected and all_ok else 1


_DISPATCH = {
    "factor": cmd_factor,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "oracle": cmd_oracle,
    "selfdual": cmd_selfdual,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    # The subcommand parsers: the choices of the action add_subparsers returned.
    sub = argv and parser._actions[-1].choices.get(argv[0])
    if not sub:
        args = parser.parse_args(argv)
    else:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
