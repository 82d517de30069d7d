"""Per-layer tracing of constacodes, installed from outside the package.

The tracer replaces module attributes of an imported constacodes at run
time and restores them afterwards; it never edits the package.  Every
binding of a traced function is replaced, in every loaded constacodes
module, so internal calls that resolve through module globals (for
example chainring -> pi_degree, or cli -> build_factor_data imported by
name) are caught as well as calls through a module prefix.

Three kinds of wrapper:

  span   a call is one span: name, start, end and parent span;
  gen    a generator function; each resumption of the returned generator
         is one span, and every yielded item is counted;
  count  a call count only (field multiply and inverse), because timing
         every field operation would swamp the trace.

Self time is computed online as span duration minus the part of it that
child spans cover, so it is exact whatever the number of spans.  The
spans themselves are kept in memory up to MAX_STORED_SPANS and written
once, by write(), when the run ends; later spans still count towards
calls and self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

MAX_STORED_SPANS = 200_000

# (span name, module, attribute path, kind).  Each metric the benchmark
# reports names one of these spans; the rest attribute time to the
# module entry points so that each layer's self time means something.
TARGETS = [
    ("gf2m.mul", "gf2m", "GF2m.mul", "count"),
    ("gf2m.inv", "gf2m", "GF2m.inv", "count"),
    ("polyring.p_mul", "polyring", "p_mul", "span"),
    ("polyring.p_divmod", "polyring", "p_divmod", "span"),
    ("polyring.p_xgcd", "polyring", "p_xgcd", "span"),
    ("polyring.p_gcd", "polyring", "p_gcd", "span"),
    ("polyring.p_pow", "polyring", "p_pow", "span"),
    ("polyring.p_powmod", "polyring", "p_powmod", "span"),
    ("factorizer.factor_xn_delta", "factorizer", "factor_xn_delta", "span"),
    ("factorizer.build_factor_data", "factorizer", "build_factor_data", "span"),
    ("factorizer.is_irreducible", "factorizer", "is_irreducible", "span"),
    ("chainring.make_chain_ctx", "chainring", "make_chain_ctx", "span"),
    ("chainring.canonical_module_form", "chainring", "canonical_module_form", "span"),
    ("chainring.pi_degree", "chainring", "pi_degree", "span"),
    ("chainring.c_inv", "chainring", "c_inv", "span"),
    ("chainring.satisfies_u_closure", "chainring", "satisfies_u_closure", "span"),
    ("enumerator.enumerate_codes", "enumerator", "enumerate_codes", "gen"),
    ("enumerator.enumerate_ideals", "enumerator", "enumerate_ideals", "gen"),
    ("enumerator.iter_h", "enumerator", "iter_h", "gen"),
    ("enumerator.ideal_membership_check", "enumerator", "ideal_membership_check", "span"),
    ("enumerator.chain_contexts", "enumerator", "chain_contexts", "span"),
    ("enumerator.list_self_dual_length4", "enumerator", "list_self_dual_length4", "span"),
    ("ambient.closure", "ambient", "BitSpace.closure", "span"),
    ("ambient.rref", "ambient", "BitSpace.rref", "span"),
    ("ambient.brute_force_ideals", "ambient", "brute_force_ideals", "span"),
    ("ambient.recover_generators", "ambient", "recover_generators", "span"),
    ("ambient.dual_bit_basis", "ambient", "dual_bit_basis", "span"),
    ("ambient.psi_lift", "ambient", "psi_lift", "span"),
    ("ambient.code_ambient_generators", "ambient", "code_ambient_generators", "span"),
    ("ambient.code_bit_basis", "ambient", "code_bit_basis", "span"),
    ("cli.main", "cli", "main", "span"),
]

STREAMS = ("enumerator.enumerate_codes", "enumerator.enumerate_ideals", "enumerator.iter_h")


class Tracer:
    """Spans and counters for one traced pass over a request list."""

    def __init__(self) -> None:
        # Span 0 wraps one whole request, so the spans of a request share
        # that root; its self time is the benchmark's own glue plus the
        # program code no target covers.
        self.names = ["request"] + [t[0] for t in TARGETS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {"coeff_products": 0, "factors": 0, "generated": 0,
                         "oracle_closures": 0, "oracle_ideals": 0}
        # Open spans, innermost last: [name id, start, child coverage, stored index].
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- spans ------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        if idx < MAX_STORED_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, 0.0, 0.0, idx]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        nid, start, child, idx = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if stack:
            stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start - self.t0
            self.span_end[idx] = end - self.t0

    def request(self, fn, *args):
        """Call fn(*args) inside a request span."""
        frame = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _span_wrapper(self, nid: int, fn, pre=None, post=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if post is not None:
                post(result)
            return result

        return traced

    def _gen_wrapper(self, nid: int, fn, count_items: bool):
        enter, exit_ = self._enter, self._exit
        counters = self.counters

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                if count_items:
                    counters["generated"] += 1
                yield item

        return traced

    def _count_wrapper(self, nid: int, fn):
        calls = self.calls

        def counted(*args):
            calls[nid] += 1
            return fn(*args)

        return counted

    # -- installation -------------------------------------------------------

    def install(self, package: str = "constacodes") -> None:
        """Patch every binding of each target in the loaded package modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for name, modname, path, kind in TARGETS:
            owner = sys.modules[f"{package}.{modname}"]
            attrs = path.split(".")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, attrs[-1])
            nid = self.ids[name]
            if kind == "count":
                wrapper = self._count_wrapper(nid, orig)
            elif kind == "gen":
                wrapper = self._gen_wrapper(nid, orig, name == "enumerator.enumerate_codes")
            else:
                wrapper = self._span_wrapper(nid, orig, *self._hooks(name))
            if len(attrs) > 1:  # a method: the class attribute is the only binding
                self._patch(owner, attrs[-1], orig, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _hooks(self, name: str):
        counters = self.counters
        if name == "polyring.p_mul":
            def pre(args):
                counters["coeff_products"] += len(args[1]) * len(args[2])
            return pre, None
        if name == "factorizer.build_factor_data":
            def post(result):
                counters["factors"] += len(result.entries)
            return None, post
        if name == "ambient.brute_force_ideals":
            closure = self.ids["ambient.closure"]
            calls = self.calls
            mark = []

            def pre(args):
                mark.append(calls[closure])

            def post(result):
                counters["oracle_closures"] += calls[closure] - mark.pop()
                counters["oracle_ideals"] += len(result)
            return pre, post
        return None, None

    def _patch(self, owner, key: str, orig, wrapper) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.ids[name]]

    def self_of(self, name: str) -> float:
        return self.self_s[self.ids[name]]

    def write(self, path) -> None:
        """Write the stored spans once, times in microseconds from trace start."""
        doc = {
            "names": self.names,
            "stored": len(self.span_start),
            "dropped": self.dropped,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_us": [round(x * 1e6) for x in self.span_start],
                "end_us": [round(x * 1e6) for x in self.span_end],
            },
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
