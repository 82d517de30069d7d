"""constacodes benchmark: one workload, one process, one request at a time.

    python3 perfbench/run.py --workload {verify,count,page,oracle} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and never modified.  Everything the run writes goes to
.perfbench_work/ at the checkout root: the --out file of CLI requests,
one run record per workload and seed, and the span file of a traced run.

A run:
  1. builds the request list from the seed (workloads.py says why each
     workload was chosen; every list holds at least 100 requests);
  2. replays the list in a fixed number of passes, a closed loop with
     one request in flight, timing each request.  The pass count is
     --seconds divided by the workload's nominal pass time (PASS_S in
     workloads.py, at least MIN_PASSES), so it depends only on --seconds
     and is the same for every version of the package.  Each pass starts
     from a fresh import of the package and the workload's own set-up,
     so every pass does the same work, and issues the requests in its
     own seeded order, so that the repeats of one request fall at
     unrelated moments of the run;
  3. before each pass, takes set-up samples, each in a fresh interpreter
     (cold_setup.py), SETUP_REPEATS in all, spread over the run;
  4. checks every output outside the timed region, and compares the
     sha256 fingerprint of every output with the first pass and with the
     previous run record of the same workload, seed and source; a
     mismatch counts as a failed request.

Every timing is scaled to the reference host speed.  On a shared host
other tenants slow every CPU by up to 1.8x, in phases that last from one
to ten seconds and can cover a whole run.  So each pass times a host
probe (cold_setup.host_probe, a fixed piece of interpreter work that
does not use the package) every PROBE_EVERY_S, from a timer signal so
that probes fall inside long requests too, and each stretch of a
request between two probes is multiplied by PROBE_REF_S over their
mean; the probes' own time is left out.  The result is the time the
request would have taken in the host's fastest phase.  A request's
latency is then its best scaled time over the passes, which also drops
a one-off stall.  The run record keeps the unscaled metrics beside the
scaled ones.

--trace 0 reports the end-to-end metrics: wall_s (the sum of those
best-of-passes latencies, the time to finish the request list once),
op_p50_ms and op_p90_ms (their median and 90th percentile), setup_s (the
median scaled cold set-up sample) and peak_rss_mb (ru_maxrss of this
process).  --trace 1 runs one untraced pass, then one pass with the
tracer of tracer.py installed before the workload's set-up, and reports
the per-layer metrics of the traced pass (set-up included) and
trace.overhead_s, the scaled request time of the traced pass minus that
of the untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  failed counts requests whose output
check or fingerprint failed or that raised; correct is false when any of
them is not the known self-dual listing defect (see workloads.py) or a
whole-list check failed.  The line above it prints every metric with its
unit, ops (the requests in the list, each one latency sample) and
fail_ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cold_setup import PACKAGE, PROBE_REF_S, host_probe, load_package  # noqa: E402
from tracer import STREAMS, Tracer  # noqa: E402
from workloads import WORKLOADS, emitted_codes, fingerprint_bytes, is_cli_output  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
PROBE_EVERY_S = 0.05
MIN_PASSES = 3
MAX_ERRORS_SHOWN = 5


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def pass_count(workload, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / workload.PASS_S))


def cold_setup_s(name: str, seed: int, n: int) -> list[tuple[float, float]]:
    """n set-up samples, each from its own fresh interpreter, as (raw,
    scaled) pairs."""
    samples = []
    for _ in range(n):
        res = subprocess.run([sys.executable, str(HERE / "cold_setup.py"), name, str(seed)],
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"cold set-up of {name} failed:\n{res.stderr}")
        raw, scaled = res.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


class HostClock:
    """Host probes taken every PROBE_EVERY_S, and the scaled time of an
    interval computed from them.

    An interval timer raises SIGALRM, and the handler, which runs in the
    main thread between bytecodes, takes one probe; so probes also fall
    inside a long request.  The time spent in a probe is left out of
    every interval that contains it.  Use as a context manager around a
    pass: the timer runs only inside it, and a probe is taken on entry
    and on exit, so every interval within has a probe on each side.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.previous = None

    def probe(self, *_) -> None:
        t0 = perf_counter()
        p = host_probe()
        self.starts.append(t0)
        self.probes.append(p)
        self.ends.append(perf_counter())

    def __enter__(self) -> HostClock:
        self.probe()
        self.previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.probe()

    def times(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) time of [a, b], probes left out.  Each stretch
        between two probes is scaled by PROBE_REF_S over their mean."""
        k = bisect_right(self.ends, a) - 1
        raw = scaled = 0.0
        t = a
        while t < b:
            nxt = k + 1
            d = min(b, self.starts[nxt]) - t
            raw += d
            scaled += d * 2 * PROBE_REF_S / (self.probes[k] + self.probes[nxt])
            t, k = self.ends[nxt], nxt
        return raw, scaled


class Run:
    """Executes and checks passes of one workload's request list."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.errors_shown = 0

    def run_pass(self, cc, state, reqs, order=None, tracer=None):
        """One timed pass, issuing the requests in `order` (list order by
        default).

        Returns the pass wall time (probes included), and the raw and
        scaled latencies (HostClock.times) and the outputs, in list order.
        """
        wl, out = self.wl, self.wl.out
        execute = wl.execute if tracer is None else (
            lambda *args: tracer.request(wl.execute, *args))
        spans = [(0.0, 0.0)] * len(reqs)
        outputs = [None] * len(reqs)
        start = perf_counter()
        with HostClock() as clock:
            for i in range(len(reqs)) if order is None else order:
                req = reqs[i]
                if req[0] == "cli" and os.path.exists(out):
                    os.remove(out)
                t0 = perf_counter()
                try:
                    raw = execute(cc, state, req)
                except Exception:  # a failing request is counted, never fatal
                    spans[i] = (t0, perf_counter())
                    self.show_error(req)
                    continue
                spans[i] = (t0, perf_counter())
                outputs[i] = wl.output(state, req, raw)
        wall = perf_counter() - start
        raw, scaled = zip(*(clock.times(a, b) for a, b in spans))
        return wall, list(raw), list(scaled), outputs

    def show_error(self, req) -> None:
        if self.errors_shown < MAX_ERRORS_SHOWN:
            print(f"request {req!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.errors_shown += 1

    def check_pass(self, state, reqs, outputs, reference):
        """Verdicts and fingerprints of one pass, computed untimed.

        Returns (failed, unexpected, known, fingerprints); a request fails
        when it raised, its output check failed, or its fingerprint
        differs from `reference` (a list of hex digests, or None).
        """
        failed = unexpected = known = 0
        prints = []
        for i, (req, output) in enumerate(zip(reqs, outputs)):
            if output is None:
                failed += 1
                unexpected += 1
                prints.append("raised")
                continue
            digest = hashlib.sha256(fingerprint_bytes(output)).hexdigest()[:16]
            prints.append(digest)
            verdict = self.wl.check(state, req, output)
            if not verdict.ok:
                failed += 1
                if verdict.known_defect:
                    known += 1
                else:
                    unexpected += 1
            elif reference is not None and reference[i] != digest:
                failed += 1
                unexpected += 1
        return failed, unexpected, known, prints


def src_identity() -> tuple[int, str]:
    """Line count and sha256 of the package source."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def previous_fingerprints(path: Path, src_sha: str, n: int):
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    prints = rec.get("request_fingerprints")
    if rec.get("src_sha256") != src_sha or not isinstance(prints, list) or len(prints) != n:
        return None
    return prints


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    (WORK / "runs").mkdir(exist_ok=True)
    wl = WORKLOADS[name](str(WORK / f"out-{name}.json"))
    run = Run(wl)

    def fresh_setup(tracer=None):
        cc = load_package()
        if tracer is not None:
            tracer.install(PACKAGE)
        return cc, wl.setup(cc, seed)

    cc, state = fresh_setup()
    reqs, problems = wl.requests(cc, seed, state)
    for p in problems:
        print(f"list check failed: {p}", file=sys.stderr)
    src_lines, src_sha = src_identity()
    record_path = WORK / "runs" / f"{name}-seed{seed}.json"
    reference = previous_fingerprints(record_path, src_sha, len(reqs))

    passes = 2 if trace else pass_count(wl, seconds)
    setup_samples: list[tuple[float, float]] = []
    walls: list[float] = []
    pass_raw: list[list[float]] = []
    pass_scaled: list[list[float]] = []
    failed = unexpected = known = 0
    first_prints = None
    tracer = None
    for p in range(passes):
        if not trace:
            share = SETUP_REPEATS // passes + (p < SETUP_REPEATS % passes)
            setup_samples += cold_setup_s(name, seed, share)
        if trace and p == 1:
            tracer = Tracer()
        try:
            if p:
                cc, state = fresh_setup(tracer)
            gc.collect()  # the previous pass's package is garbage now; collect it untimed
            order = list(range(len(reqs)))
            if not trace:
                random.Random(f"order:{seed}:{p}").shuffle(order)
            wall, raw, scaled, outputs = run.run_pass(cc, state, reqs, order, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(wall)
        pass_raw.append(raw)
        pass_scaled.append(scaled)
        f, u, k, prints = run.check_pass(state, reqs, outputs, first_prints or reference)
        failed, unexpected, known = failed + f, unexpected + u, known + k
        if first_prints is None:
            first_prints = prints

    attempted = len(reqs) * len(walls)
    correct = unexpected == 0 and not problems
    if trace:
        metrics = layer_metrics(tracer, outputs, sum(pass_scaled[1]) - sum(pass_scaled[0]))
        tracer.write(WORK / f"trace-{name}-seed{seed}.json")
        unscaled = {}
    else:
        metrics = timing_metrics([min(x) for x in zip(*pass_scaled)],
                                 [s for _, s in setup_samples])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        unscaled = timing_metrics([min(x) for x in zip(*pass_raw)],
                                  [r for r, _ in setup_samples])

    combined = hashlib.sha256("".join(first_prints).encode()).hexdigest()
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_lines": src_lines, "src_sha256": src_sha,
        "requests": len(reqs), "pass_walls": walls, "setup_samples": setup_samples,
        "attempted": attempted, "failed": failed, "known_defect_failures": known,
        "correct": correct, "fingerprint": combined, "request_fingerprints": first_prints,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "unscaled_metrics": {k: v for k, (v, _) in unscaled.items()},
    }
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{name} seed={seed} ops={len(reqs)} passes={len(walls)} {shown} "
          f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted}, "
          f"known defect {known}) fingerprint={combined[:16]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def timing_metrics(best: list[float], setup: list[float]) -> dict:
    """wall_s, op_p50_ms, op_p90_ms and setup_s from per-request best
    latencies and set-up samples."""
    best = sorted(best)
    return {
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (quantile(best, 0.50) * 1e3, "ms"),
        "op_p90_ms": (quantile(best, 0.90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def layer_metrics(tr: Tracer, outputs, overhead_s: float) -> dict:
    """Per-layer metrics of the traced pass (the second one)."""
    c = tr.counters
    emitted = sum(emitted_codes(o) for o in outputs)
    cli_bytes = sum(len(o[1]) for o in outputs if is_cli_output(o))
    m = {}

    def calls(metric, span):
        m[metric] = (tr.calls_of(span), "count")

    def self_s(metric, span):
        m[metric] = (tr.self_of(span), "s")

    for fn in ("p_mul", "p_divmod", "p_xgcd"):
        calls(f"polyring.{fn}.calls", f"polyring.{fn}")
        self_s(f"polyring.{fn}.self_s", f"polyring.{fn}")
        if fn == "p_mul":
            m["polyring.p_mul.coeff_products"] = (c["coeff_products"], "count")
    calls("gf2m.mul.calls", "gf2m.mul")
    calls("gf2m.inv.calls", "gf2m.inv")
    calls("factorizer.build_factor_data.calls", "factorizer.build_factor_data")
    self_s("factorizer.build_factor_data.self_s", "factorizer.build_factor_data")
    self_s("factorizer.factor_xn_delta.self_s", "factorizer.factor_xn_delta")
    m["factorizer.factors"] = (c["factors"], "count")
    self_s("chainring.make_chain_ctx.self_s", "chainring.make_chain_ctx")
    for fn in ("canonical_module_form", "pi_degree", "c_inv"):
        calls(f"chainring.{fn}.calls", f"chainring.{fn}")
        self_s(f"chainring.{fn}.self_s", f"chainring.{fn}")
    self_s("chainring.satisfies_u_closure.self_s", "chainring.satisfies_u_closure")
    m["enumerator.generated"] = (c["generated"], "count")
    m["enumerator.emitted"] = (emitted, "count")
    m["enumerator.useful_ratio"] = (emitted / c["generated"] if c["generated"] else 0.0, "ratio")
    m["enumerator.stream.self_s"] = (sum(tr.self_of(s) for s in STREAMS), "s")
    calls("enumerator.ideal_membership_check.calls", "enumerator.ideal_membership_check")
    for fn in ("closure", "rref"):
        calls(f"ambient.{fn}.calls", f"ambient.{fn}")
        self_s(f"ambient.{fn}.self_s", f"ambient.{fn}")
    self_s("ambient.brute_force_ideals.self_s", "ambient.brute_force_ideals")
    m["ambient.oracle.useful_ratio"] = (
        c["oracle_ideals"] / c["oracle_closures"] if c["oracle_closures"] else 0.0, "ratio")
    for fn in ("dual_bit_basis", "psi_lift"):
        calls(f"ambient.{fn}.calls", f"ambient.{fn}")
        self_s(f"ambient.{fn}.self_s", f"ambient.{fn}")
    self_s("ambient.code_ambient_generators.self_s", "ambient.code_ambient_generators")
    calls("cli.main.calls", "cli.main")
    self_s("cli.self_s", "cli.main")
    m["cli.bytes_out"] = (cli_bytes, "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        print(lines[-2] if res.returncode == 0 and len(lines) >= 2
              else f"{name}: exit {res.returncode}\n{res.stderr}")
        status = status or res.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
