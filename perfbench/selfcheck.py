"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Confirms that
  * the same seed yields the same request list for every workload, and
    another seed yields another list;
  * a corrupted output, a request that raised, and a fingerprint that
    differs from the reference each count as a failed request, through
    the same counting code a benchmark run uses;
  * a self-dual check that hits the known listing defect is counted as
    failed and marked as that defect.
Exits 0 when every check holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys

from run import SRC, WORK, Run, load_package
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def request_lists(name: str, seed: int):
    wl = WORKLOADS[name](str(WORK / f"selfcheck-{name}.json"))
    cc = load_package()
    state = wl.setup(cc, seed)
    return wl.requests(cc, seed, state)[0]


def failures_of(run: Run, state, reqs, outputs, reference=None) -> tuple[int, int]:
    failed, _, known, _ = run.check_pass(state, reqs, outputs, reference)
    return failed, known


def check_corruption(cc) -> None:
    # count: a correct output passes; a wrong total, a wrong degree or a
    # nonzero exit code fail.
    wl = WORKLOADS["count"](str(WORK / "selfcheck-count.json"))
    run = Run(wl)
    req = next(r for r in wl.requests(cc, 0, None)[0] if r[1][2:5] == ("3", "--n", "1"))
    _, _, _, outputs = run.run_pass(cc, None, [req])
    rc, data = outputs[0]
    expect(failures_of(run, None, [req], outputs) == (0, 0), "count: correct output passes")
    doc = json.loads(data)
    doc["count"] = str(int(doc["count"]) + 1)
    bad = (rc, json.dumps(doc).encode())
    expect(failures_of(run, None, [req], [bad]) == (1, 0), "count: corrupted total fails")
    doc = json.loads(data)
    doc["per_factor"][0]["degree"] += 1
    bad = (rc, json.dumps(doc).encode())
    expect(failures_of(run, None, [req], [bad]) == (1, 0), "count: corrupted degree fails")
    expect(failures_of(run, None, [req], [(1, data)]) == (1, 0), "count: exit code 1 fails")
    expect(failures_of(run, None, [req], [None]) == (1, 0), "count: a request that raised fails")
    expect(failures_of(run, None, [req], outputs, ["0" * 16]) == (1, 0),
           "count: fingerprint mismatch fails")

    # page: one request with generators at the lowest offset stratum.
    wl = WORKLOADS["page"](str(WORK / "selfcheck-page.json"))
    run = Run(wl)
    req = wl.requests(cc, 0, None)[0][3]
    _, _, _, outputs = run.run_pass(cc, None, [req])
    rc, data = outputs[0]
    expect(failures_of(run, None, [req], outputs) == (0, 0), "page: correct output passes")
    for what, corrupt in (
        ("size", lambda d: d["codes"][5].update(size=str(int(d["codes"][5]["size"]) * 2))),
        ("window length", lambda d: d["codes"].pop()),
        ("total", lambda d: d.update(total=str(int(d["total"]) - 1))),
        ("generators", lambda d: d["codes"][0]["generators_lifted"].pop()),
    ):
        doc = json.loads(data)
        corrupt(doc)
        bad = (rc, json.dumps(doc).encode())
        expect(failures_of(run, None, [req], [bad]) == (1, 0), f"page: corrupted {what} fails")

    # verify: a False certificate fails.
    wl = WORKLOADS["verify"](str(WORK / "selfcheck-verify.json"))
    run = Run(wl)
    state = wl.setup(cc, 0)
    req = wl.requests(cc, 0, state)[0][0]
    _, _, _, outputs = run.run_pass(cc, state, [req])
    expect(failures_of(run, state, [req], outputs) == (0, 0), "verify: True certificate passes")
    expect(failures_of(run, state, [req], [False]) == (1, 0), "verify: False certificate fails")

    # oracle: size law and self-duality, including the known defect.
    wl = WORKLOADS["oracle"](str(WORK / "selfcheck-oracle.json"))
    run = Run(wl)
    state = wl.setup(cc, 0)
    reqs = wl.requests(cc, 0, state)[0]
    size_req = next(r for r in reqs if r[0] == "sizelaw" and r[3] == 70)
    _, _, _, outputs = run.run_pass(cc, state, [size_req])
    basis, dual = outputs[0]
    expect(failures_of(run, state, [size_req], outputs) == (0, 0), "oracle: size law passes")
    expect(failures_of(run, state, [size_req], [(basis[1:], dual)]) == (1, 0),
           "oracle: corrupted basis fails the size law")
    codes = state[(2, 2)][3]
    defect = next(r for r in reqs
                  if r[:3] == ("selfdual", 2, 2) and codes[r[3]].components[0].family == 6)
    clean = next(r for r in reqs
                 if r[:3] == ("selfdual", 2, 1) and codes[r[3]].components[0].family == 6)
    _, _, _, outputs = run.run_pass(cc, state, [defect, clean])
    expect(failures_of(run, state, [defect], outputs[:1]) == (1, 1),
           "oracle: family-6 code at alpha=2 fails as the known defect")
    expect(failures_of(run, state, [clean], outputs[1:]) == (0, 0),
           "oracle: family-6 code at alpha=1 is self-dual")


def main() -> int:
    if not (SRC / "constacodes" / "__init__.py").is_file():
        print(f"error: no constacodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        a, b, c = request_lists(name, 7), request_lists(name, 7), request_lists(name, 8)
        expect(a == b and len(a) > 0, f"{name}: seed 7 gives the same {len(a)} requests twice")
        expect(a != c, f"{name}: seed 8 gives another request list")
    check_corruption(load_package())
    print(f"{len(FAILURES)} self-check failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
