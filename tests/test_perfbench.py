"""The benchmark's tracer patches package functions by name; a name it
cannot resolve makes `perfbench/run.py --trace 1` fail at install.  The
verify workload's own requests and checks also run here, on a sample,
plain and with the tracer installed."""

import importlib
import importlib.util
from pathlib import Path

from reference import canonical_module_form as reference_form

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    targets = _load_perfbench("tracer").TARGETS
    assert targets
    for name, modname, path, _kind in targets:
        owner = importlib.import_module(f"constacodes.{modname}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: constacodes.{modname}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), name


def _verify_workload():
    """The benchmark's verify workload at seed 7 over the package already
    imported, not reloaded: (workloads module, package, workload, state,
    requests)."""
    cold_setup = _load_perfbench("cold_setup")
    workloads = _load_perfbench("workloads")
    cc = cold_setup.Package(
        importlib.import_module("constacodes"),
        {name: importlib.import_module(f"constacodes.{name}") for name in cold_setup.MODULES},
    )
    wl = workloads.Verify(None)
    state = wl.setup(cc, 7)
    reqs, problems = wl.requests(cc, 7, state)
    assert problems == []
    return workloads, cc, wl, state, reqs


def test_verify_workload_sample():
    # the benchmark's verify path with its own checks, on every 25th request
    workloads, cc, wl, state, reqs = _verify_workload()
    for req in reqs[::25]:
        assert wl.check(state, req, wl.execute(cc, state, req)) is workloads.OK, req


def test_verify_forms_match_reference():
    # every 10th verify row set: the pivot-free form against the
    # pivot-and-invert reference
    _, cc, _, state, reqs = _verify_workload()
    en = cc.enumerator
    for _, pi, j, family, s, t, h in reqs[::10]:
        params, _, ctxs = state[pi]
        rows = en.descriptor_module_rows(params, ctxs[j - 1], en.IdealDescriptor(j, family, s, t, h))
        assert cc.chainring.canonical_module_form(ctxs[j - 1], rows) == reference_form(ctxs[j - 1], rows)


def test_tracer_runs_over_packed_kernel():
    # the tracer wraps the tuple API by name and counts p_mul's products
    # by len(); the package must still call those bindings, and
    # uninstall must put the originals back
    tracer = _load_perfbench("tracer").Tracer()
    _, cc, wl, state, reqs = _verify_workload()
    p_mul, closure = cc.polyring.p_mul, cc.chainring.satisfies_u_closure
    tracer.install()
    try:
        for req in reqs[::50]:
            before = tracer.calls_of("chainring.satisfies_u_closure")
            assert tracer.request(wl.execute, cc, state, req) is True, req
            assert tracer.calls_of("chainring.satisfies_u_closure") == before + 1
    finally:
        tracer.uninstall()
    assert tracer.counters["coeff_products"] > 0
    assert cc.polyring.p_mul is p_mul
    assert cc.chainring.satisfies_u_closure is closure
