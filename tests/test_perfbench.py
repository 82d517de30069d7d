"""The benchmark's tracer patches package functions by name; a name it
cannot resolve makes `perfbench/run.py --trace 1` fail at install."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    for name, modname, path, _kind in targets:
        owner = importlib.import_module(f"constacodes.{modname}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: constacodes.{modname}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), name
