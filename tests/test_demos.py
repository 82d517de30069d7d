import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a change to any printed value shows here
DEMO_STDOUT_SHA256 = {
    "01_field_and_polynomials": "cd87803262c99430bac42439deccc890d56d18e3a4750b8dcb8b3183bc3baad8",
    "02_factor_split": "5b3d4c0023e26b6f1a7cae0821284bd06b5120d593f4903024e0610d12e47dbf",
    "03_chainring_forms": "89241bd8061a2410c040daaeb7f69c35a51c0ece9d432db56501a872987c3840",
    "04_enumerate_and_count": "e91b600a65a9c3264d14bf956fe1d17d3c9523c921750ed12ed58eda9ae6d413",
    "05_oracle_crosscheck": "58c5f7847c9ef7fee110cd17997fe32ace5d989563b22adb09b2863306080f00",
    "06_self_dual": "71cd19318a5643d3b960092f760e237964629ec4537ad135b54cf87023e2fa6f",
}
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    res = _run([str(demo)])
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[demo.stem]


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    res = _run(["-c", block])
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
