import functools
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from constacodes import ambient as amb
from constacodes import chainring as cr
from constacodes import cli
from constacodes import enumerator as en
from constacodes import factorizer
from constacodes.gf2m import GF2m
from constacodes import polyring as pr
from constacodes.params import Params

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "constacodes.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        timeout=timeout,
    )


def test_count_135():
    res = run_cli("count", "--m", "1", "--n", "1", "--k", "2", "--lambda", "2",
                  "--delta", "1", "--alpha", "1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["schema"] == 1
    assert doc["count"] == "135"
    assert doc["count_sum_form"] == doc["count_closed_form"] == "135"


def test_count_multifactor():
    res = run_cli("count", "--m", "1", "--n", "3")
    doc = json.loads(res.stdout)
    assert doc["count"] == "106515"
    assert [f["count"] for f in doc["per_factor"]] == ["135", "789"]


def test_factor_n3():
    res = run_cli("factor", "--m", "1", "--n", "3", "--delta", "1", "--k", "2",
                  "--lambda", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert [f["degree"] for f in doc["factors"]] == [1, 2]
    assert doc["factors"][0]["coeffs"] == [1, 1]
    assert doc["factors"][1]["coeffs"] == [1, 1, 1]


def test_factor_f4_three_linears():
    res = run_cli("factor", "--m", "2", "--n", "3", "--delta", "1")
    doc = json.loads(res.stdout)
    assert [f["degree"] for f in doc["factors"]] == [1, 1, 1]


def test_invalid_n_exit_2():
    res = run_cli("factor", "--m", "1", "--n", "4", "--delta", "1")
    assert res.returncode == 2
    assert "odd" in res.stderr


def test_invalid_delta_exit_2():
    res = run_cli("count", "--m", "1", "--delta", "0")
    assert res.returncode == 2
    assert "delta" in res.stderr


def test_threads_flag_removed():
    res = run_cli("count", "--m", "1", "--threads", "2")
    assert res.returncode == 2


def test_oracle_dim_cap_flag_removed():
    res = run_cli("oracle", "--m", "1", "--n", "1", "--oracle-dim-cap", "8")
    assert res.returncode == 2


def test_oracle_cap_checked_before_setup(monkeypatch, capsys, tmp_path):
    # A refused request builds neither the GF(2) space nor the factor data.
    spaces, factorings = [], []
    real_fd = cli.build_factor_data

    class CountedSpace(amb.BitSpace):
        def __init__(self, *args):
            spaces.append(args)
            super().__init__(*args)

    def counted_fd(*args, **kwargs):
        factorings.append(args)
        return real_fd(*args, **kwargs)

    monkeypatch.setattr(amb, "BitSpace", CountedSpace)
    monkeypatch.setattr(cli, "build_factor_data", counted_fd)
    for argv, dim in [("--m 2 --n 31 --lambda 3", 1488),
                      ("--m 1 --n 127 --k 5 --lambda 8", 65024)]:
        assert cli.main(["oracle", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: oracle dimension {dim} exceeds the cap of 32\n"
    assert spaces == [] and factorings == []
    # The counters see an accepted request.
    assert cli.main(["oracle", "--m", "1", "--n", "1", "--out", str(tmp_path / "o")]) == 0
    assert len(spaces) == len(factorings) == 1


def test_reduction_override():
    # x^4 + x^3 + 1 instead of the built-in x^4 + x + 1
    res = run_cli("count", "--m", "4", "--reduction", "25", "--n", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["count"] == "88545"
    # reducible override rejected
    bad = run_cli("count", "--m", "4", "--reduction", "21", "--n", "1")
    assert bad.returncode == 2


@pytest.mark.parametrize("m, literal, decimal", [(8, "0x11b", "283"), (2, "0b111", "7")])
def test_reduction_accepts_prefixed_literals(tmp_path, m, literal, decimal):
    outs = []
    for text in (literal, decimal):
        out = tmp_path / f"{text}.json"
        assert cli.main(["count", "--m", str(m), "--reduction", text, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reduction_not_a_number_exit_2():
    res = run_cli("count", "--m", "8", "--reduction", "0x11g")
    assert res.returncode == 2
    assert res.stdout == ""
    assert [line for line in res.stderr.splitlines() if "error" in line] == [
        "constacodes count: error: argument --reduction: invalid integer: '0x11g'"]
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("m,reduction", [(2, "-7"), (1, "-3")])
def test_negative_reduction_exit_2(m, reduction):
    # -7 has the bit length of a degree-2 polynomial; the irreducibility
    # test never ends on it.  -3 used to build a field.
    res = run_cli("count", "--m", str(m), "--reduction", reduction, timeout=20)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: reduction polynomial must be nonnegative")
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_reducible_reduction_without_tables_exit_2():
    # m = 13 has no log tables; y^13 + 1 is refused with one line.
    res = run_cli("count", "--m", "13", "--reduction", "8193", timeout=20)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: reduction polynomial 0b10000000000001 is reducible over GF(2)"]


def test_enumerate_pagination_and_determinism(tmp_path):
    args = ("enumerate", "--m", "1", "--n", "3", "--limit", "1000")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["total"] == "106515"
    assert len(doc["codes"]) == 1000

    # a shifted window overlaps consistently
    c = json.loads(run_cli("enumerate", "--m", "1", "--n", "3", "--offset", "500",
                           "--limit", "10").stdout)
    assert c["codes"][0] == doc["codes"][500]


def test_enumerate_full_small_stream():
    res = run_cli("enumerate", "--m", "1", "--n", "1")
    doc = json.loads(res.stdout)
    assert len(doc["codes"]) == 135
    sizes = {c["size"] for c in doc["codes"]}
    assert "1" in sizes and "65536" in sizes


def test_enumerate_with_generators():
    res = run_cli("enumerate", "--m", "1", "--n", "1", "--limit", "2",
                  "--with-generators")
    doc = json.loads(res.stdout)
    for code in doc["codes"]:
        assert 1 <= len(code["generators_lifted"]) <= 2
        for gen in code["generators_lifted"]:
            assert len(gen) == 4          # N coefficients
            assert all(len(c) == 4 for c in gen)  # 2*lam digits


def test_enumerate_csv(tmp_path):
    out = tmp_path / "codes.csv"
    res = run_cli("enumerate", "--m", "1", "--n", "1", "--limit", "5",
                  "--format", "csv", "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,factor,family,s,t,h,size"
    assert len(lines) == 6
    assert lines[1].startswith("0,1,1,0,,")


def test_enumerate_out_file(tmp_path):
    out = tmp_path / "codes.json"
    res = run_cli("enumerate", "--m", "1", "--n", "1", "--limit", "3",
                  "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["codes"]) == 3


def test_oracle_pass():
    res = run_cli("oracle", "--m", "1", "--n", "1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["status"] == "PASS"
    assert doc["enumerated"] == doc["oracle"] == 135
    assert doc["missing"] == [] and doc["extra"] == []
    assert len(doc["ideals"]) == 135
    assert all(len(i["generators"]) <= 2 for i in doc["ideals"])


def test_oracle_dim_cap_env():
    # The cap is fixed: the environment variable that once set it is ignored.
    res = run_cli("oracle", "--m", "1", "--n", "3")
    assert res.returncode == 2  # dimension 48 over the cap
    res2 = run_cli("oracle", "--m", "1", "--n", "1",
                   env_extra={"CONSTACODES_ORACLE_DIM_CAP": "8"})
    assert res2.returncode == 0, res2.stderr


def test_selfdual_m1():
    res = run_cli("selfdual", "--m", "1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["count"] == doc["expected_count"] == 11
    assert doc["verified"] is True
    assert all(c["self_dual"] for c in doc["codes"])


def test_selfdual_m2_no_verify():
    res = run_cli("selfdual", "--m", "2", "--no-verify")
    doc = json.loads(res.stdout)
    assert doc["count"] == 37
    assert doc["verified"] is False


def test_selfdual_rejects_covered_case_violation():
    res = run_cli("selfdual", "--m", "1", "--n", "3")
    assert res.returncode == 2
    assert "n=3" in res.stderr


def test_failed_certificate_exit_1(monkeypatch, capsys):
    real = cli.build_factor_data

    def corrupted(params):
        fd = real(params)
        fd.cofactors = (pr.p_add(params.field, fd.cofactors[0], (0, 1, 1)),) + fd.cofactors[1:]
        return fd

    monkeypatch.setattr(cli, "build_factor_data", corrupted)
    assert cli.main(["factor", "--m", "1", "--n", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: idempotents do not sum to 1")


# A corruption at (1,7), set on the factor data or on the first chain
# context: C + x + x^2, C the first cofactor, breaks the idempotent sum;
# u^2 * (1 + f), a unit multiple of the right u^2, breaks the congruence
# v^2 == u^2, as u^2 * f is nonzero mod f^e.
@pytest.mark.parametrize("lam, corrupt, message", [
    (2, lambda F, fd, ctx: setattr(fd, "cofactors", (pr.p_add(F, fd.cofactors[0], (0, 1, 1)),)
                                   + fd.cofactors[1:]),
     "idempotents do not sum to 1"),
    (3, lambda F, fd, ctx: setattr(ctx, "u_squared",
                                   cr.c_mul(ctx, ctx.u_squared, pr.p_add(F, ctx.f, pr.P_ONE))),
     "u^2 congruence failed"),
])
def test_enumerate_with_generators_certifies_before_output(monkeypatch, capsys, tmp_path,
                                                           lam, corrupt, message):
    real = en.chain_contexts

    def corrupted(params, fd):
        ctxs = real(params, fd)
        corrupt(params.field, fd, ctxs[0])
        return ctxs

    monkeypatch.setattr(en, "chain_contexts", corrupted)
    argv = ["enumerate", "--m", "1", "--n", "7", "--lambda", str(lam), "--limit", "3",
            "--with-generators"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    out = tmp_path / "codes.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def _record_cofactor_builds(monkeypatch):
    """Wrap FactorData.cofactors so that every build of the cofactors,
    one per instance that reads them, is recorded in the returned list."""
    real = factorizer.FactorData.cofactors.func
    builds = []

    def counted(fd):
        builds.append(fd)
        return real(fd)

    prop = functools.cached_property(counted)
    prop.__set_name__(factorizer.FactorData, "cofactors")
    monkeypatch.setattr(factorizer.FactorData, "cofactors", prop)
    return builds


@pytest.mark.parametrize("argv, expected", [
    ("enumerate --m 1 --n 63 --limit 5", 0),
    ("enumerate --m 1 --n 63 --limit 5 --format csv", 0),
    ("enumerate --m 1 --n 63 --limit 5 --with-generators", 1),
    ("factor --m 1 --n 63", 1),
    ("oracle --m 1 --n 1", 1),
])
def test_cofactors_divided_only_when_read(monkeypatch, capsys, argv, expected):
    # Only the idempotents (which the lifted words of --with-generators and
    # the oracle's bit bases need) and the factor output read the full
    # cofactors; the chain contexts work out their own C mod f^e.
    builds = _record_cofactor_builds(monkeypatch)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out
    assert len(builds) == expected


def test_failed_alpha_root_certificate_exit_1(monkeypatch, capsys):
    real = GF2m.sqrt
    monkeypatch.setattr(GF2m, "sqrt", lambda self, a: real(self, a) ^ 1)
    assert cli.main(["count", "--m", "2", "--alpha", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha_root postcondition failed")


def test_unopenable_out_exit_2(tmp_path):
    res = run_cli("count", "--m", "1", "--out", str(tmp_path / "missing" / "x"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot open --out")
    assert "Traceback" not in res.stderr


def test_count_forms_disagree_exit_1(monkeypatch, capsys):
    real = en.count_ideals_closed_form
    monkeypatch.setattr(en, "count_ideals_closed_form",
                        lambda q, k, lam: real(q, k, lam) + 1)
    assert cli.main(["count", "--m", "1", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: count forms disagree")


def test_unwritable_out_exit_2():
    res = run_cli("count", "--m", "1", "--out", "/dev/full")
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot write output")
    assert res.stderr.count("\n") == 1


def test_unwritable_stdout_exit_2():
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "constacodes.cli", "count", "--m", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot write output")
    assert res.stderr.count("\n") == 1


def test_closed_pipe_exit_0():
    proc = subprocess.Popen(
        [sys.executable, "-m", "constacodes.cli", "enumerate", "--m", "1", "--n", "3",
         "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    assert proc.stdout.readline() == b"index,factor,family,s,t,h,size\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_main_twice_in_process(capsys):
    for _ in range(2):
        assert cli.main(["count", "--m", "1", "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == "135"


def test_main_leaves_stdout_fd_alone(monkeypatch):
    # A closed pipe ends main with 0, and fd 1 of an in-process caller
    # is not replaced: only entry() points it at devnull.
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return 1

    dup2 = []
    monkeypatch.setattr(os, "dup2", lambda *args: dup2.append(args))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["count", "--m", "1", "--n", "1"]) == 0
    assert dup2 == []


def test_selfdual_factors_once(monkeypatch, tmp_path):
    calls = []
    real = factorizer.factor_xn_delta

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(factorizer, "factor_xn_delta", counted)
    out = tmp_path / "selfdual.json"
    assert cli.main(["selfdual", "--m", "2", "--alpha", "2", "--out", str(out)]) == 0
    assert len(calls) == 1


# sha256 of each invocation's output, pinned so that refactors keep the
# CLI output byte-identical.
STDOUT_FINGERPRINTS = [
    ("factor --m 1 --n 7",
     "9c0fee6a09b542dfa7e2cf1fa6dc108ded9bbbb759a91aad56843e1d42562122"),
    ("factor --m 2 --n 7 --delta 2 --alpha 3",
     "b21b6e1ce027206f9877b0e75653167ddf1e3958ba0b987d9dd5d6e566c5f64a"),
    ("factor --m 3 --n 15",
     "fbd643b645f2386630870b549c6f1d6b88bf83c816965171549d2cbbde0386bd"),
    ("factor --m 4 --n 21",
     "6d69ad66710932b48d3f92587d336a55ae15cab7db55498ebf1244ea855a125b"),
    ("count --m 5 --n 31",
     "0c3ac925a446ed55a143950ccc84df2e69a620ae8dae7cdf4e98a6e3bef1c657"),
    ("enumerate --m 2 --n 7 --limit 50 --with-generators",
     "237b694c23a3d42c1b9acb99de2e580df764629caa12137c1176473113fef3ef"),
    ("enumerate --m 1 --n 3 --offset 1000 --limit 100 --format csv",
     "1bb72045f5d406c14d026c17b2820bfbd3bc5274703574f14ade4aaeeb9541f1"),
    ("enumerate --m 2 --n 1 --format csv",
     "2975cbe6175115f006ac8b2bca32fee4dd3b2106729018987ecc0febae23de04"),
    # CSV pages: in the first, factor 3 wraps and factor 2 steps.
    ("enumerate --m 2 --n 7 --offset 18125645 --limit 10 --format csv",
     "9fb11177ddd5d53ecacf859ba1096717503651b1061caaf650de2b3d75b5403d"),
    ("enumerate --m 2 --n 7 --delta 3 --offset 3000 --limit 100 --format csv",
     "deea7357787e82ed9f3c6567a6e17d05f20be9565a9d60e038b9ef15f74d27ce"),
    ("selfdual --m 2 --alpha 2",
     "50f0ce5d63da73f2fddfa0e0eb2a57f4e60bb7cd9e29a60f2b1124872841a9bb"),
    ("selfdual --m 3",
     "de0ec167b3f44bcfd04bf96deba75cc04db12b13d4bd9e865295d0ed0df09388"),
    ("selfdual --m 3 --alpha 5",
     "d609afdce6df3706a1eac3b0e4c0cd70d8f186ed64d258facc96d6393ecd101a"),
    # Deep seeks; the second window crosses the point where factor 3
    # (18125649 ideals) starts over and factor 2 steps forward.
    ("enumerate --m 2 --n 7 --offset 5000000 --limit 10",
     "c5761bb6bc8a6093fbfc89340ca32b109859d416ada7fa03453ae697c7fa84d9"),
    ("enumerate --m 2 --n 7 --offset 18125645 --limit 10",
     "d459e71234814953f8e4c08249d604cf327c7933446ca7c67edf6aae5af3b258"),
    # Windows where enumerate reuses unchanged factors' JSON: in the
    # first, factor 3 wraps and factor 2 steps; the second has r = 1, so
    # every component changes; the fourth has 32-bit lanes.
    ("enumerate --m 2 --n 7 --offset 18125645 --limit 10 --with-generators",
     "5586d1b984ea80dd7c6721747b148c48f98376ed810f30c201339a62c66c5c5c"),
    ("enumerate --m 1 --n 1 --with-generators",
     "bc15b0fe107d107ed9db981b674d4a606c075a8b1c497f10cb4533f4e2a600e1"),
    ("enumerate --m 3 --n 1 --lambda 3 --alpha 5 --limit 40 --with-generators",
     "2bd2f96e08e71a2984d71b0531a435548e508041a44d32dc3f8672db687cf2e4"),
    ("enumerate --m 9 --n 1 --delta 7 --alpha 300 --limit 5 --with-generators",
     "40618b8c40427e94832d55a9f07431a099b548968f4078ac1714fe1e937675c8"),
    ("enumerate --m 1 --n 7 --k 3 --offset 100000 --limit 20 --with-generators",
     "e63b1dd515488f09e41a738b07c6cf6a2fa53ed1e90a13a813942eae56636fe5"),
    # Family 6 at a factor of degree above 1, so that v is no constant
    # multiple of a power of f: components (1,0), (1,0) and (6,0,9) in
    # the first code of the first window.
    ("enumerate --m 2 --n 5 --k 3 --delta 3 --alpha 2 --offset 4868238065 --limit 20 "
     "--with-generators",
     "f5a6de1a495f4297750b7f2a68d34a844836bb22078ee83693eeb4d63a2c3f3a"),
    ("enumerate --m 1 --n 7 --k 3 --offset 21614921 --limit 20 --with-generators",
     "7c5c267a517b809e75e36a75bf463a6274de06cb597649c9d4c4645ff6101e97"),
    # Lifted words at more lane widths and u-digit counts: 16-bit lanes
    # with lam = 3; lam = 4, where an unreduced eps_j * g spans 7 chunks
    # of N lanes; 32-bit lanes at the largest m.
    ("enumerate --m 5 --n 3 --lambda 3 --delta 7 --alpha 9 --limit 20 --with-generators",
     "6afb3fa6e1d9b18de7c5e8a966779db81581a71545c7e361e3dc1f9ebbbd4b4a"),
    ("enumerate --m 2 --n 5 --lambda 4 --delta 2 --alpha 3 --offset 777 --limit 20 "
     "--with-generators",
     "d51ff47ab73b6f93bbba1c76de8876d8758f8430ad4c1c9bad20e61f52dde426"),
    ("enumerate --m 16 --n 1 --delta 4097 --alpha 3 --limit 5 --with-generators",
     "f530e1d4c69cbf0d4e5a8d98caffce8f6475212d6510389c6d499da932c50aca"),
    # Counts from cyclotomic cosets; the first has 4934 digits.  Digests
    # from the factorizing count, with Python's digit limit lifted.
    ("count --m 1 --n 4095",
     "03efc037f0e08537db1ad7e1692528775e3c07671def4d01cc3c69f313bcca03"),
    ("count --m 8 --n 255 --delta 3",
     "ca9d0ca7b3e6f72a40dea25e68a7cf07dd3e5be816e19df6651c2d2702234cea"),
    # Digest from the exhaustive oracle that the lattice walk replaced.
    ("oracle --m 1 --n 1",
     "8989ae508b93ffbf3c84833dd397aff791afeb2c5ac99923e2a9440a87e8f61e"),
    # The only lattice walk at m > 1, where the ops include multiply-by-y.
    ("oracle --m 2 --n 1",
     "540a00108726b3d39b63fc1bd33ebe88a6c3bd5f048cfad7c9d1ec3e55023ee1"),
    # A caller's reduction polynomial: 0x11b at m = 8 and 0b11111 at
    # m = 4 are irreducible, but y does not generate their unit groups.
    ("factor --m 8 --n 15 --reduction 0x11b",
     "f7f406b21fe46c65eaff33daed523808bc525f54afc4248d71171da1f221befb"),
    ("enumerate --m 4 --n 5 --reduction 0b11111 --limit 20 --with-generators",
     "be3495c1ed7153c271ef7424552b0fea9db2f4641dfb7d813e0df0950efe7a34"),
    # --seed is accepted and ignored: each digest is that of the same
    # invocation without it, above.
    ("factor --m 4 --n 21 --seed 12345",
     "6d69ad66710932b48d3f92587d336a55ae15cab7db55498ebf1244ea855a125b"),
    ("count --m 5 --n 31 --seed 4",
     "0c3ac925a446ed55a143950ccc84df2e69a620ae8dae7cdf4e98a6e3bef1c657"),
    ("enumerate --m 2 --n 7 --limit 50 --with-generators --seed 99",
     "237b694c23a3d42c1b9acb99de2e580df764629caa12137c1176473113fef3ef"),
    ("selfdual --m 3 --alpha 5 --seed 3",
     "d609afdce6df3706a1eac3b0e4c0cd70d8f186ed64d258facc96d6393ecd101a"),
    ("oracle --m 1 --n 1 --seed 5",
     "8989ae508b93ffbf3c84833dd397aff791afeb2c5ac99923e2a9440a87e8f61e"),
]


def test_stdout_fingerprints(tmp_path):
    for i, (invocation, digest) in enumerate(STDOUT_FINGERPRINTS):
        out = tmp_path / f"{i}.out"
        assert cli.main(invocation.split() + ["--out", str(out)]) == 0, invocation
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, invocation


def test_enumerate_offset_is_a_seek(monkeypatch, tmp_path):
    # Walking to the offset would build about 10^5 descriptors; a seek
    # builds one per factor plus one per further code.
    built = []
    real = en.IdealDescriptor

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(en, "IdealDescriptor", counted)
    out = tmp_path / "page.json"
    argv = ["enumerate", "--m", "2", "--n", "7", "--offset", "100000", "--limit", "10"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    r = len(doc["codes"][0]["components"])
    assert len(doc["codes"]) == 10
    assert len(built) <= 10 + r


@pytest.mark.parametrize("offset, limit, with_gens, calls", [
    # one lift table per (factor, family, s, t) block the page reaches:
    # all 50 codes lie in block (1, 0, None) of each of the three factors
    (0, 50, True, 3),
    # factor 3 wraps from block (6, 0, 7) to (1, 0, None), and factor 2
    # steps inside its block
    (18125645, 10, True, 4),
    (0, 50, False, 0),
])
def test_enumerate_builds_each_component_once(monkeypatch, tmp_path, offset, limit,
                                              with_gens, calls):
    built = []
    real = amb.component_generators

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(amb, "component_generators", counted)
    out = tmp_path / "page.json"
    argv = ["enumerate", "--m", "2", "--n", "7", "--offset", str(offset),
            "--limit", str(limit), "--out", str(out)]
    assert cli.main(argv + ["--with-generators"] * with_gens) == 0
    codes = json.loads(out.read_text())["codes"]
    assert len(codes) == limit
    blocks = {(c["factor"], c["family"], c["s"], c["t"])
              for code in codes for c in code["components"]}
    assert len(built) == calls == len(blocks) * with_gens
    # each table is built at h = 0
    assert all(args[3].h == () for args in built)


@pytest.mark.parametrize("flags", [["--format", "csv"], [], ["--with-generators"]],
                         ids=["csv", "json", "generators"])
@pytest.mark.parametrize("offset, blocks", [
    # 100 codes of three components: every code lies in block (1, 0, None)
    # of factors 1 and 2, and factor 3 crosses no block boundary
    (3000, 3),
    # factor 3 wraps from block (6, 0, 7) to (1, 0, None)
    (18125645, 4),
])
def test_enumerate_sizes_each_block_once(monkeypatch, tmp_path, offset, blocks, flags):
    # A page sizes each (factor, family, s, t) block it reaches once, not
    # each descriptor.  Each lift a table builds is put in coefficient
    # order once, by one flat_digits call, and no code formats its words
    # through flat_digits: 100 codes make fewer lifts than codes.
    calls = {"ideal_size": [], "flat_digits": [], "lift_digits": [], "component_generators": []}
    for module, name in ((en, "ideal_size"), (amb, "flat_digits"), (amb, "lift_digits"),
                         (amb, "component_generators")):
        def counted(*args, _real=getattr(module, name), _seen=calls[name]):
            _seen.append(args)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "page"
    argv = ["enumerate", "--m", "2", "--n", "7", "--delta", "3", "--offset", str(offset),
            "--limit", "100", "--out", str(out)]
    assert cli.main(argv + flags) == 0
    text = out.read_text()
    if flags[:1] == ["--format"]:
        rows = [row.split(",") for row in text.splitlines()[1:]]
        assert len(rows) == 3 * 100
        reached = {tuple(row[1:5]) for row in rows}
    else:
        codes = json.loads(text)["codes"]
        assert len(codes) == 100
        reached = {(c["factor"], c["family"], c["s"], c["t"])
                   for code in codes for c in code["components"]}
    assert len(reached) == blocks
    assert len(calls["ideal_size"]) == blocks
    tables = len(calls["component_generators"])
    assert tables == blocks * ("--with-generators" in flags)
    lifts = len(calls["lift_digits"])
    assert len(calls["flat_digits"]) == lifts < 100
    assert (lifts > 0) == (tables > 0)


# (m, n, k, lam, delta, alpha): 8-bit lanes and three factors, 16-bit
# lanes with lam = 3, 32-bit lanes and one factor.
PAGE_TEXT_POINTS = [(2, 7, 2, 2, 3, 2), (5, 3, 2, 3, 7, 9), (9, 1, 2, 2, 7, 300)]


def _page_offsets(params, fd, ctxs):
    """Offsets of 6-code windows that cross the last factor's first two
    block boundaries and, with more than one factor, its wrap, where
    the factor before it moves."""
    q = ctxs[-1].q
    bounds, at = [], 0
    for block in itertools.islice(en.ideal_blocks(params), 2):
        at += q ** en.h_space_exponent(params, *block)
        bounds.append(at)
    if len(fd.entries) > 1:
        wrap = en.factor_counts(params, [fd.entries[-1].degree])[0]
        bounds += [wrap, 2 * wrap]
    return [bound - 3 for bound in bounds]


def _lifted_word(params, g):
    """A generator's lifted word: its flat u-digits, one list per coefficient."""
    flat = amb.flat_digits(params, amb.lift_digits(params, g))
    w = params.u_exp
    return [flat[i:i + w] for i in range(0, len(flat), w)]


def _reference_page(params, fd, ctxs, offset, limit, with_gens):
    """The page enumerate should print, from the descriptors' own dicts."""
    codes = []
    for code in itertools.islice(en.enumerate_codes(params, fd, ctxs, start=offset), limit):
        entry = {"size": str(en.code_size(params, fd, code)),
                 "components": [d.as_dict() for d in code.components]}
        if with_gens:
            entry["generators_lifted"] = [
                _lifted_word(params, g) for j, d in enumerate(code.components)
                for g in amb.component_generators(params, fd, j, d, ctxs[j])]
        codes.append(entry)
    return codes


@pytest.mark.parametrize("point", PAGE_TEXT_POINTS)
def test_enumerate_page_matches_reference(tmp_path, point):
    # Pages whose windows cross a block boundary of the last factor, or
    # where a leading factor moves, parse to the page rebuilt from
    # enumerate_codes, IdealDescriptor.as_dict and code_size; their lifted
    # words are the flat u-digits of lifting component_generators.
    params = Params(*point)
    fd = factorizer.build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    total = en.count_codes(params, fd)
    flags = ["--m", "--n", "--k", "--lambda", "--delta", "--alpha"]
    base = ["enumerate", *(x for pair in zip(flags, map(str, point)) for x in pair)]
    out = tmp_path / "page"
    offsets = _page_offsets(params, fd, ctxs)
    assert len(offsets) == (4 if len(fd.entries) > 1 else 2)
    for offset in offsets:
        assert 0 <= offset and offset + 6 <= total
        page = base + ["--offset", str(offset), "--limit", "6", "--out", str(out)]
        for with_gens in (False, True):
            assert cli.main(page + ["--with-generators"] * with_gens) == 0
            want = _reference_page(params, fd, ctxs, offset, 6, with_gens)
            assert json.loads(out.read_text()) == {
                "schema": cli.SCHEMA, "params": params.as_dict(), "total": str(total),
                "offset": offset, "limit": 6, "codes": want}
        assert cli.main(page + ["--format", "csv"]) == 0
        rows = [["index", "factor", "family", "s", "t", "h", "size"]]
        for i, code in enumerate(want):
            for d in code["components"]:
                rows.append([str(offset + i), str(d["factor"]), str(d["family"]), str(d["s"]),
                             "" if d["t"] is None else str(d["t"]),
                             ";".join(map(str, d["h"])), code["size"]])
        assert [line.split(",") for line in out.read_text().splitlines()] == rows


def test_enumerate_csv_with_generators_exit_2(tmp_path):
    out = tmp_path / "codes.csv"
    res = run_cli("enumerate", "--m", "1", "--n", "1", "--format", "csv",
                  "--with-generators", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: --with-generators")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


def _unlimited_str(x):
    """str(x) with Python's digit limit lifted for the call (3.10.7+)."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        return str(x)
    old = sys.get_int_max_str_digits()
    setter(0)
    try:
        return str(x)
    finally:
        setter(old)


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


BIG = ["--m", "1", "--n", "127", "--k", "5", "--lambda", "8"]


def test_count_over_digit_limit(tmp_path):
    out = tmp_path / "count.json"
    limit = _digit_limit()
    assert cli.main(["count", *BIG, "--out", str(out)]) == 0
    assert _digit_limit() == limit
    params = Params(1, 127, 5, 8, 1, 1)
    expect = _unlimited_str(en.count_codes(params, factorizer.build_factor_data(params)))
    assert len(expect) > 4300
    doc = json.loads(out.read_text())
    assert doc["count"] == doc["count_sum_form"] == doc["count_closed_form"] == expect


def test_enumerate_over_digit_limit(tmp_path):
    out = tmp_path / "page.json"
    limit = _digit_limit()
    assert cli.main(["enumerate", *BIG, "--limit", "1", "--out", str(out)]) == 0
    assert _digit_limit() == limit
    doc = json.loads(out.read_text())
    assert len(doc["total"]) > 4300
    assert len(doc["codes"]) == 1
    # the first code is family 1 with s = 0 on every factor: 2^(m*n*e) words
    assert doc["codes"][0]["size"] == _unlimited_str(1 << (127 * 256))


def test_parser_built_once(monkeypatch, capsys):
    # Usage lines wrap at the terminal width; pin it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    argvs = [
        ["count", "--m", "1", "--n", "3"],
        ["count", "--m", "1", "--threads", "2"],
        ["enumerate", "--m", "1", "--n", "3", "--offset", "7", "--limit", "2"],
        ["count", "--m", "1", "--delta", "0"],
        ["count", "--n", "3"],
        ["factor", "--m", "2", "--n", "3", "--delta", "2"],
        ["count", "--m", "1", "--n", "3"],
    ]
    for argv in argvs:
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
        assert (status, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(built) == 1


# Argvs that main reads with a subcommand's own parser, and ones it
# leaves to the top-level parser: help, errors and valid requests.
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["count"], ["count", "-h"],
    ["count", "--m", "1", "--threads", "2"], ["count", "--m", "1", "extra"],
    ["count", "--m", "1", "--", "--n", "3"], ["count", "--m=1"],
    ["count", "--m", "1", "--del", "1"], ["count", "--m", "x"],
    ["count", "--m", "1", "--reduction", "zz"], ["--m", "1", "count"],
    ["count", "--m", "1", "-h"], ["count", "--m", "1", "count"], ["--", "count", "--m", "1"],
    ["-h", "count"], ["coun", "--m", "1"], ["count", "--m", "1", "--out"],
    ["count", "--m", "2", "--n", "21", "--delta", "3", "--alpha", "2", "--seed", "5"],
    ["enumerate", "--m", "1", "--n", "3", "--offset", "7", "--limit", "2", "--format", "csv"],
    ["enumerate", "--m", "1", "--with-gen", "--limit", "1"],
    ["enumerate", "--m", "1", "--format", "xml"],
    ["oracle", "--m", "1", "--n", "1", "--out", "o.json"],
    ["selfdual", "--m", "2", "--no-verify"], ["factor", "--m", "1", "-x"],
]


def parse_outcome(capsys, parse):
    """parse()'s namespace as a dict, or its exit code, with the stdout
    and stderr it printed."""
    try:
        result = vars(parse())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_top_level_parser(monkeypatch, capsys, argv):
    # main hands a subcommand's arguments to that subcommand's parser
    # alone; it must dispatch, print and exit as the top-level parser's
    # parse_args followed by dispatch does.
    monkeypatch.setenv("COLUMNS", "80")
    dispatched = []
    monkeypatch.setattr(cli, "_DISPATCH", dict.fromkeys(cli._DISPATCH, dispatched.append))

    def via_main():
        cli.main(argv)
        return dispatched.pop()

    assert (parse_outcome(capsys, via_main)
            == parse_outcome(capsys, lambda: cli._parser().parse_args(argv)))


def test_one_count_per_distinct_degree(monkeypatch, tmp_path):
    calls = []
    real = en.count_ideals
    monkeypatch.setattr(en, "count_ideals", lambda *a: calls.append(a) or real(*a))
    out = str(tmp_path / "out.json")
    for m, n, degrees in [(2, 21, [1, 1, 1, 3, 3, 3, 3, 3, 3]), (1, 15, [1, 2, 4, 4, 4])]:
        calls.clear()
        assert cli.main(["count", "--m", str(m), "--n", str(n), "--out", out]) == 0
        assert [f["degree"] for f in json.loads(Path(out).read_text())["per_factor"]] == degrees
        assert len(calls) == len(set(degrees)), (m, n)
    # Degrees 1, 3, 3; count_codes for the total and enumerate_codes for
    # the seek each read the radices.
    calls.clear()
    assert cli.main(["enumerate", "--m", "2", "--n", "7", "--limit", "1", "--out", out]) == 0
    assert len(calls) == 2 * 2


def test_oracle_fails_on_repeated_code(monkeypatch, tmp_path):
    # The stream yields its first code twice: the set of bases is still
    # the oracle's, but the enumeration is not "all distinct".
    real = en.enumerate_codes

    def repeating(*args, **kwargs):
        stream = real(*args, **kwargs)
        first = next(stream)
        yield first
        yield first
        yield from stream

    monkeypatch.setattr(en, "enumerate_codes", repeating)
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--m", "1", "--n", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "FAIL"
    assert doc["enumerated"] == 136 and doc["oracle"] == 135
    assert doc["missing"] == doc["extra"] == []


def test_oracle_exit_1_on_ideal_needing_three_generators(monkeypatch, capsys, tmp_path):
    # With the nilradical's maps taken as 0 after the walk, JI is 0 and
    # Nakayama's count says that the larger ideals need more than two
    # generators: the paper's bound fails, so oracle exits 1 with one
    # error line and writes no document.
    ideals = amb.brute_force_ideals(Params(1, 1, 2, 2, 1, 1))
    monkeypatch.setattr(amb, "brute_force_ideals", lambda params: ideals)
    monkeypatch.setattr(amb, "_nilradical", lambda params: [lambda v: 0])
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--m", "1", "--n", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "> 2 generators" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["count", "factor"])
def test_huge_n_refused_exit_2(cmd):
    # Refused before any set-up: no bytearray(n), no MemoryError, no
    # traceback, and the exit code of invalid input.
    res = run_cli(cmd, "--m", "1", "--n", "99999999999", timeout=20)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr == "error: n = 99999999999 exceeds the cap of 1048576\n"
    assert res.stdout == ""


@pytest.mark.parametrize("argv,status", [
    (["--k", "20"], 2),
    (["--k", "18"], 2),  # just past the bit-operation cap
    (["--k", "17"], 0),  # at it
    (["--k", "1000000000000"], 2),
    (["--lambda", "100000000000000000000"], 2),
    (["--n", "1048575"], 2),
    (["--n", "262145"], 2),  # just past the bits cap
])
def test_count_cost_caps(argv, status):
    # Refused before any factor degree is read: exit 2, one error line,
    # no traceback and no output, well within the timeout.
    res = run_cli("count", "--m", "1", *argv, timeout=10)
    assert res.returncode == status, res.stderr
    assert "Traceback" not in res.stderr
    if status:
        assert res.stderr.startswith("error: count over") and res.stderr.count("\n") == 1
        assert res.stdout == ""
    else:
        assert res.stderr == ""
        doc = json.loads(res.stdout)
        assert doc["params"]["k"] == 17 and doc["count"].isdigit()


@pytest.mark.parametrize("argv,status", [
    ("factor --m 1 --k 1000000000000", 2),
    ("oracle --m 1 --k 1000000000000", 2),
    ("enumerate --m 1 --k 40 --limit 1", 2),
    ("enumerate --m 1 --lambda 100000000000000000000 --limit 1", 2),
    # m*n*e^2 = 2^24, the work cap, and one step of k past it
    ("factor --m 1 --k 11", 0),
    ("enumerate --m 1 --k 11 --limit 1", 0),
    ("factor --m 1 --k 12", 2),
    ("enumerate --m 1 --k 12 --limit 1", 2),
    ("oracle --m 1 --k 12", 2),
    # m*n*e = 32704, just under the bits cap, and 32832, just past it
    ("factor --m 8 --n 511", 0),
    ("factor --m 8 --n 513", 2),
    ("enumerate --m 8 --n 513 --limit 1", 2),
])
def test_setup_cost_caps(argv, status):
    # Refused before 2^k is built: exit 2, one error line, no traceback
    # and no output, well within the timeout.
    cmd, *rest = argv.split()
    res = run_cli(cmd, *rest, timeout=10)
    assert res.returncode == status, res.stderr
    assert "Traceback" not in res.stderr
    if status:
        assert res.stderr == (f"error: {cmd} over {cli.SETUP_BITS_CAP} bits or "
                              f"{cli.SETUP_WORK_CAP} bit operations\n")
        assert res.stdout == ""
    else:
        assert res.stderr == ""
        assert json.loads(res.stdout)["params"]["m"] == int(rest[1])


@pytest.mark.parametrize("argv,status", [
    ("selfdual --m 16", 2),
    ("selfdual --m 12 --no-verify", 2),
    ("selfdual --m 10 --no-verify", 2),
    # m = 4: 529 codes times 16m = 64 is 33856, under the cap; m = 5: 2081 times 80
    ("selfdual --m 4", 0),
    ("selfdual --m 5", 2),
    # m = 7: 32897 listed codes, under the cap; m = 8: 131329
    ("selfdual --m 7 --no-verify", 0),
    ("selfdual --m 8 --no-verify", 2),
])
def test_selfdual_cost_cap(argv, status):
    # Refused before anything is listed: exit 2, one error line, no
    # traceback and no output, well within the timeout.
    res = run_cli(*argv.split(), timeout=10)
    assert res.returncode == status, res.stderr
    assert "Traceback" not in res.stderr
    if status:
        assert res.stderr.startswith(f"error: selfdual over {cli.SELFDUAL_CAP} codes")
        assert res.stderr.count("\n") == 1 and res.stdout == ""
    else:
        assert res.stderr == ""
        doc = json.loads(res.stdout)
        assert doc["count"] == doc["expected_count"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    "--m 8 --n 7 --limit 1",
    "--m 16 --n 7 --limit 1",
    "--m 8 --n 7 --offset 16000000 --limit 3 --with-generators",
])
def test_enumerate_large_residue_field(argv):
    # Cubic factors over GF(2^8) and GF(2^16) have q = 2^24 and 2^48
    # residue digits; under 1 GB of address space no step may hold
    # them all.
    res = subprocess.run(
        [sys.executable, "-m", "constacodes.cli", "enumerate", *argv.split()],
        capture_output=True, text=True, env=cli_env(), timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    doc = json.loads(res.stdout)
    if doc["offset"]:
        # The last factor, a cubic, moves fastest and its first block
        # (family 1, s = 0) holds q^4 residues, so code offset + i has
        # h = residue number offset + i < q there, one digit: coefficient
        # j is bits 8j .. 8j+7 of the number.
        for i, code in enumerate(doc["codes"]):
            last = code["components"][-1]
            number = doc["offset"] + i
            digit = pr.normalize((number >> 8 * j) & 255 for j in range(3))
            assert (last["family"], last["s"], tuple(last["h"])) == (1, 0, digit)
            assert [c["h"] for c in code["components"][:-1]] == [[], []]
            assert len(code["generators_lifted"]) == 3
