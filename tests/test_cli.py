import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauadic
from tauadic import cli
from tauadic.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_expand_tnaf_text(capsys):
    status, out, _ = run(capsys, "expand", "--mu", "1", "--method", "tnaf",
                         "--digit-set", "1", "--element", "3,0,0,0")
    assert status == 0
    assert out.splitlines() == ["(1-1t, 0, 0, -1+2t)_t", "length: 4", "weight: 2"]


def test_expand_zero_element(capsys):
    status, out, _ = run(capsys, "expand", "--element", "0,0,0,0",
                         "--mu", "-1", "--method", "gls")
    assert status == 0
    assert out.splitlines() == ["()_t", "length: 0", "weight: 0"]


def test_expand_accepts_curve_coefficient(capsys):
    status_mu, out_mu, _ = run(capsys, "expand", "--mu", "1", "--method", "gls",
                               "--element", "7,1,0,0")
    status_a, out_a, _ = run(capsys, "expand", "--a", "1", "--method", "gls",
                             "--element", "7,1,0,0")
    assert status_mu == status_a == 0
    assert out_mu == out_a


def test_expand_negative_leading_coefficient(capsys):
    # leading-dash values need the = form
    status, out, _ = run(capsys, "expand", "--a", "0", "--method", "gls",
                         "--element=-1,-2,3,0", "--format", "json")
    assert status == 0
    record = json.loads(out)
    assert record["element"] == [-1, -2, 3, 0]
    assert record["mu"] == -1


def test_expand_csv(capsys):
    status, out, _ = run(capsys, "expand", "--mu", "1", "--method", "tnaf",
                         "--digit-set", "1", "--element", "3,0,0,0",
                         "--format", "csv")
    assert status == 0
    assert out.splitlines() == ["s,t,u,v,norm_sq,digits,length",
                                "3,0,0,0,18,1-1t;0;0;-1+2t,4"]


def test_expand_json_round_trips(capsys):
    status, out, _ = run(capsys, "expand", "--mu", "1", "--method", "tnaf",
                         "--digit-set", "1", "--element", "3,0,0,0",
                         "--format", "json")
    assert status == 0
    obj = json.loads(out)
    assert obj == {"kind": "tnaf", "mu": 1, "digit_set": 1, "element": [3, 0, 0, 0],
                   "digits": [[-1, 2], [0, 0], [0, 0], [1, -1]],
                   "length": 4, "hamming_weight": 2}
    assert json.dumps(obj, separators=(",", ":")) == out.strip()


def test_usage_errors(capsys):
    # both mu and a
    status, _, err = run(capsys, "expand", "--mu", "1", "--a", "0",
                         "--method", "gls", "--element", "1,0,0,0")
    assert status == 2 and "error" in err
    # neither mu nor a
    status, _, err = run(capsys, "expand", "--method", "gls",
                         "--element", "1,0,0,0")
    assert status == 2
    # tnaf without digit set
    status, _, err = run(capsys, "expand", "--mu", "1", "--method", "tnaf",
                         "--element", "1,0,0,0")
    assert status == 2
    # gls with digit set
    status, _, err = run(capsys, "expand", "--mu", "1", "--method", "gls",
                         "--digit-set", "3", "--element", "1,0,0,0")
    assert status == 2
    # malformed element
    status, _, err = run(capsys, "expand", "--mu", "1", "--method", "gls",
                         "--element", "1,2,3")
    assert status == 2
    # bad digit set index
    status, _, err = run(capsys, "expand", "--mu", "1", "--method", "tnaf",
                         "--digit-set", "17", "--element", "1,0,0,0")
    assert status == 2
    # negative bound
    status, _, err = run(capsys, "enumerate", "--mu", "1", "--bound", "-1")
    assert status == 2


@pytest.mark.parametrize("j", ["0", "17"])
@pytest.mark.parametrize("command", [
    ["tables", "--mu", "1"],
    ["expand", "--mu", "1", "--method", "tnaf", "--element", "1,0,0,0"],
], ids=["tables", "expand"])
def test_digit_set_out_of_range_exits_2(command, j):
    src = Path(tauadic.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "tauadic.cli", *command, "--digit-set", j],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--digit-set must be in 1..16" in done.stderr
    assert "Traceback" not in done.stderr


def _fixture_rows(name: str, n: int) -> str:
    fixtures = Path(tauadic.__file__).resolve().parent / "fixtures"
    return "".join((fixtures / name).read_text().splitlines(True)[:n])


_P1_J01 = "tnaf_existence_p1_j01.csv"


@pytest.mark.parametrize("command,files,message", [
    (["tables", "--mu", "1", "--digit-set", "1"], None, "No such file"),
    (["census", "--mu", "-1"], None, "No such file"),
    (["census", "--mu", "1", "--format", "csv"],
     {"gls_nonuniqueness_p1.csv": "c3,c2,c1\n-3,0,-3\n"},
     "gls_nonuniqueness_p1.csv line 1: columns"),
], ids=["tables-missing-dir", "census-missing-dir", "census-missing-column"])
def test_fixture_faults_exit_3(tmp_path, command, files, message):
    fixtures_dir = tmp_path / "fixtures"
    if files is not None:
        fixtures_dir.mkdir()
        for name, text in files.items():
            (fixtures_dir / name).write_text(text)
    src = Path(tauadic.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "tauadic.cli", *command],
        env=dict(os.environ, PYTHONPATH=str(src), TAU_FIXTURES_DIR=str(fixtures_dir)),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


# a row that equals no computed row is a table mismatch, named by file and line
@pytest.mark.parametrize("text,message", [
    (_fixture_rows(_P1_J01, 3) + "1,0,0\n", f"{_P1_J01} line 4: 1,0,0"),
    # well-formed, but the digits of the first row do not evaluate to it
    (_fixture_rows(_P1_J01, 3).replace("-1-1t;0;2", "-1-1t;0;1", 1),
     f"{_P1_J01} line 2: 2,0,-1,-1,20,-1-1t;0;1,3"),
], ids=["tables-short-row", "tables-inconsistent-row"])
def test_fixture_mismatches_exit_1(capsys, monkeypatch, tmp_path, text, message):
    (tmp_path / _P1_J01).write_text(text)
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    status, out, _ = run(capsys, "tables", "--mu", "1", "--digit-set", "1")
    assert status == 1
    assert f"  missing: {message}" in out


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_internal_errors_exit_4(capsys, monkeypatch, error):
    # a fault deep inside the library is not a usage error
    def broken(*args, **kwargs):
        raise error("boom")
    monkeypatch.setattr(tauadic.tables, "expand_tnaf", broken)
    status, out, err = run(capsys, "tables", "--mu", "1", "--digit-set", "1")
    assert status == 4
    assert err.splitlines() == [f"error: internal error ({error.__name__}): boom"]


def test_gls_recoder_bug_exits_4(capsys, monkeypatch):
    # a GLS recoding that does not round-trip is a bug of the package, not
    # a fault of the fixture files: one error line, no traceback
    expand_gls = tauadic.tables.expand_gls

    def drop_top_digit(a, mu):
        e = expand_gls(a, mu)
        return dataclasses.replace(e, digits=e.digits[:-1])
    monkeypatch.setattr(tauadic.tables, "expand_gls", drop_top_digit)
    status, _, err = run(capsys, "tables", "--mu", "1", "--digit-set", "1")
    assert status == 4
    assert err.splitlines() == [
        "error: internal error (AssertionError): GLS recoding of -1,0,0,0 does not round-trip"]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_enumerate_census_counts(capsys):
    status, out, _ = run(capsys, "enumerate", "--mu", "1", "--bound", "20",
                         "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,u,v,norm_sq"
    assert len(lines) == 1 + 94


def test_enumerate_json(capsys):
    status, out, _ = run(capsys, "enumerate", "--mu", "-1", "--bound", "2",
                         "--format", "json")
    assert status == 0
    assert json.loads(out) == [{"element": [-1, 0, 0, 0], "norm_sq": 2},
                               {"element": [1, 0, 0, 0], "norm_sq": 2}]
    # byte-for-byte under re-serialization
    assert json.dumps(json.loads(out), separators=(",", ":")) == out.strip()


def test_enumerate_text_total(capsys):
    status, out, _ = run(capsys, "enumerate", "--mu", "1", "--bound", "2")
    assert status == 0
    assert out.splitlines()[-1] == "total: 2"


def test_enumerate_include_zero(capsys):
    status, out, _ = run(capsys, "enumerate", "--mu", "1", "--bound", "2",
                         "--include-zero")
    assert status == 0
    assert out.splitlines()[-1] == "total: 3"
    assert "0,0,0,0  norm_sq=0" in out


# SHA-256 of `enumerate --bound 200` stdout, recorded with the per-row
# formatting that the one-format-per-shell writers replaced
ENUMERATE_200_SHA256 = {
    ("1", "text", False): "a705ea9df132aef0a4b1513b2e97e67a56da11bf1f5de9f7bad3cffb81817859",
    ("1", "text", True): "538d83d0a04e01f75cd9875b22546283f18971ab83824d8c19a88cc929431b80",
    ("1", "csv", False): "87fd6f021e323892d29d39acdd4caffcda81ba311bf590f0f30d04a0f55bd992",
    ("1", "csv", True): "0a32e141363460d1d318167b68b87da17730ec9eb21ebf5dc9c0e7db1e7a3027",
    ("1", "json", False): "0461b092c0e06f36f0a84795bd0735f7e1634216f132c97984e20cb4c21fa894",
    ("1", "json", True): "fa9f4cee424366ff300b4eab9afd95e5ddfff169bde19bf02e167c25dbc1e70e",
    ("-1", "text", False): "268f917c235707a1c7b3acaa9c8040a67614d0a4412a81cb0dd207496743e2d6",
    ("-1", "text", True): "c380b4e122de8f6c4480ab3806edc1264a213b84f5856ea42ac8f77ba7a40ac1",
    ("-1", "csv", False): "51b4500a470b561504284911215f0ebc3f83f813872d9a7e1fd14c33e6dd4d90",
    ("-1", "csv", True): "557d90ead53730b79232e73697093b6e928491830eb40a0a1ec7739b597c7207",
    ("-1", "json", False): "0e817091d99045896e07b3628d12e0492ee27c8e563ccbbb5e1119944d1a3254",
    ("-1", "json", True): "6ac0a4abec0e4c8a838e6cb635e25a54794d507ab2bf637b91de787de1776a71",
}


@pytest.mark.parametrize("mu,fmt,include_zero", sorted(ENUMERATE_200_SHA256))
def test_enumerate_output_bytes_are_pinned(capsys, mu, fmt, include_zero):
    status, out, err = run(capsys, "enumerate", "--mu", mu, "--bound", "200",
                           "--format", fmt, *(("--include-zero",) * include_zero))
    assert (status, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ENUMERATE_200_SHA256[mu, fmt, include_zero]


def test_enumerate_refuses_a_huge_bound_before_any_work(capsys, monkeypatch):
    # about 2 * 10^15 elements: refused from the count law, not enumerated
    src = Path(tauadic.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "tauadic.cli", "enumerate", "--mu", "1",
                           "--bound", "100000000"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert "2,053,000,000,000,000" in done.stderr
    assert "Traceback" not in done.stderr

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    # bound 20 predicts 20*20*2053 // 10000 = 82 and lists 94
    monkeypatch.setattr(cli, "enumerate_short_vectors", no_enumeration)
    monkeypatch.setattr(cli, "MAX_COUNT", 81)
    status, out, err = run(capsys, "enumerate", "--mu", "1", "--bound", "20")
    assert (status, out) == (2, "")
    assert "about 82 elements, more than the cap of 81" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_COUNT", 82)
    status, out, err = run(capsys, "enumerate", "--mu", "1", "--bound", "20", "--format", "csv")
    assert (status, err) == (0, "")
    assert len(out.splitlines()) == 1 + 94


def test_tables_single_digit_set(capsys):
    status, out, _ = run(capsys, "tables", "--mu", "1", "--digit-set", "1")
    assert status == 0
    assert "2/2 table checks passed" in out


def test_tables_machine_formats(capsys):
    status, out, _ = run(capsys, "tables", "--mu", "1", "--digit-set", "2",
                         "--format", "json")
    assert status == 0
    records = json.loads(out)
    assert [r["name"] for r in records] == ["tnaf-existence-D2-mu=+1",
                                            "gls-existence-mu=+1"]
    assert all(r["passed"] for r in records)
    status, out, _ = run(capsys, "tables", "--mu", "1", "--digit-set", "2",
                         "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "name,passed"


def test_census_passes(capsys):
    status, out, _ = run(capsys, "census", "--mu", "1")
    assert status == 0
    assert "[PASS] census-count-mu=+1" in out
    assert "[PASS] census-words-mu=+1" in out


def test_census_runs_the_census_once_per_mu(capsys, monkeypatch):
    calls = []
    census = tauadic.tables.gls_nonuniqueness_census

    def counting(mu):
        calls.append(mu)
        return census(mu)
    monkeypatch.setattr(tauadic.tables, "gls_nonuniqueness_census", counting)
    status, _, _ = run(capsys, "census")
    assert status == 0
    assert calls == [1, -1]


def test_census_csv_output(capsys):
    status, out, err = run(capsys, "census", "--mu", "-1", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "c3,c2,c1,c0"
    assert len(lines) == 1 + 252
    assert "[PASS]" in err  # verification lines stay off the data stream


def test_census_json_output(capsys):
    status, out, _ = run(capsys, "census", "--mu", "1", "--format", "json")
    assert status == 0
    records = json.loads(out)
    assert len(records) == 252
    assert json.dumps(records, separators=(",", ":")) == out.strip()
    assert [-3, 0, -3, -3] in [r["word"] for r in records]


def test_check_quick_suite(capsys):
    status, out, _ = run(capsys, "check", "--suite", "ring", "--seed", "7",
                         "--scale", "quick")
    assert status == 0
    assert "checks passed" in out


def test_check_deterministic_output(capsys):
    _, first, _ = run(capsys, "check", "--suite", "norm", "--seed", "3",
                      "--scale", "quick")
    _, second, _ = run(capsys, "check", "--suite", "norm", "--seed", "3",
                       "--scale", "quick")
    assert first == second


def test_check_reports_a_failed_factorization(capsys, monkeypatch):
    # an indefinite form, and tables that miss the form (which would
    # otherwise steer the enumeration through millions of points), fail the
    # checks that need the LDL factors
    indefinite = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ldl_decompose = tauadic.normform.ldl_decompose

    def wrong_tables(matrix):
        m, _, n = ldl_decompose(matrix)
        return m, (1, 1, 1, 1), n
    for name, fake in (("gram_matrix", lambda mu: indefinite),
                       ("ldl_decompose", wrong_tables)):
        monkeypatch.setattr(tauadic.normform, name, fake)
        tauadic.normform._ldl_factors.cache_clear()
        try:
            status, out, err = run(capsys, "check", "--suite", "norm", "--scale", "quick")
        finally:
            monkeypatch.undo()
            tauadic.normform._ldl_factors.cache_clear()
        assert status == 1, name
        assert err == ""
        failed = {line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")}
        assert failed == {"ldl-pivots-positive-mu=+1", "ldl-pivots-positive-mu=-1",
                          "ldl-reconstructs-form", "enumeration-matches-bruteforce-mu=+1",
                          "enumeration-matches-bruteforce-mu=-1"}, name


def test_closed_stdout_exits_0():
    # a reader that stops early, as `tauadic enumerate ... | head -1` does
    src = Path(tauadic.__file__).resolve().parent.parent
    for fmt, first in (("text", "-1,0,0,0  norm_sq=2\n"),
                       ("json", '[{"element":[-1,0,0,0],"norm_sq":2},')):
        with subprocess.Popen(
                [sys.executable, "-m", "tauadic.cli", "enumerate", "--mu", "1",
                 "--bound", "300", "--format", fmt],
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.read(len(first)) == first
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=60)
        assert status == 0, fmt
        assert err == "", fmt  # no message, no traceback


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_3():
    # a write that fails while the shells stream out is an I/O error
    src = Path(tauadic.__file__).resolve().parent.parent
    for fmt in ("text", "csv", "json"):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "tauadic.cli", "enumerate", "--mu", "1",
                 "--bound", "300", "--format", fmt],
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 3, fmt
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
