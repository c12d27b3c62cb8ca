import pytest

from tauadic.cli import main
from tauadic.digits import Digit, ZERO_DIGIT, build_tnaf_digit_set
from tauadic.expand import expand_gls, expand_tnaf, is_naf
from tauadic.normform import enumerate_short_vectors
from tauadic.ring import ZTau, evaluate_expansion
from tauadic.tables import (CENSUS_SIZE, GLS_TABLE_SIZE,
                            TNAF_NORM_BOUND, census_to_csv, check_census,
                            check_tnaf_existence_table, fixture_text,
                            gls_nonuniqueness_census, reproduce_gls_existence,
                            run_table_checks)

_P1_J01 = "tnaf_existence_p1_j01.csv"
_M1 = "gls_nonuniqueness_m1.csv"


def _cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out + out.err


def test_fixture_sizes_and_consistency():
    # each fixture line equals the csv_row of one of these expansions
    # (test_reproduce_matches_fixture_all_digit_sets), so the lines are
    # consistent when the expansions are
    for mu in (1, -1):
        elements = [e for e, _ in enumerate_short_vectors(mu, TNAF_NORM_BOUND).elements]
        assert len(elements) == 94
        for j in range(1, 17):
            name = f"tnaf_existence_{'p1' if mu == 1 else 'm1'}_j{j:02d}.csv"
            assert len(fixture_text(name).splitlines()) == 1 + 94
            dset = build_tnaf_digit_set(j, mu)
            for element in elements:
                digits = expand_tnaf(element, mu, j).digits
                assert evaluate_expansion(digits, mu) == element
                assert is_naf(digits, dset)


def test_reproduce_matches_fixture_reference_tables():
    for mu in (1, -1):
        assert check_tnaf_existence_table(mu, 1).passed


def test_reproduce_matches_fixture_all_digit_sets():
    results = run_table_checks()
    assert len(results) == 34
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_fixture_spot_rows():
    # a few reference rows, one per corner of the table family
    spots = {
        "tnaf_existence_p1_j01.csv": ["2,0,-1,-1,20,-1-1t;0;2,3",
                                      "3,0,0,0,18,1-1t;0;0;-1+2t,4",
                                      "-3,0,0,1,13,1;0;0;-2;0;1+2t,6",
                                      "1,1,0,0,7,1+1t,1"],
        "tnaf_existence_m1_j01.csv": ["1,1,0,0,5,1+1t,1",
                                      "-2,-1,-1,-1,18,1;0;-1;0;2+1t,5"],
        "tnaf_existence_p1_j07.csv": ["2,1,0,0,14,2+1t,1"],
        "tnaf_existence_p1_j02.csv": ["3,0,0,-1,13,-1;0;0;2;0;-1-2t,6"],
    }
    for name, rows in spots.items():
        lines = fixture_text(name).splitlines()
        for row in rows:
            assert row in lines, (name, row)


def test_compare_tables_reports_corrupted_row(tmp_path, monkeypatch):
    lines = fixture_text(_P1_J01).splitlines()
    victim = lines[18]
    s, t, u, v, norm, digits, length = victim.split(",")
    lines[18] = ",".join((s, t, u, v, str(int(norm) + 1), digits, length))
    (tmp_path / _P1_J01).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    result = check_tnaf_existence_table(1, 1)
    assert not result.passed
    assert result.detail.splitlines() == [
        "tnaf-existence-D1-mu=+1: MISMATCH (1 missing, 1 extra)",
        f"  missing: {_P1_J01} line 19: {lines[18]}",
        f"  extra: {victim}"]
    assert victim in result.describe()


def test_gls_existence_reproduction():
    from tauadic.expand import is_gls_window_valid
    for mu in (1, -1):
        table = reproduce_gls_existence(mu)
        assert len(table) == GLS_TABLE_SIZE
        assert len({e.source for e in table}) == GLS_TABLE_SIZE
        for e in table:
            assert evaluate_expansion(e.digits, mu) == e.source
            assert is_gls_window_valid(e.digits)


def test_census_counts_and_fixture_match():
    for mu in (1, -1):
        witnesses = gls_nonuniqueness_census(mu)
        assert len(witnesses) == CENSUS_SIZE
        words = {w.word for w in witnesses}
        assert len(words) == CENSUS_SIZE
        assert len({w.element for w in witnesses}) == CENSUS_SIZE
        name = f"gls_nonuniqueness_{'p1' if mu == 1 else 'm1'}.csv"
        assert fixture_text(name) == census_to_csv(witnesses)
        assert all(r.passed for r in check_census(mu, witnesses))


def test_census_contains_reference_words():
    words_p = {w.word for w in gls_nonuniqueness_census(1)}
    assert (-3, 0, -3, -3) in words_p
    words_m = {w.word for w in gls_nonuniqueness_census(-1)}
    assert (3, 0, 3, 3) in words_m


def test_census_witnesses_have_two_expansions():
    for mu in (1, -1):
        for w in gls_nonuniqueness_census(mu)[:25]:
            word_le = w.word_le()
            assert evaluate_expansion(word_le, mu) == w.element
            assert w.canonical.digits == expand_gls(w.element, mu).digits
            stripped = tuple(c for c in word_le)
            while stripped and stripped[-1] == ZERO_DIGIT:
                stripped = stripped[:-1]
            assert stripped != w.canonical.digits


def test_two_expansion_family_values():
    # both digit words denote b*tau^2 + 2*mu*tau - 1
    for mu in (1, -1):
        for b in range(-3, 4):
            target = ZTau(-1, 2 * mu, b, 0)
            short = [Digit(c, 0) for c in (-1, 2 * mu, b, 0)]
            long = [Digit(c, 0) for c in (3, 0, b, -mu, 1)]
            assert evaluate_expansion(short, mu) == target
            assert evaluate_expansion(long, mu) == target
            assert expand_gls(target, mu).digits == tuple(long)


def test_tnaf_weight_gap_witness_weights():
    for mu in (1, -1):
        target = ZTau(2, 2 * mu, 0, 0)
        weights = {j: expand_tnaf(target, mu, j).weight for j in range(1, 17)}
        assert set(weights.values()) <= {3, 4}
        assert 3 in weights.values() and 4 in weights.values()


def test_fixture_dir_override(tmp_path, monkeypatch):
    lines = fixture_text(_P1_J01).splitlines()
    # row order is presentation only
    (tmp_path / _P1_J01).write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    result = check_tnaf_existence_table(1, 1)
    assert result.passed and result.detail == "tnaf-existence-D1-mu=+1: OK"
    (tmp_path / _P1_J01).write_text(lines[0] + "\n")
    detail = check_tnaf_existence_table(1, 1).detail.splitlines()
    assert detail[0] == "tnaf-existence-D1-mu=+1: MISMATCH (0 missing, 94 extra)"
    assert len(detail) == 1 + 94 and all(d.startswith("  extra: ") for d in detail[1:])


# A header other than the columns is a fixture error (exit 3); a data line
# that equals no computed row is a mismatch (exit 1) named by file and line.
@pytest.mark.parametrize("text,where", [
    ("s,t,u,v,norm_sq,digits\n1,0,0,0,2,1\n", "line 1: columns"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,0,0,2,1,1\n1,0,0,0,2,1\n",
     "line 3: 1,0,0,0,2,1"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,x,0,2,1,1\n", "line 2: 1,0,x,0,2,1,1"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,0,0,2,1+t,1\n", "line 2: 1,0,0,0,2,1+t,1"),
])
def test_tnaf_fixture_faults_name_file_and_line(tmp_path, monkeypatch, capsys,
                                                text, where):
    (tmp_path / _P1_J01).write_text(text)
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    status, out = _cli(capsys, "tables", "--mu", "1", "--digit-set", "1")
    assert status == (3 if where.startswith("line 1:") else 1)
    assert f"{_P1_J01} {where}" in out


@pytest.mark.parametrize("text,where", [
    ("c3,c2,c1\n-3,0,-3\n", "line 1: columns"),
    ("c3,c2,c1,c0\n-3,0,-3,-3\n\n-3,0,-3\n", "line 4: -3,0,-3"),
    ("c3,c2,c1,c0\n-3,0,-3,1.5\n", "line 2: -3,0,-3,1.5"),
])
def test_census_fixture_faults_name_file_and_line(tmp_path, monkeypatch, capsys,
                                                  text, where):
    (tmp_path / _M1).write_text(text)
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    status, out = _cli(capsys, "census", "--mu", "-1")
    assert status == (3 if where.startswith("line 1:") else 1)
    assert f"{_M1} {where}" in out


@pytest.mark.parametrize("edit", ["digit-changed", "row-added", "row-deleted",
                                  "row-repeated"])
@pytest.mark.parametrize("name,argv,changed,added", [
    # line 2 with one digit changed, and a row outside the table: the zero
    # element, and a word ending in 0
    (_P1_J01, ["tables", "--mu", "1", "--digit-set", "1"],
     "2,0,-1,-1,20,-1-1t;0;1,3", "0,0,0,0,0,,0"),
    (_M1, ["census", "--mu", "-1"], "-3,1,-3,-3", "3,0,3,0"),
], ids=["tables", "census"])
def test_fixture_edits_exit_1(tmp_path, monkeypatch, capsys, edit,
                              name, argv, changed, added):
    lines = fixture_text(name).splitlines()
    n = len(lines)
    if edit == "digit-changed":
        want = [f"{name} line 2: {changed}", f"extra: {lines[1]}"]
        lines[1] = changed
    elif edit == "row-added":
        want = [f"{name} line {n + 1}: {added}"]
        lines.append(added)
    elif edit == "row-deleted":
        # no fixture line is at fault: the computed row is named
        want = [f"extra: {lines.pop(1)}"]
    else:
        want = [f"{name} line {n + 1}: {lines[1]}"]
        lines.append(lines[1])
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    status, out = _cli(capsys, *argv)
    assert status == 1
    assert "MISMATCH" in out
    for fragment in want:
        assert fragment in out
