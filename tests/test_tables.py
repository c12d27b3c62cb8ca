import pytest

from tauadic.digits import Digit, ZERO_DIGIT
from tauadic.expand import expand_gls, expand_tnaf, parse_digit_word
from tauadic.ring import ZTau, evaluate_expansion
from tauadic.tables import (CENSUS_SIZE, FixtureError, GLS_TABLE_SIZE,
                            TNAF_TABLE_SIZE, TableFixture, TableRow,
                            check_census, check_tnaf_existence_table,
                            compare_tables, gls_nonuniqueness_census,
                            load_gls_nonuniqueness_fixture,
                            load_tnaf_existence_fixture,
                            reproduce_gls_existence,
                            reproduce_tnaf_existence_table, run_table_checks,
                            validate_tnaf_fixture)


def test_fixture_sizes_and_consistency():
    for mu in (1, -1):
        for j in (1, 4, 9, 16):
            fix = load_tnaf_existence_fixture(mu, j)
            assert len(fix.rows) == TNAF_TABLE_SIZE
            validate_tnaf_fixture(fix, mu, j)


def test_reproduce_matches_fixture_reference_tables():
    for mu in (1, -1):
        assert check_tnaf_existence_table(mu, 1).ok


def test_reproduce_matches_fixture_all_digit_sets():
    results = run_table_checks()
    assert len(results) == 34
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_fixture_spot_rows():
    # a few reference rows, one per corner of the table family
    fix = {(r.element): r for r in load_tnaf_existence_fixture(1, 1).rows}
    row = fix[ZTau(2, 0, -1, -1)]
    assert row.norm_sq == 20
    assert row.digits == parse_digit_word("-1-1t;0;2")
    assert row.length == 3

    row = fix[ZTau(3, 0, 0, 0)]
    assert row.norm_sq == 18
    assert row.digits == parse_digit_word("1-1t;0;0;-1+2t")
    assert row.length == 4

    row = fix[ZTau(-3, 0, 0, 1)]
    assert row.norm_sq == 13
    assert row.digits == parse_digit_word("1;0;0;-2;0;1+2t")
    assert row.length == 6

    row = fix[ZTau(1, 1, 0, 0)]
    assert row.norm_sq == 7
    assert row.digits == parse_digit_word("1+1t")

    fix = {(r.element): r for r in load_tnaf_existence_fixture(-1, 1).rows}
    row = fix[ZTau(1, 1, 0, 0)]
    assert row.norm_sq == 5
    assert row.digits == parse_digit_word("1+1t")

    fix = {(r.element): r for r in load_tnaf_existence_fixture(-1, 1).rows}
    row = fix[ZTau(-2, -1, -1, -1)]
    assert row.norm_sq == 18
    assert row.digits == parse_digit_word("1;0;-1;0;2+1t")
    assert row.length == 5

    fix = {(r.element): r for r in load_tnaf_existence_fixture(1, 7).rows}
    row = fix[ZTau(2, 1, 0, 0)]
    assert row.digits == parse_digit_word("2+1t")
    assert row.length == 1

    fix = {(r.element): r for r in load_tnaf_existence_fixture(1, 2).rows}
    row = fix[ZTau(3, 0, 0, -1)]
    assert row.norm_sq == 13
    assert row.digits == parse_digit_word("-1;0;0;2;0;-1-2t")
    assert row.length == 6


def test_compare_tables_reports_corrupted_row():
    fix = load_tnaf_existence_fixture(1, 1)
    rows = list(fix.rows)
    victim = rows[17]
    rows[17] = TableRow(element=victim.element, norm_sq=victim.norm_sq + 1,
                        digits=victim.digits, length=victim.length)
    corrupted = TableFixture(id=fix.id, rows=tuple(rows))
    diff = compare_tables(reproduce_tnaf_existence_table(1, 1), corrupted)
    assert not diff.ok
    assert len(diff.missing) == 1 and len(diff.extra) == 1
    assert diff.missing[0].element == victim.element
    assert str(victim.element) in diff.describe()


def test_validate_fixture_rejects_corrupted_row():
    fix = load_tnaf_existence_fixture(1, 2)
    rows = list(fix.rows)
    rows[0] = TableRow(element=rows[0].element, norm_sq=rows[0].norm_sq,
                       digits=rows[0].digits[:-1], length=rows[0].length - 1)
    with pytest.raises(FixtureError):
        validate_tnaf_fixture(TableFixture(id=fix.id, rows=tuple(rows)), 1, 2)


def test_gls_existence_reproduction():
    from tauadic.expand import is_gls_window_valid
    for mu in (1, -1):
        table = reproduce_gls_existence(mu)
        assert len(table.rows) == GLS_TABLE_SIZE
        for row in table.rows:
            assert evaluate_expansion(row.digits, mu) == row.element
            assert row.length == len(row.digits)
            assert is_gls_window_valid(row.digits)


def test_census_counts_and_fixture_match():
    for mu in (1, -1):
        witnesses = gls_nonuniqueness_census(mu)
        assert len(witnesses) == CENSUS_SIZE
        words = {w.word for w in witnesses}
        assert len(words) == CENSUS_SIZE
        assert len({w.element for w in witnesses}) == CENSUS_SIZE
        assert words == set(load_gls_nonuniqueness_fixture(mu))
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
    (tmp_path / "tnaf_existence_p1_j01.csv").write_text(
        "s,t,u,v,norm_sq,digits,length\n1,0,0,0,2,1,1\n")
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    fix = load_tnaf_existence_fixture(1, 1)
    assert len(fix.rows) == 1
    assert fix.rows[0].element == ZTau(1, 0, 0, 0)


@pytest.mark.parametrize("text,where", [
    ("s,t,u,v,norm_sq,digits\n1,0,0,0,2,1\n", "line 1: columns"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,0,0,2,1,1\n1,0,0,0,2,1\n",
     "line 3: 6 fields, want 7"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,x,0,2,1,1\n", "line 2: invalid literal"),
    ("s,t,u,v,norm_sq,digits,length\n1,0,0,0,2,1+t,1\n", "line 2: malformed digit"),
])
def test_tnaf_fixture_faults_name_file_and_line(tmp_path, monkeypatch, text, where):
    (tmp_path / "tnaf_existence_p1_j01.csv").write_text(text)
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    with pytest.raises(FixtureError, match=f"tnaf_existence_p1_j01.csv {where}"):
        load_tnaf_existence_fixture(1, 1)


@pytest.mark.parametrize("text,where", [
    ("c3,c2,c1\n-3,0,-3\n", "line 1: columns"),
    ("c3,c2,c1,c0\n-3,0,-3,-3\n\n-3,0,-3\n", "line 4: 3 fields, want 4"),
    ("c3,c2,c1,c0\n-3,0,-3,1.5\n", "line 2: invalid literal"),
])
def test_census_fixture_faults_name_file_and_line(tmp_path, monkeypatch, text, where):
    (tmp_path / "gls_nonuniqueness_m1.csv").write_text(text)
    monkeypatch.setenv("TAU_FIXTURES_DIR", str(tmp_path))
    with pytest.raises(FixtureError, match=f"gls_nonuniqueness_m1.csv {where}"):
        load_gls_nonuniqueness_fixture(-1)
