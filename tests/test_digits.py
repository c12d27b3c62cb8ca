import pytest

from tauadic.digits import (Digit, ElementDivisibleError, InvalidResidueError,
                            TnafDigitSet, ZERO_DIGIT, _residue_cells,
                            all_tnaf_digit_sets,
                            build_tnaf_digit_set, digit_element, format_digit,
                            gls_digit, tnaf_candidates,
                            tnaf_digit, validate_digit_set)
from tauadic.ring import ZTau, tau_sq_divides


def D(a, b=0):
    return Digit(a, b)


def test_digit_text():
    assert format_digit(D(-1, 2)) == "-1+2t"
    assert format_digit(D(2, -1)) == "2-1t"
    assert format_digit(D(0)) == "0"
    assert format_digit(D(-3)) == "-3"
    assert format_digit(D(1, -1)) == "1-1t"


def test_gls_digit_examples():
    assert gls_digit(2, 0, 0) == 2
    assert gls_digit(5, 2, 0) == 1
    assert gls_digit(7, 1, 0) == -1


# the complete sign-selection rule, rows (t mod 4 or v mod 2) by s mod 8
GLS_RULE_EVEN_T = {  # t even: row is t mod 4
    0: {1: 1, 2: 2, 3: 3, 5: -3, 6: -2, 7: -1},
    2: {1: -3, 2: -2, 3: -1, 5: 1, 6: 2, 7: 3},
}
GLS_RULE_ODD_T = {  # t odd: row is v mod 2
    0: {1: 1, 2: 2, 3: 3, 5: -3, 6: -2, 7: -1},
    1: {1: -3, 2: -2, 3: -1, 5: 1, 6: 2, 7: 3},
}


def test_gls_digit_full_rule():
    for s8 in (0, 4):
        for t4 in range(4):
            for v2 in range(2):
                assert gls_digit(s8, t4, v2) == 0
    for t4 in (0, 2):
        for s8, want in GLS_RULE_EVEN_T[t4].items():
            for v2 in range(2):
                assert gls_digit(s8, t4, v2) == want
    for t4 in (1, 3):
        for v2 in range(2):
            for s8, want in GLS_RULE_ODD_T[v2].items():
                assert gls_digit(s8, t4, v2) == want


def test_gls_digit_congruence():
    for s8 in range(8):
        for t4 in range(4):
            for v2 in range(2):
                c = gls_digit(s8, t4, v2)
                assert -3 <= c <= 3
                assert (s8 - c) % 4 == 0


def test_gls_digit_range_check():
    with pytest.raises(ValueError):
        gls_digit(8, 0, 0)


def test_tnaf_candidates_examples():
    assert tnaf_candidates(1, 0, 1) == (D(1),)
    assert set(tnaf_candidates(3, 0, 1)) == {D(-1, 2), D(-1, -2)}
    assert set(tnaf_candidates(2, 1, 1)) == {D(2, 1), D(-2, -1)}
    with pytest.raises(InvalidResidueError):
        tnaf_candidates(4, 0, 1)
    with pytest.raises(InvalidResidueError):
        tnaf_candidates(0, 2, -1)


# the full digit-selection table; cells with two entries are the "or" cells
SELECTION_TABLE = {
    (1, 0): [D(1)], (2, 0): [D(2)],
    (3, 0): [D(-1, 2), D(-1, -2)], (5, 0): [D(1, 2), D(1, -2)],
    (6, 0): [D(-2)], (7, 0): [D(-1)],
    (1, 1): [D(1, 1)], (2, 1): [D(2, 1), D(-2, -1)],
    (3, 1): [D(-1, -1)], (5, 1): [D(1, -1)],
    (6, 1): [D(-2, 1), D(2, -1)], (7, 1): [D(-1, 1)],
    (1, 2): [D(1, 2), D(1, -2)], (2, 2): [D(-2)],
    (3, 2): [D(-1)], (5, 2): [D(1)],
    (6, 2): [D(2)], (7, 2): [D(-1, 2), D(-1, -2)],
    (1, 3): [D(1, -1)], (2, 3): [D(-2, 1), D(2, -1)],
    (3, 3): [D(-1, 1)], (5, 3): [D(1, 1)],
    (6, 3): [D(2, 1), D(-2, -1)], (7, 3): [D(-1, -1)],
}


def test_tnaf_candidates_full_table():
    # 2-tau digits in the "or" cells come in both signs, so the table is
    # the same set for both mu
    for mu in (1, -1):
        singles = doubles = 0
        for (r_s, r_t), want in SELECTION_TABLE.items():
            got = set(tnaf_candidates(r_s, r_t, mu))
            assert got == set(want), (mu, r_s, r_t)
            if len(got) == 1:
                singles += 1
            else:
                doubles += 1
        assert singles == 16 and doubles == 8


def test_tnaf_candidates_satisfy_congruences():
    for mu in (1, -1):
        for r_s in (1, 2, 3, 5, 6, 7):
            for r_t in range(4):
                for c in tnaf_candidates(r_s, r_t, mu):
                    assert (r_s - c.a) % 4 == 0
                    ctilde = (r_s - c.a) // 4
                    assert (r_t - c.b + 2 * mu * ctilde) % 4 == 0


def test_build_digit_set_j1():
    dset = build_tnaf_digit_set(1, 1)
    base = {D(0), D(1), D(-1), D(2), D(-2), D(1, 1), D(1, -1), D(-1, 1), D(-1, -1)}
    assert dset.digits == frozenset(base | {D(2, 1), D(2, -1), D(1, 2), D(-1, 2)})


def test_build_digit_set_j7():
    # facing the classical 13-digit set when mu = 1
    dset = build_tnaf_digit_set(7, 1)
    classical = {D(0), D(1), D(-1), D(2), D(-2),
                 D(1, 1), D(-1, -1), D(1, -1), D(-1, 1),
                 D(1, -2), D(-1, 2), D(2, 1), D(-2, 1)}
    assert dset.digits == frozenset(classical)


def test_build_digit_set_shape():
    for mu in (1, -1):
        for j in range(1, 17):
            dset = build_tnaf_digit_set(j, mu)
            assert len(dset.digits) == 13
            assert ZERO_DIGIT in dset.digits
    with pytest.raises(ValueError):
        build_tnaf_digit_set(0, 1)
    with pytest.raises(ValueError):
        build_tnaf_digit_set(17, 1)


def test_digit_sets_pairwise_distinct():
    for mu in (1, -1):
        sets = all_tnaf_digit_sets(mu)
        assert len({ds.digits for ds in sets}) == 16


def test_tnaf_digit_examples():
    assert tnaf_digit(ZTau(3, 0, 0, 0), build_tnaf_digit_set(1, 1)) == D(-1, 2)
    for j in (1, 7, 16):
        assert tnaf_digit(ZTau(1, 0, 0, 0), build_tnaf_digit_set(j, 1)) == D(1)
    assert tnaf_digit(ZTau(5, 2, 0, 0), build_tnaf_digit_set(1, 1)) == D(1)
    with pytest.raises(ElementDivisibleError):
        tnaf_digit(ZTau(4, 0, 0, 0), build_tnaf_digit_set(1, 1))


def test_tnaf_digit_reduces_by_tau_squared():
    for mu in (1, -1):
        for j in range(1, 17):
            dset = build_tnaf_digit_set(j, mu)
            for raw in range(200):
                a = ZTau(raw * 7 + 1, -raw * 3, raw, raw % 5 - 2)
                if a.s % 4 == 0:
                    continue
                c = tnaf_digit(a, dset)
                assert tau_sq_divides(a - digit_element(c), mu)


def test_tnaf_digit_raises_on_unusable_set():
    # the shared base digits cover no cell with Rs in {2, 6} and odd Rt
    base = {D(0), D(1), D(-1), D(2), D(-2), D(1, 1), D(1, -1), D(-1, 1), D(-1, -1)}
    crippled = TnafDigitSet(j=0, mu=1, digits=frozenset(base))
    with pytest.raises(RuntimeError):
        tnaf_digit(ZTau(2, 1, 0, 0), crippled)
    # set 1 holds 2+tau; with -2-tau too, some cells have two candidates
    crowded = TnafDigitSet(j=0, mu=1, digits=build_tnaf_digit_set(1, 1).digits | {D(-2, -1)})
    for dset, kinds in ((crippled, {0, 1}), (crowded, {1, 2})):
        # a cell gives its digit when the set holds exactly one candidate
        counts = set()
        for r_s, r_t in _residue_cells():
            hits = [c for c in tnaf_candidates(r_s, r_t, 1) if c in dset]
            counts.add(len(hits))
            a = ZTau(r_s - 8, r_t, 0, 0)
            if len(hits) == 1:
                assert tnaf_digit(a, dset) == hits[0]
            else:
                with pytest.raises(RuntimeError):
                    tnaf_digit(a, dset)
        assert counts == kinds


def test_validate_digit_set():
    for mu in (1, -1):
        for j in range(1, 17):
            assert validate_digit_set(build_tnaf_digit_set(j, mu))


def test_validate_rejects_colliding_pair():
    # both +-(2+tau): the same residue cells get two representatives
    good = build_tnaf_digit_set(1, 1)
    digits = (good.digits - {D(2, -1)}) | {D(-2, -1)}
    assert not validate_digit_set(TnafDigitSet(j=0, mu=1, digits=digits))


def test_validate_rejects_incomplete_set():
    base = {D(0), D(1), D(-1), D(2), D(-2), D(1, 1), D(1, -1), D(-1, 1), D(-1, -1)}
    assert not validate_digit_set(TnafDigitSet(j=0, mu=1, digits=frozenset(base)))


def test_validate_rejects_every_added_box_digit():
    # 2 mu x 16 sets x the 8 box digits outside each set: 128 of them are
    # divisible by tau, the rest collide mod tau^2 with a digit of the set
    # (e.g. 1+2t with 1-2t, tau parts 4 apart)
    box = [D(a, b) for a in range(-2, 3) for b in range(-2, 3) if (abs(a), abs(b)) != (2, 2)]
    cases = 0
    for mu in (1, -1):
        for dset in all_tnaf_digit_sets(mu):
            outside = [c for c in box if c not in dset]
            assert len(outside) == 8
            for c in outside:
                grown = TnafDigitSet(j=0, mu=mu, digits=dset.digits | {c})
                assert not validate_digit_set(grown), (mu, dset.j, c)
                cases += 1
    assert cases == 256
