"""The recoding loop, its digit tables and Horner evaluation, checked
against the direct algorithms they replace: a multiply-by-tau fold for
evaluation, and a quotient_by_tau loop with per-step digit selection for
the recoders."""

import random

import pytest

from tauadic import expand
from tauadic.digits import (Digit, ZERO_DIGIT, build_tnaf_digit_set,
                            gls_digit, tnaf_candidates, tnaf_digit)
from tauadic.expand import (GLS, TNAF, GLS_TABLE, GuardExceededError,
                            expand_gls, expand_tnaf, norm_trace, recode)
from tauadic.normform import norm_sq
from tauadic.ring import (TAU, ZERO, ZTau, evaluate_expansion, multiply,
                          quotient_by_tau, tau_divides)

SETS = [(mu, j) for mu in (1, -1) for j in range(1, 17)]


def _fold(digits, mu: int) -> ZTau:
    acc = ZERO
    for a, b in reversed(digits):
        acc = multiply(acc, TAU, mu) + ZTau(a, b, 0, 0)
    return acc


def _random_digit(rng: random.Random):
    # Digits and plain pairs, small ones and ones of up to 40 bits, so that
    # the tau-shift carries grow large.
    kind = rng.randrange(5)
    if kind == 0:
        return ZERO_DIGIT
    span = 10 ** 12 if kind > 2 else 2
    pair = (rng.randint(-span, span), rng.randint(-span, span))
    return Digit(*pair) if kind % 2 else pair


def _random_element(rng: random.Random, bits: int) -> ZTau:
    return ZTau(*(rng.randint(-2 ** bits, 2 ** bits) for _ in range(4)))


@pytest.mark.parametrize("mu", [1, -1])
def test_horner_matches_multiply_fold(mu):
    rng = random.Random(2000 + mu)
    lengths = [0, 1, 2, 3, 4, 5, 600] + [rng.randint(0, 600) for _ in range(8)]
    for n in lengths:
        word = [_random_digit(rng) for _ in range(n)]
        assert evaluate_expansion(word, mu) == _fold(word, mu), (mu, n)
        assert evaluate_expansion(iter(word), mu) == _fold(word, mu)


def test_gls_table_cells_follow_gls_digit():
    assert len(GLS_TABLE) == 64
    for r_s in range(8):
        for r_t in range(4):
            for r_v in range(2):
                want = Digit(gls_digit(r_s, r_t, r_v), 0)
                assert GLS_TABLE[8 * r_s + 2 * r_t + r_v] == want


@pytest.mark.parametrize("mu,j", SETS)
def test_tnaf_table_cells_follow_tnaf_digit(mu, j):
    # the recoder and tnaf_digit read one table; each of its 24 nonzero
    # cells is the one candidate of tnaf_candidates that the set holds
    dset = build_tnaf_digit_set(j, mu)
    table = dset.cells
    assert len(table) == 32
    for r_s in range(8):
        for r_t in range(4):
            cell = table[4 * r_s + r_t]
            if r_s % 4 == 0:
                assert cell == ZERO_DIGIT
                continue
            assert [cell] == [c for c in tnaf_candidates(r_s, r_t, mu) if c in dset]
            for k in (-2, -1, 0, 1, 2):  # elements of the cell of either sign
                assert tnaf_digit(ZTau(r_s + 8 * k, r_t + 4 * k, k, -k), dset) == cell


@pytest.mark.parametrize("mu,j", SETS)
def test_first_step_reads_the_cell_of_the_element(mu, j):
    # The loop's index arithmetic picks the same digit as the rules, for
    # elements of either sign and any size.
    rng = random.Random(100 * j + mu)
    dset = build_tnaf_digit_set(j, mu)
    for bits in (1, 3, 64):
        for _ in range(20):
            a = _random_element(rng, bits)
            if a == ZERO:
                continue
            trace = []
            c = recode(a, mu, TNAF, j, trace)[0]
            assert trace[0] == tuple(a)
            assert c == (ZERO_DIGIT if tau_divides(a) else tnaf_digit(a, dset))
            c = recode(a, mu, GLS)[0]
            assert c == Digit(gls_digit(a.s % 8, a.t % 4, a.v % 2), 0)


def _reference_recoding(a: ZTau, mu: int, pick) -> tuple:
    """(digits, states) of the direct loop: digit by rule, exact quotient."""
    digits, states = [], []
    while a != ZERO:
        c = pick(a)
        digits.append(c)
        states.append(a)
        a = quotient_by_tau(a - ZTau(c.a, c.b, 0, 0), mu)
    return tuple(digits), states


def _gls_pick(a: ZTau) -> Digit:
    return Digit(gls_digit(a.s % 8, a.t % 4, a.v % 2), 0)


def _tnaf_pick(dset):
    return lambda a: ZERO_DIGIT if tau_divides(a) else tnaf_digit(a, dset)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_recoders_match_the_direct_loop(bits):
    rng = random.Random(bits)
    sets = SETS if bits == 64 else [rng.choice(SETS) for _ in range(4)]
    for mu, j in sets:
        a = _random_element(rng, bits)
        digits, states = _reference_recoding(a, mu, _gls_pick)
        assert expand_gls(a, mu).digits == digits
        assert norm_trace(a, mu, GLS) == [norm_sq(x, mu) for x in states] + [0]
        digits, states = _reference_recoding(
            a, mu, _tnaf_pick(build_tnaf_digit_set(j, mu)))
        trace = []
        assert recode(a, mu, TNAF, j, trace) == expand_tnaf(a, mu, j).digits == digits
        assert trace == [tuple(x) for x in states]
        assert norm_trace(a, mu, TNAF, j) == [norm_sq(x, mu) for x in states] + [0]


def test_recode_rejects_bad_arguments():
    with pytest.raises(ValueError):
        recode(ZTau(1, 0, 0, 0), 1, TNAF)
    with pytest.raises(ValueError):
        recode(ZTau(1, 0, 0, 0), 1, "other")
    with pytest.raises(ValueError):
        expand_gls(ZTau(1, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        expand_tnaf(ZTau(1, 0, 0, 0), 2, 1)


def test_a_wrong_table_trips_the_guard(monkeypatch):
    # Digit 0 at odd s makes the quotient inexact; the state never reaches 0.
    monkeypatch.setattr(expand, "GLS_TABLE", (ZERO_DIGIT,) * 64)
    with pytest.raises(GuardExceededError):
        expand_gls(ZTau(-1, 0, 0, 0), 1)
