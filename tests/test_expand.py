import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauadic import expand
from tauadic.digits import (Digit, GLS_DIGITS, TnafDigitSet, ZERO_DIGIT,
                            build_tnaf_digit_set)
from tauadic.expand import (Expansion, GLS, TNAF, check_expansion,
                            enumerate_naf_words, expand_gls, expand_tnaf,
                            format_digit_word,
                            is_gls_window_valid, is_naf,
                            min_hamming_weight, norm_trace, strip_top_zeros)
from tauadic.normform import enumerate_short_vectors
from tauadic.ring import ZERO, ZTau, evaluate_expansion, quotient_by_tau

coeffs = st.integers(-10 ** 6, 10 ** 6)
elements = st.builds(ZTau, coeffs, coeffs, coeffs, coeffs)
mus = st.sampled_from([1, -1])


def D(a, b=0):
    return Digit(a, b)


def le(*big_endian):
    return tuple(D(c) if isinstance(c, int) else D(*c) for c in reversed(big_endian))


def test_expand_gls_known_words():
    # b*tau^2 + 2*mu*tau - 1 recodes to the five-digit word (1, -mu, b, 0, 3)
    e = expand_gls(ZTau(-1, 2, 3, 0), 1)
    assert e.digits == le(1, -1, 3, 0, 3)
    assert e.length == 5
    check_expansion(e)


def test_expand_gls_zero():
    e = expand_gls(ZERO, 1)
    assert e.digits == ()
    assert e.length == 0 and e.weight == 0
    assert e.display() == "()_t"


def test_expand_gls_tau_multiple_starts_with_zero_digit():
    e = expand_gls(ZTau(4, 0, 0, 0), 1)
    assert e.digits[0] == D(0)
    assert evaluate_expansion(e.digits, 1) == ZTau(4, 0, 0, 0)
    check_expansion(e)


def test_expand_tnaf_known_words():
    e = expand_tnaf(ZTau(3, 0, 0, 0), 1, 1)
    assert e.digits == le((1, -1), 0, 0, (-1, 2))
    assert e.length == 4 and e.weight == 2
    assert e.display() == "(1-1t, 0, 0, -1+2t)_t"

    e = expand_tnaf(ZTau(-3, 0, 0, 1), 1, 1)
    assert e.digits == le(1, 0, 0, -2, 0, (1, 2))
    assert e.length == 6

    e = expand_tnaf(ZTau(1, 1, 0, 0), -1, 1)
    assert e.digits == le((1, 1))
    assert e.length == 1


def test_expand_tnaf_zero():
    e = expand_tnaf(ZERO, -1, 7)
    assert e.digits == ()


def test_expand_tnaf_rejects_bad_index():
    with pytest.raises(ValueError):
        expand_tnaf(ZTau(1, 0, 0, 0), 1, 0)


def test_hamming_weight():
    assert expand_gls(ZERO, 1).weight == 0
    assert expand_tnaf(ZTau(3, 0, 0, 0), 1, 1).weight == 2
    assert expand_tnaf(ZTau(-3, 0, 0, 1), 1, 1).weight == 3


def test_is_naf():
    dset = build_tnaf_digit_set(1, 1)
    assert is_naf(le(1, 0, 1), dset)
    assert not is_naf(le(1, 1), dset)
    assert is_naf(le((-1, 2), 0, 0, (1, -1)), dset)
    assert not is_naf(le(0, 1), dset)       # zero top digit
    assert is_naf((), dset)
    assert not is_naf(le((2, 2)), dset)     # digit outside the set


def test_is_gls_window_valid():
    assert is_gls_window_valid(le(3, 0, 3, -1, 1))
    assert not is_gls_window_valid(le(1, 1, 1, 1))
    assert is_gls_window_valid(())
    assert is_gls_window_valid(le(3, 2, 1))          # short words are vacuous
    assert not is_gls_window_valid(le(0, 1, 2, 3))   # zero top digit
    assert not is_gls_window_valid(le(4, 0, 0, 1))   # digit out of range
    assert not is_gls_window_valid([D(1, 1)])        # tau part not allowed


def _old_is_naf(word, dset) -> bool:
    # the adjacent-pair definition
    return (all(c in dset.digits for c in word)
            and not (word and word[-1] == ZERO_DIGIT)
            and all(word[i] == ZERO_DIGIT or word[i + 1] == ZERO_DIGIT
                    for i in range(len(word) - 1)))


def _old_is_gls(word) -> bool:
    # the window-of-four definition
    return (all(b == 0 and -3 <= a <= 3 for a, b in word)
            and not (word and word[-1] == ZERO_DIGIT)
            and all(ZERO_DIGIT in word[i:i + 4] for i in range(len(word) - 3)))


@pytest.mark.parametrize("form", [Digit._make, tuple], ids=["Digit", "tuple"])
def test_word_rules_match_their_definitions(form):
    # every word up to length 6, each alphabet with digits outside the set
    dset = build_tnaf_digit_set(1, 1)
    naf_alphabet = [(0, 0), (1, 0), (2, 1), (2, -1), (2, 2)]
    gls_alphabet = [(0, 0), (1, 0), (-3, 0), (4, 0), (1, 1)]
    valid = {"naf": 0, "gls": 0}
    for n in range(7):
        for raw in itertools.product(range(5), repeat=n):
            word = tuple(form(naf_alphabet[i]) for i in raw)
            assert is_naf(word, dset) == _old_is_naf(word, dset), word
            valid["naf"] += is_naf(word, dset)
            word = tuple(form(gls_alphabet[i]) for i in raw)
            assert is_gls_window_valid(word) == _old_is_gls(word), word
            valid["gls"] += is_gls_window_valid(word)
    assert valid["naf"] > 100 and valid["gls"] > 100


def test_strip_top_zeros():
    assert strip_top_zeros(le(0, 0, 2, -1)) == le(2, -1)
    assert strip_top_zeros(le(0, 0)) == ()
    assert strip_top_zeros(le(1, 0)) == le(1, 0)


def test_min_hamming_weight_examples():
    dset = build_tnaf_digit_set(1, 1)
    assert min_hamming_weight(ZTau(2, 2, 0, 0), 1, dset.sorted_digits(), 8) == 2
    assert min_hamming_weight(ZTau(1, 0, 0, 0), 1, dset.sorted_digits(), 8) == 1
    # b*tau^2 + 2*mu*tau - 1 over the integer alphabet has weight 3
    gls_digits = [D(c) for c in range(-3, 4)]
    assert min_hamming_weight(ZTau(-1, 2, 3, 0), 1, gls_digits, 6) == 3


def test_min_hamming_weight_takes_plain_pairs():
    # the criterion-5 search, its alphabet given as sorted (a, b) tuples
    for mu in (1, -1):
        for j in range(1, 17):
            dset = build_tnaf_digit_set(j, mu)
            plain = sorted(tuple(c) for c in dset.digits)
            target = ZTau(2, 2 * mu, 0, 0)
            got = min_hamming_weight(target, mu, plain, 8)
            assert got == min_hamming_weight(target, mu, dset.sorted_digits(), 8) == 2
    gls = [(c, 0) for c in GLS_DIGITS]
    assert min_hamming_weight(ZTau(-1, 2, 3, 0), 1, gls, 6) == 3


def test_min_hamming_weight_unreachable():
    # only digit 0 available: nothing nonzero is representable
    assert min_hamming_weight(ZTau(1, 0, 0, 0), 1, [D(0)], 4) is None
    assert min_hamming_weight(ZERO, 1, [D(0), D(1)], 4) == 0


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("kind,max_len", [(GLS, 4), (TNAF, 3)])
def test_min_hamming_weight_matches_bruteforce(mu, kind, max_len):
    # least weight of every element reached by some word of length <= max_len
    if kind == GLS:
        alphabet = [D(c) for c in range(-3, 4)]
    else:
        alphabet = build_tnaf_digit_set(1, mu).sorted_digits()
    least = {}
    for n in range(max_len + 1):
        for word in itertools.product(alphabet, repeat=n):
            a = evaluate_expansion(word, mu)
            w = len(word) - word.count(ZERO_DIGIT)
            least[a] = min(w, least.get(a, w))
    assert len(least) > 100
    for a, w in least.items():
        assert min_hamming_weight(a, mu, alphabet, max_len) == w, a


def test_norm_trace():
    assert norm_trace(ZERO, 1, GLS) == [0]
    assert norm_trace(ZTau(1, 0, 0, 0), 1, GLS) == [2, 0]
    assert norm_trace(ZTau(1, 0, 0, 0), -1, TNAF, 1) == [2, 0]
    trace = norm_trace(ZTau(123456, -654321, 777, -42), 1, TNAF, 7)
    assert trace[-1] == 0
    for i, n in enumerate(trace):
        if n > 20:
            assert min(trace[i + 1:i + 3]) < n
    with pytest.raises(ValueError):
        norm_trace(ZTau(1, 0, 0, 0), 1, TNAF)  # digit set index required
    with pytest.raises(ValueError):
        norm_trace(ZTau(1, 0, 0, 0), 1, "other")


def test_enumerate_naf_words_finds_only_the_recoded_word():
    for mu in (1, -1):
        dset = build_tnaf_digit_set(5, mu)
        for a in [ZTau(3, 0, 0, 0), ZTau(-1, 2, 0, 1), ZTau(2, 2 * mu, 0, 0)]:
            words = enumerate_naf_words(a, dset, 10)
            assert words == [expand_tnaf(a, mu, dset.j).digits]


def test_enumerate_naf_words_sees_collisions_of_broken_sets():
    good = build_tnaf_digit_set(1, 1)
    # keep both +-(2+tau): residue cells (2,1)/(6,3) get two candidates
    broken = TnafDigitSet(j=0, mu=1,
                          digits=(good.digits - {D(2, -1)}) | {D(-2, -1)})
    words = enumerate_naf_words(ZTau(2, 1, 0, 0), broken, 10)
    assert len(words) > 1
    assert words == sorted(words)  # depth-first, in digit order


def test_searches_reject_a_negative_length():
    dset = build_tnaf_digit_set(1, 1)
    with pytest.raises(ValueError, match="max_len"):
        enumerate_naf_words(ZTau(3, 0, 0, 0), dset, -1)
    assert enumerate_naf_words(ZTau(3, 0, 0, 0), dset, 0) == []
    assert enumerate_naf_words(ZERO, dset, 0) == [()]
    with pytest.raises(ValueError, match="max_len"):
        min_hamming_weight(ZTau(3, 0, 0, 0), 1, dset.sorted_digits(), 0)


def test_min_hamming_weight_work_is_bounded(monkeypatch):
    # no word of length <= 8 reaches the element; a search that redoes
    # its work once per weight bound takes 36,816 steps here
    calls = 0

    def counted(a, mu):
        nonlocal calls
        calls += 1
        return quotient_by_tau(a, mu)

    monkeypatch.setattr(expand, "quotient_by_tau", counted)
    digits = build_tnaf_digit_set(1, 1).sorted_digits()
    assert min_hamming_weight(ZTau(1001, 3, 0, 0), 1, digits, 8) is None
    assert 0 < calls <= 2000
    assert min_hamming_weight(ZTau(1001, 3, 0, 0), 1, digits, 20) == 9


def _census_elements(mu):
    elements = [e for e, _ in enumerate_short_vectors(mu, 38).elements]
    assert len(elements) == 300
    return elements


def test_tnaf_words_are_unique_on_the_census_elements():
    # every set, both mu: each element of norm <= 38 has exactly one
    # tau-NAF word of length <= 14, the recoder's
    for mu in (1, -1):
        elements = _census_elements(mu)
        for j in range(1, 17):
            dset = build_tnaf_digit_set(j, mu)
            for a in elements:
                words = enumerate_naf_words(a, dset, 14)
                assert words == [expand_tnaf(a, mu, j).digits], (mu, j, a)


# Per (mu, j): how many elements of norm <= 38 have a digit string over the
# set lighter than their tau-NAF.
_LIGHTER_THAN_TNAF = {
    1: (40, 42, 34, 36, 38, 41, 33, 36, 36, 41, 33, 38, 36, 42, 34, 40),
    -1: (41, 41, 33, 33, 35, 40, 32, 37, 37, 40, 32, 35, 33, 41, 33, 41),
}


def test_tnaf_is_not_of_least_weight_census():
    for mu in (1, -1):
        elements = _census_elements(mu)
        counts = []
        for j in range(1, 17):
            digits = build_tnaf_digit_set(j, mu).sorted_digits()
            lighter = []
            for a in elements:
                e = expand_tnaf(a, mu, j)
                # every word fits in the search length, so the least weight
                # is never above the tau-NAF's
                assert e.length <= 10
                w = min_hamming_weight(a, mu, digits, 14)
                assert w <= e.weight, (mu, j, a)
                if w < e.weight:
                    lighter.append(a)
            assert ZTau(2, 2 * mu, 0, 0) in lighter, (mu, j)
            counts.append(len(lighter))
        assert tuple(counts) == _LIGHTER_THAN_TNAF[mu]


def test_expansion_json_round_trip():
    # the fields of to_json rebuild the expansion
    e = expand_tnaf(ZTau(3, 0, 0, 0), 1, 1)
    text = e.to_json()
    obj = json.loads(text)
    assert obj == {"kind": "tnaf", "mu": 1, "digit_set": 1, "element": [3, 0, 0, 0],
                   "digits": [[-1, 2], [0, 0], [0, 0], [1, -1]],
                   "length": 4, "hamming_weight": 2}
    assert list(obj) == ["kind", "mu", "digit_set", "element",
                         "digits", "length", "hamming_weight"]
    assert json.dumps(obj, separators=(",", ":")) == text
    assert Expansion(kind=obj["kind"], mu=obj["mu"], digit_set_id=obj["digit_set"],
                     digits=tuple(Digit(*c) for c in obj["digits"]),
                     source=ZTau(*obj["element"])) == e
    assert json.loads(expand_gls(ZERO, -1).to_json()) == {
        "kind": "gls", "mu": -1, "digit_set": None, "element": [0, 0, 0, 0],
        "digits": [], "length": 0, "hamming_weight": 0}


def test_digit_word_text_and_csv_row():
    assert format_digit_word(le((1, -1), 0, 0, (-1, 2))) == "1-1t;0;0;-1+2t"
    assert format_digit_word(()) == ""
    assert expand.CSV_HEADER == "s,t,u,v,norm_sq,digits,length"
    assert expand_tnaf(ZTau(3, 0, 0, 0), 1, 1).csv_row() == "3,0,0,0,18,1-1t;0;0;-1+2t,4"
    assert expand_gls(ZERO, -1).csv_row() == "0,0,0,0,0,,0"


def test_check_expansion_rejects_corrupt_words():
    good = expand_tnaf(ZTau(3, 0, 0, 0), 1, 1)
    bad = Expansion(kind=TNAF, mu=1, digit_set_id=1,
                    digits=good.digits[:-1], source=good.source)
    with pytest.raises(AssertionError):
        check_expansion(bad)


@settings(max_examples=200)
@given(elements, mus)
def test_gls_round_trip(a, mu):
    e = expand_gls(a, mu)
    assert evaluate_expansion(e.digits, mu) == a
    assert is_gls_window_valid(e.digits)


@settings(max_examples=200)
@given(elements, mus, st.integers(1, 16))
def test_tnaf_round_trip(a, mu, j):
    e = expand_tnaf(a, mu, j)
    assert evaluate_expansion(e.digits, mu) == a
    assert is_naf(e.digits, build_tnaf_digit_set(j, mu))
