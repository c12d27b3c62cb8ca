import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauadic.digits import (Digit, GLS_DIGITS, TnafDigitSet, ZERO_DIGIT,
                            build_tnaf_digit_set)
from tauadic.expand import (Expansion, GLS, TNAF, check_expansion,
                            enumerate_naf_words, expand_gls, expand_tnaf,
                            expansion_from_json, format_digit_word,
                            is_gls_window_valid, is_naf,
                            min_hamming_weight, norm_trace, parse_digit_word,
                            strip_top_zeros)
from tauadic.ring import ZERO, ZTau, evaluate_expansion

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


def test_expansion_json_round_trip():
    e = expand_tnaf(ZTau(3, 0, 0, 0), 1, 1)
    text = e.to_json()
    assert expansion_from_json(text) == e
    assert expansion_from_json(text).to_json() == text
    obj_keys = list(json.loads(text))
    assert obj_keys == ["kind", "mu", "digit_set", "element",
                        "digits", "length", "hamming_weight"]


@pytest.mark.parametrize("field,bad", [
    ("element", [3, 0.0, 0, 0]),
    ("element", [3, 0, False, 0]),
    ("element", [3, 0, 0]),
    ("element", "3,0,0,0"),
    ("digits[0]", [1.0, 2]),
    ("digits[3]", [1, True]),
    ("digits[3]", [1, 2, 0]),
])
def test_expansion_from_json_rejects_non_integer_coefficients(field, bad):
    obj = json.loads(expand_tnaf(ZTau(3, 0, 0, 0), 1, 1).to_json())
    if field == "element":
        obj["element"] = bad
    else:
        obj["digits"][int(field[7])] = bad
    with pytest.raises(ValueError, match=re.escape(field)):
        expansion_from_json(json.dumps(obj))


_GOOD_GLS = {"kind": "gls", "mu": 1, "digit_set": None, "element": [1, 0, 0, 0],
             "digits": [[1, 0]]}


@pytest.mark.parametrize("doc,field", [
    ('[1, 2]', "object"),
    ('"gls"', "object"),
    (dict(_GOOD_GLS, kind="zzz"), "kind"),
    (dict(_GOOD_GLS, kind=None), "kind"),
    (dict(_GOOD_GLS, mu=7), "mu"),
    (dict(_GOOD_GLS, mu=True), "mu"),
    (dict(_GOOD_GLS, mu=1.0), "mu"),
    (dict(_GOOD_GLS, digit_set=3), "digit_set"),
    (dict(_GOOD_GLS, kind="tnaf", digit_set=99), "digit_set"),
    (dict(_GOOD_GLS, kind="tnaf", digit_set=0), "digit_set"),
    (dict(_GOOD_GLS, kind="tnaf", digit_set=None), "digit_set"),
    (dict(_GOOD_GLS, kind="tnaf", digit_set=True), "digit_set"),
    (dict(_GOOD_GLS, digits=5), "digits"),
] + [({k: v for k, v in _GOOD_GLS.items() if k != key}, key) for key in _GOOD_GLS])
def test_expansion_from_json_rejects_bad_documents(doc, field):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        expansion_from_json(text)
    # the document each case spoils is itself valid
    assert check_expansion(expansion_from_json(json.dumps(_GOOD_GLS))) is None


def test_digit_word_text_round_trip():
    word = le((1, -1), 0, 0, (-1, 2))
    text = format_digit_word(word)
    assert text == "1-1t;0;0;-1+2t"
    assert parse_digit_word(text) == word
    assert parse_digit_word("") == ()


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
