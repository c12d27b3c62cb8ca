"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see the lines)."""

import time

from tauadic.digits import Digit, build_tnaf_digit_set
from tauadic.expand import (enumerate_naf_words, expand_gls, expand_tnaf,
                            is_gls_window_valid, min_hamming_weight,
                            strip_top_zeros)
from tauadic.normform import enumerate_short_vectors
from tauadic.ring import ZTau, evaluate_expansion
from tauadic import checks, tables

SEED = 20260808


def _finish(criterion: str, problems: list, started: float) -> None:
    verdict = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({time.perf_counter() - started:.2f}s)")
    assert not problems, problems


def test_criterion_1_short_vector_census():
    started = time.perf_counter()
    problems = []
    for mu in (1, -1):
        for bound, want in ((20, 94), (38, 300)):
            t0 = time.perf_counter()
            got = len(enumerate_short_vectors(mu, bound))
            elapsed = time.perf_counter() - t0
            if got != want:
                problems.append(f"mu={mu} bound={bound}: {got} elements, want {want}")
            if elapsed >= 1.0:
                problems.append(f"mu={mu} bound={bound}: {elapsed:.2f}s >= 1s")
    _finish("1 (short-vector census)", problems, started)


def test_criterion_2_golden_tables():
    started = time.perf_counter()
    problems = []
    # reference tables for digit set 1 are transcribed in full, and so are
    # the remaining 30 tables (far beyond the 5-spot-row minimum)
    for mu in (1, -1):
        for j in range(1, 17):
            result = tables.check_tnaf_existence_table(mu, j)
            if not result.passed:
                problems.append(result.describe())
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"table reproduction took {elapsed:.2f}s >= 10s")
    _finish("2 (golden tables)", problems, started)


def test_criterion_3_gls_counterexample_family():
    started = time.perf_counter()
    problems = []
    for mu in (1, -1):
        for b in range(-3, 4):
            target = ZTau(-1, 2 * mu, b, 0)
            short_word = tuple(Digit(c, 0) for c in (-1, 2 * mu, b, 0))
            long_word = tuple(Digit(c, 0) for c in (3, 0, b, -mu, 1))
            if evaluate_expansion(short_word, mu) != target:
                problems.append(f"mu={mu} b={b}: short word value mismatch")
            if evaluate_expansion(long_word, mu) != target:
                problems.append(f"mu={mu} b={b}: long word value mismatch")
            if not is_gls_window_valid(strip_top_zeros(short_word)):
                problems.append(f"mu={mu} b={b}: short word not window-valid")
            if not is_gls_window_valid(long_word):
                problems.append(f"mu={mu} b={b}: long word not window-valid")
            if expand_gls(target, mu).digits != long_word:
                problems.append(f"mu={mu} b={b}: recoder does not give the long word")
    _finish("3 (GLS counterexample family)", problems, started)


def test_criterion_4_nonuniqueness_census():
    started = time.perf_counter()
    problems = []
    for mu in (1, -1):
        witnesses = tables.gls_nonuniqueness_census(mu)
        if len(witnesses) != 252:
            problems.append(f"mu={mu}: {len(witnesses)} witnesses, want 252")
        # the word-set equality of the witnesses with the fixture's lines
        words = next(r for r in tables.check_census(mu, witnesses)
                     if r.name == f"census-words-mu={mu:+d}")
        if not words.passed:
            problems.append(words.detail)
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"census took {elapsed:.2f}s >= 5s")
    _finish("4 (non-uniqueness census)", problems, started)


def test_criterion_5_non_minimality():
    started = time.perf_counter()
    problems = []
    for mu in (1, -1):
        target = ZTau(2, 2 * mu, 0, 0)
        witness = (Digit(2, 0), Digit(2 * mu, 0))
        for j in range(1, 17):
            dset = build_tnaf_digit_set(j, mu)
            weight = expand_tnaf(target, mu, j).weight
            if weight not in (3, 4):
                problems.append(f"mu={mu} j={j}: recoded weight {weight}")
            if (weight == 3) != (Digit(2, mu) in dset.digits):
                problems.append(f"mu={mu} j={j}: weight-3 case disagrees "
                                f"with digit availability")
            if min_hamming_weight(target, mu, dset.sorted_digits(), 8) != 2:
                problems.append(f"mu={mu} j={j}: minimum weight is not 2")
            if evaluate_expansion(witness, mu) != target or any(
                    c not in dset.digits for c in witness):
                problems.append(f"mu={mu} j={j}: witness word invalid")
    _finish("5 (non-minimality)", problems, started)


def test_criterion_6_property_suites():
    started = time.perf_counter()
    results = checks.run_suite("all", seed=SEED, scale="full")
    problems = [r.describe() for r in results if not r.passed]
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"property suites took {elapsed:.2f}s >= 60s")
    _finish("6 (randomized property suites)", problems, started)


def test_criterion_7_uniqueness_at_desk_scale():
    started = time.perf_counter()
    problems = []
    for mu in (1, -1):
        short = enumerate_short_vectors(mu, 20)
        for j in (1, 7, 16):
            dset = build_tnaf_digit_set(j, mu)
            for element, _ in short.elements:
                words = enumerate_naf_words(element, dset, 10)
                expected = expand_tnaf(element, mu, j).digits
                if words != [expected]:
                    problems.append(
                        f"mu={mu} j={j} {element}: {len(words)} words")
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        problems.append(f"uniqueness search took {elapsed:.2f}s >= 5min")
    _finish("7 (uniqueness, exhaustive word search)", problems, started)
