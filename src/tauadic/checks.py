"""Seeded randomized property suites.

Each suite returns CheckResult records; identical (seed, scale) inputs give
identical output.  ``full`` scale runs the sample counts used by the
acceptance suite; ``quick`` divides the bulk counts by 50 for interactive
use.  Floating point appears only in the root-evaluation oracle.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .digits import (GLS_DIGITS, _residue_cells, all_tnaf_digit_sets,
                     build_tnaf_digit_set, digit_element, gls_digit,
                     tnaf_candidates, tnaf_digit, validate_digit_set)
from .expand import (GLS, TNAF, expand_gls, expand_tnaf, is_gls_window_valid,
                     is_naf, norm_trace)
from .normform import (_ldl_factors, enumerate_bruteforce_oracle,
                       enumerate_short_vectors, norm_sq)
from .ring import (TAU, ZERO, ZTau, evaluate_expansion, multiply,
                   quotient_by_tau, tau_divides, tau_sq_divides)

SUITES = ("ring", "norm", "digits", "expansion")

ORACLE_BOUNDS = (2, 10, 20, 38, 50)
ORACLE_BOX = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}" + (
            f" -- {self.detail}" if self.detail and not self.passed else "")


def _scaled(n: int, scale: str) -> int:
    if scale == "full":
        return n
    if scale == "quick":
        return max(20, n // 50)
    raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")


def _random_element(rng: random.Random, span: int) -> ZTau:
    """Four coefficients uniform in -span..span: each is drawn as k random
    bits, 2^k > 2*span, and drawn again while it is 2*span + 1 or more."""
    n = 2 * span + 1
    k = n.bit_length()
    coords = []
    while len(coords) < 4:
        x = rng.getrandbits(k)
        if x < n:
            coords.append(x - span)
    return ZTau(*coords)


def _counted(name: str, cases: Iterable, predicate: Callable) -> CheckResult:
    failures = 0
    total = 0
    first = ""
    for case in cases:
        total += 1
        if not predicate(case):
            failures += 1
            if not first:
                first = repr(case)
    return CheckResult(name, failures == 0,
                       f"{failures}/{total} failures" + (f", first: {first}" if first else ""))


def characteristic_roots(mu: int) -> list[complex]:
    """The four roots of x^4 - mu*x^3 - 2*mu*x + 4, via the factorization
    into two real quadratics x^2 + a*x + 2 with a*a + mu*a - 4 = 0."""
    roots = []
    for a in ((-mu + math.sqrt(17)) / 2, (-mu - math.sqrt(17)) / 2):
        disc = cmath.sqrt(complex(a * a - 8))
        roots.extend([(-a + disc) / 2, (-a - disc) / 2])
    return roots


def _eval_at_root(e: ZTau, w: complex) -> complex:
    return e.s + e.t * w + e.u * w * w + e.v * w * w * w


def ring_suite(seed: int, scale: str = "full") -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    n_axiom = _scaled(10_000, scale)
    triples = [(mu, _random_element(rng, 10 ** 6), _random_element(rng, 10 ** 6),
                _random_element(rng, 10 ** 6))
               for mu in (1, -1) for _ in range(n_axiom // 2)]
    results.append(_counted(
        "ring-axioms", triples,
        lambda c: (c[1] + c[2] == c[2] + c[1]
                   and (c[1] + c[2]) + c[3] == c[1] + (c[2] + c[3])
                   and multiply(c[1], c[2], c[0]) == multiply(c[2], c[1], c[0])
                   and multiply(multiply(c[1], c[2], c[0]), c[3], c[0])
                   == multiply(c[1], multiply(c[2], c[3], c[0]), c[0])
                   and multiply(c[1], c[2] + c[3], c[0])
                   == multiply(c[1], c[2], c[0]) + multiply(c[1], c[3], c[0]))))

    n_root = _scaled(2_000, scale)
    def root_agrees(case) -> bool:
        mu, a, b = case
        prod = multiply(a, b, mu)
        for w in characteristic_roots(mu):
            want = _eval_at_root(a, w) * _eval_at_root(b, w)
            got = _eval_at_root(prod, w)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                return False
        return True
    results.append(_counted(
        "multiply-matches-root-evaluation",
        [(mu, _random_element(rng, 100), _random_element(rng, 100))
         for mu in (1, -1) for _ in range(n_root // 2)],
        root_agrees))

    n_div = _scaled(100_000, scale)
    def quotient_props(case) -> bool:
        mu, a = case
        ta = multiply(TAU, a, mu)
        if not tau_divides(ta) or quotient_by_tau(ta, mu) != a:
            return False
        b = _random_element(rng, 10 ** 6)
        both = tau_divides(b) and tau_divides(quotient_by_tau(b, mu)) if tau_divides(b) else False
        return tau_sq_divides(b, mu) == both
    results.append(_counted(
        "quotient-inverts-tau-multiplication",
        [(mu, _random_element(rng, 50)) for mu in (1, -1)
         for _ in range(n_div // 2)],
        quotient_props))

    return results


def norm_suite(seed: int, scale: str = "full") -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    # the integer tables (m, w, n) that enumerate_short_vectors runs on,
    # read in its level order: y_i = sum_{j<=i} n[i][j] * x_j, s first
    factors = {}
    for mu in (1, -1):
        try:
            factors[mu] = _ldl_factors(mu)
            ok = all(p > 0 for p in factors[mu][1])
        except ArithmeticError:  # not definite, or tables that miss the form
            ok = False
        results.append(CheckResult(f"ldl-pivots-positive-mu={mu:+d}", ok))

    n_ldl = _scaled(1_000, scale)
    def ldl_reconstructs(case) -> bool:
        mu, x = case
        if mu not in factors:  # the factorization failed
            return False
        m, w, n = factors[mu]
        total = sum(w[i] * sum(n[i][j] * x[j] for j in range(i + 1)) ** 2
                    for i in range(4))
        return total == m * norm_sq(x, mu)
    results.append(_counted(
        "ldl-reconstructs-form",
        [(mu, _random_element(rng, 100)) for mu in (1, -1)
         for _ in range(n_ldl // 2)],
        ldl_reconstructs))

    n_inv = _scaled(100_000, scale)
    def norm_invariants(case) -> bool:
        mu, a = case
        n = norm_sq(a, mu)
        if n < 0 or (n == 0) != (a == ZERO):
            return False
        return (norm_sq(-a, mu) == n
                and norm_sq(multiply(TAU, a, mu), mu) == 2 * n)
    results.append(_counted(
        "norm-negation-and-tau-scaling",
        [(mu, _random_element(rng, 10 ** 6)) for mu in (1, -1)
         for _ in range(n_inv // 2)],
        norm_invariants))

    n_tri = _scaled(10_000, scale)
    def triangle(case) -> bool:
        mu, a, b = case
        qa, qb, qs = norm_sq(a, mu), norm_sq(b, mu), norm_sq(a + b, mu)
        if qs <= qa + qb:
            return True
        return (qs - qa - qb) ** 2 <= 4 * qa * qb
    results.append(_counted(
        "triangle-inequality",
        [(mu, _random_element(rng, 10 ** 6), _random_element(rng, 10 ** 6))
         for mu in (1, -1) for _ in range(n_tri // 2)],
        triangle))

    for mu in (1, -1):
        detail = []
        if mu not in factors:
            detail.append("no LDL factors to enumerate with")
        else:
            oracle = enumerate_bruteforce_oracle(mu, max(ORACLE_BOUNDS), ORACLE_BOX)
            for bound in ORACLE_BOUNDS:
                fast = enumerate_short_vectors(mu, bound).element_set()
                slow = {e for e, n in oracle.elements if n <= bound}
                if fast != slow:
                    detail.append(f"B={bound}: {len(fast)} vs {len(slow)}")
        results.append(CheckResult(
            f"enumeration-matches-bruteforce-mu={mu:+d}", not detail, "; ".join(detail)))

    for mu in (1, -1):
        gls_max = max(norm_sq(ZTau(c, 0, 0, 0), mu) for c in GLS_DIGITS)
        tnaf_max = max(max(norm_sq(digit_element(c), mu) for c in ds.digits)
                       for ds in all_tnaf_digit_sets(mu))
        results.append(CheckResult(
            f"digit-norm-maxima-mu={mu:+d}", gls_max == 18 and tnaf_max == 20,
            f"gls {gls_max} (want 18), tnaf {tnaf_max} (want 20)"))

    return results


def digits_suite(seed: int, scale: str = "full") -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    for mu in (1, -1):
        singles = doubles = 0
        conditions_ok = True
        for r_s, r_t in _residue_cells():
            cands = tnaf_candidates(r_s, r_t, mu)
            if len(cands) == 1:
                singles += 1
            elif len(cands) == 2:
                doubles += 1
            for c in cands:
                ctilde = (r_s - c.a) // 4
                if (r_s - c.a) % 4 or (r_t - c.b + 2 * mu * ctilde) % 4:
                    conditions_ok = False
        # the printed selection table has 8 "or" cells and 16 forced ones
        results.append(CheckResult(
            f"candidate-cells-mu={mu:+d}",
            singles == 16 and doubles == 8 and conditions_ok,
            f"{singles} single, {doubles} double cells"))

    for mu in (1, -1):
        sets = all_tnaf_digit_sets(mu)
        results.append(CheckResult(
            f"digit-sets-valid-mu={mu:+d}",
            all(validate_digit_set(ds) for ds in sets)))
        results.append(CheckResult(
            f"digit-sets-distinct-mu={mu:+d}",
            len({ds.digits for ds in sets}) == 16))

    n_sel = _scaled(100_000, scale)
    def selection_reduces(case) -> bool:
        mu, j, a = case
        c = tnaf_digit(a, build_tnaf_digit_set(j, mu))
        return tau_sq_divides(a - digit_element(c), mu)
    cases = []
    for _ in range(n_sel):
        mu = rng.choice((1, -1))
        a = _random_element(rng, 10 ** 6)
        if tau_divides(a):
            a = ZTau(a.s + 1, a.t, a.u, a.v)
        cases.append((mu, rng.randint(1, 16), a))
    results.append(_counted("tnaf-digit-reduces-by-tau-squared", cases,
                            selection_reduces))

    n_gls = _scaled(100_000, scale)
    def gls_digit_props(case) -> bool:
        mu, a = case
        c = gls_digit(a.s % 8, a.t % 4, a.v % 2)
        if not (-3 <= c <= 3) or (a.s - c) % 4:
            return False
        if a.t % 2 == 0 and a.s % 4 != 0:
            # a nonzero GLS digit at even t reduces by tau^2 (the next
            # digit is forced to 0); at 4 | s only tau divides a - 0
            return tau_sq_divides(a - ZTau(c, 0, 0, 0), mu)
        return True
    cases = []
    for _ in range(n_gls):
        mu = rng.choice((1, -1))
        a = _random_element(rng, 10 ** 6)
        a = ZTau(a.s, 2 * (a.t // 2), a.u, a.v)  # restrict to even t
        cases.append((mu, a))
    results.append(_counted("gls-digit-congruence-and-reduction", cases,
                            gls_digit_props))

    return results


def expansion_suite(seed: int, scale: str = "full") -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    n_gls = _scaled(10_000, scale)
    def gls_round_trip(case) -> bool:
        mu, a = case
        e = expand_gls(a, mu)
        return (evaluate_expansion(e.digits, mu) == a
                and is_gls_window_valid(e.digits))
    results.append(_counted(
        "gls-round-trip-and-window-rule",
        [(mu, _random_element(rng, 10 ** 6)) for mu in (1, -1)
         for _ in range(n_gls // 2)],
        gls_round_trip))

    n_tnaf = _scaled(10_000, scale)
    per_combo = max(1, n_tnaf // 32)
    def tnaf_round_trip(case) -> bool:
        mu, j, a = case
        e = expand_tnaf(a, mu, j)
        return (evaluate_expansion(e.digits, mu) == a
                and is_naf(e.digits, build_tnaf_digit_set(j, mu)))
    results.append(_counted(
        "tnaf-round-trip-and-adjacency",
        [(mu, j, _random_element(rng, 10 ** 6))
         for mu in (1, -1) for j in range(1, 17) for _ in range(per_combo)],
        tnaf_round_trip))

    n_desc = _scaled(2_000, scale)
    def gls_descends(case) -> bool:
        mu, a = case
        trace = norm_trace(a, mu, GLS)
        return all(any(i + k < len(trace) and trace[i + k] < trace[i]
                       for k in (1, 2, 3, 4))
                   for i in range(len(trace)) if trace[i] > 38)
    results.append(_counted(
        "gls-norm-descends-within-4-steps",
        [(mu, _random_element(rng, 10 ** 6)) for mu in (1, -1)
         for _ in range(n_desc // 2)],
        gls_descends))

    def tnaf_descends(case) -> bool:
        mu, j, a = case
        trace = norm_trace(a, mu, TNAF, j)
        return all(min(trace[i + 1:i + 3]) < trace[i]
                   for i in range(len(trace)) if trace[i] > 20)
    results.append(_counted(
        "tnaf-norm-descends-within-2-steps",
        [(mu, rng.randint(1, 16), _random_element(rng, 10 ** 6))
         for mu in (1, -1) for _ in range(n_desc // 2)],
        tnaf_descends))

    return results


_SUITE_FUNCS = {
    "ring": ring_suite,
    "norm": norm_suite,
    "digits": digits_suite,
    "expansion": expansion_suite,
}


def run_suite(name: str, seed: int, scale: str = "full") -> list[CheckResult]:
    if name == "all":
        out = []
        for s in SUITES:
            out.extend(_SUITE_FUNCS[s](seed, scale))
        return out
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FUNCS[name](seed, scale)
