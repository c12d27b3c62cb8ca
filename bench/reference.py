"""The benchmark's own arithmetic, written independently of ``tauadic``.

Output checks use only this module, so that a defect in the program's ring,
digit or norm code cannot also hide in the check:

* Horner evaluation with the tau-shift map
  ``tau*(s,t,u,v) = (-4v, s+2*mu*v, t, u+mu*v)``, which follows from
  ``tau^4 = mu*tau^3 + 2*mu*tau - 4``;
* the sixteen tau-NAF digit sets, built from their description in the paper;
* the NAF and GLS window rules;
* the squared norm and a lattice-point count that solves each line of the
  ellipsoid for its last coordinate instead of using the LDL enumerator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt


def horner(digits, mu: int) -> tuple:
    """Value of little-endian ``(a, b)`` digits, each meaning a + b*tau:
    acc <- tau*acc + digit, from the top digit down."""
    s = t = u = v = 0
    for a, b in reversed(digits):
        s, t, u, v = -4 * v + a, s + 2 * mu * v + b, t, u + mu * v
    return (s, t, u, v)


_BASE_DIGITS = frozenset([(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0),
                          (1, 1), (1, -1), (-1, 1), (-1, -1)])


def tnaf_digit_set(j: int, mu: int) -> frozenset:
    """Digit set j: the nine shared digits plus one of +-(2+tau), one of
    +-(2-tau), one of 1+-2*mu*tau and one of -1+-2*mu*tau, picked by the
    bits of j-1 from the high end."""
    bits = j - 1
    p = [-1 if bits >> k & 1 else 1 for k in (3, 2, 1, 0)]
    return _BASE_DIGITS | {(2 * p[0], p[0]), (2 * p[1], -p[1]),
                           (1, 2 * mu * p[2]), (-1, 2 * mu * p[3])}


def is_naf_word(digits, dset: frozenset) -> bool:
    """Digits in the set, no two adjacent nonzero, top digit nonzero."""
    if any(d not in dset for d in digits):
        return False
    if digits and digits[-1] == (0, 0):
        return False
    return all(x == (0, 0) or y == (0, 0) for x, y in zip(digits, digits[1:]))


def is_gls_word(digits) -> bool:
    """Integer digits in -3..3, a zero in every four in a row, top nonzero."""
    if any(b != 0 or not -3 <= a <= 3 for a, b in digits):
        return False
    if digits and digits[-1] == (0, 0):
        return False
    return all((0, 0) in digits[i:i + 4] for i in range(len(digits) - 3))


def norm_sq(x: tuple, mu: int) -> int:
    s, t, u, v = x
    return (2 * s * s + 4 * t * t + 8 * u * u + 16 * v * v + mu * s * t + s * u
            + 7 * mu * s * v + 2 * mu * t * u + 2 * t * v + 4 * mu * u * v)


# Diagonal of the inverse Gram matrix, the same for both signs of mu:
# |x_i| <= sqrt(bound * INV_DIAG[i]) on the ellipsoid norm_sq <= bound.
_INV_DIAG = ((14, 17), (9, 34), (9, 68), (7, 68))


def short_elements(mu: int, bound: int):
    """Every nonzero element with norm_sq <= bound, as (norm_sq, element).

    Scans the box of (s, t, u) given by the inverse Gram diagonal and solves
    16 v^2 + b v + c <= bound exactly for the range of v on each line.
    """
    box = [isqrt(bound * n // d) + 1 for n, d in _INV_DIAG[:3]]
    for s in range(-box[0], box[0] + 1):
        for t in range(-box[1], box[1] + 1):
            for u in range(-box[2], box[2] + 1):
                b = 7 * mu * s + 2 * t + 4 * mu * u
                c = norm_sq((s, t, u, 0), mu) - bound
                disc = b * b - 64 * c
                if disc < 0:
                    continue
                r = isqrt(disc)
                lo, hi = (-b - r) // 32 - 1, (-b + r) // 32 + 1
                for v in range(lo, hi + 1):
                    n = norm_sq((s, t, u, v), mu)
                    if 0 < n <= bound:
                        yield n, (s, t, u, v)


def norm_counts(mu: int, bound: int) -> list:
    """counts[b] = number of nonzero elements with norm_sq <= b, b <= bound."""
    hist = [0] * (bound + 1)
    for n, _ in short_elements(mu, bound):
        hist[n] += 1
    total = 0
    for b, k in enumerate(hist):
        total += k
        hist[b] = total
    return hist


_rng = random.Random(0)
_KERNEL_WORD = tuple(_rng.choice(sorted(_BASE_DIGITS)) for _ in range(600))
_KERNEL_FRACTIONS = [Fraction(_rng.randint(1, 99), _rng.randint(1, 99)) for _ in range(40)]


def calibration_kernel() -> None:
    """Fixed pure-Python work, about 0.75 ms on an uncontended core.

    The benchmark times it next to every op to follow the machine's speed,
    which on a shared host drifts by tens of percent over seconds to
    minutes.  It mixes a big-integer Horner evaluation with a sum of small
    rational products (gcds and allocation): together they tracked the
    speed of all three workloads' ops more closely than either alone.
    """
    for mu in (1, -1):
        norm_sq(horner(_KERNEL_WORD, mu), mu)
    acc = Fraction(0)
    for x in _KERNEL_FRACTIONS:
        for y in _KERNEL_FRACTIONS[:3]:
            acc += x * y
