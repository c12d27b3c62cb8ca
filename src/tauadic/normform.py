"""The squared Euclidean norm on Z[tau] as an integer quadratic form,
and exact enumeration of all short elements.

Embedding an element by one root from each conjugate-pair of the
characteristic polynomial x^4 - mu*x^3 - 2*mu*x + 4 gives a Euclidean
norm on coefficient vectors whose square is the integer form

    Q(s,t,u,v) = 2s^2 + 4t^2 + 8u^2 + 16v^2
               + mu*st + su + 7mu*sv + 2mu*tu + 2tv + 4mu*uv.

The diagonal is 2^(j+1); the cross coefficient of c_j*c_k is 2^j times
the (k-j)-th power sum of the polynomial's roots (p1 = mu, p2 = 1,
p3 = 7mu by Newton's identities).  Enumeration below a bound uses the
exact rational LDL factorization of the form; floating point never
enters.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .ring import ZTau, check_mu

DIM = 4


class NotPositiveDefiniteError(ArithmeticError):
    """A quadratic form handed to the LDL factorizer has a pivot <= 0."""


class BoxTooSmallError(ValueError):
    """Brute-force scan box clipped a qualifying vector."""


def norm_sq(a: ZTau, mu: int) -> int:
    """Squared norm of a ring element; 0 exactly for the zero element."""
    check_mu(mu)
    s, t, u, v = a
    return (2 * s * s + 4 * t * t + 8 * u * u + 16 * v * v
            + mu * (s * t + 7 * s * v + 2 * t * u + 4 * u * v)
            + s * u + 2 * t * v)


@functools.cache
def gram_matrix(mu: int) -> tuple:
    """Symmetric Fraction matrix A with norm_sq(x) = x^T A x, derived from
    norm_sq by polarization (the off-diagonal entries are halves)."""
    unit = [[int(i == j) for i in range(DIM)] for j in range(DIM)]
    q = [norm_sq(e, mu) for e in unit]
    # (Q(e_j + e_k) - Q(e_j) - Q(e_k)) / 2, which is Q(e_j) when j == k
    return tuple(tuple(Fraction(norm_sq([x + y for x, y in zip(unit[j], unit[k])], mu)
                                - q[j] - q[k], 2)
                       for k in range(DIM)) for j in range(DIM))


@functools.cache
def _ldl_factors(mu: int) -> tuple:
    """(l, d) of gram_matrix(mu) as tuples, factored once per mu; raises
    NotPositiveDefiniteError on first use if the form is not definite."""
    l, d = ldl_decompose(gram_matrix(mu))
    return tuple(map(tuple, l)), tuple(d)


def ldl_decompose(matrix) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact factorization x^T A x = sum_i d_i (x_i + sum_{j>i} l[i][j] x_j)^2
    of a symmetric rational matrix A.

    Returns (l, d) with l unit upper-triangular row coefficients and d the
    positive pivots, all Fractions.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    l = [[Fraction(0)] * DIM for _ in range(DIM)]
    d = [Fraction(0)] * DIM
    for i in range(DIM):
        pivot = a[i][i]
        if pivot <= 0:
            raise NotPositiveDefiniteError(f"pivot {i} is {pivot}")
        d[i] = pivot
        l[i][i] = Fraction(1)
        for j in range(i + 1, DIM):
            l[i][j] = a[i][j] / pivot
        for j in range(i + 1, DIM):
            for k in range(j, DIM):
                a[j][k] -= a[i][j] * a[i][k] / pivot
                a[k][j] = a[j][k]
    return l, d


def _quadratic_int_range(qa: int, qb: int, qc: int) -> tuple[int, int]:
    """Integer solutions of qa*x^2 + qb*x + qc <= 0 (qa > 0) as [lo, hi].

    Returns an empty range (lo > hi) when there are none.  Exact: isqrt
    underestimates the root by less than one, so at most one endpoint
    adjustment is ever needed.
    """
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return 1, 0
    r = isqrt(disc)

    def le_upper(x: int) -> bool:
        m = 2 * qa * x + qb
        return m <= 0 or m * m <= disc

    def ge_lower(x: int) -> bool:
        m = 2 * qa * x + qb
        return m >= 0 or m * m <= disc

    hi = (r - qb) // (2 * qa)
    while le_upper(hi + 1):
        hi += 1
    lo = -((r + qb) // (2 * qa))
    while not ge_lower(lo):
        lo += 1
    return lo, hi


def _level_range(budget: Fraction, pivot: Fraction, center: Fraction) -> tuple[int, int]:
    # pivot * (x + center)^2 <= budget, as an integer quadratic inequality.
    cn, cd = center.numerator, center.denominator
    bn, bd = (budget / pivot).numerator, (budget / pivot).denominator
    # (x*cd + cn)^2 * bd <= bn * cd^2
    qa = bd * cd * cd
    qb = 2 * bd * cd * cn
    qc = bd * cn * cn - bn * cd * cd
    return _quadratic_int_range(qa, qb, qc)


@dataclass(frozen=True)
class ShortVectorSet:
    """All elements with 0 < Q <= bound (0 included only on request),
    sorted by (norm_sq, s, t, u, v)."""

    mu: int
    bound: int
    elements: tuple  # of (ZTau, norm_sq) pairs

    def __len__(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset:
        return frozenset(e for e, _ in self.elements)

    def to_csv(self) -> str:
        lines = ["s,t,u,v,norm_sq"]
        lines += [f"{e.s},{e.t},{e.u},{e.v},{n}" for e, n in self.elements]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = [{"element": list(e), "norm_sq": n} for e, n in self.elements]
        return json.dumps(obj, separators=(",", ":"))


def _sorted_set(mu: int, bound: int, pairs) -> ShortVectorSet:
    ordered = sorted(pairs, key=lambda p: (p[1], p[0]))
    return ShortVectorSet(mu=mu, bound=bound, elements=tuple(ordered))


def enumerate_short_vectors(mu: int, bound: int, include_zero: bool = False) -> ShortVectorSet:
    """All elements with norm_sq <= bound, by exact recursive enumeration.

    Levels run from the v coordinate down to s; at each level the integer
    range follows from the LDL pivots and the budget left over from the
    levels above.
    """
    check_mu(mu)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    l, d = _ldl_factors(mu)
    found: list[tuple[ZTau, int]] = []
    coords = [0] * DIM

    def descend(level: int, budget: Fraction) -> None:
        if level < 0:
            e = ZTau(*coords)
            n = norm_sq(e, mu)
            if n or include_zero:
                found.append((e, n))
            return
        center = sum((l[level][j] * coords[j] for j in range(level + 1, DIM)),
                     start=Fraction(0))
        lo, hi = _level_range(budget, d[level], center)
        for x in range(lo, hi + 1):
            coords[level] = x
            used = d[level] * (x + center) ** 2
            descend(level - 1, budget - used)
        coords[level] = 0

    descend(DIM - 1, Fraction(bound))
    return _sorted_set(mu, bound, found)


def enumerate_bruteforce_oracle(mu: int, bound: int, box: int) -> ShortVectorSet:
    """Independent oracle: exhaustive scan of the coefficient box |c_j| <= box.

    Raises BoxTooSmallError if any qualifying vector touches the box
    boundary, since the scan would then be incomplete.
    """
    check_mu(mu)
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    rng = range(-box, box + 1)
    found = []
    for s in rng:
        for t in rng:
            for u in rng:
                for v in rng:
                    n = norm_sq((s, t, u, v), mu)
                    if n <= bound:
                        if n == 0:
                            continue
                        if box in (abs(s), abs(t), abs(u), abs(v)):
                            raise BoxTooSmallError(
                                f"qualifying vector ({s},{t},{u},{v}) on the box edge")
                        found.append((ZTau(s, t, u, v), n))
    return _sorted_set(mu, bound, found)
