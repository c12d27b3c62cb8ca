"""The squared Euclidean norm on Z[tau] as an integer quadratic form,
and exact enumeration of all short elements.

Embedding an element by one root from each conjugate-pair of the
characteristic polynomial x^4 - mu*x^3 - 2*mu*x + 4 gives a Euclidean
norm on coefficient vectors whose square is the integer form

    Q(s,t,u,v) = 2s^2 + 4t^2 + 8u^2 + 16v^2
               + mu*st + su + 7mu*sv + 2mu*tu + 2tv + 4mu*uv.

The diagonal is 2^(j+1); the cross coefficient of c_j*c_k is 2^j times
the (k-j)-th power sum of the polynomial's roots (p1 = mu, p2 = 1,
p3 = 7mu by Newton's identities).  Enumeration below a bound runs on
integer tables from a fraction-free (Bareiss) LDL factorization of the
form's integer polar matrix, so the factorization and the enumeration loop
do integer arithmetic only.  Its levels run from s (outermost) down to v,
so every norm shell fills in increasing (s, t, u, v) order and no shell is
sorted.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from math import gcd, isqrt, prod

from .ring import ELEMENT_FORMAT, ZTau, check_mu

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
    """Integer polar matrix G of norm_sq, G[j][k] = Q(e_j + e_k) - Q(e_j) - Q(e_k),
    so x^T G x = 2 * norm_sq(x); its diagonal is 4, 8, 16, 32."""
    unit = [[int(i == j) for i in range(DIM)] for j in range(DIM)]
    q = [norm_sq(e, mu) for e in unit]
    return tuple(tuple(norm_sq([x + y for x, y in zip(unit[j], unit[k])], mu) - q[j] - q[k]
                       for k in range(DIM)) for j in range(DIM))


@functools.cache
def _ldl_factors(mu: int) -> tuple:
    """Integer tables (m, w, n) of the form, built once per mu, with
    m * norm_sq(x) = sum_i w[i] * y_i^2 and y_i = sum_{j<=i} n[i][j] * x_j.

    gram_matrix(mu) is factored with its coordinates reversed and the
    tables are reversed back, so n is lower triangular and the levels run
    from s (y_0 = n[0][0] * s) down to v; m is doubled because
    x^T G x = 2 * norm_sq(x).  Raises NotPositiveDefiniteError on first
    use if the form is not definite, and ArithmeticError if the tables miss
    m * norm_sq on one of the ten vectors e_j and e_j + e_k, which fix a
    quadratic form in four variables, so that a wrong table fails at once
    instead of steering the enumeration through a huge range.
    """
    m, w, n = ldl_decompose([row[::-1] for row in gram_matrix(mu)[::-1]])
    m, w, n = 2 * m, w[::-1], tuple(row[::-1] for row in n[::-1])
    for x in ([int(i in (j, k)) for i in range(DIM)] for j in range(DIM) for k in range(j, DIM)):
        y = [sum(a * b for a, b in zip(row, x)) for row in n]
        if sum(wi * yi * yi for wi, yi in zip(w, y)) != m * norm_sq(x, mu):
            raise ArithmeticError(f"LDL tables for mu={mu:+d} do not give the form at {x}")
    return m, w, n


def ldl_decompose(matrix) -> tuple:
    """Bareiss's fraction-free LDL factorization of a symmetric integer
    matrix G: integer (m, w, n) with m * x^T G x = sum_i w[i] * y_i^2 and
    y_i = sum_{j>=i} n[i][j] * x_j.  Row i of the elimination at step i
    gives the term (row . x)^2 / (D_i * D_(i+1)) of x^T G x, D_k being the
    k-th leading minor (D_0 = 1, D_(i+1) the pivot); each row of n, then
    (m, w), is divided by its gcd, so n[i][i] > 0.  Raises
    NotPositiveDefiniteError at the first pivot <= 0."""
    a = [list(row) for row in matrix]
    n, squares, minors = [], [], [1]
    for i, row in enumerate(a):
        pivot = row[i]
        if pivot <= 0:
            raise NotPositiveDefiniteError(f"pivot {i} is {pivot}")
        g = gcd(*row[i:])
        n.append((0,) * i + tuple(x // g for x in row[i:]))
        squares.append(g * g)
        for r in a[i + 1:]:  # exact: Bareiss divides by the previous pivot
            r[i + 1:] = [(pivot * x - r[i] * y) // minors[-1]
                         for x, y in zip(r[i + 1:], row[i + 1:])]
        minors.append(pivot)
    m = prod(minors)
    w = [g2 * m // (d0 * d1) for g2, d0, d1 in zip(squares, minors, minors[1:])]
    common = gcd(m, *w)
    return m // common, tuple(x // common for x in w), tuple(n)


def _quads(coords: tuple):
    """The (s, t, u, v) tuples of a flat coordinate tuple, in order."""
    it = iter(coords)
    return zip(it, it, it, it)


# Per output form: the head, each element's row around its ELEMENT_FORMAT
# and norm_sq, the separator between rows, and the tail, whose {} is the
# element count.
_FORMS = {
    "text": ("", "%s  norm_sq=%d\n", "", "total: {}\n"),
    "csv": ("s,t,u,v,norm_sq\n", "%s,%d\n", "", ""),
    "json": ("[", '{"element":[%s],"norm_sq":%d}', ",", "]\n"),
}


@dataclass(frozen=True)
class ShortVectorSet:
    """All elements with 0 < Q <= bound (0 included only on request),
    sorted by (norm_sq, s, t, u, v).

    Kept as norm shells: ``shells`` holds one (norm_sq, coords) pair per
    norm, in increasing order, where coords lists s, t, u, v of each
    element of the shell in turn, elements in increasing (s, t, u, v)
    order.  Both the enumerator and the oracle loop s outermost and v
    innermost, so each shell fills in that order and none is sorted.
    At bound 1000 that is about 44 bytes an element (four list slots, and
    an int object for each coordinate outside the interpreter's shared
    small ints) instead of about 160 for a ZTau with its (ZTau, norm_sq)
    pair; ``elements`` builds those pairs on every access.
    """

    mu: int
    bound: int
    shells: tuple  # of (norm_sq, flat coordinate tuple) pairs

    @property
    def elements(self) -> tuple:
        """The (ZTau, norm_sq) pairs in order."""
        return tuple((ZTau(*c), q) for q, coords in self.shells for c in _quads(coords))

    def __len__(self) -> int:
        return sum(len(coords) for _, coords in self.shells) // DIM

    def element_set(self) -> frozenset:
        return frozenset(ZTau(*c) for _, coords in self.shells for c in _quads(coords))

    def write(self, out, fmt: str) -> None:
        """Write the set to the text stream ``out`` as "text", "csv" or
        "json": a head, then each norm shell as soon as it is formatted,
        with one % format per shell, then a tail, so at most one shell's
        text is held at a time.  The JSON form is json.dumps of the
        {"element", "norm_sq"} list with separators (",", ":"), then a
        newline."""
        head, row, sep, tail = _FORMS[fmt]
        out.write(head)
        lead = ""
        for q, coords in self.shells:
            out.write((lead + sep.join([row % (ELEMENT_FORMAT, q)] * (len(coords) // DIM)))
                      % coords)
            lead = sep
        out.write(tail.format(len(self)))


def _level_xs(wk: int, lk: int, c: int, budget: int) -> range:
    """The integers x with wk * (lk * x + c)^2 <= budget (budget >= 0, lk > 0),
    that is, since lk * x + c is an integer, |lk * x + c| <= isqrt(budget // wk)."""
    y = isqrt(budget // wk)
    return range(-((y + c) // lk), (y - c) // lk + 1)


def enumerate_short_vectors(mu: int, bound: int, include_zero: bool = False) -> ShortVectorSet:
    """All elements with norm_sq <= bound, by exact integer enumeration
    (Fincke-Pohst).

    Levels run from the s coordinate (outermost) down to v.  Level k keeps
    the integer budget r = m * bound minus the w[i] * y_i^2 of the levels
    above it, and its range of x_k solves w[k] * y_k^2 <= r.  The
    coordinates are collected into one flat list of ints per norm, and the
    loop order fills each list in increasing (s, t, u, v) order, so only
    the norm keys are sorted; no per-element object outlives the loop.
    """
    check_mu(mu)
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    m, (w0, w1, w2, w3), n = _ldl_factors(mu)
    (n00, _, _, _), (n10, n11, _, _), (n20, n21, n22, _), (n30, n31, n32, n33) = n
    shells: defaultdict[int, list[int]] = defaultdict(list)
    # Plain nested loops, one per level from s down to v: a recursive inner
    # function would sit in a reference cycle with its closure and keep the
    # shells alive after the call until the garbage collector next runs.
    # At each level y = n_kk * x + c with c fixed by the levels above, and r
    # is the budget those levels leave.
    r0 = m * bound
    for s in _level_xs(w0, n00, 0, r0):
        r1 = r0 - w0 * (n00 * s) ** 2
        c1 = n10 * s
        for t in _level_xs(w1, n11, c1, r1):
            r2 = r1 - w1 * (n11 * t + c1) ** 2
            c2 = n20 * s + n21 * t
            for u in _level_xs(w2, n22, c2, r2):
                r3 = r2 - w2 * (n22 * u + c2) ** 2
                c3 = n30 * s + n31 * t + n32 * u
                for v in _level_xs(w3, n33, c3, r3):
                    y = n33 * v + c3
                    # the budget left is m * (bound - norm_sq), exactly
                    shells[bound - (r3 - w3 * y * y) // m].extend((s, t, u, v))
    if not include_zero:
        shells.pop(0, None)
    return ShortVectorSet(mu=mu, bound=bound,
                          shells=tuple((q, tuple(shells.pop(q))) for q in sorted(shells)))


def enumerate_bruteforce_oracle(mu: int, bound: int, box: int) -> ShortVectorSet:
    """Independent oracle: exhaustive scan of the coefficient box |c_j| <= box.

    Scans the (s, t, u) lines of the box.  On a line, norm_sq is the
    quadratic 16v^2 + b*v + c in v, so only the v of its real interval
    where that is <= bound, widened by one on each side, are tested, each
    by norm_sq itself.  Uses none of the enumerator's LDL tables.  The
    scan runs v innermost, so each shell fills in increasing (s, t, u, v)
    order, as the enumerator's do.  Raises BoxTooSmallError if any
    qualifying vector touches the box boundary, since the scan would then
    be incomplete.
    """
    check_mu(mu)
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    rng = range(-box, box + 1)
    shells: defaultdict[int, list[int]] = defaultdict(list)
    for s in rng:
        for t in rng:
            for u in rng:
                b = mu * (7 * s + 4 * u) + 2 * t
                disc = b * b - 64 * (norm_sq((s, t, u, 0), mu) - bound)
                if disc < 0:
                    continue
                r = isqrt(disc)
                for v in range(max(-box, (-b - r) // 32 - 1),
                               min(box, (-b + r) // 32 + 1) + 1):
                    n = norm_sq((s, t, u, v), mu)
                    if n <= bound:
                        if n == 0:
                            continue
                        if box in (abs(s), abs(t), abs(u), abs(v)):
                            raise BoxTooSmallError(
                                f"qualifying vector ({s},{t},{u},{v}) on the box edge")
                        shells[n].extend((s, t, u, v))
    return ShortVectorSet(mu=mu, bound=bound,
                          shells=tuple((q, tuple(shells.pop(q))) for q in sorted(shells)))
