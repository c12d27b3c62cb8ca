"""Exact integer arithmetic in the quartic ring Z[tau].

tau is an algebraic integer satisfying

    tau^4 = mu*tau^3 + 2*mu*tau - 4,    mu in {+1, -1},

and elements are written s + t*tau + u*tau^2 + v*tau^3 with arbitrary
precision integer coefficients.  mu is derived from the curve coefficient
a in {0, 1} via mu = (-1)**(1 - a).

All residues below are least nonnegative (Python's ``%`` convention), so
``s % 8 > 4`` means s mod 8 in {5, 6, 7}.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class NotDivisibleError(ArithmeticError):
    """Quotient by tau requested for an element tau does not divide."""


def check_mu(mu: int) -> int:
    if mu not in (1, -1):
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")
    return mu


def mu_from_curve_coeff(a: int) -> int:
    """Sign parameter of the characteristic equation for curve coefficient a."""
    if a not in (0, 1):
        raise ValueError(f"curve coefficient must be 0 or 1, got {a!r}")
    return 1 if a == 1 else -1


class ZTau(NamedTuple):
    """Ring element s + t*tau + u*tau^2 + v*tau^3 with exact int coefficients."""

    s: int
    t: int
    u: int
    v: int

    # Not tuple concatenation and repetition: + and - take two elements,
    # and products need mu (``multiply``).
    def __add__(self, other: "ZTau") -> "ZTau":  # type: ignore[override]
        if not isinstance(other, ZTau):
            return NotImplemented
        return ZTau(self.s + other.s, self.t + other.t,
                    self.u + other.u, self.v + other.v)

    def __sub__(self, other: "ZTau") -> "ZTau":
        if not isinstance(other, ZTau):
            return NotImplemented
        return ZTau(self.s - other.s, self.t - other.t,
                    self.u - other.u, self.v - other.v)

    def __neg__(self) -> "ZTau":
        return ZTau(-self.s, -self.t, -self.u, -self.v)

    def __mul__(self, other):  # type: ignore[override]
        raise TypeError("ZTau has no '*'; use multiply(a, b, mu)")

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)


ZERO = ZTau(0, 0, 0, 0)
ONE = ZTau(1, 0, 0, 0)
TAU = ZTau(0, 1, 0, 0)


def multiply(a: ZTau, b: ZTau, mu: int) -> ZTau:
    """Ring product by Horner's rule over the coefficients of b, with the
    tau-shift of ``evaluate_expansion``."""
    check_mu(mu)
    a0, a1, a2, a3 = a
    s = t = u = v = 0
    for k in reversed(b):
        m = mu * v
        s, t, u, v = k * a0 - 4 * v, k * a1 + s + 2 * m, k * a2 + t, k * a3 + u + m
    return ZTau(s, t, u, v)


def tau_divides(a: ZTau) -> bool:
    """tau | a holds exactly when 4 | s."""
    return a.s % 4 == 0


def quotient_by_tau(a: ZTau, mu: int) -> ZTau:
    """The unique b with tau*b = a.  Requires tau | a."""
    check_mu(mu)
    if a.s % 4 != 0:
        raise NotDivisibleError(f"tau does not divide {a} (s = {a.s} not 0 mod 4)")
    sp = a.s // 4
    return ZTau(2 * mu * sp + a.t, a.u, mu * sp + a.v, -sp)


def tau_sq_divides(a: ZTau, mu: int) -> bool:
    """tau^2 | a, tested via the congruences 4 | s and 4 | (mu*s/2 + t)."""
    check_mu(mu)
    if a.s % 4 != 0:
        return False
    return (mu * (a.s // 2) + a.t) % 4 == 0


def evaluate_expansion(digits: Iterable[tuple[int, int]], mu: int) -> ZTau:
    """Value of a little-endian digit sequence: sum of digits[i] * tau^i.

    A digit is a (c', c'') pair, c' + c''*tau.  Horner's rule with the
    tau-shift tau*(s,t,u,v) = (-4v, s + 2*mu*v, t, u + mu*v), which is
    multiplication by tau reduced by tau^4 = mu*tau^3 + 2*mu*tau - 4.  The
    empty sequence evaluates to 0.
    """
    check_mu(mu)
    s = t = u = v = 0
    for a, b in reversed(list(digits)):
        m = mu * v
        s, t, u, v = a - 4 * v, b + s + 2 * m, t, u + m
    return ZTau(s, t, u, v)


ELEMENT_FORMAT = "%d,%d,%d,%d"  # s,t,u,v: the canonical text form


def format_element(a: ZTau) -> str:
    """Canonical text form: four signed decimal integers, comma separated."""
    return ELEMENT_FORMAT % a


def parse_element(text: str) -> ZTau:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"element must be 's,t,u,v', got {text!r}")
    try:
        return ZTau(*(int(p.strip()) for p in parts))
    except ValueError as exc:
        raise ValueError(f"element must be four integers, got {text!r}") from exc
