"""Expansion digits and digit sets.

Two digit alphabets are used by the recoders:

* the GLS alphabet, the integers {-3, ..., 3}, chosen per position by a
  residue rule on (s mod 8, t mod 4, v mod 2);
* sixteen 13-element tau-NAF alphabets drawn from TNAF_BOX, the digits
  c' + c''*tau with -2 <= c', c'' <= 2 and (|c'|, |c''|) != (2, 2),
  indexed j = 1..16.

The tau-NAF rules are the ring's two divisibility tests.  The candidates
for an element alpha that tau does not divide are the box digits c with
tau^2 | (alpha - c) (``ring.tau_sq_divides``): one or two for each residue
cell (s mod 8, t mod 4).  A digit set is usable, with exactly one tau-NAF
word for each element, iff its digits lie in the box, tau divides none of
its nonzero digits (``ring.tau_divides``), and each residue cell has
exactly one candidate in the set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .ring import ZTau, check_mu, tau_divides, tau_sq_divides


class InvalidResidueError(ValueError):
    """Residue cell with Rs divisible by 4 (digit 0 is forced there)."""


class ElementDivisibleError(ValueError):
    """Nonzero-digit selection requested for an element divisible by tau."""


class Digit(NamedTuple):
    """Expansion coefficient a + b*tau, the named form of the (c', c'') pair;
    a plain 2-tuple compares and hashes equal to it."""

    a: int
    b: int

    def __str__(self) -> str:
        return format_digit(self)


ZERO_DIGIT = Digit(0, 0)

# The coefficient box of the tau-NAF digits, in (a, b) order.
TNAF_BOX = tuple(Digit(a, b) for a in range(-2, 3) for b in range(-2, 3)
                 if (abs(a), abs(b)) != (2, 2))


def digit_element(c: Digit) -> ZTau:
    return ZTau(*c, 0, 0)


def format_digit(c: Digit) -> str:
    """Canonical text: "a" when b = 0, else "a+bt" with explicit sign, e.g. "2-1t"."""
    a, b = c
    if b == 0:
        return str(a)
    sign = "+" if b > 0 else "-"
    return f"{a}{sign}{abs(b)}t"


GLS_DIGITS = tuple(range(-3, 4))


def gls_digit(s_mod8: int, t_mod4: int, v_mod2: int) -> int:
    """GLS digit for the residue triple (s mod 8, t mod 4, v mod 2).

    0 when 4 | s; otherwise s mod 4, shifted down by 4 according to the
    sign-selection rule so the result lies in {-3, ..., 3}.
    """
    if not (0 <= s_mod8 <= 7 and 0 <= t_mod4 <= 3 and 0 <= v_mod2 <= 1):
        raise ValueError(f"residues out of range: ({s_mod8}, {t_mod4}, {v_mod2})")
    c = s_mod8 % 4
    if c == 0:
        return 0
    t_odd = t_mod4 % 2 == 1
    if ((t_mod4 == 0 and s_mod8 > 4)
            or (t_mod4 == 2 and s_mod8 < 4)
            or (t_odd and s_mod8 > 4 and v_mod2 == 0)
            or (t_odd and s_mod8 < 4 and v_mod2 == 1)):
        c -= 4
    return c


@functools.cache  # 48 valid inputs, read by the table of every digit set
def tnaf_candidates(r_s: int, r_t: int, mu: int) -> tuple[Digit, ...]:
    """The digits c of TNAF_BOX with tau^2 | (alpha - c) for the elements
    alpha with these residues: one or two, in (a, b) order."""
    check_mu(mu)
    if not (0 <= r_s <= 7 and 0 <= r_t <= 3):
        raise ValueError(f"residues out of range: ({r_s}, {r_t})")
    if r_s % 4 == 0:
        raise InvalidResidueError(f"Rs = {r_s} is divisible by 4; the digit is 0")
    return tuple(c for c in TNAF_BOX
                 if tau_sq_divides(ZTau(r_s - c.a, r_t - c.b, 0, 0), mu))


@dataclass(frozen=True)
class TnafDigitSet:
    """One of the sixteen 13-digit tau-NAF alphabets."""

    j: int
    mu: int
    digits: frozenset

    def __contains__(self, c: Digit) -> bool:
        return c in self.digits

    @functools.cached_property
    def cells(self) -> tuple:
        """The residue table read by tnaf_digit and the recoder: cell
        4*Rs + Rt holds 0 where 4 | Rs, else the one candidate digit in
        the set, or None where the set holds none or two."""
        hits = [[c for c in tnaf_candidates(r_s, r_t, self.mu) if c in self.digits]
                if r_s % 4 else [ZERO_DIGIT] for r_s in range(8) for r_t in range(4)]
        return tuple(h[0] if len(h) == 1 else None for h in hits)

    def sorted_digits(self) -> list[Digit]:
        return sorted(self.digits)


# The 9 digits shared by every tau-NAF alphabet.
_BASE_DIGITS = frozenset(
    [ZERO_DIGIT, Digit(1, 0), Digit(-1, 0), Digit(2, 0), Digit(-2, 0),
     Digit(1, 1), Digit(1, -1), Digit(-1, 1), Digit(-1, -1)]
)


@functools.cache
def build_tnaf_digit_set(j: int, mu: int) -> TnafDigitSet:
    """Digit set number j (1..16): base digits plus one of each +-(2+tau),
    +-(2-tau) and one of each 1+-2*mu*tau, -1+-2*mu*tau, selected by the
    two index digits j1 = (j-1) div 4 and j2 = (j-1) mod 4."""
    check_mu(mu)
    if not 1 <= j <= 16:
        raise ValueError(f"digit set index must be 1..16, got {j}")
    j1, j2 = (j - 1) // 4, (j - 1) % 4
    sign1a = -1 if (j1 // 2) % 2 else 1   # picks +-(2 + tau)
    sign1b = -1 if j1 % 2 else 1          # picks +-(2 - tau)
    sign2a = -1 if (j2 // 2) % 2 else 1   # picks 1 +- 2*mu*tau
    sign2b = -1 if j2 % 2 else 1          # picks -1 +- 2*mu*tau
    extra = [
        Digit(2 * sign1a, sign1a),
        Digit(2 * sign1b, -sign1b),
        Digit(1, 2 * mu * sign2a),
        Digit(-1, 2 * mu * sign2b),
    ]
    return TnafDigitSet(j=j, mu=mu, digits=_BASE_DIGITS | frozenset(extra))


def all_tnaf_digit_sets(mu: int) -> list[TnafDigitSet]:
    return [build_tnaf_digit_set(j, mu) for j in range(1, 17)]


def tnaf_digit(a: ZTau, dset: TnafDigitSet) -> Digit:
    """The unique digit of the set with tau^2 | (a - digit).

    Residues are taken from the full element so the s mod 8 dependence
    cannot be supplied wrongly by the caller.
    """
    if tau_divides(a):
        raise ElementDivisibleError(f"tau divides {a}; digit 0 is forced")
    c = dset.cells[(a.s & 7) << 2 | (a.t & 3)]  # & is mod for negatives too
    if c is None:
        raise RuntimeError(
            f"digit set j={dset.j} mu={dset.mu} has no single candidate "
            f"for residues ({a.s % 8}, {a.t % 4}); the set is not usable")
    return c


def _residue_cells() -> list[tuple[int, int]]:
    return [(r_s, r_t) for r_s in (1, 2, 3, 5, 6, 7) for r_t in range(4)]


def validate_digit_set(dset: TnafDigitSet) -> bool:
    """Usability check for an arbitrary digit collection, the uniqueness
    lemma's premise: True iff (i) every digit lies in TNAF_BOX, (ii) tau
    divides no nonzero digit, and (iii) every residue cell (Rs, Rt) has
    exactly one candidate digit in the set.  Two distinct digits congruent
    mod tau^2 are candidates for the same cells, so (iii) rejects them.
    """
    return (all(c in TNAF_BOX for c in dset.digits)
            and not any(c != ZERO_DIGIT and tau_divides(digit_element(c))
                        for c in dset.digits)
            and None not in dset.cells)
