"""The two digit recoders and expansion utilities.

Both recoders peel one digit per step: choose a digit c congruent to the
element in the right sense, replace alpha by (alpha - c)/tau, repeat until
zero.  The GLS recoder picks integer digits in {-3..3} so that every four
consecutive digits contain a zero; the tau-NAF recoder picks digits from a
13-element set so that no two adjacent digits are both nonzero (the chosen
digit always leaves alpha - c divisible by tau^2, forcing the next digit
to be 0).  Both run one loop, ``recode``.  Two exhaustive searches step
with ``quotient_by_tau``: ``enumerate_naf_words`` lists all tau-NAF words
depth-first, and ``min_hamming_weight`` finds a least weight length by length.

Digit sequences are little-endian in memory and in serialized form; the
human-readable display is the big-endian tuple "(c_{l-1}, ..., c_0)_t".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .digits import (Digit, GLS_DIGITS, TnafDigitSet, ZERO_DIGIT,
                     build_tnaf_digit_set, digit_element, format_digit,
                     gls_digit)
from .ring import (ZTau, ZERO, check_mu, evaluate_expansion, format_element,
                   quotient_by_tau)
from .normform import norm_sq

GLS = "gls"
TNAF = "tnaf"
CSV_HEADER = "s,t,u,v,norm_sq,digits,length"


class GuardExceededError(RuntimeError):
    """A recoding loop ran past its iteration guard; this signals a bug,
    since the norm-descent argument bounds the length of every expansion."""


@dataclass(frozen=True)
class Expansion:
    """A finite digit recoding of a ring element (little-endian digits)."""

    kind: str                      # GLS or TNAF
    mu: int
    digit_set_id: Optional[int]    # 1..16 for TNAF, None for GLS
    digits: tuple                  # of Digit
    source: ZTau

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def weight(self) -> int:
        return len(self.digits) - self.digits.count(ZERO_DIGIT)

    def display(self) -> str:
        inner = ", ".join(format_digit(c) for c in reversed(self.digits))
        return f"({inner})_t"

    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "mu": self.mu,
            "digit_set": self.digit_set_id,
            "element": list(self.source),
            "digits": [[c.a, c.b] for c in self.digits],
            "length": self.length,
            "hamming_weight": self.weight,
        }
        return json.dumps(obj, separators=(",", ":"))

    def csv_row(self) -> str:
        """One ``CSV_HEADER`` row, e.g. "3,0,0,0,18,1-1t;0;0;-1+2t,4"."""
        return (f"{format_element(self.source)},{norm_sq(self.source, self.mu)},"
                f"{format_digit_word(self.digits)},{self.length}")


# Residue tables of the recoding loop (Solinas), built from the digit rules:
# 64 GLS cells, 8*(s mod 8) + 2*(t mod 4) + v mod 2, and the 32 cells
# 4*(s mod 8) + t mod 4 of a tau-NAF set, ``TnafDigitSet.cells``, which
# tnaf_digit reads too.  Cells with 4 | s hold 0.
GLS_TABLE = tuple(Digit(gls_digit(r_s, r_t, r_v), 0)
                  for r_s in range(8) for r_t in range(4) for r_v in range(2))
_GLS_ALPHABET = frozenset(Digit(c, 0) for c in GLS_DIGITS)


def recode(a: ZTau, mu: int, method: str, j: Optional[int] = None,
           trace: Optional[list] = None) -> tuple:
    """The one recoding loop, GLS or tau-NAF over digit set j: the digits of
    a, little-endian.  Each step reads the digit c of the state's table cell,
    appends the state (s, t, u, v) to trace when one is given, and moves to
    (state - c)/tau, until the state is 0.  4 | (s - c') for every table
    digit c' + c''*tau, so with q = (s - c')/4 the quotient is exact."""
    if method == GLS:
        table, v_bit = GLS_TABLE, 1
    elif method == TNAF:
        if j is None:
            raise ValueError("tau-NAF recoding needs a digit set index")
        table, v_bit = build_tnaf_digit_set(j, mu).cells, 0
    else:
        raise ValueError(f"unknown method {method!r}")
    s, t, u, v = a
    # Norm descent caps the length at O(log norm); the slack absorbs the
    # plateau below the descent threshold.  norm_sq also rejects a bad mu.
    guard = 4 * norm_sq(a, mu).bit_length() + 64
    digits = []
    for _ in range(guard):
        if not (s or t or u or v):
            return tuple(digits)
        # s & 7 is s mod 8 for negative s too
        c = table[((s & 7) << 2 | (t & 3)) << v_bit | (v & v_bit)]
        if trace is not None:
            trace.append((s, t, u, v))
        digits.append(c)
        cp, cpp = c
        q = (s - cp) >> 2
        d = mu * q
        s, t, u, v = d + d + t - cpp, u, d + v, -q
    if s or t or u or v:
        raise GuardExceededError(f"recoding of {a} exceeded {guard} digits")
    return tuple(digits)


def expand_gls(a: ZTau, mu: int) -> Expansion:
    """GLS recoding of a; the zero element yields the empty expansion."""
    return Expansion(kind=GLS, mu=mu, digit_set_id=None,
                     digits=recode(a, mu, GLS), source=a)


def expand_tnaf(a: ZTau, mu: int, j: int) -> Expansion:
    """tau-NAF recoding of a over digit set j; zero yields the empty expansion."""
    return Expansion(kind=TNAF, mu=mu, digit_set_id=j,
                     digits=recode(a, mu, TNAF, j), source=a)


def strip_top_zeros(digits: Sequence) -> tuple:
    """Drop high-order zero digits; the denoted expansion is unchanged."""
    out = list(digits)
    while out and out[-1] == ZERO_DIGIT:
        out.pop()
    return tuple(out)


def _is_word(digits: Sequence, alphabet: frozenset, max_run: int) -> bool:
    """Digits from the alphabet, top digit nonzero (the empty word is
    valid), and at most max_run nonzero digits in a row."""
    run = 0
    for c in digits:
        run = 0 if c == ZERO_DIGIT else run + 1
        if run > max_run or c not in alphabet:
            return False
    return run > 0 or not digits


def is_naf(digits: Sequence, dset: TnafDigitSet) -> bool:
    """Valid tau-NAF word: digits in the set, no two adjacent nonzero,
    top digit nonzero (empty is valid)."""
    return _is_word(digits, dset.digits, 1)


def is_gls_window_valid(digits: Sequence) -> bool:
    """Valid GLS word: integer digits in {-3..3}, a zero in every window of
    four consecutive digits, top digit nonzero (empty is valid)."""
    return _is_word(digits, _GLS_ALPHABET, 3)


def _by_residue(digits: Iterable) -> tuple:
    """The digits grouped by c' mod 4, in order: tau divides a state with
    s = r mod 4 minus a digit of group r.  The searches stop at 0, which
    only a nonzero digit reaches, so every word has a nonzero top digit
    (validate_digit_set rejects a nonzero digit that tau divides)."""
    groups: tuple = ([], [], [], [])
    for c in digits:
        groups[c[0] % 4].append(c)
    return groups


def min_hamming_weight(a: ZTau, mu: int, digit_set: Iterable, max_len: int) -> Optional[int]:
    """Least weight of ANY digit string of length <= max_len over the given
    digits evaluating to a -- no adjacency or window constraint.

    One word length at a time: states reached at the same length merge
    with their least weight, and a state goes once one more nonzero digit
    cannot beat the best word.  None if no string of the length reaches a.
    """
    check_mu(mu)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    by_residue = _by_residue([Digit(*c) for c in digit_set])
    best = 0 if a == ZERO else max_len + 1
    layer = {a: 0}
    for _ in range(max_len):
        reached: dict[ZTau, int] = {}
        for cur, w in layer.items():
            for c in by_residue[cur.s % 4]:
                if c == ZERO_DIGIT:
                    q, w_q = quotient_by_tau(cur, mu), w
                else:
                    q, w_q = quotient_by_tau(cur - digit_element(c), mu), w + 1
                    if q == ZERO:
                        best = min(best, w_q)
                        continue
                if w_q < reached.get(q, best):
                    reached[q] = w_q
        layer = {q: w for q, w in reached.items() if w + 1 < best}
        if not layer:
            break
    return best if best <= max_len else None


def enumerate_naf_words(a: ZTau, dset: TnafDigitSet, max_len: int) -> list[tuple]:
    """All tau-NAF words of length <= max_len over the set evaluating to a.

    Exhaustive depth-first search over every set digit that keeps the
    quotient in the ring, subject only to the adjacency rule, so it finds
    every valid word, not just the recoder's: little-endian digit tuples
    with nonzero top digit, in digit order.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    mu = dset.mu
    # pushed in reverse digit order, so the words come out in digit order
    by_residue = _by_residue(sorted(dset.digits, reverse=True))
    words: list[tuple] = []
    stack = [(a, max_len, False, ())]
    while stack:
        cur, left, after_nonzero, word = stack.pop()
        if cur == ZERO:
            words.append(word)
        elif left:
            for c in by_residue[cur.s % 4]:
                if c == ZERO_DIGIT:
                    stack.append((quotient_by_tau(cur, mu),
                                  left - 1, False, word + (c,)))
                elif not after_nonzero:
                    stack.append((quotient_by_tau(cur - digit_element(c), mu),
                                  left - 1, True, word + (c,)))
    return words


def norm_trace(a: ZTau, mu: int, method: str, j: Optional[int] = None) -> list[int]:
    """Squared norms of the successive loop states of a recoding,
    from norm_sq(a) down to the final 0."""
    trace: list = []
    recode(a, mu, method, j, trace)
    return [norm_sq(x, mu) for x in trace] + [0]


def format_digit_word(digits: Sequence) -> str:
    """Big-endian digit text joined with semicolons, e.g. "1-1t;0;0;-1+2t"."""
    return ";".join(format_digit(c) for c in reversed(list(digits)))


def check_expansion(e: Expansion) -> None:
    """Raise if an expansion violates its structural contract."""
    if evaluate_expansion(e.digits, e.mu) != e.source:
        raise AssertionError(f"expansion of {e.source} does not round-trip")
    if e.kind == TNAF:
        dset = build_tnaf_digit_set(e.digit_set_id, e.mu)
        if not is_naf(e.digits, dset):
            raise AssertionError(f"expansion of {e.source} is not a valid NAF word")
    elif e.kind == GLS:
        if not is_gls_window_valid(e.digits):
            raise AssertionError(f"expansion of {e.source} violates the window rule")
    else:
        raise AssertionError(f"unknown expansion kind {e.kind!r}")
