"""The two digit recoders and expansion utilities.

Both recoders peel one digit per step: choose a digit c congruent to the
element in the right sense, replace alpha by (alpha - c)/tau, repeat until
zero.  The GLS recoder picks integer digits in {-3..3} so that every four
consecutive digits contain a zero; the tau-NAF recoder picks digits from a
13-element set so that no two adjacent digits are both nonzero (the chosen
digit always leaves alpha - c divisible by tau^2, forcing the next digit
to be 0).

Digit sequences are little-endian in memory and in serialized form; the
human-readable display is the big-endian tuple "(c_{l-1}, ..., c_0)_t".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .digits import (Digit, GLS_DIGITS, TnafDigitSet, ZERO_DIGIT,
                     build_tnaf_digit_set, digit_element, format_digit,
                     gls_digit, parse_digit)
from .ring import ZTau, ZERO, check_mu, evaluate_expansion, quotient_by_tau
from .normform import norm_sq

GLS = "gls"
TNAF = "tnaf"


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


def _json_ints(value, field: str, n: int) -> list:
    # type() rather than isinstance(): JSON true/false parse to bools.
    if not (isinstance(value, list) and len(value) == n
            and all(type(x) is int for x in value)):
        raise ValueError(f"{field} must be {n} integers, got {value!r}")
    return value


def expansion_from_json(text: str) -> Expansion:
    """Inverse of ``Expansion.to_json``; a malformed field raises ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expansion must be a JSON object, got {type(obj).__name__}")
    keys = ("kind", "mu", "digit_set", "element", "digits")
    try:
        kind, mu, j, element, digits = (obj[k] for k in keys)
    except KeyError as exc:
        raise ValueError(f"expansion has no {exc.args[0]!r} field") from None
    if kind not in (GLS, TNAF):
        raise ValueError(f"kind must be 'gls' or 'tnaf', got {kind!r}")
    if type(mu) is not int or mu not in (1, -1):
        raise ValueError(f"mu must be 1 or -1, got {mu!r}")
    if (j is not None) if kind == GLS else not (type(j) is int and 1 <= j <= 16):
        raise ValueError(f"digit_set must be null for gls and 1..16 for tnaf, got {j!r}")
    if not isinstance(digits, list):
        raise ValueError(f"digits must be a list, got {digits!r}")
    return Expansion(
        kind=kind,
        mu=mu,
        digit_set_id=j,
        digits=tuple(Digit(*_json_ints(c, f"digits[{i}]", 2))
                     for i, c in enumerate(digits)),
        source=ZTau(*_json_ints(element, "element", 4)),
    )


def _iteration_guard(a: ZTau, mu: int) -> int:
    # Norm descent caps expansion length at O(log norm); the slack absorbs
    # the plateau below the descent threshold.
    return 4 * norm_sq(a, mu).bit_length() + 64


# Digit tables of the recoding loop (Solinas' residue-table selection),
# built from the digit rules so that each rule is written down once.  The
# 64 GLS cells are indexed 8*(s mod 8) + 2*(t mod 4) + v mod 2; the 32
# tau-NAF cells of digit set j, 4*(s mod 8) + t mod 4, are the set's own
# table, ``TnafDigitSet.cells``, which tnaf_digit reads too.  Cells with
# 4 | s hold 0.
GLS_TABLE = tuple(Digit(gls_digit(r_s, r_t, r_v), 0)
                  for r_s in range(8) for r_t in range(4) for r_v in range(2))
_GLS_ALPHABET = frozenset(Digit(c, 0) for c in GLS_DIGITS)


def recode_steps(a: ZTau, mu: int, method: str, j: Optional[int] = None) -> Iterator[tuple]:
    """The one recoding loop, GLS or tau-NAF over digit set j: yields
    (s, t, u, v, c), the state and the digit of its table cell, then moves
    to (state - c)/tau, until the state is 0.  4 | (s - c') for every table
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
    guard = _iteration_guard(a, mu)  # also rejects a bad mu
    for _ in range(guard):
        if not (s or t or u or v):
            return
        # s & 7 is s mod 8 for negative s too
        c = table[((s & 7) << 2 | (t & 3)) << v_bit | (v & v_bit)]
        yield s, t, u, v, c
        cp, cpp = c
        q = (s - cp) >> 2
        d = mu * q
        s, t, u, v = d + d + t - cpp, u, d + v, -q
    if s or t or u or v:
        raise GuardExceededError(f"recoding of {a} exceeded {guard} digits")


def expand_gls(a: ZTau, mu: int) -> Expansion:
    """GLS recoding of a; the zero element yields the empty expansion."""
    digits = tuple(map(itemgetter(4), recode_steps(a, mu, GLS)))
    return Expansion(kind=GLS, mu=mu, digit_set_id=None, digits=digits, source=a)


def expand_tnaf(a: ZTau, mu: int, j: int) -> Expansion:
    """tau-NAF recoding of a over digit set j; zero yields the empty expansion."""
    digits = tuple(map(itemgetter(4), recode_steps(a, mu, TNAF, j)))
    return Expansion(kind=TNAF, mu=mu, digit_set_id=j, digits=digits, source=a)


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


def _words(a: ZTau, mu: int, digits: Sequence, max_len: int, max_weight: int,
           max_run: int) -> list[tuple]:
    """Every little-endian word over the digits that evaluates to a, with
    length <= max_len, at most max_weight nonzero digits and at most
    max_run consecutive nonzero digits, in depth-first digit order.

    Branches only on the digits that keep the quotient in the ring.  The
    search stops at the zero element, which only a nonzero digit can reach,
    so every word found has a nonzero top digit; going on would need a
    nonzero digit with 4 | its constant part, which neither the GLS digits
    nor a tau-NAF set has (validate_digit_set rejects a set with a nonzero
    digit that tau divides).
    """
    by_residue: dict[int, list[Digit]] = {r: [] for r in range(4)}
    for c in digits:
        by_residue[c.a % 4].append(c)
    words: list[tuple] = []
    prefix: list[Digit] = []

    def descend(cur: ZTau, depth_left: int, weight_left: int, run_left: int) -> None:
        if cur == ZERO:
            words.append(tuple(prefix))
            return
        if depth_left == 0:
            return
        for c in by_residue[cur.s % 4]:
            if c == ZERO_DIGIT:
                rest, w, r = cur, weight_left, max_run
            elif weight_left and run_left:
                rest, w, r = cur - digit_element(c), weight_left - 1, run_left - 1
            else:
                continue
            prefix.append(c)
            descend(quotient_by_tau(rest, mu), depth_left - 1, w, r)
            prefix.pop()

    descend(a, max_len, max_weight, max_run)
    return words


def min_hamming_weight(a: ZTau, mu: int, digit_set: Iterable, max_len: int) -> Optional[int]:
    """Least weight of ANY digit string of length <= max_len over the given
    digits evaluating to a -- no adjacency or window constraint.

    Iterative deepening on the weight; None if no string of the allowed
    length represents a.
    """
    check_mu(mu)
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    digits = [Digit(*c) for c in digit_set]
    return next((w for w in range(max_len + 1)
                 if _words(a, mu, digits, max_len, w, max_len)), None)


def enumerate_naf_words(a: ZTau, dset: TnafDigitSet, max_len: int) -> list[tuple]:
    """All tau-NAF words of length <= max_len over the set evaluating to a.

    Exhaustive: branches over every set digit that keeps the quotient in
    the ring, subject only to the adjacency rule, so it finds every valid
    word -- not just the one the recoder picks.  Words are little-endian
    digit tuples with nonzero top digit.
    """
    return _words(a, dset.mu, dset.sorted_digits(), max_len, max_len, 1)


def norm_trace(a: ZTau, mu: int, method: str, j: Optional[int] = None) -> list[int]:
    """Squared norms of the successive loop states of a recoding,
    from norm_sq(a) down to the final 0."""
    return [norm_sq(step[:4], mu) for step in recode_steps(a, mu, method, j)] + [0]


def parse_digit_word(text: str) -> tuple:
    """Parse a semicolon-separated big-endian digit word into little-endian
    digits, e.g. "1-1t;0;0;-1+2t"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_digit(p) for p in reversed(text.split(";")))


def format_digit_word(digits: Sequence) -> str:
    """Inverse of parse_digit_word (big-endian, semicolon separated)."""
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
