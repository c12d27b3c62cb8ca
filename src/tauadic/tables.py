"""Reproduction of the reference tables and counterexample censuses.

Fixture CSVs live in the package's ``fixtures/`` directory (override with
the TAU_FIXTURES_DIR environment variable):

* ``tnaf_existence_{p1|m1}_j{01..16}.csv`` -- all 94 elements with squared
  norm <= 20 together with their tau-NAF over digit set j: the header
  ``expand.CSV_HEADER`` and one ``Expansion.csv_row`` per element;
* ``gls_nonuniqueness_{p1|m1}.csv`` -- the 252 four-digit GLS words whose
  first recoding step deviates from the canonical one: the header
  ``CENSUS_HEADER`` and one ``NonUniquenessWitness.csv_row`` per word.

A fixture is checked as a set of text lines against the rows the program
computes and prints itself; row order is presentation only.  A header
other than the expected one is a FixtureError; a data line that equals no
computed row, or repeats an earlier line, is a mismatch that names the
file and the line.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Optional

from .checks import CheckResult
from .digits import Digit, GLS_DIGITS
from .expand import (CSV_HEADER, Expansion, expand_gls, expand_tnaf,
                     is_gls_window_valid, strip_top_zeros)
from .normform import enumerate_short_vectors
from .ring import ZTau, check_mu, evaluate_expansion

FIXTURES_ENV = "TAU_FIXTURES_DIR"

TNAF_NORM_BOUND = 20   # census: 94 elements
GLS_NORM_BOUND = 38    # census: 300 elements
GLS_TABLE_SIZE = 300
CENSUS_SIZE = 252
CENSUS_HEADER = "c3,c2,c1,c0"


class FixtureError(AssertionError):
    """A fixture file has a header other than the expected columns."""


def _mu_tag(mu: int) -> str:
    return "p1" if mu == 1 else "m1"


def fixture_text(name: str) -> str:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return (Path(override) / name).read_text()
    return files("tauadic").joinpath("fixtures").joinpath(name).read_text()


def _compare_fixture(table_id: str, name: str, header: str,
                     rows: Iterable[str]) -> CheckResult:
    """The data lines of fixture ``name`` against the computed CSV rows, as
    sets of lines (blank lines skipped).  A line that equals no computed row,
    or repeats an earlier line, is missing at its file and line; a computed
    row that no line equals is extra.  The detail is "<table_id>: OK", or a
    MISMATCH line with the counts and then one line per missing and extra
    row.  A first line other than the header raises FixtureError."""
    lines = fixture_text(name).splitlines()
    if not lines or lines[0] != header:
        got = lines[0].split(",") if lines else []
        raise FixtureError(f"{name} line 1: columns {got}, want {header.split(',')}")
    extra = set(rows)
    missing = []
    for n, line in enumerate(lines[1:], 2):
        if line in extra:
            extra.remove(line)
        elif line:
            missing.append(f"{name} line {n}: {line}")
    if not missing and not extra:
        return CheckResult(table_id, True, f"{table_id}: OK")
    detail = [f"{table_id}: MISMATCH ({len(missing)} missing, {len(extra)} extra)"]
    detail += [f"  missing: {r}" for r in missing] + [f"  extra: {r}" for r in sorted(extra)]
    return CheckResult(table_id, False, "\n".join(detail))


def check_tnaf_existence_table(mu: int, j: int) -> CheckResult:
    """Recode every element with squared norm <= 20 over digit set j and
    compare the rows with the fixture's lines."""
    rows = [expand_tnaf(element, mu, j).csv_row()
            for element, _ in enumerate_short_vectors(mu, TNAF_NORM_BOUND).elements]
    return _compare_fixture(f"tnaf-existence-D{j}-mu={mu:+d}",
                            f"tnaf_existence_{_mu_tag(mu)}_j{j:02d}.csv",
                            CSV_HEADER, rows)


def reproduce_gls_existence(mu: int) -> list[Expansion]:
    """GLS-recode every element with squared norm <= 38.

    There is no reference table to compare against; each row is checked for
    round-trip consistency and the census size is enforced by the caller.
    """
    out = []
    for element, _ in enumerate_short_vectors(mu, GLS_NORM_BOUND).elements:
        e = expand_gls(element, mu)
        if evaluate_expansion(e.digits, mu) != element:
            raise AssertionError(f"GLS recoding of {element} does not round-trip")
        out.append(e)
    return out


@dataclass(frozen=True)
class NonUniquenessWitness:
    """A four-digit GLS word whose first digit deviates from the recoder's
    choice for the same element, exhibiting a second expansion."""

    word: tuple          # (c3, c2, c1, c0), big-endian
    element: ZTau
    canonical: Expansion

    def word_le(self) -> tuple:
        return tuple(Digit(c, 0) for c in reversed(self.word))

    def csv_row(self) -> str:
        """The word as one ``CENSUS_HEADER`` row, e.g. "-3,0,-3,-3"."""
        return ",".join(str(c) for c in self.word)


def gls_nonuniqueness_census(mu: int) -> list[NonUniquenessWitness]:
    """All witness words over the GLS alphabet.

    Universe: big-endian words (c3, c2, c1, c0) with every digit in the
    alphabet, at least one zero digit (the length-4 window rule), and
    c0 != 0 (words ending in 0 reproduce the witness of their quotient).
    A word is a witness when the canonical recoding of its value starts
    with the other admissible first digit; the expansions then differ
    even though both are window-valid.
    """
    check_mu(mu)
    out = []
    for word in itertools.product(GLS_DIGITS, repeat=4):
        if word[-1] == 0 or 0 not in word:
            continue
        element = evaluate_expansion([(c, 0) for c in reversed(word)], mu)
        canonical = expand_gls(element, mu)
        if canonical.digits[0].a != word[-1]:
            out.append(NonUniquenessWitness(
                word=word, element=element, canonical=canonical))
    return out


def check_census(mu: int, witnesses: list[NonUniquenessWitness]) -> list[CheckResult]:
    """Census size and word-set equality with the embedded fixture, for the
    witnesses gls_nonuniqueness_census(mu) returned."""
    check_mu(mu)
    results = [
        CheckResult(f"census-count-mu={mu:+d}",
                    len(witnesses) == CENSUS_SIZE,
                    f"got {len(witnesses)}, want {CENSUS_SIZE}"),
        _compare_fixture(f"census-words-mu={mu:+d}",
                         f"gls_nonuniqueness_{_mu_tag(mu)}.csv",
                         CENSUS_HEADER, [w.csv_row() for w in witnesses]),
    ]
    for w in witnesses:
        stripped = strip_top_zeros(w.word_le())
        if (evaluate_expansion(w.word_le(), mu) != w.element
                or not is_gls_window_valid(stripped)
                or stripped == w.canonical.digits):
            results.append(CheckResult(
                f"census-witness-{w.word}-mu={mu:+d}", False,
                "witness fails its defining properties"))
    return results


def run_table_checks(mus: Iterable[int] = (1, -1),
                     js: Optional[Iterable[int]] = None) -> list[CheckResult]:
    """Reproduce all requested existence tables plus the GLS census sizes."""
    results = []
    js = list(js) if js is not None else list(range(1, 17))
    for mu in mus:
        for j in js:
            results.append(check_tnaf_existence_table(mu, j))
        gls = reproduce_gls_existence(mu)
        results.append(CheckResult(
            f"gls-existence-mu={mu:+d}", len(gls) == GLS_TABLE_SIZE,
            f"{len(gls)} rows, want {GLS_TABLE_SIZE}"))
    return results


def census_to_json(witnesses: list[NonUniquenessWitness]) -> str:
    obj = [{"word": list(w.word), "element": list(w.element),
            "canonical": [[c.a, c.b] for c in w.canonical.digits]}
           for w in witnesses]
    return json.dumps(obj, separators=(",", ":"))


def census_to_csv(witnesses: list[NonUniquenessWitness]) -> str:
    return "\n".join([CENSUS_HEADER] + [w.csv_row() for w in witnesses]) + "\n"
