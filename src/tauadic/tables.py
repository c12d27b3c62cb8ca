"""Reproduction of the reference tables and counterexample censuses.

Fixture CSVs live in the package's ``fixtures/`` directory (override with
the TAU_FIXTURES_DIR environment variable):

* ``tnaf_existence_{p1|m1}_j{01..16}.csv`` -- all 94 elements with squared
  norm <= 20 together with their tau-NAF over digit set j, columns
  ``s,t,u,v,norm_sq,digits,length`` with digits big-endian and
  semicolon-separated;
* ``gls_nonuniqueness_{p1|m1}.csv`` -- the 252 four-digit GLS words whose
  first recoding step deviates from the canonical one, columns
  ``c3,c2,c1,c0``.

Table comparisons are set comparisons; row order is presentation only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .checks import CheckResult
from .digits import Digit, GLS_DIGITS, build_tnaf_digit_set
from .expand import (Expansion, expand_gls, expand_tnaf, format_digit_word,
                     is_gls_window_valid, is_naf, parse_digit_word,
                     strip_top_zeros)
from .normform import enumerate_short_vectors, norm_sq
from .ring import ZTau, check_mu, evaluate_expansion

FIXTURES_ENV = "TAU_FIXTURES_DIR"

TNAF_NORM_BOUND = 20   # census: 94 elements
GLS_NORM_BOUND = 38    # census: 300 elements
TNAF_TABLE_SIZE = 94
GLS_TABLE_SIZE = 300
CENSUS_SIZE = 252


class FixtureError(AssertionError):
    """A fixture file is malformed or an embedded row is inconsistent."""


class TableRow(NamedTuple):
    element: ZTau
    norm_sq: int
    digits: tuple          # little-endian Digit word
    length: int


@dataclass(frozen=True)
class TableFixture:
    id: str
    rows: tuple

    def row_set(self) -> frozenset:
        return frozenset(self.rows)


@dataclass(frozen=True)
class TableDiff:
    table_id: str
    missing: tuple   # expected but not computed
    extra: tuple     # computed but not expected

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra

    def describe(self) -> str:
        if self.ok:
            return f"{self.table_id}: OK"
        lines = [f"{self.table_id}: MISMATCH "
                 f"({len(self.missing)} missing, {len(self.extra)} extra)"]
        for tag, rows in (("missing", self.missing), ("extra", self.extra)):
            for r in rows:
                lines.append(f"  {tag}: {r.element} norm_sq={r.norm_sq} "
                             f"digits={format_digit_word(r.digits)} length={r.length}")
        return "\n".join(lines)


def _mu_tag(mu: int) -> str:
    return "p1" if mu == 1 else "m1"


def fixture_text(name: str) -> str:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return (Path(override) / name).read_text()
    return files("tauadic").joinpath("fixtures").joinpath(name).read_text()


def tnaf_table_id(mu: int, j: int) -> str:
    return f"tnaf-existence-D{j}-mu={mu:+d}"


def _parse_fixture(name: str, columns: dict) -> list[tuple]:
    """Every data row of a fixture CSV as a tuple, each field converted by
    the function its column maps to.  A header other than the columns, a
    row with another number of fields or a field its function rejects
    raises FixtureError naming the file and the line."""
    reader = csv.reader(io.StringIO(fixture_text(name)))
    header = next(reader, [])
    if header != list(columns):
        raise FixtureError(f"{name} line 1: columns {header}, want {list(columns)}")
    out = []
    for row in filter(None, reader):  # blank lines are skipped
        where = f"{name} line {reader.line_num}"
        if len(row) != len(columns):
            raise FixtureError(f"{where}: {len(row)} fields, want {len(columns)}")
        try:
            out.append(tuple(f(x) for f, x in zip(columns.values(), row)))
        except ValueError as exc:
            raise FixtureError(f"{where}: {exc}") from None
    return out


def load_tnaf_existence_fixture(mu: int, j: int) -> TableFixture:
    check_mu(mu)
    name = f"tnaf_existence_{_mu_tag(mu)}_j{j:02d}.csv"
    columns = dict(s=int, t=int, u=int, v=int, norm_sq=int,
                   digits=parse_digit_word, length=int)
    rows = [TableRow(ZTau(*f[:4]), *f[4:]) for f in _parse_fixture(name, columns)]
    return TableFixture(id=tnaf_table_id(mu, j), rows=tuple(rows))


def validate_tnaf_fixture(fix: TableFixture, mu: int, j: int) -> None:
    """Internal consistency of every embedded row; runs before any comparison."""
    dset = build_tnaf_digit_set(j, mu)
    for r in fix.rows:
        if norm_sq(r.element, mu) != r.norm_sq:
            raise FixtureError(f"{fix.id}: bad norm for {r.element}")
        if evaluate_expansion(r.digits, mu) != r.element:
            raise FixtureError(f"{fix.id}: digits do not evaluate to {r.element}")
        if len(r.digits) != r.length:
            raise FixtureError(f"{fix.id}: bad length for {r.element}")
        if not is_naf(r.digits, dset):
            raise FixtureError(f"{fix.id}: digits for {r.element} are not a valid NAF word")


def reproduce_tnaf_existence_table(mu: int, j: int) -> TableFixture:
    """Recode every element with squared norm <= 20 over digit set j."""
    rows = []
    for element, n in enumerate_short_vectors(mu, TNAF_NORM_BOUND).elements:
        e = expand_tnaf(element, mu, j)
        rows.append(TableRow(element=element, norm_sq=n,
                             digits=e.digits, length=e.length))
    return TableFixture(id=tnaf_table_id(mu, j), rows=tuple(rows))


def compare_tables(computed: TableFixture, expected: TableFixture) -> TableDiff:
    got, want = computed.row_set(), expected.row_set()
    return TableDiff(table_id=computed.id,
                     missing=tuple(sorted(want - got)),
                     extra=tuple(sorted(got - want)))


def check_tnaf_existence_table(mu: int, j: int) -> TableDiff:
    """Validate the fixture, recompute the table, and diff them as sets."""
    fix = load_tnaf_existence_fixture(mu, j)
    validate_tnaf_fixture(fix, mu, j)
    if len(fix.rows) != TNAF_TABLE_SIZE:
        raise FixtureError(f"{fix.id}: expected {TNAF_TABLE_SIZE} rows, "
                           f"got {len(fix.rows)}")
    return compare_tables(reproduce_tnaf_existence_table(mu, j), fix)


def reproduce_gls_existence(mu: int) -> TableFixture:
    """GLS-recode every element with squared norm <= 38.

    There is no reference table to compare against; each row is checked for
    round-trip consistency and the census size is enforced by the caller.
    """
    rows = []
    for element, n in enumerate_short_vectors(mu, GLS_NORM_BOUND).elements:
        e = expand_gls(element, mu)
        if evaluate_expansion(e.digits, mu) != element:
            raise AssertionError(f"GLS recoding of {element} does not round-trip")
        rows.append(TableRow(element=element, norm_sq=n,
                             digits=e.digits, length=e.length))
    return TableFixture(id=f"gls-existence-mu={mu:+d}", rows=tuple(rows))


@dataclass(frozen=True)
class NonUniquenessWitness:
    """A four-digit GLS word whose first digit deviates from the recoder's
    choice for the same element, exhibiting a second expansion."""

    word: tuple          # (c3, c2, c1, c0), big-endian
    element: ZTau
    canonical: Expansion

    def word_le(self) -> tuple:
        return tuple(Digit(c, 0) for c in reversed(self.word))


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


def load_gls_nonuniqueness_fixture(mu: int) -> list[tuple]:
    check_mu(mu)
    name = f"gls_nonuniqueness_{_mu_tag(mu)}.csv"
    return _parse_fixture(name, dict.fromkeys(("c3", "c2", "c1", "c0"), int))


def check_census(mu: int, witnesses: list[NonUniquenessWitness]) -> list[CheckResult]:
    """Census size and word-set equality with the embedded fixture, for the
    witnesses gls_nonuniqueness_census(mu) returned."""
    words = {w.word for w in witnesses}
    fixture = set(load_gls_nonuniqueness_fixture(mu))
    results = [
        CheckResult(f"census-count-mu={mu:+d}",
                    len(witnesses) == CENSUS_SIZE,
                    f"got {len(witnesses)}, want {CENSUS_SIZE}"),
        CheckResult(f"census-words-mu={mu:+d}", words == fixture,
                    f"{len(fixture - words)} missing, {len(words - fixture)} extra"),
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
            diff = check_tnaf_existence_table(mu, j)
            results.append(CheckResult(diff.table_id, diff.ok, diff.describe()))
        gls = reproduce_gls_existence(mu)
        results.append(CheckResult(
            gls.id, len(gls.rows) == GLS_TABLE_SIZE,
            f"{len(gls.rows)} rows, want {GLS_TABLE_SIZE}"))
    return results


def census_to_json(witnesses: list[NonUniquenessWitness]) -> str:
    obj = [{"word": list(w.word), "element": list(w.element),
            "canonical": [[c.a, c.b] for c in w.canonical.digits]}
           for w in witnesses]
    return json.dumps(obj, separators=(",", ":"))


def census_to_csv(witnesses: list[NonUniquenessWitness]) -> str:
    lines = ["c3,c2,c1,c0"]
    lines += [",".join(str(c) for c in w.word) for w in witnesses]
    return "\n".join(lines) + "\n"
