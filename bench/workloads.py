"""Workload definitions: seeded op lists, op execution and output checks.

An op is plain data (``Op(kind, args)``), generated from the workload seed
without importing the program.  ``prepare`` turns it into a zero-argument
callable on the program's own types; that conversion is not timed.  ``check``
verifies an op's output with the code in ``reference`` and the digests in
``digests.json``, never with ``tauadic`` itself.

Ops come in rounds.  Every round of a workload holds the same mix of op
kinds and input sizes (only the values and the order change with the seed),
so medians and percentiles do not depend on which seed was drawn.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import reference as ref

WORKLOADS = ("recode", "verify", "enumerate")
MODULES = ("ring", "digits", "normform", "expand", "tables", "checks", "cli")
MUS = (1, -1)
RECODE_BITS = (64, 256, 1024)
SUITES = ("ring", "norm", "digits", "expansion")
SWEEP_SETS = (1, 7, 16)
SWEEP_BOUND = 20        # the 94 elements of the tau-NAF existence tables
SWEEP_MAX_LEN = 10
MIN_WEIGHT_MAX_LEN = 8
SMALL_BOUNDS = (20, 200)
SMALL_BOUNDS_PER_ROUND = 399
MAX_BOUND = 1000
DIGESTS = Path(__file__).with_name("digests.json")


class Op(NamedTuple):
    kind: str
    args: tuple


def _coefficient(rng: random.Random, bits: int) -> int:
    return rng.choice((1, -1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1))


def _recode_round(rng: random.Random) -> list:
    # One element per size; each gets both recoders.
    ops = []
    for bits in RECODE_BITS:
        mu, j = rng.choice(MUS), rng.randint(1, 16)
        element = tuple(_coefficient(rng, bits) for _ in range(4))
        ops += [Op("gls", (bits, mu, element)), Op("tnaf", (bits, mu, j, element))]
    return ops


def _verify_round(rng: random.Random) -> list:
    # Two copies of the fixed ops per check seed, so that the median and
    # p90 fall inside the naf_sweep and tables ops rather than between kinds.
    ops = [Op("tables", (mu, j)) for mu in MUS for j in range(1, 17)]
    ops += [Op("census", (mu,)) for mu in MUS]
    ops += [Op("min_weight", (mu, j)) for mu in MUS for j in range(1, 17)]
    ops += [Op("naf_sweep", (mu, j)) for mu in MUS for j in SWEEP_SETS]
    seed = rng.randrange(2 ** 31)
    return 2 * ops + [Op("check", (suite, seed)) for suite in SUITES]


def _enumerate_round(rng: random.Random) -> list:
    # Small bounds log-uniform over SMALL_BOUNDS, one draw in each of n
    # equal strata, and one op at MAX_BOUND, which sets peak memory and
    # takes about a fifth of the round's time.
    lo, hi = SMALL_BOUNDS
    n = SMALL_BOUNDS_PER_ROUND
    bounds = [round(lo * (hi / lo) ** ((i + rng.random()) / n)) for i in range(n)]
    mus = [MUS[i % 2] for i in range(n)]
    rng.shuffle(mus)
    ops = [Op("enumerate", (mu, b)) for mu, b in zip(mus, bounds)]
    return ops + [Op("enumerate", (rng.choice(MUS), MAX_BOUND))]


_ROUNDS = {"recode": _recode_round, "verify": _verify_round,
           "enumerate": _enumerate_round}

# One fixed, untimed op per op kind, run before timing starts; setup_s ends
# with them.
WARMUP = {
    "recode": [Op("gls", (64, 1, (3, -5, 7, 11))),
               Op("tnaf", (64, 1, 1, (3, -5, 7, 11)))],
    "verify": [Op("tables", (1, 1)), Op("census", (1,)),
               Op("check", ("digits", 0)), Op("min_weight", (1, 1)),
               Op("naf_sweep", (1, 1))],
    "enumerate": [Op("enumerate", (1, SMALL_BOUNDS[0]))],
}


def rounds(workload: str, seed: int) -> Iterator[list]:
    """Endless seeded rounds of ops; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        ops = _ROUNDS[workload](rng)
        rng.shuffle(ops)
        yield ops


def load_program(src: Path) -> SimpleNamespace:
    """Import tauadic from ``src`` (and nowhere else)."""
    init = src / "tauadic" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no tauadic package at {init}")
    sys.path.insert(0, str(src))
    os.environ.pop("TAU_FIXTURES_DIR", None)
    package = importlib.import_module("tauadic")
    if Path(package.__file__).resolve() != init.resolve():
        raise ImportError(f"tauadic was imported from {package.__file__}, not {src}")
    modules = {m: importlib.import_module(f"tauadic.{m}") for m in MODULES}
    return SimpleNamespace(modules=modules, package_modules=[package, *modules.values()],
                           **modules)


class Reference:
    """Inputs and expected outputs that the benchmark computes itself."""

    def __init__(self) -> None:
        self.digests = json.loads(DIGESTS.read_text())
        self.short = {mu: sorted(ref.short_elements(mu, SWEEP_BOUND)) for mu in MUS}
        self._counts: dict = {}

    def counts(self, mu: int) -> list:
        if mu not in self._counts:
            self._counts[mu] = ref.norm_counts(mu, MAX_BOUND)
        return self._counts[mu]


def cli_argv(op: Op) -> list:
    kind, args = op
    if kind == "tables":
        return ["tables", "--mu", str(args[0]), "--digit-set", str(args[1])]
    if kind == "census":
        return ["census", "--mu", str(args[0])]
    if kind == "check":
        return ["check", "--suite", args[0], "--seed", str(args[1])]
    if kind == "enumerate":
        return ["enumerate", "--mu", str(args[0]), "--bound", str(args[1]),
                "--format", "csv"]
    raise ValueError(f"{kind} is not a CLI op")


def _run_cli(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def prepare(program, reference: Reference, op: Op):
    """A zero-argument callable running the op; module attributes are read
    at call time, so an installed tracer sees every call."""
    kind, args = op
    ring, digits, expand = program.ring, program.digits, program.expand
    if kind == "gls":
        _, mu, element = args
        a = ring.ZTau(*element)

        def run():
            e = expand.expand_gls(a, mu)
            expand.check_expansion(e)
            return e
        return run
    if kind == "tnaf":
        _, mu, j, element = args
        a = ring.ZTau(*element)

        def run():
            e = expand.expand_tnaf(a, mu, j)
            expand.check_expansion(e)
            return e
        return run
    if kind == "min_weight":
        mu, j = args
        target = ring.ZTau(2, 2 * mu, 0, 0)
        alphabet = sorted(ref.tnaf_digit_set(j, mu))
        return lambda: expand.min_hamming_weight(target, mu, alphabet,
                                                 MIN_WEIGHT_MAX_LEN)
    if kind == "naf_sweep":
        mu, j = args
        elements = [ring.ZTau(*e) for _, e in reference.short[mu]]

        def run():
            dset = digits.build_tnaf_digit_set(j, mu)
            return [expand.enumerate_naf_words(e, dset, SWEEP_MAX_LEN)
                    for e in elements]
        return run
    argv = cli_argv(op)
    return lambda: _run_cli(program.cli, argv)


def _plain(digits) -> tuple:
    return tuple((d[0], d[1]) for d in digits)


def canonical(op: Op, out) -> bytes:
    """Bytes that identify an op's output, for digests."""
    if op.kind in ("gls", "tnaf"):
        return repr(_plain(out.digits)).encode()
    if op.kind == "naf_sweep":
        return repr([[_plain(w) for w in words] for words in out]).encode()
    return repr(out).encode()


_CHECK_SUMMARY = re.compile(
    r"^(\d+)/(\d+) checks passed \(suite=(\w+), seed=(-?\d+), scale=quick\)$")


def check(reference: Reference, op: Op, out) -> tuple:
    """(ok, work units) for an op's output."""
    kind, args = op
    if kind in ("gls", "tnaf"):
        mu, element = args[1], args[-1]
        word = _plain(out.digits)
        ok = (tuple(out.source) == element and out.mu == mu and out.kind == kind
              and ref.horner(word, mu) == element)
        if kind == "gls":
            ok = ok and ref.is_gls_word(word)
        else:
            ok = (ok and out.digit_set_id == args[2]
                  and ref.is_naf_word(word, ref.tnaf_digit_set(args[2], mu)))
        return ok, len(word)
    if kind == "min_weight":
        return out == 2, 1
    if kind == "naf_sweep":
        mu, j = args
        dset = ref.tnaf_digit_set(j, mu)
        short = reference.short[mu]
        ok = len(out) == len(short) and all(
            len(words) == 1 and ref.is_naf_word(_plain(words[0]), dset)
            and ref.horner(_plain(words[0]), mu) == element
            for words, (_, element) in zip(out, short))
        return ok, 1
    rc, stdout, stderr = out
    if rc != 0 or stderr:
        return False, 0
    if kind in ("tables", "census"):
        key = " ".join(cli_argv(op))
        return hashlib.sha256(stdout.encode()).hexdigest() == reference.digests[key], 1
    if kind == "check":
        *lines, summary = stdout.splitlines()
        m = _CHECK_SUMMARY.match(summary)
        ok = (m is not None and len(lines) > 0
              and m.group(1) == m.group(2) == str(len(lines))
              and (m.group(3), int(m.group(4))) == args
              and all(line.startswith("[PASS] ") for line in lines))
        return ok, 1
    return _check_enumeration(reference, args, stdout)


def _check_enumeration(reference: Reference, args: tuple, stdout: str) -> tuple:
    # Each row has its true norm, within the bound, in strictly increasing
    # (norm, s, t, u, v) order; with the independent count that makes the
    # row set exact.  Rows are read one at a time to keep memory flat.
    mu, bound = args
    lines = io.StringIO(stdout)
    if lines.readline() != "s,t,u,v,norm_sq\n":
        return False, 0
    rows, prev = 0, None
    for line in lines:
        s, t, u, v, n = map(int, line.split(","))
        key = (n, s, t, u, v)
        if n != ref.norm_sq((s, t, u, v), mu) or not 0 < n <= bound or (
                prev is not None and key <= prev):
            return False, rows
        prev = key
        rows += 1
    return rows == reference.counts(mu)[bound], rows


def warm_up(program, reference: Reference, workload: str) -> None:
    for op in WARMUP[workload]:
        prepare(program, reference, op)()
