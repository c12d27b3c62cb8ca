import gc
import json
import random
import time
from itertools import permutations
from math import gcd, isqrt, prod

import pytest

from tauadic import normform
from tauadic.normform import (BoxTooSmallError, NotPositiveDefiniteError,
                              enumerate_bruteforce_oracle,
                              enumerate_short_vectors, gram_matrix,
                              ldl_decompose, norm_sq)
from tauadic.ring import TAU, ZERO, ZTau, multiply

TABLES = {  # _ldl_factors(mu): (m, w, n) in level order, s first
    1: (13888, (16864, 272, 7, 217),
        ((1, 0, 0, 0), (1, 14, 0, 0), (1, 14, 124, 0), (7, 2, 4, 32))),
    -1: (13888, (16864, 272, 7, 217),
         ((1, 0, 0, 0), (-1, 14, 0, 0), (1, -14, 124, 0), (-7, 2, -4, 32))),
}


def _quadratic(matrix, x) -> int:
    return sum(row[j] * xi * x[j] for row, xi in zip(matrix, x) for j in range(len(x)))


def test_gram_coefficients():
    # the integer polar matrix, x^T G x = 2 * norm_sq(x)
    assert gram_matrix(1) == ((4, 1, 1, 7),
                              (1, 8, 2, 2),
                              (1, 2, 16, 4),
                              (7, 2, 4, 32))
    assert gram_matrix(-1) == ((4, -1, 1, -7),
                               (-1, 8, -2, 2),
                               (1, -2, 16, -4),
                               (-7, 2, -4, 32))
    assert all(type(x) is int for row in gram_matrix(1) for x in row)
    rng = random.Random(3)
    for mu in (1, -1):
        for _ in range(100):
            x = [rng.randint(-1000, 1000) for _ in range(4)]
            assert _quadratic(gram_matrix(mu), x) == 2 * norm_sq(x, mu)


def test_gram_diagonal_is_mu_independent():
    for k in range(4):
        assert gram_matrix(1)[k][k] == gram_matrix(-1)[k][k] == 2 ** (k + 2)


def test_norm_sq_examples():
    assert norm_sq(ZTau(1, 0, 0, 0), 1) == 2
    assert norm_sq(ZTau(1, 0, 0, 0), -1) == 2
    assert norm_sq(ZTau(1, 1, 0, 0), 1) == 7
    assert norm_sq(ZTau(1, 1, 0, 0), -1) == 5
    assert norm_sq(ZTau(2, 0, -1, -1), 1) == 20
    assert norm_sq(ZERO, 1) == 0


def test_norm_invariance():
    for mu in (1, -1):
        for a in [ZTau(1, 2, 3, 4), ZTau(-5, 0, 7, -1), ZTau(0, 0, 0, 1)]:
            assert norm_sq(-a, mu) == norm_sq(a, mu)
            assert norm_sq(multiply(TAU, a, mu), mu) == 2 * norm_sq(a, mu)


def test_ldl_identity_for_diagonal_form():
    diagonal = [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 8, 0], [0, 0, 0, 16]]
    assert ldl_decompose(diagonal) == (
        1, (2, 4, 8, 16), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_ldl_pivots_positive():
    for mu in (1, -1):
        m, w, n = ldl_decompose(gram_matrix(mu))
        assert m > 0 and all(x > 0 for x in w)
        assert all(n[i][i] > 0 for i in range(4))


def test_ldl_rejects_indefinite_form():
    bad = [[2, 5, 0, 0], [5, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    with pytest.raises(NotPositiveDefiniteError, match="pivot 1 is -21"):
        ldl_decompose(bad)


def test_enumeration_factors_once_per_mu(monkeypatch):
    factored = []

    def counting(matrix):
        factored.append(matrix)
        return ldl_decompose(matrix)
    monkeypatch.setattr(normform, "ldl_decompose", counting)
    normform._ldl_factors.cache_clear()
    try:
        for bound in (2, 20, 38):
            for mu in (1, -1):
                enumerate_short_vectors(mu, bound)
    finally:
        normform._ldl_factors.cache_clear()
    # one factorization per mu, of the Gram matrix with its coordinates
    # reversed (v, u, t, s), so that the enumeration's top level is s
    assert [[list(row) for row in f] for f in factored] == [
        [list(row[::-1]) for row in gram_matrix(mu)[::-1]] for mu in (1, -1)]


def test_enumeration_rejects_indefinite_form(monkeypatch):
    indefinite = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    monkeypatch.setattr(normform, "gram_matrix", lambda mu: indefinite)
    normform._ldl_factors.cache_clear()
    try:
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_short_vectors(1, 5)
    finally:
        normform._ldl_factors.cache_clear()


def test_wrong_tables_fail_before_enumerating(monkeypatch):
    # w = (1, 1, 1, 1) widens every level: unchecked, bound 20 walks
    # millions of points and returns a wrong set
    def wrong(matrix):
        m, _, n = ldl_decompose(matrix)
        return m, (1, 1, 1, 1), n
    monkeypatch.setattr(normform, "ldl_decompose", wrong)
    normform._ldl_factors.cache_clear()
    try:
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="do not give the form"):
            enumerate_short_vectors(1, 20)
        assert time.perf_counter() - start < 1
    finally:
        normform._ldl_factors.cache_clear()


def _random_definite(rng) -> list:
    """B^T B + I for a random B with small entries."""
    b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    return [[sum(r[i] * r[j] for r in b) + (i == j) for j in range(4)] for i in range(4)]


def test_ldl_reconstructs_form():
    rng = random.Random(7)
    matrices = [gram_matrix(1), gram_matrix(-1)] + [_random_definite(rng) for _ in range(50)]
    for g in matrices:
        m, w, n = ldl_decompose(g)
        assert all(type(x) is int for x in (m, *w, *(c for row in n for c in row)))
        assert all(n[i][j] == 0 for i in range(4) for j in range(i))
        assert gcd(m, *w) == 1 and all(gcd(*row) == 1 for row in n)
        for x in [(1, 0, 0, 0), (1, -2, 3, -4), (7, 7, -7, 7), (0, 5, 0, -5)]:
            y = [sum(n[i][j] * x[j] for j in range(i, 4)) for i in range(4)]
            assert sum(wi * yi * yi for wi, yi in zip(w, y)) == m * _quadratic(g, x)


def test_integer_tables_reconstruct_scaled_form():
    rng = random.Random(5)
    for mu in (1, -1):
        m, w, n = normform._ldl_factors(mu)
        assert (m, w, n) == TABLES[mu]
        assert all(type(x) is int for x in (m, *w, *(c for row in n for c in row)))
        # level order, s first: y_i = sum_{j<=i} n[i][j] * x_j
        assert all(n[i][j] == 0 for i in range(4) for j in range(i + 1, 4))
        for _ in range(500):
            x = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
            y = [sum(n[i][j] * x[j] for j in range(i + 1)) for i in range(4)]
            assert sum(wi * yi * yi for wi, yi in zip(w, y)) == m * norm_sq(x, mu)


def _det(matrix) -> int:
    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return sum(sign(p) * prod(row[k] for row, k in zip(matrix, p))
               for p in permutations(range(len(matrix))))


def _line_histogram(mu: int, bound: int) -> dict:
    """{norm: count} over all elements with norm_sq <= bound (zero included),
    solving each (t, u, v) line for s by walking out from the real minimum;
    the box is |x_j| <= sqrt(2 * bound * (G^-1)_jj) for the polar matrix G,
    since x^T G x = 2 * norm_sq(x)."""
    g = gram_matrix(mu)
    det = _det(g)
    box = []
    for j in (1, 2, 3):
        minor = [[g[r][c] for c in range(4) if c != j] for r in range(4) if r != j]
        box.append(isqrt(2 * bound * _det(minor) // det) + 1)
    hist: dict[int, int] = {}
    for t in range(-box[0], box[0] + 1):
        for u in range(-box[1], box[1] + 1):
            for v in range(-box[2], box[2] + 1):
                # norm_sq is 2s^2 + b*s + c on the line, smallest at s = -b/4
                b = mu * t + u + 7 * mu * v
                for start, step in ((-b // 4, -1), (-b // 4 + 1, 1)):
                    s = start
                    while (q := norm_sq((s, t, u, v), mu)) <= bound:
                        hist[q] = hist.get(q, 0) + 1
                        s += step
    return hist


def test_enumeration_matches_line_count():
    top = 300
    for mu in (1, -1):
        hist = _line_histogram(mu, top)
        for bound in (0, 1, 2, 3, 7, 20, 38, 64, 101, 200, 257, top):
            expected = sum(k for q, k in hist.items() if 0 < q <= bound)
            for include_zero in (False, True):
                found = enumerate_short_vectors(mu, bound, include_zero)
                keys = [(q, *e) for e, q in found.elements]
                assert all(norm_sq(e, mu) == q for e, q in found.elements)
                assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
                assert all(0 < q <= bound or (include_zero and q == 0) for q, *_ in keys)
                assert len(found) == expected + include_zero, (mu, bound, include_zero)


def test_short_vector_set_views_agree():
    # elements, len, element_set, to_csv and to_json all read the same
    # flat coordinate shells
    for mu in (1, -1):
        for include_zero in (False, True):
            found = enumerate_short_vectors(mu, 120, include_zero)
            pairs = found.elements
            assert all(type(e) is ZTau for e, _ in pairs)
            assert len(found) == len(pairs) == len(found.element_set())
            assert found.element_set() == {e for e, _ in pairs}
            assert [q for q, _ in found.shells] == sorted({q for _, q in pairs})
            rows = found.to_csv().splitlines()
            assert rows[0] == "s,t,u,v,norm_sq"
            assert rows[1:] == [f"{e.s},{e.t},{e.u},{e.v},{q}" for e, q in pairs]
            assert json.loads(found.to_json()) == [
                {"element": list(e), "norm_sq": q} for e, q in pairs]
        # the oracle's shells are built by the same code path from scan order
        assert enumerate_bruteforce_oracle(mu, 50, 8) == enumerate_short_vectors(mu, 50)


def test_shell_writers_match_per_row_rendering():
    # the one-format-per-shell writers give the bytes of a row-by-row
    # rendering, down to the empty set at bound 0
    for mu in (1, -1):
        for bound in (0, 2, 38):
            for include_zero in (False, True):
                found = enumerate_short_vectors(mu, bound, include_zero)
                pairs = found.elements
                assert found.to_json() == json.dumps(
                    [{"element": list(e), "norm_sq": q} for e, q in pairs],
                    separators=(",", ":"))
                assert found.to_text() == "".join(
                    f"{e.s},{e.t},{e.u},{e.v}  norm_sq={q}\n" for e, q in pairs
                ) + f"total: {len(pairs)}\n"
    assert enumerate_short_vectors(1, 0).to_json() == "[]"


def test_enumeration_leaves_no_cyclic_garbage():
    # Everything the enumeration allocates is freed when the call returns,
    # not at the next collection.
    gc.collect()
    gc.disable()
    try:
        for mu in (1, -1):
            enumerate_short_vectors(mu, 200)
            enumerate_short_vectors(mu, 20, include_zero=True).to_csv()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_counts():
    assert len(enumerate_short_vectors(1, 20)) == 94
    assert len(enumerate_short_vectors(-1, 20)) == 94
    assert len(enumerate_short_vectors(1, 38)) == 300
    assert len(enumerate_short_vectors(-1, 38)) == 300


def test_enumeration_smallest_shell():
    got = enumerate_short_vectors(1, 2)
    assert got.element_set() == {ZTau(1, 0, 0, 0), ZTau(-1, 0, 0, 0)}


def test_enumeration_zero_bound_and_flag():
    assert len(enumerate_short_vectors(1, 0)) == 0
    with_zero = enumerate_short_vectors(1, 0, include_zero=True)
    assert with_zero.element_set() == {ZERO}
    assert len(enumerate_short_vectors(1, 1)) == 0  # minimum nonzero norm is 2


def test_enumeration_is_sorted_and_symmetric():
    found = enumerate_short_vectors(-1, 20)
    keys = [(n, e) for e, n in found.elements]
    assert keys == sorted(keys)
    elems = found.element_set()
    assert all(-e in elems for e in elems)


def test_enumeration_matches_bruteforce():
    for mu in (1, -1):
        oracle = enumerate_bruteforce_oracle(mu, 50, 8)
        for bound in (0, 1, 2, 5, 10, 15, 20, 25, 38, 45, 50):
            fast = enumerate_short_vectors(mu, bound).element_set()
            slow = {e for e, n in oracle.elements if n <= bound}
            assert fast == slow, (mu, bound)


def test_norm_matches_root_embedding():
    # the form must agree with |alpha(w1)|^2 + |alpha(w2)|^2 for one root
    # per conjugate pair of the characteristic polynomial
    import random

    from tauadic.checks import _eval_at_root, characteristic_roots

    rng = random.Random(20)
    for mu in (1, -1):
        roots = characteristic_roots(mu)
        assert abs(roots[0].conjugate() - roots[1]) < 1e-12
        assert abs(roots[2].conjugate() - roots[3]) < 1e-12
        assert all(abs(abs(w) ** 2 - 2) < 1e-12 for w in roots)
        for _ in range(500):
            a = ZTau(*(rng.randint(-100, 100) for _ in range(4)))
            embedded = (abs(_eval_at_root(a, roots[0])) ** 2
                        + abs(_eval_at_root(a, roots[2])) ** 2)
            q = norm_sq(a, mu)
            assert abs(embedded - q) <= 1e-9 * max(1.0, q)


def _box_scan(mu, box):
    """Reference for the line-scan oracle: norm_sq of every point of
    |c_j| <= box.  Returns the least nonzero norm on the box edge and the
    interior points of each nonzero norm, in scan order."""
    rng = range(-box, box + 1)
    edge_min, shells = None, {}
    for s in rng:
        for t in rng:
            for u in rng:
                for v in rng:
                    n = norm_sq((s, t, u, v), mu)
                    if n and box in (abs(s), abs(t), abs(u), abs(v)):
                        edge_min = n if edge_min is None else min(edge_min, n)
                    elif n:
                        shells.setdefault(n, []).extend((s, t, u, v))
    return edge_min, shells


@pytest.mark.parametrize("mu", [1, -1])
def test_line_scan_oracle_matches_box_scan(mu):
    # raises exactly when a qualifying point lies on the box edge, and
    # finds the box scan's set otherwise; box 8, the property suite's,
    # leaves bounds up to 59
    for box in range(1, 9):
        edge_min, shells = _box_scan(mu, box)
        for bound in range(61):
            if edge_min <= bound:
                with pytest.raises(BoxTooSmallError):
                    enumerate_bruteforce_oracle(mu, bound, box)
                continue
            want = normform._shell_set(mu, bound, {n: list(c) for n, c in shells.items()
                                                   if n <= bound})
            assert enumerate_bruteforce_oracle(mu, bound, box) == want, (box, bound)


def test_bruteforce_box_guard():
    with pytest.raises(BoxTooSmallError):
        enumerate_bruteforce_oracle(1, 2, 1)
    with pytest.raises(ValueError):
        enumerate_bruteforce_oracle(1, 2, 0)


def test_short_vector_serialization():
    found = enumerate_short_vectors(1, 2)
    csv_text = found.to_csv()
    assert csv_text.splitlines()[0] == "s,t,u,v,norm_sq"
    assert csv_text.splitlines()[1:] == ["-1,0,0,0,2", "1,0,0,0,2"]
    obj = json.loads(found.to_json())
    assert obj == [{"element": [-1, 0, 0, 0], "norm_sq": 2},
                   {"element": [1, 0, 0, 0], "norm_sq": 2}]
