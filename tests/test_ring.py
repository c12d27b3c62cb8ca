import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauadic.ring import (NotDivisibleError, ONE, TAU, ZERO, ZTau,
                          evaluate_expansion, format_element, multiply,
                          mu_from_curve_coeff, parse_element, quotient_by_tau,
                          tau_divides, tau_sq_divides)

coeffs = st.integers(-10 ** 6, 10 ** 6)
elements = st.builds(ZTau, coeffs, coeffs, coeffs, coeffs)
mus = st.sampled_from([1, -1])


def test_mu_from_curve_coeff():
    assert mu_from_curve_coeff(1) == 1
    assert mu_from_curve_coeff(0) == -1
    with pytest.raises(ValueError):
        mu_from_curve_coeff(2)


def test_add():
    assert ZTau(1, 0, 0, 0) + ZTau(0, 1, 0, 0) == ZTau(1, 1, 0, 0)
    assert ZTau(1, 2, 3, 4) + ZTau(-1, -2, -3, -4) == ZERO
    assert ZTau(2, 0, -1, -1) + ZTau(-1, 0, 1, 1) == ZTau(1, 0, 0, 0)


def test_negate():
    assert -ZTau(1, 0, 0, 0) == ZTau(-1, 0, 0, 0)
    assert -ZERO == ZERO
    assert -ZTau(3, -1, 0, 1) == ZTau(-3, 1, 0, -1)


def test_tuple_operators_do_not_leak_through():
    a = ZTau(1, 2, 3, 4)
    for other in [(1, 2, 3, 4), [1, 2, 3, 4], 1]:
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
    assert ZTau.__add__(a, (1, 2, 3, 4)) is NotImplemented
    assert ZTau.__sub__(a, (1, 2, 3, 4)) is NotImplemented
    for k in [2, 0, a]:
        with pytest.raises(TypeError):
            a * k
        with pytest.raises(TypeError):
            k * a
    assert a - a == ZERO and isinstance(a + a, ZTau)


def test_multiply_tau_powers():
    # all 16 products tau^i * tau^j of basis elements, against tau^0..tau^6
    # reduced by hand with tau^4 = mu*tau^3 + 2*mu*tau - 4
    for mu in (1, -1):
        powers = [ZTau(1, 0, 0, 0), ZTau(0, 1, 0, 0), ZTau(0, 0, 1, 0),
                  ZTau(0, 0, 0, 1), ZTau(-4, 2 * mu, 0, mu),
                  ZTau(-4 * mu, -2, 2 * mu, 1), ZTau(-4, -2 * mu, -2, 3 * mu)]
        for i in range(4):
            for j in range(4):
                assert multiply(powers[i], powers[j], mu) == powers[i + j], (mu, i, j)


def test_multiply_identity():
    for a in [ZERO, ONE, TAU, ZTau(3, -7, 11, 5)]:
        for mu in (1, -1):
            assert multiply(ONE, a, mu) == a
            assert multiply(a, ONE, mu) == a


def test_multiply_rejects_bad_mu():
    with pytest.raises(ValueError):
        multiply(ONE, ONE, 0)


def test_tau_divides():
    assert tau_divides(ZTau(4, 0, 0, 0))
    assert not tau_divides(ZTau(1, 0, 0, 0))
    assert tau_divides(ZTau(0, 7, -3, 5))


def test_tau_sq_divides():
    assert tau_sq_divides(ZERO, 1)
    assert tau_sq_divides(ZTau(4, 2, 0, 0), 1)     # mu*s/2 + t = 4
    assert not tau_sq_divides(ZTau(4, 0, 0, 0), 1)  # mu*s/2 + t = 2


def test_quotient_by_tau():
    assert quotient_by_tau(ZTau(4, 0, 0, 0), 1) == ZTau(2, 0, 1, -1)
    assert quotient_by_tau(ZERO, 1) == ZERO
    # tau^4 / tau = tau^3
    assert quotient_by_tau(ZTau(-4, 2, 0, 1), 1) == ZTau(0, 0, 0, 1)
    with pytest.raises(NotDivisibleError):
        quotient_by_tau(ZTau(1, 0, 0, 0), 1)


def test_evaluate_expansion():
    assert evaluate_expansion([(1, 0)], 1) == ZTau(1, 0, 0, 0)
    assert evaluate_expansion([], 1) == ZERO
    assert evaluate_expansion([], -1) == ZERO
    # little-endian [3, 0, b, -mu, 1] is b*tau^2 + 2*mu*tau - 1 for mu=1, b=0
    word = [(3, 0), (0, 0), (0, 0), (-1, 0), (1, 0)]
    assert evaluate_expansion(word, 1) == ZTau(-1, 2, 0, 0)
    # little-endian [-2, 0, 2+tau, 0, 0, -mu] is 2*mu*tau + 2 for mu=1
    word = [(-2, 0), (0, 0), (2, 1), (0, 0), (0, 0), (-1, 0)]
    assert evaluate_expansion(word, 1) == ZTau(2, 2, 0, 0)


@pytest.mark.parametrize("digit", [3, 0, ZTau(1, 0, 0, 0), (1, 0, 0)])
def test_evaluate_expansion_takes_pairs_only(digit):
    # a digit is a (c', c'') pair; anything else raises instead of being misread
    with pytest.raises((TypeError, ValueError)):
        evaluate_expansion([(1, 0), digit], 1)


def test_element_text_round_trip():
    a = ZTau(-12, 0, 7, 100)
    assert format_element(a) == "-12,0,7,100"
    assert parse_element("-12,0,7,100") == a
    with pytest.raises(ValueError):
        parse_element("1,2,3")
    with pytest.raises(ValueError):
        parse_element("1,2,3,x")


@settings(max_examples=300)
@given(elements, elements, elements, mus)
def test_ring_axioms(a, b, c, mu):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == ZERO
    assert multiply(a, b, mu) == multiply(b, a, mu)
    assert multiply(multiply(a, b, mu), c, mu) == multiply(a, multiply(b, c, mu), mu)
    assert multiply(a, b + c, mu) == multiply(a, b, mu) + multiply(a, c, mu)


@settings(max_examples=300)
@given(elements, mus)
def test_quotient_inverts_tau_multiple(a, mu):
    ta = multiply(TAU, a, mu)
    assert tau_divides(ta)
    assert quotient_by_tau(ta, mu) == a


@settings(max_examples=300)
@given(elements, mus)
def test_tau_sq_divides_agrees_with_two_quotients(a, mu):
    expected = tau_divides(a) and tau_divides(quotient_by_tau(a, mu))
    assert tau_sq_divides(a, mu) == expected
