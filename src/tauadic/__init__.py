"""Exact tau-adic recodings over the quartic Frobenius ring of genus-2
binary Koblitz curves: GLS and tau-NAF digit expansions, the integer norm
form, short-element enumeration, and reproduction of the reference tables.
"""

from .ring import (ZTau, ZERO, ONE, TAU, NotDivisibleError, multiply,
                   tau_divides, tau_sq_divides, quotient_by_tau,
                   evaluate_expansion, format_element, parse_element,
                   mu_from_curve_coeff, check_mu)
from .digits import (Digit, ZERO_DIGIT, TnafDigitSet, InvalidResidueError,
                     ElementDivisibleError, GLS_DIGITS, gls_digit,
                     tnaf_candidates, build_tnaf_digit_set, tnaf_digit,
                     validate_digit_set, format_digit)
from .normform import (ShortVectorSet, NotPositiveDefiniteError,
                       BoxTooSmallError, gram_matrix, norm_sq, ldl_decompose,
                       enumerate_short_vectors, enumerate_bruteforce_oracle)
from .expand import (Expansion, GuardExceededError, GLS, TNAF, expand_gls,
                     expand_tnaf, is_naf, is_gls_window_valid,
                     min_hamming_weight, enumerate_naf_words, norm_trace,
                     strip_top_zeros)

__version__ = "0.1.0"
