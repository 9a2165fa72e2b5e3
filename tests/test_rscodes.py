import itertools
import random

import pytest

from loceret import codeops
from loceret.galois import Field, poly_eval, poly_mul
from loceret.rscodes import (BadDimensionError, BadLVectorError,
                             BadMessageLengthError,
                             DegreeOverflowError, DuplicatePointsError,
                             DuplicatePositionsError, NoFullFibresError,
                             WrongCountError, encode, format_codeword,
                             interpolate, lrcrs_make, parse_codeword_line,
                             rs_make, suggest_p_poly)

F7 = Field(7)
F13 = Field(13)


def example_code():
    return lrcrs_make(F13, [0, 0, 0, 0, 1], [2, 2])


# ---------------------------------------------------------------------------
# RS construction
# ---------------------------------------------------------------------------

def test_dimension_one_code_is_all_constants():
    spec = rs_make(F13, [2, 5, 7], 1)
    for value in range(13):
        assert encode(spec, [value]).symbols == (value,) * 3


def test_example_fibre_rs_code_has_distance_three():
    spec = rs_make(F13, [1, 5, 8, 12], 2)
    assert codeops.min_distance(spec.code) == 3


def test_random_rs_code_is_mds():
    spec = rs_make(F13, [0, 1, 2, 4, 7, 9, 11], 3)
    assert codeops.min_distance(spec.code) == 5


def test_rs_validation_errors():
    with pytest.raises(DuplicatePointsError):
        rs_make(F13, [1, 2, 2], 2)
    with pytest.raises(BadDimensionError):
        rs_make(F13, [1, 2, 3], 0)
    with pytest.raises(BadDimensionError):
        rs_make(F13, [1, 2, 3], 4)


# ---------------------------------------------------------------------------
# fibre construction
# ---------------------------------------------------------------------------

def test_worked_example_fibres_and_parameters():
    spec = example_code()
    assert spec.fibres == ((1, (1, 5, 8, 12)),
                           (3, (2, 3, 10, 11)),
                           (9, (4, 6, 7, 9)))
    assert (spec.n, spec.k, spec.u, spec.r) == (12, 6, 3, 3)
    assert spec.delta == 9
    assert spec.goppa_lower_bound == 3
    assert spec.points == (1, 5, 8, 12, 2, 3, 10, 11, 4, 6, 7, 9)


def test_fibres_match_direct_preimage_enumeration():
    for field, p_poly, l in ((F13, (0, 0, 0, 1), (1,)),
                             (F13, (0, 0, 0, 0, 1), (2, 2)),
                             (Field(17), (0, 0, 0, 0, 1), (3, 3))):
        spec = lrcrs_make(field, p_poly, l)
        expected = {}
        for a in field.elements():
            expected.setdefault(poly_eval(field, p_poly, a), set()).add(a)
        full = {beta: members for beta, members in expected.items()
                if len(members) == spec.r + 1}
        assert {beta: set(m) for beta, m in spec.fibres} == full


def test_cubic_curve_over_f13():
    spec = lrcrs_make(F13, [0, 0, 0, 1], [1])
    assert (spec.r, spec.u, spec.n, spec.k) == (2, 4, 12, 2)


def test_no_full_fibres_for_quartic_over_f7():
    with pytest.raises(NoFullFibresError):
        lrcrs_make(F7, [0, 0, 0, 0, 1], [1, 1])


def test_degree_overflow_rejected():
    with pytest.raises(DegreeOverflowError):
        lrcrs_make(F13, [0, 0, 0, 1], [4])     # 3 * 4 = 12 >= n = 12


def test_bad_exponent_vector_rejected():
    with pytest.raises(BadLVectorError):
        lrcrs_make(F13, [0, 0, 0, 0, 1], [2, 2, 2])
    with pytest.raises(BadLVectorError):
        lrcrs_make(F13, [0, 0, 0, 0, 1], [2, -1])


def test_suggest_p_poly():
    assert suggest_p_poly(F13, 3) == (0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        suggest_p_poly(F7, 3)                  # 4 does not divide 6


def test_every_fibre_restriction_is_the_short_rs_code():
    spec = example_code()
    for block in range(spec.u):
        coords = spec.fibre_coords(block * (spec.r + 1))
        members = spec.fibres[block][1]
        assert (codeops.puncture(spec.code, coords)
                == rs_make(F13, members, spec.r - 1).code)


def test_goppa_bound_holds_on_small_curve_codes():
    spec = lrcrs_make(F13, [0, 0, 0, 1], [1])
    assert codeops.min_distance(spec.code) >= spec.goppa_lower_bound


def test_maximal_exponents_give_one_optimal_code():
    # cubic curve, l pinned to u - 1: largest dimension the construction allows
    spec = lrcrs_make(F13, [0, 0, 0, 1], [3])
    assert spec.k == (spec.r - 1) * spec.u == 4
    d = codeops.min_distance(spec.code)
    r1 = codeops.t_locality(spec.code, 1).r_t
    assert r1 == spec.r
    report = codeops.check_bounds(spec.n, spec.k, d, 1, r1)
    assert report.t_optimal


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_zero_message_encodes_to_zero():
    spec = example_code()
    assert encode(spec, [0] * 6).symbols == (0,) * 12


def test_example_codeword_restriction_to_first_fibre():
    # message with coefficient 1 on the basis monomials 1 and x*y
    spec = example_code()
    message = [0] * 6
    message[spec.basis.index((0, 0))] = 1
    message[spec.basis.index((1, 1))] = 1
    word = encode(spec, message)
    assert word.symbols[:4] == (2, 6, 9, 0)


def test_encode_matches_expanded_polynomial_evaluation():
    spec = example_code()
    rng = random.Random(61)
    for _ in range(20):
        message = [rng.randrange(13) for _ in range(6)]
        # expand sum of m * x^i * p(x)^j into one univariate polynomial
        expanded = ()
        for coeff, (i, j) in zip(message, spec.basis):
            term = (coeff,)
            term = poly_mul(F13, term, (0,) * i + (1,))
            for _ in range(j):
                term = poly_mul(F13, term, spec.p_poly)
            expanded = tuple(F13.add(a, b) for a, b in itertools.zip_longest(
                expanded, term, fillvalue=0))
        word = encode(spec, message)
        for point, symbol in zip(spec.points, word.symbols):
            assert poly_eval(F13, expanded, point) == symbol


def test_encode_message_length_checked():
    with pytest.raises(BadMessageLengthError):
        encode(example_code(), [1, 2, 3])


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_single_point_constant():
    spec = rs_make(F13, [4, 6], 1)
    assert interpolate(spec, [1], [9]) == [9]


def test_interpolate_roundtrip_after_erasures():
    rng = random.Random(67)
    for field, n, k in ((F13, 8, 3), (Field(2, 4), 12, 5), (Field(3, 2), 9, 4)):
        spec = rs_make(field, list(range(n)), k)
        for _ in range(20):
            message = [rng.randrange(field.q) for _ in range(k)]
            word = encode(spec, message)
            keep = rng.sample(range(n), k)       # in any order
            recovered = interpolate(spec, keep, [word.symbols[c] for c in keep])
            assert recovered == message
            assert encode(spec, recovered).symbols == word.symbols


def test_interpolating_a_corrupted_word_is_wrong():
    spec = rs_make(F13, list(range(8)), 3)
    message = [5, 0, 11]
    word = list(encode(spec, message).symbols)
    word[2] = F13.add(word[2], 4)
    recovered = interpolate(spec, [0, 2, 5], [word[c] for c in (0, 2, 5)])
    assert recovered != message


def test_interpolate_validation():
    spec = rs_make(F13, list(range(8)), 3)
    with pytest.raises(WrongCountError):
        interpolate(spec, [0, 1], [1, 2])
    with pytest.raises(DuplicatePositionsError):
        interpolate(spec, [0, 0, 1], [1, 2, 3])
    with pytest.raises(WrongCountError):
        interpolate(spec, [0, 1, 2], [1, 2])


# ---------------------------------------------------------------------------
# codeword files
# ---------------------------------------------------------------------------

def test_codeword_line_roundtrip():
    word = parse_codeword_line(F13, "? 6 9 0 -1")
    assert word.symbols == (0, 6, 9, 0, 12)
    assert word.erased == {0}
    assert format_codeword(word) == "? 6 9 0 12"
    again = parse_codeword_line(F13, format_codeword(word))
    assert again == word


def test_codeword_line_negative_normalization():
    word = parse_codeword_line(F13, "3 2 -2 -3")
    assert word.symbols == (3, 2, 11, 10)


def test_codeword_line_bad_token():
    with pytest.raises(ValueError):
        parse_codeword_line(F13, "1 2 x")
