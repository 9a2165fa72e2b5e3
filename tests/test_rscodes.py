import copy
import itertools
import pickle
import random
import sys
import tracemalloc

import numpy as np
import pytest

from loceret import codeops, descriptor, localrepair, storagesim
from loceret.galois import Field
from loceret.rscodes import (BadDimensionError, BadLVectorError,
                             BadMessageLengthError,
                             DegreeOverflowError, DuplicatePointsError,
                             DuplicatePositionsError, NoFullFibresError,
                             WrongCountError, encode, interpolate,
                             lrcrs_make, parse_codeword_line, rs_make,
                             suggest_p_poly)
from test_galois import poly_eval

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
    for points in ([13, 2, 3], [1, -1, 3], [1, 2, 3.0], [True, 2, 3]):
        with pytest.raises(ValueError, match="is not a canonical element"):
            rs_make(F13, points, 2)


@pytest.mark.parametrize("field", [F13, Field(2, 8), Field(3, 5)], ids=repr)
def test_rs_eval_rows_are_the_monomials_as_python_ints(field):
    points = random.Random(field.q).sample(range(field.q), 12)
    spec = rs_make(field, points, 5)
    assert spec.eval_rows == tuple(tuple(field.pow(a, j) for a in points)
                                   for j in range(5))
    assert all(type(x) is int for row in spec.eval_rows for x in row)


@pytest.mark.parametrize("k", [True, False, 2.0, "2", None], ids=repr)
def test_rs_make_refuses_a_k_that_is_not_an_integer(k):
    with pytest.raises(BadDimensionError, match=r"^k must lie in \[1, 8\], got "):
        rs_make(F13, range(8), k)
    assert rs_make(F13, range(8), 1).k == 1


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


# prime fields, the [255,15] GF(2^8) store code, an odd-p extension, and a
# field above 2^16 elements (x^3 has no full fibres there: 3 does not divide
# 2^17 - 1, so the curve is y = x^3 + x)
FIBRE_CASES = ((F13, (0, 0, 0, 1), (1,)),
               (F13, (0, 0, 0, 0, 1), (2, 2)),
               (Field(17), (0, 0, 0, 0, 1), (3, 3)),
               (Field(3, 5), (0, 0, 2, 0, 1), (1, 1)),
               (Field(2, 8), (0, 0, 0, 0, 0, 1), (4, 4, 4)),
               (Field(2, 17), (0, 1, 0, 1), (1,)))


def test_fibres_match_direct_preimage_enumeration():
    # the scalar Horner evaluation, one poly_eval per element, against the
    # construction's array pass
    for field, p_poly, l in FIBRE_CASES:
        spec = lrcrs_make(field, p_poly, l)
        expected = {}
        for a in field.elements():
            expected.setdefault(poly_eval(field, p_poly, a), set()).add(a)
        full = {beta: members for beta, members in expected.items()
                if len(members) == spec.r + 1}
        assert {beta: set(m) for beta, m in spec.fibres} == full
        assert [beta for beta, _ in spec.fibres] == sorted(full)
        assert spec.points == tuple(a for _, m in spec.fibres for a in sorted(m))
        # each point object is held once, by points, and the fibres slice it
        # (GF(2^17) points above 256 are not interned)
        assert all(a is b for a, b in
                   zip((a for _, m in spec.fibres for a in m), spec.points))


@pytest.mark.parametrize("field, p_poly, l", FIBRE_CASES,
                         ids=[f"{f!r}-{list(p)}" for f, p, _ in FIBRE_CASES])
def test_eval_rows_match_the_scalar_monomials(field, p_poly, l):
    # x^i y^j through the checked scalar operations at a sample of points,
    # the first and last among them
    spec = lrcrs_make(field, p_poly, l)
    betas = [beta for beta, members in spec.fibres for _ in members]
    rng = random.Random(spec.n)
    coords = {0, spec.n - 1, *rng.sample(range(spec.n), min(spec.n, 60))}
    for row, (i, j) in zip(spec.eval_rows, spec.basis):
        for c in coords:
            a, b = spec.points[c], betas[c]
            assert row[c] == field.mul(field.pow(a, i), field.pow(b, j))
            assert type(row[c]) is int


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


@pytest.mark.parametrize("l", [[True, 2], [2, False], [2.0, 2], [2, "2"]],
                         ids=repr)
def test_lrcrs_make_refuses_exponent_bounds_that_are_not_integers(l):
    with pytest.raises(BadLVectorError, match="^l: need 2 nonnegative integer"):
        lrcrs_make(F13, [0, 0, 0, 0, 1], l)
    spec = lrcrs_make(F13, [0, 0, 0, 0, 1], [1, 2])
    assert (spec.n, spec.k) == (12, 5)


def test_suggest_p_poly():
    assert suggest_p_poly(F13, 3) == (0, 0, 0, 0, 1)
    for r in (True, 1.0):
        with pytest.raises(ValueError, match=f"^r must be an integer, got {r!r}$"):
            suggest_p_poly(F13, r)
    with pytest.raises(ValueError):
        suggest_p_poly(F7, 3)                  # 4 does not divide 6


def test_every_fibre_restriction_is_the_short_rs_code():
    spec = example_code()
    for block in range(spec.u):
        coords = spec.fibre_coords(block * (spec.r + 1))
        members = spec.fibres[block][1]
        assert (codeops.puncture(spec.code, coords)
                == rs_make(F13, members, spec.r - 1).code)


def test_fibre_coords_refuses_a_bool_or_float_coordinate():
    # True == 1 as an int, so it used to give coordinate 1's fibre
    spec = example_code()
    for coord in (True, 2.0, -1, spec.n):
        with pytest.raises(codeops.IndexOutOfRangeError, match="^target "):
            spec.fibre_coords(coord)


def test_distance_bound_of_each_spec():
    assert rs_make(F13, range(13), 9).distance_bound == (5, "mds_formula")
    spec = lrcrs_make(Field(17), [0, 0, 0, 0, 1], [3, 2])
    assert spec.distance_bound == (spec.goppa_lower_bound, "goppa_lower_bound")
    assert spec.goppa_lower_bound == 4


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
        # expand sum of m * x^i * p(x)^j into one univariate polynomial;
        # GF(13) is prime, so integer convolution mod 13 multiplies
        expanded = ()
        for coeff, (i, j) in zip(message, spec.basis):
            term = (0,) * i + (coeff,)
            for _ in range(j):
                term = tuple(int(c) for c in np.convolve(term, spec.p_poly) % 13)
            expanded = tuple(F13.add(a, b) for a, b in itertools.zip_longest(
                expanded, term, fillvalue=0))
        word = encode(spec, message)
        for point, symbol in zip(spec.points, word.symbols):
            assert poly_eval(F13, expanded, point) == symbol


def test_encode_message_length_checked():
    with pytest.raises(BadMessageLengthError):
        encode(example_code(), [1, 2, 3])


def oracle_encode(spec, message):
    """The scalar encoder that Field.dot_array replaced, kept as an oracle:
    one checked field.mul/field.add per (message symbol, coordinate)."""
    field = spec.field
    out = [0] * len(spec.points)
    for coeff, row in zip(message, spec.eval_rows):
        if coeff == 0:
            continue
        out = [field.add(o, field.mul(coeff, v)) for o, v in zip(out, row)]
    return tuple(out)


GF256 = Field(2, 8)
ENCODE_SPECS = (
    ("GF(13) [12,6] fibre code", lambda: example_code()),
    ("RS[4,2]/GF(4)", lambda: rs_make(Field(2, 2), list(range(4)), 2)),
    ("RS[16,7]/GF(16)", lambda: rs_make(Field(2, 4), list(range(16)), 7)),
    ("GF(2^8) [255,15] fibre code",
     lambda: lrcrs_make(GF256, [0, 0, 0, 0, 0, 1], [4, 4, 4])),
    ("RS[256,16]/GF(2^8)", lambda: rs_make(GF256, list(range(256)), 16)),
    ("RS[40,7]/GF(3^5)", lambda: rs_make(Field(3, 5), list(range(40)), 7)),
    ("RS[20,5]/GF(2^17)",
     lambda: rs_make(Field(2, 17), list(range(1, 21)), 5)),
    ("RS[20,5]/GF(3^11)",
     lambda: rs_make(Field(3, 11), list(range(20)), 5)),
)


@pytest.mark.parametrize("make", [make for _, make in ENCODE_SPECS],
                         ids=[name for name, _ in ENCODE_SPECS])
def test_encode_matches_the_scalar_oracle(make):
    spec = make()
    q, k = spec.field.q, spec.k
    rng = random.Random(71)
    messages = [[0] * k, [1] + [0] * (k - 1), [0] * (k - 1) + [q - 1]]
    for _ in range(6):
        message = [rng.randrange(q) for _ in range(k)]
        message[rng.randrange(k)] = 0              # a zero symbol somewhere
        messages.append(message)
    for message in messages:
        symbols = encode(spec, message).symbols
        assert symbols == oracle_encode(spec, message)
        assert all(type(s) is int for s in symbols)


def test_encode_rejects_a_non_canonical_symbol():
    with pytest.raises(ValueError):
        encode(example_code(), [13, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        encode(example_code(), [0, 0, -1, 0, 0, 0])
    with pytest.raises(ValueError, match="^True is not a canonical element"):
        encode(example_code(), [True, 0, 0, 0, 0, 0])


def test_generator_is_one_read_only_array_outside_equality():
    spec = example_code()
    gen = spec.generator
    assert gen is spec.generator                   # built once per spec
    assert gen.dtype == np.int64 and gen.shape == (spec.n, spec.k)
    assert gen.tolist() == [list(col) for col in zip(*spec.eval_rows)]
    with pytest.raises(ValueError):
        gen[0, 0] = 1
    fresh = example_code()
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh) and "generator" not in repr(spec)


def test_simulator_encodes_with_the_spec_generator():
    bundle = descriptor.build_code({
        "field": {"p": 13, "m": 1}, "construction": "lrcrs",
        "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]})
    assert storagesim._CodeArrays(bundle, 1).columns is bundle.spec.generator


@pytest.mark.parametrize("desc", [
    {"field": {"p": 2, "m": 8}, "construction": "lrcrs",
     "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]},
    {"field": {"p": 3, "m": 2}, "construction": "rs", "points": "all", "k": 3},
], ids=["GF(2^8) fibre code", "RS[9,3]/GF(9)"])
def test_encode_builds_one_product_table_per_spec(desc):
    # GF(2^8) packs its products into rows, one per (message position,
    # symbol); the odd-p GF(9) encodes with its generator
    bundle = descriptor.build_code(desc)
    spec, q = bundle.spec, bundle.field.q
    rows = spec.encoding
    assert rows is spec.encoding                   # built once per spec
    encode(spec, [1] * spec.k)
    assert spec.encoding is rows
    if bundle.field.p != 2:
        assert rows is spec.generator
        return
    assert type(rows) is tuple and len(rows) == spec.k * q   # immutable
    # byte c of row j*q + s, little-endian, is s * G[c, j]
    for j, c, s in ((0, 0, 0), (spec.k - 1, spec.n - 1, q - 1), (1, 2, 5),
                    (spec.k - 1, 0, 1)):
        byte = rows[j * q + s] >> 8 * c & 0xFF
        assert byte == bundle.field.mul(s, spec.eval_rows[j][c])
    assert all(row.bit_length() <= 8 * spec.n for row in rows)


def test_prime_and_large_fields_encode_with_the_generator_itself():
    for spec in (example_code(),
                 rs_make(Field(2, 9), list(range(20)), 4)):
        assert spec.encoding is spec.generator


def test_building_the_rs256_table_peaks_below_twice_its_size():
    spec = rs_make(GF256, list(range(256)), 16)
    spec.generator
    tracemalloc.start()
    try:
        rows = spec.encoding
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    assert len(rows) == 16 * 256 and size > 1 << 20
    assert peak < 2 * size


@pytest.mark.parametrize("desc", [
    {"field": {"p": 13}, "construction": "lrcrs",
     "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]},
    {"field": {"p": 2, "m": 4}, "construction": "rs", "points": "all", "k": 5},
], ids=["LrcRsSpec/GF(13)", "RsSpec/GF(16)"])
def test_codes_specs_and_bundles_survive_pickle_and_copies(desc):
    bundle = descriptor.build_code(desc)
    message = list(range(1, bundle.spec.k + 1))
    for encoded_first in (False, True):
        if encoded_first:
            word = encode(bundle.spec, message)
        for obj in (bundle.code, bundle.spec, bundle):
            for copied in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                           copy.deepcopy(obj)):
                assert copied == obj
        spec = pickle.loads(pickle.dumps(bundle)).spec
        # the copy rebuilds its cached generator, read-only like the
        # original's, its encoding and its code, on first use
        assert "encoding" not in spec.__dict__
        assert "code" not in spec.__dict__
        assert encode(spec, message) == encode(bundle.spec, message)
        assert not spec.generator.flags.writeable
        if bundle.field.p == 2:                    # RsSpec/GF(16): packed rows
            assert type(spec.encoding) is tuple
            assert spec.encoding == bundle.spec.encoding
        else:
            assert spec.encoding is spec.generator
    assert encode(copy.deepcopy(bundle.spec), message) == word


def corpus_specs():
    """Every RS and piecewise-RS spec of the test corpus: RS17_CASES over
    GF(17); the lemma corpus's (field, n, k) as RS codes on the points
    0..n-1 wherever the field has n elements; FIBRE_CASES, which hold the
    worked example and the [255,15]/GF(2^8) store code; RS[256,16]/GF(2^8);
    and the piecewise-RS code of dimension 0 over GF(9)."""
    from test_acceptance import lemma_corpus
    from test_codeops import RS17_CASES
    F17 = Field(17)
    for n, k in RS17_CASES:
        yield rs_make(F17, random.Random(n * 100 + k).sample(range(17), n), k)
    for code, _ in lemma_corpus():
        if code.n <= code.field.q:
            yield rs_make(code.field, range(code.n), code.k)
    for field, p_poly, l in FIBRE_CASES:
        yield lrcrs_make(field, p_poly, l)
    yield rs_make(GF256, range(256), 16)
    yield lrcrs_make(Field(3, 2), [0, 0, 1], [])


def test_every_corpus_spec_spans_its_k_and_builds_its_code_once(monkeypatch):
    # the construction fixes k, so neither rs_make nor lrcrs_make reduces
    # its rows; this is the check they no longer make
    specs = list(corpus_specs())
    assert len(specs) > 100 and "code" not in specs[0].__dict__
    calls = []
    build = codeops.code_from_rows
    monkeypatch.setattr(codeops, "code_from_rows",
                        lambda *args: calls.append(args) or build(*args))
    assert any(spec.k == 0 for spec in specs)
    for spec in specs:
        code = build(spec.field, spec.eval_rows, spec.n)
        assert code.k == spec.k, (spec.field, spec.n, spec.k)
        assert spec.code == code and spec.code is spec.code
        assert calls == [(spec.field, spec.eval_rows, spec.n)]
        calls.clear()


SIM_RS14 = {"field": {"p": 17}, "construction": "rs",
            "points": list(range(14)), "k": 6}
SIM_FIBRE = {"field": {"p": 13}, "construction": "lrcrs",
             "p_poly": [0, 0, 0, 0, 1], "l": [2, 2]}


def test_specs_encode_plan_repair_and_simulate_without_reducing(monkeypatch):
    # only certify and the plan_linear fallbacks read a spec's LinearCode
    def refuse(*args):
        raise AssertionError("code_from_rows called")

    configs = [storagesim.ClusterConfig(code=desc, t=1, trials=500, seed=2018,
                                        channel=storagesim.ExactErrors(e))
               for desc in (SIM_FIBRE, SIM_RS14) for e in (1, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(codeops, "code_from_rows", refuse)
        patch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
        bundles = [descriptor.build_code(d) for d in (SIM_FIBRE, SIM_RS14)]
        for bundle in bundles:
            spec = bundle.spec
            word = encode(spec, list(range(1, spec.k + 1))).symbols
            for t in range(spec.t_cap + 1):
                for target in range(spec.n):
                    plan = localrepair.plan_for(bundle, target, t)
                    values = [word[c] for c in plan.helpers]
                    assert localrepair.repair(plan, values).value == word[target]
        reports = [storagesim.run_sim(config) for config in configs]
        assert all("code" not in bundle.spec.__dict__ for bundle in bundles)
    with monkeypatch.context() as patch:
        patch.setattr(storagesim, "_plan_cache", localrepair.PlanCache())
        assert [storagesim.run_sim(config) for config in configs] == reports
    for bundle in bundles:
        spec = bundle.spec
        built = codeops.code_from_rows(spec.field, spec.eval_rows, spec.n)
        assert bundle.code == built and bundle.code is spec.code
        assert (codeops.certify(bundle.code, 1, spec).to_dict()
                == codeops.certify(built, 1, spec).to_dict())
    cert = codeops.certify(bundles[0].code, 1, bundles[0].spec)
    assert (cert.distance, cert.locality.r_t, cert.t_optimal) == (3, 3, True)


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


def test_interpolate_refuses_dependent_positions_of_a_piecewise_rs_code():
    # positions 0..5 hold all four points of fibre 0, where every codeword
    # is an RS word of dimension 2, so their columns have rank 4 < 6
    spec = example_code()
    word = encode(spec, [3, 1, 4, 1, 5, 9]).symbols
    for values in (word[:6], [1, 2, 3, 4, 5, 6]):
        with pytest.raises(ValueError, match=r"positions \[0, 1, 2, 3, 4, 5\] "
                                             r"are dependent"):
            interpolate(spec, range(6), values)


def test_interpolate_recovers_the_message_on_an_information_set():
    spec = example_code()
    info = spec.code.pivots
    assert len(info) == spec.k
    rng = random.Random(2018)
    for _ in range(20):
        message = [rng.randrange(13) for _ in range(spec.k)]
        word = encode(spec, message).symbols
        for positions in (info, info[::-1]):
            values = [word[c] for c in positions]
            assert interpolate(spec, positions, values) == message


def test_interpolate_validation():
    spec = rs_make(F13, list(range(8)), 3)
    with pytest.raises(WrongCountError):
        interpolate(spec, [0, 1], [1, 2])
    with pytest.raises(DuplicatePositionsError):
        interpolate(spec, [0, 0, 1], [1, 2, 3])
    with pytest.raises(WrongCountError):
        interpolate(spec, [0, 1, 2], [1, 2])
    for values in ([1, 13, 3], [1, 2, -1], [1.0, 2, 3], [True, 2, 3]):
        with pytest.raises(ValueError, match="is not a canonical element"):
            interpolate(spec, [0, 1, 2], values)


@pytest.mark.parametrize("positions", [[True, 2, 3], [0, False, 3],
                                       [0, 1, 2.0], [0, 1, 8], [-1, 1, 2]])
def test_interpolate_refuses_positions_that_are_not_coordinates(positions):
    # the coordinate rule of codeops._checked_helpers: True is not coordinate 1
    spec = rs_make(F13, list(range(8)), 3)
    with pytest.raises(codeops.IndexOutOfRangeError):
        interpolate(spec, positions, [1, 2, 3])


# ---------------------------------------------------------------------------
# codeword files
# ---------------------------------------------------------------------------

def format_codeword(word) -> str:
    """The inverse of parse_codeword_line on canonical symbols."""
    return " ".join("?" if idx in word.erased else str(sym)
                    for idx, sym in enumerate(word.symbols))


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
