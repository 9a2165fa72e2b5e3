import copy
import itertools
import pickle
import random
import time
from functools import reduce

import numpy as np
import pytest

from loceret import codeops, descriptor, galois, rscodes, storagesim
from loceret.galois import (CountingField, DivisionByZeroError, Field,
                            FieldTooLargeError, NotIrreducibleError,
                            NotPrimeError, find_irreducible, is_prime)

AES_MODULUS = (1, 1, 0, 1, 1, 0, 0, 0, 1)     # 1 + x + x^3 + x^4 + x^8

SMALL_FIELDS = [Field(2), Field(3), Field(13), Field(2, 2), Field(2, 3),
                Field(3, 2), Field(5, 2), Field(2, 8)]


# Polynomials over a field as coefficient tuples (lowest degree first, no
# trailing zeros; the zero polynomial is () with degree -inf): test-only
# oracles.  poly_eval is the scalar oracle of the array evaluations in
# rscodes, and must map sums and products to sums and products of values.

def poly_eval(field, coeffs, x: int) -> int:
    """Horner evaluation of a coefficient sequence at x: the coefficients
    and x are checked once, and the loop runs on the field's kernels."""
    field._check_all((*coeffs, x))
    add, mul = field._add, field._mul
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


def poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(coeffs):
    c = poly_trim(coeffs)
    return len(c) - 1 if c else float("-inf")


def poly_add(field, f, g):
    out = []
    for i in range(max(len(f), len(g))):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(field.add(a, b))
    return poly_trim(out)


def poly_mul(field, f, g):
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return poly_trim(out)


def gf2_poly_mul(a, b):
    # independent reference product of GF(2) coefficient tuples
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return tuple(out)


def test_f13_has_13_elements():
    f = Field(13)
    assert f.q == 13
    assert list(f.elements()) == list(range(13))


def test_fields_survive_pickle_and_deepcopy():
    # GF(2^17) and GF(3^11) index their tables through memoryviews, which
    # do not pickle: a field pickles by its parameters, and the copy builds
    # its kernels, closures set on the field, again
    def kernel_results(field, a, b):
        rows = b.tolist()
        field._clear_column(a[0].tolist(), 0, rows)
        return (field.mul_array(a, b).tolist(), field.add_array(a, b).tolist(),
                field.dot_array(a, b).tolist(),
                field.sum_array(a, axis=0).tolist(),
                field._reader((), a[0].tolist())(b[0].tolist()), rows)

    for field in (Field(13), Field(2, 8), Field(3, 2), Field(2, 17), Field(3, 11)):
        rng = np.random.default_rng(field.q)
        a, b = rng.integers(0, field.q, size=(2, 4, 6))
        a[0, 0] = rng.integers(1, field.q)          # the row operation's pivot
        want = kernel_results(field, a, b)
        assert all(row[0] == 0 for row in want[-1])
        for copied in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
            assert copied == field
            assert copied.mul(5, 7) == field.mul(5, 7)
            assert kernel_results(copied, a, b) == want


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        Field(4)


def test_gf256_aes_modulus_is_irreducible_by_exhaustive_factor_search():
    # no pair of nontrivial monic GF(2) factors multiplies to the modulus
    candidates = []
    for d in range(1, 8):
        for bits in range(1 << d):
            candidates.append(tuple((bits >> j) & 1 for j in range(d)) + (1,))
    products = set()
    for f in candidates:
        for g in candidates:
            if len(f) + len(g) - 2 == 8:
                products.add(gf2_poly_mul(f, g))
    assert AES_MODULUS not in products
    field = Field(2, 8, AES_MODULUS)
    assert field.q == 256


def test_reducible_modulus_rejected():
    with pytest.raises(NotIrreducibleError):
        Field(2, 2, (1, 0, 1))          # 1 + x^2 = (1 + x)^2


@pytest.mark.parametrize("p, modulus, bad", [
    (2, [True, True, True], "True"), (2, [1.0, 1, 1], "1.0"),
    (3, [1, 0, "1"], "'1'")])
def test_modulus_coefficients_must_be_integers(p, modulus, bad):
    with pytest.raises(ValueError,
                       match=f"modulus coefficient must be an integer, got {bad}"):
        Field(p, 2, modulus)


def test_field_too_large():
    with pytest.raises(FieldTooLargeError):
        Field(2, 21)


@pytest.mark.parametrize("p, m", [(2305843009213693951, 1), (3, 20000000)])
def test_oversized_fields_fail_fast_naming_the_cap(p, m):
    # trial division of the prime 2^61 - 1 and the millions of digits of
    # 3^20000000 would each take far longer than the bound
    start = time.perf_counter()
    with pytest.raises(FieldTooLargeError, match=r"exceeds the cap 1048576$") as err:
        Field(p, m)
    assert time.perf_counter() - start < 0.5
    assert len(str(err.value)) < 80


def test_the_order_cap_is_inclusive_and_checked_after_primality():
    assert Field(2, 20).q == 1 << 20
    with pytest.raises(FieldTooLargeError):
        Field(2, 21)
    with pytest.raises(NotPrimeError):
        Field(4)


def test_inverse_of_three_mod_13():
    assert Field(13).inv(3) == 9


def test_division_by_zero():
    f = Field(13)
    with pytest.raises(DivisionByZeroError):
        f.inv(0)
    with pytest.raises(DivisionByZeroError):
        f.div(5, 0)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_additive_and_multiplicative_inverses_exhaustive(field):
    for a in field.elements():
        assert field.add(a, field.neg(a)) == 0
        assert field.add(a, 0) == a
        if a != 0:
            assert field.mul(a, field.inv(a)) == 1
            assert field.mul(a, 1) == a


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_power_of_group_order_is_one(field):
    for a in field.nonzero_elements():
        assert field.pow(a, field.q - 1) == 1


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_product_of_all_nonzero_elements_is_minus_one(field):
    prod = reduce(field.mul, field.nonzero_elements(), 1)
    assert prod == field.neg(1)


@pytest.mark.parametrize("field", [Field(5), Field(7), Field(3, 2)], ids=repr)
def test_field_axioms_on_random_triples(field):
    rng = random.Random(9)
    for _ in range(200):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        assert field.sub(field.add(a, b), b) == a
        if b != 0:
            assert field.mul(field.div(a, b), b) == a


def test_pow_edge_cases():
    f = Field(13)
    assert f.pow(5, 0) == 1
    assert f.pow(0, 3) == 0
    assert f.pow(5, -1) == f.inv(5)
    assert f.pow(2, 12 * 5 + 3) == f.pow(2, 3)


def test_poly_eval_worked_example_values():
    f = Field(13)
    assert poly_eval(f, (1, 1), 5) == 6          # 1 + x at 5
    assert poly_eval(f, (), 7) == 0              # zero polynomial
    assert poly_eval(f, (0, 0, 0, 0, 1), 5) == 1  # x^4 at 5


def test_poly_eval_matches_naive_monomial_sum():
    rng = random.Random(4)
    for field in (Field(13), Field(2, 4)):
        for _ in range(50):
            coeffs = [rng.randrange(field.q) for _ in range(rng.randrange(8))]
            x = rng.randrange(field.q)
            expected = 0
            for j, c in enumerate(coeffs):
                expected = field.add(expected, field.mul(c, field.pow(x, j)))
            assert poly_eval(field, coeffs, x) == expected


def test_poly_arithmetic_and_degree():
    f = Field(13)
    assert poly_degree(()) == float("-inf")
    assert poly_degree((0, 0)) == float("-inf")
    assert poly_degree((4, 0, 2)) == 2
    assert poly_trim((1, 2, 0)) == (1, 2)
    assert poly_add(f, (1, 2), (12, 11)) == ()
    prod = poly_mul(f, (1, 1), (12, 1))          # (1+x)(−1+x) = −1 + x^2
    assert prod == (12, 0, 1)
    rng = random.Random(8)
    for field in (f, Field(2, 4), Field(3, 2)):
        for _ in range(30):
            a, b = ([rng.randrange(field.q) for _ in range(rng.randrange(5))]
                    for _ in range(2))
            x = rng.randrange(field.q)
            fa, fb = poly_eval(field, a, x), poly_eval(field, b, x)
            assert poly_eval(field, poly_add(field, a, b), x) == field.add(fa, fb)
            assert poly_eval(field, poly_mul(field, a, b), x) == field.mul(fa, fb)
            assert poly_degree(poly_mul(field, a, b)) == \
                poly_degree(a) + poly_degree(b)


def test_default_modulus_is_deterministic_and_smallest():
    assert Field(2, 2).modulus == (1, 1, 1)
    assert Field(2, 3).modulus == (1, 1, 0, 1)
    assert Field(2, 8).modulus == AES_MODULUS
    assert find_irreducible(3, 2) == Field(3, 2).modulus


def test_modulus_only_for_extensions():
    with pytest.raises(ValueError):
        Field(13, 1, (1, 1))


def test_normalize_signed_values():
    f13 = Field(13)
    assert f13.normalize(-1) == 12
    assert f13.normalize(-5) == 8
    assert f13.normalize(-17) == 9
    assert f13.normalize(15) == 2
    gf256 = Field(2, 8)
    assert gf256.normalize(-5) == 5              # characteristic 2: -a = a
    with pytest.raises(ValueError):
        gf256.normalize(300)


def test_canonical_encoding_is_validated():
    f = Field(13)
    with pytest.raises(ValueError):
        f.add(13, 0)
    with pytest.raises(ValueError):
        f.mul(-1, 2)


# one field per scalar-kernel path (prime, GF(2^m), odd-p extension), with
# the extension fields on both sides of 2^16 elements, where the scalar
# kernels switch from lists of the tables to memoryviews of them
KIND_FIELDS = [Field(13), Field(2, 8), Field(3, 5), Field(2, 17), Field(3, 11)]
# the largest field the cap allows, built once
GF2_20 = Field(2, 20)


@pytest.mark.parametrize("field", KIND_FIELDS, ids=repr)
def test_every_public_op_checks_its_operands(field):
    ops = [lambda x: field.add(x, 1), lambda x: field.add(1, x),
           lambda x: field.sub(x, 1), lambda x: field.sub(1, x),
           field.neg,
           lambda x: field.mul(x, 1), lambda x: field.mul(1, x),
           field.inv, lambda x: field.pow(x, 2),
           lambda x: field.div(x, 1), lambda x: field.div(1, x),
           lambda x: poly_eval(field, (1, x), 1),
           lambda x: poly_eval(field, (1, 1), x)]
    for op in ops:
        for bad in (field.q, -1, 1.0, True):
            with pytest.raises(ValueError):
                op(bad)
    with pytest.raises(DivisionByZeroError):
        field.inv(0)
    with pytest.raises(DivisionByZeroError):
        field.pow(0, -1)
    with pytest.raises(ValueError):
        field.pow(2, 1.0)
    for bad_call in (lambda: field.pow(2, True), lambda: field.normalize(True),
                     lambda: Field(field.p, True)):
        with pytest.raises(ValueError, match="True"):
            bad_call()


# one field per read-kernel path: prime, product table (GF(2), GF(16),
# GF(2^8)), odd-p extension, GF(2^m) past the table
@pytest.mark.parametrize("field", KIND_FIELDS + [Field(2), Field(2, 4)], ids=repr)
def test_read_kernel_takes_every_row_in_order(field):
    # None when some check row meets the values in a nonzero inner product,
    # else the recovery row's; a zeroed first row leaves the verdict to rows
    # 2..t, and t = 0 returns the recovery row's value, zero or not
    def dot(xs, ys):
        return reduce(field.add, map(field.mul, xs, ys), 0)

    rng = random.Random(field.q + 7)
    edges = [0, 1, field.q - 1]

    def symbols(r):
        return [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(field.q)
                for _ in range(r)]

    verdicts = set()
    for r in (0, 1, 5, 17):
        for t in range(4):
            for case in range(12):
                values, recovery = symbols(r), symbols(r)
                rows = [symbols(r) for _ in range(t)]
                if rows and case % 3 == 1:
                    rows[0] = [0] * r
                elif case % 3 == 2:
                    rows = [[0] * r for _ in rows]
                flagged = [bool(dot(row, values)) for row in rows]
                want = None if any(flagged) else dot(recovery, values)
                got = field._reader(tuple(map(tuple, rows)), tuple(recovery))(values)
                assert got == want and type(got) in (int, type(None))
                verdicts.add((t, flagged.index(True) if any(flagged) else None,
                              bool(want)))
    # every verdict the kernel's branches give was reached
    assert {(0, None, True), (1, 0, False), (2, 1, False), (3, 1, False),
            (3, None, True)} <= verdicts


def test_one_integer_rule_lives_in_galois():
    # the rule (an int, not a bool) is galois's; no module keeps a copy
    for module in (codeops, rscodes, storagesim, descriptor):
        assert module._is_int is galois._is_int
    assert codeops._checked_int is galois._checked_int


def ref_digits(field, a):
    return [a // field.p ** j % field.p for j in range(field.m)]


def ref_undigits(field, digits):
    return sum(d * field.p ** j for j, d in enumerate(digits))


def ref_add(field, a, b):
    return ref_undigits(field, [(x + y) % field.p for x, y in
                                zip(ref_digits(field, a), ref_digits(field, b))])


def ref_neg(field, a):
    return ref_undigits(field, [-x % field.p for x in ref_digits(field, a)])


def ref_mul(field, a, b):
    """Schoolbook product of the digit polynomials, reduced by the monic
    modulus from the top degree down: independent of the field's tables."""
    p, m = field.p, field.m
    if m == 1:
        return a * b % p
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(ref_digits(field, a)):
        for j, y in enumerate(ref_digits(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * m - 2, m - 1, -1):
        f = prod[top]
        for j, c in enumerate(field.modulus):
            prod[top - m + j] = (prod[top - m + j] - f * c) % p
    return ref_undigits(field, prod[:m])


@pytest.mark.parametrize("field", KIND_FIELDS + [GF2_20], ids=repr)
def test_scalar_kernels_match_the_reference_arithmetic(field):
    rng = random.Random(field.q + 2)
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(150)]
    pairs += [(0, 0), (0, 1), (1, 0), (field.q - 1, field.q - 1), (1, field.q - 1)]
    for a, b in pairs:
        assert field._add(a, b) == ref_add(field, a, b)
        assert field._mul(a, b) == ref_mul(field, a, b)
        assert field._add(field._sub(a, b), b) == a
        assert field._add(a, field._neg(a)) == 0
        assert field._sub(a, b) == field._add(a, field._neg(b))
        if a:
            assert field._mul(a, field._inv(a)) == 1
        power = 1
        for e in range(6):
            assert field._pow(a, e) == power
            power = ref_mul(field, power, a)
        assert field._pow(b, field.q - 1) == (1 if b else 0)


@pytest.mark.parametrize("field", [Field(2, 2), Field(3, 2)] + KIND_FIELDS[1:]
                         + [GF2_20], ids=repr)
def test_every_extension_field_has_one_table_layout(field):
    # exp: the powers g^0 .. g^(n-1) of one generator, each nonzero element
    # once, repeated at n .. 2n-1, then a zero tail to 4n; log(0) = 2n
    n = field.q - 1
    exp, log = field._exp_arr, field._log_arr
    assert exp.shape == (4 * n + 1,) and log.shape == (field.q,)
    assert np.array_equal(np.sort(exp[:n]), np.arange(1, field.q))
    assert np.array_equal(exp[n:2 * n], exp[:n])
    assert not exp[2 * n:].any()
    assert np.array_equal(log[exp[:n]], np.arange(n)) and log[0] == 2 * n
    g = int(exp[1])
    steps = random.Random(field.q).sample(range(1, n), min(n - 1, 20))
    for i in steps:
        assert ref_mul(field, int(exp[i - 1]), g) == exp[i]
    # the scalar kernels read the same tables: lists up to 2^16 elements,
    # memoryviews above
    assert (type(field._exp) is list) == (field.q <= 1 << 16)
    assert list(field._exp[:2 * n + 3]) == exp[:2 * n + 3].tolist()
    # odd p: Zech's logarithm, read at log b - log a + 2n: the offset itself
    # below n (a = 0), log(1 + g^i) for offset i between n and 3n (log(0) =
    # 2n where 1 + g^i = 0), 0 above 3n (b = 0); p = 2 needs none
    if field.p == 2:
        assert not hasattr(field, "_zech_arr")
        return
    zech = field._zech_arr
    assert zech.shape == (4 * n + 1,)
    assert np.array_equal(zech[:n], np.arange(-2 * n, -n))
    assert not zech[3 * n + 1:].any()
    offsets = random.Random(n).sample(range(-n + 1, n), min(2 * n - 1, 40))
    for i in offsets + [0, n // 2]:
        one_plus = ref_add(field, 1, int(exp[i % n]))
        assert zech[i + 2 * n] == log[one_plus]
    assert zech[n // 2 + 2 * n] == 2 * n             # 1 + g^(n/2) = 1 - 1
    assert list(field._zech[:2 * n + 3]) == zech[:2 * n + 3].tolist()


def test_field_equality_and_hash():
    assert Field(13) == Field(13)
    assert Field(2, 8) == Field(2, 8, AES_MODULUS)
    assert Field(2, 8) != Field(2, 4)
    assert hash(Field(13)) == hash(Field(13))


def test_gf16_arithmetic_against_reference_tables():
    # x^4 + x + 1 is the default modulus for GF(16); multiplication by the
    # class x (encoding 2) must follow the shift-and-reduce rule.
    f = Field(2, 4)
    assert f.modulus == (1, 1, 0, 0, 1)
    for a in f.elements():
        shifted = a << 1
        if shifted & 0x10:
            shifted ^= 0x13
        assert f.mul(a, 2) == shifted


def test_counting_field_tallies():
    f = Field(13)
    cf = CountingField(f)
    cf.mul(3, 4)
    cf.mul(5, 6)
    cf.inv(7)
    cf.add(1, 2)
    cf.neg(3)
    assert cf.counts()["mul"] == 2
    assert cf.counts()["inv"] == 1
    assert cf.counts()["add"] == 1
    assert cf.counts()["neg"] == 1
    cf.reset()
    assert cf.counts()["mul"] == 0
    assert cf.mul(3, 4) == f.mul(3, 4)


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# odd-p extension fields: every pair of the small ones, samples of the
# larger ones, with GF(3^11) and GF(3^12) above 2^16 elements
ODD_P_FIELDS = [Field(3, 2), Field(5, 2), Field(3, 3), Field(7, 2)]
ODD_P_SAMPLED = [Field(3, 5), Field(5, 3), KIND_FIELDS[4], Field(3, 12)]


def odd_p_pairs(field):
    q = field.q
    if q <= 49:
        return list(itertools.product(range(q), repeat=2))
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1500)]
    edges = [(0, 0), (0, 1), (1, 0), (q - 1, q - 1), (1, q - 1), (q - 1, 0)]
    # a + b = 0 and a = b, where Zech reads log(0) and log(2)
    return (pairs + edges + [(a, ref_neg(field, a)) for a, _ in pairs[:60]]
            + [(a, a) for a, _ in pairs[:60]])


@pytest.mark.parametrize("field", ODD_P_FIELDS + ODD_P_SAMPLED, ids=repr)
def test_odd_p_sums_match_the_digit_reference(field):
    pairs = odd_p_pairs(field)
    sums = [ref_add(field, a, b) for a, b in pairs]
    diffs = [ref_add(field, a, ref_neg(field, b)) for a, b in pairs]
    assert [field._add(a, b) for a, b in pairs] == sums
    assert [field._sub(a, b) for a, b in pairs] == diffs
    firsts = [a for a, _ in pairs]
    assert [field._neg(a) for a in firsts] == [ref_neg(field, a) for a in firsts]
    A, B = np.array(pairs).T
    assert field.add_array(A, B).tolist() == sums
    assert field.sum_array(np.stack([A, B]), axis=0).tolist() == sums
    assert field.sum_array(np.stack([A, B, B]), axis=0).tolist() == [
        ref_add(field, s, b) for s, (_, b) in zip(sums, pairs)]


@pytest.mark.parametrize("field", [Field(13), Field(2, 8), Field(3, 2),
                                   Field(5, 3)], ids=repr)
def test_sum_array_folds_along_every_axis(field):
    # prime, GF(2^m) and odd-p extension fields, in int64 and uint8 where the
    # elements fit (the encode tables are uint8), against the digit sum
    block = np.random.default_rng(field.q).integers(field.q, size=(3, 4, 5))
    blocks = [block] + ([block.astype(np.uint8)] if field.q <= 256 else [])
    for values, axis in itertools.product(blocks, (0, 1, 2, -1, -2, -3)):
        lines = np.moveaxis(block, axis, -1)
        expected = [reduce(lambda x, y: ref_add(field, x, y), line, 0)
                    for line in lines.reshape(-1, lines.shape[-1]).tolist()]
        got = field.sum_array(values, axis=axis)
        assert got.shape == lines.shape[:-1]
        assert got.ravel().tolist() == expected
    for axis in range(3):                         # an empty axis sums to 0
        got = field.sum_array(np.take(block, [], axis=axis), axis=axis)
        assert got.shape == tuple(np.delete(block.shape, axis))
        assert not got.any()


@pytest.mark.parametrize("field", [Field(3, 2), Field(13), Field(3, 6), Field(2, 4)],
                         ids=repr)
def test_encoding_a_dimension_zero_code_gives_zeros(field):
    # odd-p dot_array (GF(9), GF(3^6)), prime sum and packed rows (GF(16))
    # paths: the generator is n x 0, every sum over its empty axis is 0, and
    # no row is XORed into the n zero bytes
    p_poly = [0, 1, 1] if field.p == 2 else [0, 0, 1]  # x^2 permutes GF(2^m)
    spec = rscodes.lrcrs_make(field, p_poly, [])
    assert spec.k == 0 and spec.generator.shape == (spec.n, 0)
    assert rscodes.encode(spec, []).symbols == (0,) * spec.n


@pytest.mark.parametrize("field", KIND_FIELDS + [GF2_20], ids=repr)
def test_array_kernels_match_the_scalar_operations(field):
    # one field per kernel path (prime, GF(2^m), odd-p extension), with the
    # extension fields on both sides of 2^16 elements
    rng = random.Random(field.q)
    a = [rng.randrange(field.q) for _ in range(60)] + [0, 0, 1]
    b = [rng.randrange(field.q) for _ in range(60)] + [0, 1, 0]
    A, B = np.array(a), np.array(b)
    assert field.mul_array(A, B).tolist() == [field.mul(x, y) for x, y in zip(a, b)]
    assert field.add_array(A, B).tolist() == [field.add(x, y) for x, y in zip(a, b)]
    # operands in the narrowest dtype that holds a sum of two elements
    total = np.min_scalar_type(2 * (field.q - 1))
    narrow = field.add_array(A.astype(total), B.astype(total))
    assert narrow.tolist() == [field.add(x, y) for x, y in zip(a, b)]
    dots = [reduce(field.add, map(field.mul, a[i:i + 7], b[i:i + 7]), 0)
            for i in range(0, 63, 7)]
    assert field.dot_array(A.reshape(9, 7), B.reshape(9, 7)).tolist() == dots
    assert field.dot_array(A[:0], B[:0]) == 0


@pytest.mark.parametrize("field", [Field(13), Field(2), Field(2, 2), Field(2, 3),
                                   Field(2, 8), Field(3, 2), Field(3, 5), Field(2, 9),
                                   Field(2, 17)],
                         ids=repr)
def test_encode_kernels_match_scalar_inner_products(field):
    # prime and odd-p dot_array, packed rows (p = 2, q <= 256) and GF(2^m)
    # dot_array (q > 256) paths; n = 9 is not a multiple of 8
    rng = random.Random(field.q + 1)
    n, k = 9, 4
    gen = np.array([[rng.randrange(field.q) for _ in range(k)] for _ in range(n)])
    gen[2] = 0                                     # an all-zero coordinate
    gen[-1] = [1] + [0] * (k - 1)                  # last symbol = message[0]
    messages = [[rng.randrange(field.q) for _ in range(k)]
                for _ in range(6)] + [[0] * k, [field.q - 1] * k]
    words = [[reduce(field.add, map(field.mul, msg, col), 0) for col in gen.tolist()]
             for msg in messages]
    assert words[-1][-1] == field.q - 1           # the last byte of a row is read
    encoding = field.encoding(gen)
    if field.p == 2 and field.q <= 256:
        assert type(encoding) is tuple and len(encoding) == k * field.q
        assert all(type(row) is int for row in encoding)
    else:
        assert encoding is gen
    for msg, word in zip(messages, words):
        symbols = field.encode_word(msg, encoding, n)
        assert symbols == tuple(word) and all(type(x) is int for x in symbols)
    empty = np.zeros((n, 0), dtype=np.int64)       # k = 0: the zero code
    assert field.encode_word([], field.encoding(empty), n) == (0,) * n
