import itertools
import json
import pickle
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from loceret import codeops, localrepair, rscodes
from loceret.codeops import (BadRankError, EmptySetError,
                             InconsistentLengthError, TooLargeToEnumerateError,
                             ZeroCodeError, certify, check_bounds,
                             code_from_rows, dual,
                             dual_ghw, ghw, is_edr_set, is_recovery_set,
                             min_distance, puncture, shorten, t_locality)
from loceret.descriptor import build_code
from loceret.galois import Field

F2, F3, F5, F7, F13, F17 = (Field(2), Field(3), Field(5), Field(7), Field(13),
                            Field(17))
GF4, GF9, GF16, GF243, GF256 = (Field(2, 2), Field(3, 2), Field(2, 4),
                                 Field(3, 5), Field(2, 8))


# ---------------------------------------------------------------------------
# test-only oracles, kept independent of the implementation paths they check
# ---------------------------------------------------------------------------

def oracle_rank(field, rows):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = field.div(mat[r][c], mat[rank][c])
                mat[r] = [field.sub(x, field.mul(f, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_rref(field, rows):
    """Reduced row echelon form by an independent Gauss-Jordan loop on the
    checked scalar operations."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    n = len(mat[0])
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                row = mat[r]
                mat[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(row, prow)]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(pivots)


def oracle_shorten(code, coords):
    """The restrictions to coords of the codewords supported inside them,
    built from the generator alone: the messages y with y . G zero outside
    coords (the left kernel of the outside columns), each encoded on
    coords.  shorten reads the dual instead.  The elimination is
    codeops.rref, which test_rref_matches_the_gauss_jordan_oracle checks;
    oracle_rref is too slow for a dual generator on 255 coordinates."""
    field = code.field
    S = sorted(coords)
    outside = [c for c in range(code.n) if c not in S]
    red, pivots = codeops.rref(
        field, [[row[c] for row in code.gen] for c in outside])
    rows = []
    for free in sorted(set(range(code.k)) - set(pivots)):
        y = [0] * code.k
        y[free] = 1
        for prow, pc in zip(red, pivots):
            y[pc] = field.neg(prow[free])
        word = [0] * len(S)
        for coeff, grow in zip(y, code.gen):
            word = [field.add(w, field.mul(coeff, grow[c]))
                    for w, c in zip(word, S)]
        rows.append(word)
    return code_from_rows(field, rows, len(S))


def oracle_rank_cols_prime(code, coords):
    """Forward elimination of the chosen columns with inline arithmetic
    mod p (prime fields only)."""
    if not coords or code.k == 0:
        return 0
    p = code.field.p
    mat = [[row[c] for c in coords] for row in code.gen]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for c in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[c], p - 2, p)
        for r in range(rank + 1, n_rows):
            f = mat[r][c]
            if f:
                g = (f * inv) % p
                row = mat[r]
                for j in range(c, n_cols):
                    row[j] = (row[j] - g * prow[j]) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def oracle_rank_cols_generic(code, coords):
    """Forward elimination of the chosen columns on the checked scalar
    operations (every field)."""
    if not coords or code.k == 0:
        return 0
    field = code.field
    mat = [[row[c] for c in coords] for row in code.gen]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for c in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = field.inv(prow[c])
        for r in range(rank + 1, n_rows):
            f = mat[r][c]
            if f:
                g = field.mul(f, inv)
                row = mat[r]
                for j in range(c, n_cols):
                    row[j] = field.sub(row[j], field.mul(g, prow[j]))
        rank += 1
        if rank == n_rows:
            break
    return rank


def oracle_rank_cols(code, coords):
    """Both oracle branches, which must agree where both apply."""
    rank = oracle_rank_cols_generic(code, coords)
    if code.field.m == 1:
        assert oracle_rank_cols_prime(code, coords) == rank
    return rank


def all_codewords(code):
    field = code.field
    words = set()
    for msg in itertools.product(range(field.q), repeat=code.k):
        w = [0] * code.n
        for m, row in zip(msg, code.gen):
            if m:
                w = [field.add(x, field.mul(m, y)) for x, y in zip(w, row)]
        words.add(tuple(w))
    return words


def oracle_min_distance(code):
    return min(sum(1 for x in w if x) for w in all_codewords(code) if any(w))


def oracle_min_distance_prime(code):
    """oracle_min_distance over a prime field, by one matrix product mod p of
    every nonzero message, for codes too large for the scalar loop."""
    p = code.field.p
    messages = np.array(list(itertools.product(range(p), repeat=code.k))[1:])
    words = messages @ np.array(code.gen) % p
    return int(np.count_nonzero(words, axis=1).min())


def oracle_ghw(code, s):
    """The outside-set search: the least |S| such that the codewords
    vanishing outside S, a space of dimension k - rank(outside columns),
    number at least q^s."""
    n = code.n
    for size in range(s, n + 1):
        for outside in itertools.combinations(range(n), n - size):
            if code.k - codeops._rank_cols(code, outside) >= s:
                return size
    raise AssertionError("full support always carries the code itself")


def oracle_is_edr_set(code, i, R, t):
    barred = tuple(sorted(R + (i,)))
    full = codeops._rank_cols(code, barred)
    if full == 0:
        return True
    w = min(t + 1, len(barred))
    for T in itertools.combinations(barred, w):
        kept = tuple(c for c in barred if c not in set(T))
        if codeops._rank_cols(code, kept) < full:
            return False
    return True


def oracle_detects(code, support, t, ranks=None):
    """The subset-rank test _detects made before the parity-check test: the
    columns on the sorted support keep their rank without any t + 1 of them
    (or all, when fewer), unless that rank is 0, with the Singleton
    prefilter first and ranks memoised in ranks when given."""
    def rank(cols):
        if ranks is None:
            return codeops._rank_cols(code, cols)
        if cols not in ranks:
            ranks[cols] = codeops._rank_cols(code, cols)
        return ranks[cols]

    full = rank(support)
    if full == 0:
        return True
    if full > len(support) - t - 1:
        return False
    w = min(t + 1, len(support))
    return all(rank(kept) == full
               for kept in itertools.combinations(support, len(support) - w))


def oracle_scan(code, t):
    """The per-coordinate scan t_locality made before the shared pass: each
    coordinate with a nonzero column scans its helper sets from the
    dual-weight floor d_{t+1}(dual) - 1 (oracle_ghw), by size and then
    lexicographically, through oracle_detects under one rank memo; a zero
    column gets the empty set.  Returns (locality, witness) per coordinate,
    (None, None) where no set exists."""
    floor = (None if code.n - code.k <= t
             else oracle_ghw(dual(code), t + 1) - 1)
    ranks = {}
    out = []
    for i in range(code.n):
        if not any(row[i] for row in code.gen):
            out.append((0, ()))
            continue
        found = (None, None)
        others = [j for j in range(code.n) if j != i]
        for size in range(code.n if floor is None else floor, code.n):
            R = next((R for R in itertools.combinations(others, size)
                      if oracle_detects(code, tuple(sorted(R + (i,))), t,
                                        ranks)), None)
            if R is not None:
                found = (size, R)
                break
        out.append(found)
    return out


def oracle_locality(code, t):
    """The exhaustive search without the dual-weight floor or the rank memo:
    every coordinate scans helper sets from size 0, by size and then
    lexicographically, and recomputes every rank.  Returns (locality,
    witness) per coordinate, (None, None) where no set exists."""
    out = []
    for i in range(code.n):
        others = [j for j in range(code.n) if j != i]
        found = (None, None)
        for size in range(code.n):
            R = next((R for R in itertools.combinations(others, size)
                      if oracle_is_edr_set(code, i, R, t)), None)
            if R is not None:
                found = (size, R)
                break
        out.append(found)
    return out


def oracle_greedy(code, t):
    """The greedy search t_locality made before the greedy loop moved into
    it: each coordinate tries only its lowest-index helpers of each size,
    from size 0, through oracle_detects.  Returns (locality, witness) per
    coordinate, (None, None) where no prefix detects."""
    out = []
    for i in range(code.n):
        others = [j for j in range(code.n) if j != i]
        found = (None, None)
        for size in range(code.n):
            R = tuple(others[:size])
            if oracle_detects(code, tuple(sorted(R + (i,))), t):
                found = (size, R)
                break
        out.append(found)
    return out


def assert_locality_matches_oracle(code, t):
    """t_locality against oracle_locality and against oracle_scan."""
    got = [(c.locality, c.witness) for c in t_locality(code, t).per_coord]
    assert got == oracle_locality(code, t), (code, t)
    assert got == oracle_scan(code, t), (code, t)


def random_code(rng, field, n, rows):
    return code_from_rows(
        field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(rows)],
        n)


def with_zero_and_repeated_columns(rng, code):
    """The code with up to one column zeroed and up to two columns repeated,
    in shuffled column order."""
    n = code.n
    cols = [tuple(row[c] for row in code.gen) for c in range(n)]
    for c in rng.sample(range(n), rng.randrange(0, 2)):
        cols[c] = (0,) * code.k                          # zero column
    for _ in range(rng.randrange(0, 3)):
        cols.append(cols[rng.randrange(n)])              # repeated column
    rng.shuffle(cols)
    rows = [[col[r] for col in cols] for r in range(code.k)]
    return code_from_rows(code.field, rows, len(cols))


def random_codes_with_zero_and_repeated_columns(field, seed, count):
    """count seeded random codes of length 3..7 (before the column changes)
    over the field, each yielded with the generator that made it."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(3, 8)
        code = random_code(rng, field, n, rng.randrange(1, n + 1))
        yield rng, with_zero_and_repeated_columns(rng, code)


def example_code():
    return rscodes.lrcrs_make(F13, [0, 0, 0, 0, 1], [2, 2])


# ---------------------------------------------------------------------------
# elimination against the oracles
# ---------------------------------------------------------------------------

# prime fields, GF(2^m), odd-p extensions (which add by Zech's logarithm),
# and extension fields above 2^16 elements, whose scalar kernels read the
# tables through memoryviews
ORACLE_FIELDS = [F2, F13, F17, GF9, GF16, GF256, Field(5, 2), Field(7, 2),
                 Field(5, 3), Field(3, 5), Field(2, 17), Field(3, 11)]
ORACLE_SHAPES = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (5, 12),
                 (12, 5)]


def oracle_matrices(rng, field):
    """Per shape: a random matrix, a low-rank one, and copies with zero rows,
    a zero column and repeated (and scaled) rows."""
    def rand_row(width):
        return [rng.randrange(field.q) for _ in range(width)]

    def combination(base, width):
        row = [0] * width
        for b in base:
            a = rng.randrange(field.q)
            row = [field.add(x, field.mul(a, y)) for x, y in zip(row, b)]
        return row

    for rows, cols in ORACLE_SHAPES:
        dense = [rand_row(cols) for _ in range(rows)]
        yield dense
        base = [rand_row(cols) for _ in range(max(1, min(rows, cols) // 2))]
        low = [combination(base, cols) for _ in range(rows)]
        yield low
        with_zero_rows = [list(r) for r in low]
        for _ in range(2):
            with_zero_rows.insert(rng.randrange(len(with_zero_rows) + 1),
                                  [0] * cols)
        yield with_zero_rows
        zero_col = rng.randrange(cols)
        yield [[0 if j == zero_col else x for j, x in enumerate(r)]
               for r in dense]
        scale = rng.randrange(1, field.q)
        yield dense + [dense[0], [field.mul(scale, x) for x in dense[-1]]]
    yield []
    yield [[0] * 4 for _ in range(3)]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_matches_the_gauss_jordan_oracle(field):
    rng = random.Random(field.q)
    for mat in oracle_matrices(rng, field):
        assert codeops.rref(field, mat) == oracle_rref(field, mat), mat


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rank_cols_matches_both_oracle_branches(field):
    rng = random.Random(field.q + 1)
    for mat in oracle_matrices(rng, field):
        if not mat:
            continue
        width = len(mat[0])
        # the raw matrix, not only echelon generators, with the columns in
        # order and then drawn with repeats (so some are dropped)
        raw = SimpleNamespace(field=field, k=len(mat), gen=mat)
        code = code_from_rows(field, mat)
        drawn = rng.choices(range(width), k=rng.randrange(1, width + 3))
        for cols in (tuple(range(width)), tuple(drawn)):
            assert codeops._rank_cols(raw, cols) == oracle_rank_cols(raw, cols)
            assert codeops._rank_cols(code, cols) == oracle_rank_cols(code, cols)
        assert code.k == oracle_rank_cols(raw, tuple(range(width)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_identity_rows_give_full_code():
    code = code_from_rows(F5, [[1 if i == j else 0 for j in range(4)]
                               for i in range(4)])
    assert (code.n, code.k) == (4, 4)


def test_worked_example_generator_has_rank_six():
    spec = example_code()
    code = code_from_rows(F13, spec.eval_rows)
    assert code.k == 6 and code.n == 12


def test_rank_matches_independent_elimination_oracle():
    rng = random.Random(17)
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
        assert code_from_rows(F3, rows, 6).k == oracle_rank(F3, rows)


def test_inconsistent_length_rejected():
    with pytest.raises(InconsistentLengthError):
        code_from_rows(F3, [[1, 2], [1, 2, 0]])


@pytest.mark.parametrize("bad", [13, -1, 2.0, True], ids=repr)
def test_code_from_rows_refuses_non_canonical_entries(bad):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a canonical"):
        code_from_rows(F13, [[1, 2, 3], [0, bad, 1]])


def test_empty_code_allowed_with_explicit_length():
    code = code_from_rows(F3, [], 5)
    assert (code.n, code.k) == (5, 0)
    with pytest.raises(InconsistentLengthError):
        code_from_rows(F3, [])


def test_same_row_space_compares_equal():
    a = code_from_rows(F5, [[1, 2, 3], [0, 1, 4]])
    # second generator spans row1 + row2 and 2 * row1: the same row space
    b = code_from_rows(F5, [[1, 3, 2], [2, 4, 1]])
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# puncture / shorten / dual
# ---------------------------------------------------------------------------

def test_puncture_all_coordinates_is_identity():
    rng = random.Random(3)
    code = random_code(rng, F5, 6, 3)
    assert puncture(code, range(6)) == code


def test_puncture_to_example_fibre_is_two_dimensional():
    spec = example_code()
    assert puncture(spec.code, [0, 1, 2, 3]).k == 2


def test_puncture_matches_codeword_enumeration():
    rng = random.Random(5)
    for _ in range(10):
        code = random_code(rng, F3, 5, 2)
        S = tuple(sorted(rng.sample(range(5), rng.randrange(1, 5))))
        expected = {tuple(w[c] for c in S) for w in all_codewords(code)}
        assert all_codewords(puncture(code, S)) == expected


def test_puncture_empty_set_rejected():
    with pytest.raises(EmptySetError):
        puncture(random_code(random.Random(0), F3, 5, 2), [])


def test_shorten_all_coordinates_is_identity():
    rng = random.Random(7)
    code = random_code(rng, F5, 6, 3)
    assert shorten(code, range(6)) == code


def test_shorten_matches_supported_codeword_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        code = random_code(rng, F5, 6, 3)
        S = tuple(sorted(rng.sample(range(6), rng.randrange(1, 6))))
        inside = set(S)
        expected = {tuple(w[c] for c in S) for w in all_codewords(code)
                    if all(x == 0 for i, x in enumerate(w) if i not in inside)}
        assert all_codewords(shorten(code, S)) == expected


@pytest.mark.parametrize("field", [F2, F3, F13, GF16, GF9], ids=repr)
def test_shorten_matches_the_outside_kernel_oracle(field):
    """shorten equals the generator-side construction on every nonempty
    coordinate set of random codes of every dimension, zero and full
    codes included."""
    rng = random.Random(field.q)
    for n in (1, 3, 5, 6):
        for k in range(n + 1):
            code = random_code(rng, field, n, k)
            for size in range(1, n + 1):
                for S in itertools.combinations(range(n), size):
                    assert shorten(code, S) == oracle_shorten(code, S), (code, S)


def test_shortened_dual_dimensions_for_rs_with_one_extra_helper():
    spec = rscodes.rs_make(F13, range(8), 4)
    dual_code = dual(spec.code)
    barred = tuple(range(6))                 # k + 2 coordinates
    helpers = tuple(range(1, 6))
    assert shorten(dual_code, barred).k == 2
    assert shorten(dual_code, helpers).k == 1


def test_shorten_and_dual_of_the_zero_code():
    for field in (F5, GF16):
        zero = code_from_rows(field, [], 5)
        assert shorten(zero, [1, 3]) == code_from_rows(field, [], 2)
        assert dual(zero) == code_from_rows(
            field, [[int(i == j) for j in range(5)] for i in range(5)])
        assert dual(dual(zero)) == zero


def test_dual_is_an_involution():
    rng = random.Random(13)
    for field in (F3, GF4):
        for _ in range(5):
            code = random_code(rng, field, 6, 3)
            assert dual(dual(code)) == code


def test_dual_of_full_line_rs_is_rs():
    full = rscodes.rs_make(F13, range(13), 4)           # degree bound 3
    expected = rscodes.rs_make(F13, range(13), 9)       # degree bound q-3-2
    assert dual(full.code) == expected.code


def test_dual_rows_are_orthogonal_to_generator_rows():
    rng = random.Random(19)
    code = random_code(rng, F5, 7, 3)
    dual_code = dual(code)
    assert dual_code.k == 7 - code.k
    for g in code.gen:
        for h in dual_code.gen:
            acc = 0
            for x, y in zip(g, h):
                acc = F5.add(acc, F5.mul(x, y))
            assert acc == 0


# ---------------------------------------------------------------------------
# minimum distance and generalized weights
# ---------------------------------------------------------------------------

def test_min_distance_of_example_fibre_restriction():
    code = rscodes.rs_make(F13, [1, 5, 8, 12], 2).code
    assert min_distance(code) == 3


def test_min_distance_of_full_space_is_one():
    code = code_from_rows(F3, [[1 if i == j else 0 for j in range(4)]
                               for i in range(4)])
    assert min_distance(code) == 1


# (generator rows, codes) for the larger extension fields: k <= 2 keeps the
# oracle's q^k enumeration short
NAIVE_SHAPES = {GF9: (2, 8), GF16: (2, 8), GF256: (2, 1)}


@pytest.mark.parametrize("field", [F2, F3, F13, GF4, GF9, GF16, GF256], ids=repr)
def test_min_distance_matches_naive_enumeration(field):
    rows, cases = NAIVE_SHAPES.get(field, (3, 8))
    rng = random.Random(field.q)
    for _ in range(cases):
        code = random_code(rng, field, 6, rows)
        if code.k == 0:
            continue
        assert min_distance(code) == oracle_min_distance(code)


@pytest.mark.parametrize("chunk", [1, 40, 200])
def test_min_distance_does_not_depend_on_the_block_size(chunk, monkeypatch):
    # small blocks force the per-combination loop over the high tail rows
    rng = random.Random(chunk)
    cases = [(field, random_code(rng, field, rng.randrange(3, 8), 3))
             for field in (F2, F3, F5, GF4, GF9) for _ in range(3)]
    monkeypatch.setattr(codeops, "_CHUNK_ELEMS", chunk)
    for field, code in cases:
        if code.k:
            assert min_distance(code) == oracle_min_distance(code), code


def test_min_distance_matches_naive_enumeration_on_random_codes():
    rng = random.Random(2024)
    fields = [F2, F3, F5, F7, GF4, GF9]
    for _ in range(200):
        field = rng.choice(fields)
        n = rng.randrange(1, 9)
        code = with_zero_and_repeated_columns(
            rng, random_code(rng, field, n, rng.randrange(1, 4)))
        if code.k:
            assert min_distance(code) == oracle_min_distance(code), code


def record_information_sets(monkeypatch):
    """The number of information sets each later min_distance call
    searches on, in call order."""
    found = []
    information_sets = codeops._information_sets

    def recorded(code, G, m):
        gens = information_sets(code, G, m)
        found.append(len(gens))
        return gens

    monkeypatch.setattr(codeops, "_information_sets", recorded)
    return found


@pytest.mark.parametrize("field", [F2, F3, F5, GF4, GF9], ids=repr)
def test_min_distance_matches_the_oracle_on_every_set_count(field, monkeypatch):
    # every m from 1 to n // k, so the bound j(w + 1) + (m - j)w stops the
    # search at every place; zero and repeated columns leave a partial set
    found = record_information_sets(monkeypatch)
    set_count = codeops._set_count
    rng = random.Random(field.q * 7)
    for _ in range(40):
        k = rng.randrange(1, 4)
        code = with_zero_and_repeated_columns(
            rng, random_code(rng, field, rng.randrange(2 * k, 4 * k + 3), k))
        if code.k == 0:
            continue
        want = oracle_min_distance(code)
        for m in range(1, code.n // code.k + 1):
            monkeypatch.setattr(codeops, "_set_count",
                                lambda *args, m=m: (m, set_count(*args)[1]))
            assert min_distance(code) == want, (code, m)
    assert {1, 2, 3, 4} <= set(found)


def test_min_distance_on_codes_that_choose_several_information_sets(
        monkeypatch):
    # large enough for _set_count to pick m >= 2 itself; n is no multiple
    # of k, so columns are left over outside every set
    found = record_information_sets(monkeypatch)
    rng = random.Random(101)
    for field, n, k in ((F2, 35, 14), (F2, 41, 15), (F2, 45, 16),
                        (F3, 25, 10), (F5, 17, 7)):
        code = with_zero_and_repeated_columns(rng, random_code(rng, field, n, k))
        found.clear()
        assert min_distance(code) == oracle_min_distance_prime(code), code
        assert found[0] >= 2 and code.n % code.k, (code, found)


def test_min_distance_forms_each_level_once_and_never_the_top(monkeypatch):
    # RS[14,6]/GF(17) searches two sets, through weight 4 on the first and
    # weight 3 on the second.  Per set, each count reads the level formed
    # just before it (level 1 is the rows), no level is formed twice, and
    # the words of the last weight counted are never formed.
    events, current = [], []
    search, count, form = (codeops._least_weights, codeops._least_outside,
                           codeops._next_level)

    def searched(field, G, columns):
        log = []
        events.append(log)
        weights = search(field, G, columns)
        while True:
            current[:] = [log]          # the set whose step runs now
            try:
                weight = next(weights)
            except StopIteration:
                return
            yield weight

    def counted(words, below, blocks):
        current[0].append(("count", words.shape[1]))
        return count(words, below, blocks)

    def formed(field, words, below, multiples):
        level = form(field, words, below, multiples)
        current[0].append(("form", words.shape[1], level[0].shape[1]))
        return level

    monkeypatch.setattr(codeops, "_least_weights", searched)
    monkeypatch.setattr(codeops, "_least_outside", counted)
    monkeypatch.setattr(codeops, "_next_level", formed)
    code = rscodes.rs_make(F17, range(14), 6).code
    assert min_distance(code) == 9
    # a level holds no word whose last index is 5: 160 of the 240 weight-2
    # words and 2,560 of the 5,120 weight-3 words
    assert events == [
        [("count", 6), ("form", 6, 160), ("count", 160),
         ("form", 160, 2560), ("count", 2560)],
        [("count", 6), ("form", 6, 160), ("count", 160)]]


def _quadratic_residue_code_47():
    """The binary [47,24,11] quadratic-residue code, spanned by the cyclic
    shifts of its idempotent, the sum of x^i over the residues i mod 47."""
    residues = {i * i % 47 for i in range(1, 47)}
    word = [int(i in residues) for i in range(47)]
    code = code_from_rows(Field(2), [word[-s:] + word[:-s] for s in range(47)])
    assert code.k == 24
    return code


@pytest.mark.parametrize("make, d, mib", [
    (lambda: rscodes.rs_make(F13, range(13), 7).code, 7, 16),
    (_quadratic_residue_code_47, 11, 36),
    (lambda: rscodes.rs_make(Field(2, 12), range(1, 4096), 2).code, 4094, 8),
], ids=["RS[13,7]/GF(13)", "QR[47,24]/GF(2)", "RS[4095,2]/GF(2^12)"])
def test_min_distance_peak_memory(make, d, mib):
    # RS[13,7]: one set (m = 1) and q^k at 93% of the cap; the search counts
    # through weight 6 and keeps the weight-5 level, 124,416 words on the 6
    # columns outside the set (0.75 MB).  QR[47,24]: one set (n < 2k), q^k
    # at a quarter of the cap; it counts through weight 10 from the
    # weight-9 level, formed beside the weight-8 one: 490,314 + 817,190
    # words of 23 bytes, 28.7 MiB (with the level's pieces joined by
    # np.concatenate the peak was 46.6 MiB).  RS[4095,2]: k = 2, so no
    # level and no table of multiples (33.5 MB if made), only steps of
    # _CHUNK_ELEMS products
    code = make()
    tracemalloc.start()
    try:
        assert min_distance(code) == d
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib << 20, peak


def test_min_distance_weight_past_255_coordinates():
    # weights up to 256 need more than 8 bits
    code = rscodes.rs_make(GF256, range(256), 2).code
    assert min_distance(code) == 255


def test_min_distance_symbols_past_256():
    # GF(257) has the element 256, which an 8-bit symbol would read as 0
    code = rscodes.rs_make(Field(257), range(20), 3).code
    assert min_distance(code) == 18
    line = code_from_rows(Field(257), [[256, 0, 1, 256, 0]])
    assert min_distance(line) == 3
    # a field whose elements 2^16 and 2^16 + 1 a 16-bit symbol would read
    # as 0 and 1
    gf2_17 = Field(2, 17)
    line = code_from_rows(gf2_17, [[1, 1 << 16, 0, (1 << 16) + 1, 0, 1 << 16]])
    assert min_distance(line) == 4


# codes whose distance search would reach more words than the cap: the
# planned sets and their reach (None: too long to pin)
REFUSED_SPECS = {
    "RS[40,7]/GF(3^5)": (lambda: rscodes.rs_make(GF243, range(40), 7),
                         5, 29412528932745),
    "[255,15]/GF(2^8)": (lambda: rscodes.lrcrs_make(GF256, [0, 0, 0, 0, 0, 1],
                                                    [4, 4, 4]), 17, None),
    "RS[256,16]/GF(2^8)": (lambda: rscodes.rs_make(GF256, range(256), 16),
                           16, None),
}


def test_min_distance_errors():
    with pytest.raises(ZeroCodeError):
        min_distance(code_from_rows(F3, [], 4))
    # 13^9 > 2^26, but one set reaches 230,265 words: no longer refused
    assert min_distance(rscodes.rs_make(F13, range(13), 9).code) == 5


@pytest.mark.parametrize("name", REFUSED_SPECS)
def test_min_distance_refuses_past_its_reach_before_any_elimination(
        name, monkeypatch):
    make, m, reach = REFUSED_SPECS[name]
    code = make().code

    def no_sets(*args):
        raise AssertionError("information sets built for a refused search")
    monkeypatch.setattr(codeops, "_information_sets", no_sets)
    monkeypatch.setattr(codeops, "rref", no_sets)
    words = "[0-9]+" if reach is None else str(reach)
    with pytest.raises(TooLargeToEnumerateError,
                       match=f"on {m} information sets reaches {words} words, "
                             f"past the cap {1 << 26}$"):
        min_distance(code)


def test_min_distance_checks_the_reach_of_the_sets_actually_built(monkeypatch):
    # [18,6]/GF(3), systematic on columns 0..5, whose other columns all sum
    # to zero: they have rank 5, so a plan of 3 sets builds one, and one
    # set reaches more words than three would
    rng = random.Random(5)
    while True:
        outside = [[rng.randrange(3) for _ in range(5)] for _ in range(12)]
        for col in outside:
            col.append(-sum(col) % 3)
        rows = [[int(i == j) for j in range(6)] + [col[i] for col in outside]
                for i in range(6)]
        if min(map(np.count_nonzero, rows)) >= 7:
            break
    code = code_from_rows(F3, rows)
    G = np.array(code.gen, dtype=np.int64)
    assert len(codeops._information_sets(code, G, 3)) == 1
    set_count = codeops._set_count
    _, reach = set_count(3, 6, 18, int(np.count_nonzero(G, axis=1).min()))
    assert reach(3) < reach(1)
    monkeypatch.setattr(codeops, "_set_count",
                        lambda *args: (3, set_count(*args)[1]))
    monkeypatch.setattr(codeops, "DEFAULT_ENUM_CAP", reach(1) - 1)
    with pytest.raises(TooLargeToEnumerateError,
                       match=f"on 1 information sets reaches {reach(1)} words"):
        min_distance(code)
    monkeypatch.setattr(codeops, "DEFAULT_ENUM_CAP", reach(1))
    assert min_distance(code) == oracle_min_distance(code)


@pytest.mark.parametrize("q", [2, 3, 4, 13, 17, 25, 256])
def test_set_count_plans_within_q_to_the_k(q):
    # m minimises m (words[W(m)] + _SET_COST), so the planned reach is at
    # most one set's, words[W(1)] < q^k: every code a q^k gate admitted
    # passes the check on its planned m
    for k in range(1, 13):
        for n in range(k, 5 * k + 1, max(1, k // 3)):
            for least in range(1, n - k + 2):
                m, reach = codeops._set_count(q, k, n, least)
                assert 1 <= m <= n // k
                assert reach(m) + m * codeops._SET_COST <= reach(1) + codeops._SET_COST
                assert reach(1) < q ** k


def test_ghw_at_s1_equals_min_distance():
    rng = random.Random(23)
    for _ in range(8):
        code = random_code(rng, F3, 6, 3)
        if code.k == 0:
            continue
        assert ghw(code, 1) == min_distance(code)


def test_ghw_of_rs_dual_matches_subcode_enumeration_oracle():
    spec = rscodes.rs_make(F7, range(6), 3)
    dual_code = dual(spec.code)                 # [6, 3] MDS
    words = sorted(all_codewords(dual_code))
    best = dual_code.n
    for x, y in itertools.combinations(words, 2):
        if not any(x) or not any(y):
            continue
        if oracle_rank(F7, [x, y]) != 2:
            continue
        support = {i for i in range(6) if x[i] or y[i]}
        best = min(best, len(support))
    assert best == 5                            # MDS: d_2 = n - k + 2
    assert ghw(dual_code, 2) == best


def test_ghw_dual_of_rs_is_k_plus_two():
    spec = rscodes.rs_make(F13, range(8), 3)
    assert ghw(dual(spec.code), 2) == spec.k + 2


def test_ghw_argument_validation():
    code = random_code(random.Random(1), F3, 5, 2)
    with pytest.raises(BadRankError):
        ghw(code, 0)
    with pytest.raises(BadRankError):
        ghw(code, code.k + 1)


def assert_dual_ghw_matches(code, dual_weights, d, search=True):
    """dual_ghw at every s against dual_weights[s - 1] = d_s(dual): with the
    distance d and with d - 1 as a lower bound, and, when search is set, also
    without d and through ghw on the dual."""
    dual_code = dual(code)
    assert len(dual_weights) == code.n - code.k
    for s, want in enumerate(dual_weights, 1):
        for bound in ((d, d - 1) if d else ()):
            assert dual_ghw(code, s, bound) == want, (code, s, bound)
        if search:
            assert dual_ghw(code, s) == want, (code, s)
            assert ghw(dual_code, s) == want, (code, s)


def assert_ghw_matches_oracle(code):
    """ghw of the code and of its dual at every s against oracle_ghw."""
    for s in range(1, code.k + 1):
        assert ghw(code, s) == oracle_ghw(code, s), (code, s)
    dual_code = dual(code)
    assert_dual_ghw_matches(
        code, [oracle_ghw(dual_code, s) for s in range(1, dual_code.k + 1)],
        min_distance(code) if code.k else None)


def test_ghw_matches_the_outside_set_oracle_on_the_lemma_corpus():
    from test_acceptance import lemma_corpus
    for code, _ in lemma_corpus():
        assert_ghw_matches_oracle(code)


# d_s(RS) = n - k + s and d_s(dual) = k + s (MDS); past n = 12 only the
# searches that d leaves short are run, as the others scan ~2^n supports
RS17_GHW_CASES = [(8, 3), (8, 6), (9, 2), (10, 4), (11, 9), (12, 10),
                  (13, 2), (14, 3), (15, 2), (16, 2)]


@pytest.mark.parametrize("n, k", RS17_GHW_CASES, ids=str)
def test_ghw_matches_the_mds_weights_on_rs_codes_over_gf17(n, k):
    points = random.Random(n * 100 + k).sample(range(17), n)
    code = rscodes.rs_make(F17, points, k).code
    search = n <= 12
    if search:
        assert [ghw(code, s) for s in range(1, k + 1)] == \
            [n - k + s for s in range(1, k + 1)]
    assert_dual_ghw_matches(code, [k + s for s in range(1, n - k + 1)],
                            n - k + 1, search)
    if n <= 10:
        assert_ghw_matches_oracle(code)


@pytest.mark.parametrize("field", [F2, F3, GF4, GF9, F13, GF256], ids=repr)
def test_ghw_matches_the_oracle_with_zero_and_repeated_columns(field):
    rng = random.Random(field.q * 7)
    for _ in range(10):
        n = rng.randrange(2, 7)
        rows = min(n, 2) if field is GF256 else n    # q^k within the cap
        code = with_zero_and_repeated_columns(
            rng, random_code(rng, field, n, rng.randrange(0, rows + 1)))
        if code.k < code.n:
            assert_ghw_matches_oracle(code)


def count_rank_calls(monkeypatch):
    """The column sets of every later _rank_cols call, in call order."""
    seen = []
    rank_cols = codeops._rank_cols

    def counted(code, coords):
        seen.append(tuple(coords))
        return rank_cols(code, coords)

    monkeypatch.setattr(codeops, "_rank_cols", counted)
    return seen


def test_dual_ghw_from_the_distance_needs_no_rank(monkeypatch):
    rs14_6 = rscodes.rs_make(F17, range(14), 6).code
    seen = count_rank_calls(monkeypatch)
    assert dual_ghw(rs14_6, 2, d=9) == 8 and not seen
    # [12, 6] with d = 3: Wei's duality fixes d_s(dual) only for s >= 5
    code = example_code().code
    assert dual_ghw(code, 5, d=3) == 11 and not seen
    assert dual_ghw(code, 4, d=3) == oracle_ghw(dual(code), 4) and seen


def test_dual_ghw_argument_validation(monkeypatch):
    code = rscodes.rs_make(F13, range(8), 3).code
    for s in (0, 6, 1.0, True):
        with pytest.raises(BadRankError):
            dual_ghw(code, s)
    # the support cap is checked first, even where d would settle the value
    monkeypatch.setattr(codeops, "DEFAULT_ENUM_CAP", 255)
    with pytest.raises(TooLargeToEnumerateError):
        dual_ghw(code, 0)
    with pytest.raises(TooLargeToEnumerateError):
        dual_ghw(code, 2, d=6)
    monkeypatch.setattr(codeops, "DEFAULT_ENUM_CAP", 256)
    assert dual_ghw(code, 2, d=6) == 5


# ---------------------------------------------------------------------------
# recovery and error-detecting recovery sets
# ---------------------------------------------------------------------------

def test_any_k_coordinates_recover_an_rs_coordinate():
    spec = rscodes.rs_make(F13, range(8), 3)
    assert is_recovery_set(spec.code, 0, [2, 5, 7])
    assert is_recovery_set(spec.code, 4, [0, 1, 2])


def test_empty_helper_set_recovers_only_zero_columns():
    code = code_from_rows(F3, [[1, 0, 2], [0, 0, 1]])   # column 1 is zero
    assert is_recovery_set(code, 1, [])
    assert not is_recovery_set(code, 0, [])


def test_recovery_set_matches_dual_word_search_oracle():
    rng = random.Random(29)
    for _ in range(10):
        code = random_code(rng, F3, 6, 3)
        dual_words = all_codewords(dual(code))
        for i in range(code.n):
            for size in (1, 2, 3):
                R = tuple(sorted(rng.sample(
                    [c for c in range(code.n) if c != i], size)))
                barred = set(R) | {i}
                witness = any(
                    w[i] != 0 and all(x == 0 for c, x in enumerate(w)
                                      if c not in barred)
                    for w in dual_words)
                assert is_recovery_set(code, i, R) == witness


def test_example_fibre_detects_one_error():
    spec = example_code()
    assert is_edr_set(spec.code, 0, [1, 2, 3], 1)


def test_two_rs_helpers_cannot_detect_an_error():
    spec = rscodes.rs_make(F13, range(8), 2)
    assert not is_edr_set(spec.code, 0, [1, 2], 1)
    assert is_edr_set(spec.code, 0, [1, 2], 0)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_edr_check_matches_punctured_distance_definition(t):
    rng = random.Random(31 + t)
    for _ in range(12):
        code = random_code(rng, F3, 6, 3)
        i = rng.randrange(code.n)
        size = rng.randrange(1, code.n)
        R = tuple(sorted(rng.sample([c for c in range(code.n) if c != i], size)))
        barred = tuple(sorted(R + (i,)))
        punctured = puncture(code, barred)
        if punctured.k == 0:
            expected = True
        else:
            expected = min_distance(punctured) > t + 1
        assert is_edr_set(code, i, R, t) == expected


def test_locality_of_rs_codes():
    spec = rscodes.rs_make(F13, range(8), 3)
    assert t_locality(spec.code, 0).r_t == 3
    assert t_locality(spec.code, 1).r_t == 4


def test_locality_of_example_code_is_three():
    spec = example_code()
    report = t_locality(spec.code, 1)
    assert report.r_t == 3
    assert report.per_coord[0].witness == (1, 2, 3)


def test_locality_witnesses_respect_dual_distance_lower_bound():
    spec = rscodes.rs_make(F13, range(8), 3)
    report = t_locality(spec.code, 0)
    floor = min_distance(dual(spec.code)) - 1
    for entry in report.per_coord:
        assert entry.locality >= floor


def test_locality_respects_the_dual_weight_hierarchy_floor():
    for code, t in ((example_code().code, 1),
                    (rscodes.rs_make(F13, range(8), 3).code, 0),
                    (rscodes.rs_make(F13, range(8), 3).code, 1)):
        r_t = t_locality(code, t).r_t
        assert r_t >= ghw(dual(code), t + 1) - 1


def test_identity_code_has_no_recovery_sets():
    code = code_from_rows(F5, [[1 if i == j else 0 for j in range(4)]
                               for i in range(4)])
    report = t_locality(code, 0)
    assert report.r_t is None
    assert report.not_t_lredc == (0, 1, 2, 3)


def test_greedy_mode_gives_labelled_upper_bounds():
    spec = rscodes.rs_make(F13, range(8), 3)
    exact = t_locality(spec.code, 1)
    greedy = t_locality(spec.code, 1, mode="greedy")
    assert greedy.mode == "greedy"
    for g, e in zip(greedy.per_coord, exact.per_coord):
        assert g.locality >= e.locality


def assert_greedy_matches_oracle(code, t):
    report = t_locality(code, t, mode="greedy")
    assert report.mode == "greedy"
    got = [(c.locality, c.witness) for c in report.per_coord]
    assert got == oracle_greedy(code, t), (code, t)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_greedy_witnesses_match_the_oracle_on_the_lemma_corpus(t):
    from test_acceptance import lemma_corpus
    for code, _ in lemma_corpus():
        assert_greedy_matches_oracle(code, t)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("field", [F2, F3, GF4, GF9, F13, GF16], ids=repr)
def test_greedy_witnesses_match_the_oracle_with_zero_and_repeated_columns(
        field, t):
    for _, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 50 + t, 12):
        assert_greedy_matches_oracle(code, t)


def test_exhaustive_mode_refuses_oversized_codes():
    code = code_from_rows(F2, [[1] * 25], 25)
    with pytest.raises(TooLargeToEnumerateError):
        t_locality(code, 0)


def test_zero_detection_locality_matches_rank_only_search():
    # independent path: scan helper sets with the oracle elimination only
    rng = random.Random(37)
    code = random_code(rng, F3, 6, 3)
    report = t_locality(code, 0)
    cols = list(zip(*code.gen)) if code.k else [()] * code.n

    def rank_of(coords):
        if not coords:
            return 0
        return oracle_rank(F3, [[cols[c][r] for c in coords]
                                for r in range(code.k)])

    for i in range(code.n):
        found = None
        for size in range(0, code.n):
            for R in itertools.combinations(
                    [c for c in range(code.n) if c != i], size):
                barred = tuple(sorted(R + (i,)))
                full = rank_of(barred)
                ok = full == 0 or all(
                    rank_of(tuple(c for c in barred if c != j)) == full
                    for j in barred)
                if ok:
                    found = size
                    break
            if found is not None:
                break
        assert report.per_coord[i].locality == found


# ---------------------------------------------------------------------------
# the exhaustive search against the oracle search: localities and witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0, 1, 2])
def test_locality_matches_oracle_on_the_lemma_corpus(t):
    from test_acceptance import lemma_corpus
    for code, _ in lemma_corpus():
        assert_locality_matches_oracle(code, t)


# k = n - 1 gives a dual of dimension 1, so t = 1 leaves every coordinate
# without a set; mid-range k at large n is left out because the oracle search
# takes seconds there
RS17_CASES = [(8, 3), (8, 4), (8, 7), (9, 2), (9, 8), (10, 3), (10, 5),
              (10, 9), (11, 2), (11, 3), (12, 2), (12, 3), (13, 2), (14, 2),
              (15, 2), (16, 2), (16, 3)]


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("n, k", RS17_CASES, ids=str)
def test_locality_matches_oracle_on_rs_codes_over_gf17(n, k, t):
    points = random.Random(n * 100 + k).sample(range(17), n)
    assert_locality_matches_oracle(rscodes.rs_make(F17, points, k).code, t)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_locality_matches_oracle_on_the_example_code(t):
    assert_locality_matches_oracle(example_code().code, t)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("field", [F2, F3, GF4, GF9, F13, GF16], ids=repr)
def test_locality_matches_oracle_with_zero_and_repeated_columns(field, t):
    for _, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 10 + t, 12):
        assert_locality_matches_oracle(code, t)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("field", [F3, GF4, GF9, F13], ids=repr)
def test_edr_verdict_depends_on_the_support_alone(field, t):
    # R + {i} detects as a whole: every member of it may be the target
    verdicts = set()
    for rng, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 20 + t, 12):
        for size in range(1, code.n + 1):
            S = rng.sample(range(code.n), size)
            got = {is_edr_set(code, i, [c for c in S if c != i], t) for i in S}
            assert len(got) == 1, (code, sorted(S), t)
            verdicts |= got
    assert verdicts == {True, False}


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("field", [F3, GF4, GF9, F13], ids=repr)
def test_witnesses_meet_the_singleton_dimension_cap(field, t):
    # the punctured code on R + {i} has distance >= t + 2 unless it is the
    # zero code, so Singleton caps its dimension at |R| - t
    witnesses = 0
    for _, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 30 + t, 8):
        for entry in t_locality(code, t).per_coord:
            if entry.witness is None:
                continue
            R = entry.witness
            full = codeops._rank_cols(code, tuple(sorted(R + (entry.coord,))))
            assert full == 0 or full <= len(R) - t, (code, entry)
            witnesses += 1
    assert witnesses


def test_singleton_prefilter_keeps_the_mds_equality_case(monkeypatch):
    # RS[10,4] at t = 1: k + 2 columns have rank k = |S| - t - 1 and detect,
    # while k + 1 columns have rank k > |S| - t - 1 and fail on that rank
    code = rscodes.rs_make(F13, range(10), 4).code
    seen = count_rank_calls(monkeypatch)
    assert codeops._detects(code, tuple(range(6)), 1)
    assert is_edr_set(code, 9, range(3, 8), 1)
    seen.clear()
    assert not codeops._detects(code, tuple(range(5)), 1)
    assert seen == [tuple(range(5))]


# GF(3^5) clears columns with the checked row operation, GF(2^8) with the
# log/exp tables, the prime fields with arithmetic mod p
@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("field", [F3, GF4, F5, GF9, GF243, GF256], ids=repr)
def test_detects_matches_the_oracle_with_zero_and_repeated_columns(field, t):
    verdicts = set()
    for rng, code in random_codes_with_zero_and_repeated_columns(
            field, field.q * 40 + t, 12):
        for size in range(1, code.n + 1):
            S = tuple(sorted(rng.sample(range(code.n), size)))
            got = codeops._detects(code, S, t)
            assert got == oracle_detects(code, S, t), (code, S, t)
            assert got == oracle_is_edr_set(code, S[0], S[1:], t), (code, S, t)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_locality_witnesses_of_the_16_4_fibre_code_at_t2():
    # [16,4]/GF(17), y = x^4, l = [1, 1]: every coordinate's first witness
    code = rscodes.lrcrs_make(F17, [0, 0, 0, 0, 1], [1, 1]).code
    expected = ([(1, 4, 5, 8, 9, 12)] + [(0, 4, 5, 8, 9, 12)] * 3
                + [(0, 1, 5, 8, 9, 12)] + [(0, 1, 4, 8, 9, 12)] * 3
                + [(0, 1, 4, 5, 9, 12)] + [(0, 1, 4, 5, 8, 12)] * 3
                + [(0, 1, 4, 5, 8, 9)] * 4)
    report = t_locality(code, 2)
    assert [c.witness for c in report.per_coord] == expected
    assert {c.locality for c in report.per_coord} == {6}
    assert expected == [w for _, w in oracle_scan(code, 2)]


@pytest.mark.parametrize("call", [
    lambda code: t_locality(code, 1.5),
    lambda code: t_locality(code, True),
    lambda code: is_edr_set(code, 0, [1, 2, 3, 4], 1.5),
], ids=["t_locality-float", "t_locality-bool", "is_edr_set-float"])
def test_t_must_be_an_int(call):
    code = rscodes.rs_make(F13, range(8), 3).code
    with pytest.raises(ValueError, match="^t must be an integer"):
        call(code)


def test_small_dual_leaves_nonzero_columns_without_a_set():
    # dim(dual) = 1 <= t = 1, so only the zero column has a t-edr set
    code = code_from_rows(F5, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    report = t_locality(code, 1)
    assert [(c.locality, c.witness) for c in report.per_coord] == \
        [(0, ()), (None, None), (None, None), (None, None)]
    assert_locality_matches_oracle(code, 1)


def test_supplied_dual_ghw_gives_the_same_report():
    # certify scans past d_{t+1}(dual) - 1 columns: 5 on the MDS RS[10,4]
    # and 3 on the paper's non-MDS [12,6]/GF(13) code at t = 1
    for code in (rscodes.rs_make(F13, range(10), 4).code, example_code().code):
        assert certify(code, 1).locality == t_locality(fresh_copy(code), 1)


def fresh_copy(code):
    """The same code with nothing kept from earlier searches."""
    return code_from_rows(code.field, code.gen, code.n)


def test_the_witness_memo_keeps_t_and_the_floor_apart(monkeypatch):
    # on the paper's [12,6]/GF(13) code d_2(dual) = 4, so certify scans at
    # t = 1 past 3 columns, with its distance d = 3 for the puncturing rule;
    # plan_linear and t_locality read that scan, where each once ran its own
    # from 2 columns; t = 2 gets one scan of its own, with no distance
    spec = example_code()
    code = spec.code
    scans = []
    real_scan = codeops._shared_scan

    def counting_scan(code, t, floor, d):
        scans.append((t, floor, d))
        return real_scan(code, t, floor, d)
    monkeypatch.setattr(codeops, "_shared_scan", counting_scan)
    cert = certify(code, 1, spec)
    helpers = [localrepair.plan_linear(code, c, 1).helpers for c in range(code.n)]
    assert scans == [(1, 3, 3)]
    assert helpers == [c.witness for c in cert.locality.per_coord]
    got = [t_locality(code, t) for t in (2, 1, 2)]
    assert scans == [(1, 3, 3), (2, 3, None)]
    assert sorted(code._witnesses) == [1, 2]
    assert got == [t_locality(fresh_copy(code), t) for t in (2, 1, 2)]
    assert got[1] == cert.locality


def test_a_filled_witness_memo_stays_out_of_pickles_equality_and_hash():
    code = example_code().code
    fresh = fresh_copy(code)
    t_locality(code, 1)
    t_locality(code, 2)
    assert code._witnesses and not fresh._witnesses
    assert pickle.dumps(code) == pickle.dumps(fresh)
    assert code == fresh and hash(code) == hash(fresh)
    assert pickle.loads(pickle.dumps(code))._witnesses == {}


# ---------------------------------------------------------------------------
# the puncturing rule: with d(C) >= d, every support of n - d + t + 2 or
# more columns detects, so certify's scan decides it without a test
# ---------------------------------------------------------------------------

def rule_corpus():
    """Fresh codes: the lemma corpus, RS17_CASES, the example code and the
    certify grid's tier-1 slice (q <= 13)."""
    import certify_grid
    from test_acceptance import lemma_corpus
    codes = [fresh_copy(code) for code, _ in lemma_corpus()]
    for n, k in RS17_CASES:
        points = random.Random(n * 100 + k).sample(range(17), n)
        codes.append(rscodes.rs_make(F17, points, k).code)
    codes.append(example_code().code)
    codes += [build_code(desc).code for desc in certify_grid.grid()
              if desc["field"]["p"] ** desc["field"]["m"] <= 13]
    return codes


def refuse_detects(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"_detects ran on {args[1]}")
    monkeypatch.setattr(codeops, "_detects", refuse)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_the_puncturing_rule_keeps_every_witness_on_the_corpus(monkeypatch, t):
    # the scan given the distance finds the plain scan's witnesses with
    # fewer tests, and certify's locality is the plain scan's
    tested = []
    real_detects = codeops._detects

    def counting_detects(code, S, t, ranks=None):
        tested.append(S)
        return real_detects(code, S, t, ranks)
    monkeypatch.setattr(codeops, "_detects", counting_detects)
    plain_tests = ruled_tests = 0
    for code in rule_corpus():
        d = min_distance(code)
        tested.clear()
        plain = codeops._shared_scan(code, t, t + 1, None)
        plain_tests += len(tested)
        tested.clear()
        ruled = codeops._shared_scan(code, t, t + 1, d)
        ruled_tests += len(tested)
        assert ruled == plain, (code, t)
        assert certify(fresh_copy(code), t).locality == t_locality(code, t), (code, t)
    assert ruled_tests < plain_tests


@pytest.mark.parametrize("q, n, k, t, d", [(17, 14, 6, 1, 9), (23, 20, 6, 10, 15)],
                         ids=["rs14-6-t1", "rs20-6-t10"])
def test_the_puncturing_rule_certifies_rs_codes_without_a_test(
        monkeypatch, q, n, k, t, d):
    # d_{t+1}(dual) = k + t + 1 = n - d + t + 2: the scan starts at the rule
    spec = rscodes.rs_make(Field(q), range(n), k)
    refuse_detects(monkeypatch)
    cert = certify(spec.code, t, spec)
    assert (cert.distance, cert.distance_kind, cert.dual_ghw) == (d, "exact", k + t + 1)
    assert cert.locality.r_t == k + t and cert.t_optimal is True
    assert [c.witness for c in cert.locality.per_coord] == [
        tuple(j for j in range(n) if j != i)[:k + t] for i in range(n)]


@pytest.mark.parametrize("n, k", RS17_CASES, ids=str)
def test_the_puncturing_rule_certifies_rs_codes_at_every_t_without_a_test(
        monkeypatch, n, k):
    # any k + t + 1 coordinates of an MDS code detect t errors and fewer do
    # not, so each witness is the first k + t other coordinates, for t up
    # to n - k - 1; from t = n - k on no coordinate has a set
    points = random.Random(n * 100 + k).sample(range(17), n)
    code = rscodes.rs_make(F17, points, k).code
    refuse_detects(monkeypatch)
    for t in range(n - k + 1):
        report = certify(fresh_copy(code), t).locality
        assert [c.witness for c in report.per_coord] == [
            tuple(j for j in range(n) if j != i)[:k + t] if t < n - k else None
            for i in range(n)], t


@pytest.mark.parametrize("desc, n, k, d, r_2", [
    ({"field": {"p": 3, "m": 2}, "construction": "lrcrs",
      "p_poly": [0, 0, 0, 0, 1], "l": [0, 1]}, 8, 3, 4, 7),
    ({"field": {"p": 13}, "construction": "lrcrs",
      "p_poly": [0, 0, 0, 0, 1], "l": [1, 2]}, 12, 5, 4, 11),
], ids=["gf9-l01", "gf13-l12"])
def test_the_puncturing_rule_starts_at_n_minus_d_plus_t_plus_2(desc, n, k, d, r_2):
    # at t = 2 the rule starts at n columns; the supports of n - 1 columns
    # still need their test, and fail, so r_2 = n - 1
    bundle = build_code(desc)
    cert = certify(bundle.code, 2, bundle.spec)
    assert (bundle.code.n, bundle.code.k, cert.distance) == (n, k, d)
    assert cert.locality.r_t == r_2
    assert cert.locality == t_locality(fresh_copy(bundle.code), 2)


def test_search_computes_each_column_rank_once(monkeypatch):
    seen = count_rank_calls(monkeypatch)
    report = t_locality(example_code().code, 1)
    assert report.r_t == 3
    assert seen and len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# duality and distance identities on randomized codes
# ---------------------------------------------------------------------------

def test_dual_of_puncturing_is_shortening_of_dual():
    rng = random.Random(41)
    for field in (F2, F3, GF4, F13):
        for _ in range(8):
            n = rng.randrange(3, 7)
            code = random_code(rng, field, n, rng.randrange(1, 4))
            S = tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
            expected = oracle_shorten(dual(code), S)
            assert dual(puncture(code, S)) == expected
            assert shorten(dual(code), S) == expected


def test_distance_iff_every_large_projection_keeps_dimension():
    rng = random.Random(43)
    for _ in range(10):
        code = random_code(rng, F3, 6, 2)
        if code.k == 0:
            continue
        d = min_distance(code)
        for d0 in range(1, code.n + 1):
            projections_full = all(
                codeops._rank_cols(code, S) == code.k
                for size in range(code.n - d0 + 1, code.n + 1)
                for S in itertools.combinations(range(code.n), size))
            assert (d >= d0) == projections_full


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_rs_codes_meet_the_detection_singleton_bound_with_equality():
    report = check_bounds(n=8, k=3, d=6, t=1, r_t=4, dual_ghw=5)
    assert report.t_optimal
    assert report.statuses["locality_singleton"].equality
    assert report.statuses["dual_weight_hierarchy"].equality


def test_example_code_is_one_optimal():
    report = check_bounds(n=12, k=6, d=3, t=1, r_t=3)
    s = report.statuses["locality_singleton"]
    assert (s.lhs, s.rhs) == (15, 15)
    assert report.t_optimal


def test_mds_meets_the_classic_bound_with_equality():
    report = check_bounds(n=8, k=3, d=6, t=0, r_t=3)
    classic = report.statuses["classic_lrc_singleton"]
    assert classic.equality and classic.holds


def test_violated_bound_is_reported_not_raised():
    report = check_bounds(n=8, k=3, d=6, t=1, r_t=3)
    s = report.statuses["locality_singleton"]
    assert not s.holds and s.slack < 0


def test_bound_status_serialization():
    report = check_bounds(n=12, k=6, d=3, t=1, r_t=3, dual_ghw=4)
    doc = report.to_dict()
    assert doc["t_optimal"] is True
    assert doc["statuses"]["dual_weight_hierarchy"]["holds"]


@pytest.mark.parametrize("args, message", [
    ((12, 6, 3, -1, 3), "t must be nonnegative, got -1"),
    ((12, 6, 3, True, 3), "t must be an integer, got True"),
    ((12, 6, 3, 1.5, 3), "t must be an integer, got 1.5"),
    ((12.0, 6, 3, 1, 3), "n must be an integer, got 12.0"),
    ((12, True, 3, 0, 3), "k must be an integer, got True"),
    ((12, 6, 3.0, 1, 3), "d must be an integer, got 3.0"),
    ((12, 6, 3, 1, 3.5), "r_t must be an integer, got 3.5"),
    ((12, 6, 3, 1, 3, False), "dual_ghw must be an integer, got False"),
], ids=["negative-t", "bool-t", "float-t", "float-n", "bool-k", "float-d",
        "float-r_t", "bool-dual_ghw"])
def test_check_bounds_refuses_malformed_integers(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_bounds(*args)
    # the same parameters, well formed, are evaluated as before
    s = check_bounds(12, 6, 3, 1, 3, 4).statuses["locality_singleton"]
    assert (s.lhs, s.rhs, s.holds) == (15, 15, True)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_the_example_code_from_the_library():
    cert = certify(example_code().code, 1)
    assert (cert.distance, cert.distance_kind) == (3, "exact")
    assert cert.dual_ghw == 4 and cert.locality.r_t == 3
    assert cert.t_optimal is True and not cert.violation


GF243_DESC = {"p": 3, "m": 5}


# the first three have q^k above the enumeration cap, but their searches
# reach at most 230,265 words; the next three reach past the cap
@pytest.mark.parametrize("desc, value, kind", [
    ({"construction": "rs", "points": "all", "k": 9}, 5, "exact"),
    ({"construction": "lrcrs", "field": {"p": 17}, "p_poly": [0, 0, 0, 0, 1],
      "l": [3, 2]}, 4, "exact"),
    ({"construction": "generator",
      "rows": [[int(i == j) for j in range(8)] + [1, 2, 3, i + 4]
               for i in range(8)]}, 3, "exact"),
    ({"construction": "rs", "field": GF243_DESC, "points": list(range(40)), "k": 7},
     34, "mds_formula"),
    ({"construction": "lrcrs", "field": {"p": 2, "m": 8},
      "p_poly": [0, 0, 0, 0, 0, 1], "l": [4, 4, 4]}, 233, "goppa_lower_bound"),
    ({"construction": "generator", "field": GF243_DESC,
      "rows": [list(row) for row in
               rscodes.rs_make(GF243, range(40), 7).eval_rows]},
     None, "unavailable"),
    ({"construction": "generator", "rows": [[0] * 5]}, None, "zero_code"),
], ids=["rs13-9", "lrc17-32", "gen12-8", "rs40-7", "lrc255-15", "gen40-7",
        "zero"])
def test_certify_labels_each_distance_kind(desc, value, kind):
    bundle = build_code({"field": {"p": 13}, **desc})
    cert = certify(bundle.code, 0, bundle.spec, greedy=True)
    assert (cert.distance, cert.distance_kind) == (value, kind)
    assert cert.t_optimal is None
    assert (cert.bounds is None) == (value is None)
    doc = cert.to_dict()
    assert doc["distance"] == {"value": value, "kind": kind}
    assert doc["exact_search"] is False and doc["downgraded_to_greedy"] is False


@pytest.mark.parametrize("t, dual_weight, r_t, t_optimal", [
    (0, 5, 4, False), (1, 6, 5, True)])
def test_certify_an_exact_distance_above_the_goppa_bound(t, dual_weight, r_t,
                                                         t_optimal):
    # [18,10]/GF(19), y = x^6, l = [1, 2, 2, 1]: q^k = 19^10 is past the
    # cap, but one set reaches 1,264,420 words and gives d = 5, one above
    # the Goppa bound; with d exact the t = 1 bound is met with equality
    spec = rscodes.lrcrs_make(Field(19), [0, 0, 0, 0, 0, 0, 1], [1, 2, 2, 1])
    assert (spec.n, spec.k, spec.distance_bound) == (18, 10, (4, "goppa_lower_bound"))
    cert = certify(spec.code, t, spec)
    assert (cert.distance, cert.distance_kind) == (5, "exact")
    assert (cert.dual_ghw, cert.locality.r_t) == (dual_weight, r_t)
    assert cert.locality.mode == "exhaustive" and cert.t_optimal is t_optimal


def test_the_committed_certify_grid_recomputes_on_its_small_fields():
    # every row of BENCH_certify_grid.json with q <= 13 and t <= 1, field by
    # field, but the process seconds
    import certify_grid
    committed = json.loads(certify_grid.OUT.read_text(encoding="utf-8"))
    want = [{key: value for key, value in row.items() if key != "seconds"}
            for row in committed["rows"] if row["q"] <= 13 and row["t"] <= 1]
    got = [{key: value for key, value in certify_grid.row(desc, t).items()
            if key != "seconds"}
           for desc in certify_grid.grid()
           if desc["field"]["p"] ** desc["field"]["m"] <= 13 for t in (0, 1)]
    assert len(got) == 84
    assert got == want


def test_certify_downgrades_an_oversized_search_and_checks_t():
    spec = rscodes.rs_make(Field(29), range(29), 3)
    cert = certify(spec.code, 0, spec)
    assert cert.downgraded and cert.locality.mode == "greedy"
    assert cert.t_optimal is None and cert.to_dict()["downgraded_to_greedy"]
    for t in (-1, True, 1.0):
        with pytest.raises(ValueError, match="^t must be"):
            certify(spec.code, t, spec)


# ---------------------------------------------------------------------------
# coordinate validation
# ---------------------------------------------------------------------------

def test_coordinate_validation_errors():
    code = random_code(random.Random(2), F3, 5, 2)
    with pytest.raises(codeops.IndexOutOfRangeError):
        is_recovery_set(code, 9, [0])
    with pytest.raises(codeops.IndexOutOfRangeError):
        puncture(code, [0, 7])
    with pytest.raises(ValueError):
        is_recovery_set(code, 0, [0, 1])
    with pytest.raises(ValueError):
        puncture(code, [1, 1])
