"""Generic linear-code calculus over explicit generator matrices.

Codes are held in reduced row echelon form, which makes equality of row
spaces a tuple comparison.  Distance, generalized Hamming weights and
locality are certified exhaustively, within the enumeration cap
DEFAULT_ENUM_CAP; recovery-set and error-detecting-set checks reduce to
column-rank computations, cheap even where codeword enumeration is not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .galois import _checked_int, _is_int

DEFAULT_ENUM_CAP = 1 << 26  # words, k x supports, column sets or 64 x memo ranks

_CHUNK_ELEMS = 1 << 18     # comparisons or products per min_distance step
_SET_COST = 1 << 12       # words one more information set costs, in min_distance


class InconsistentLengthError(ValueError):
    """Generator rows of unequal length."""


class EmptySetError(ValueError):
    """Coordinate set must be nonempty."""


class TooLargeToEnumerateError(ValueError):
    """Search space exceeds the configured cap."""


class ZeroCodeError(ValueError):
    """Operation undefined for the zero code."""


class BadRankError(ValueError):
    """Requested subcode dimension out of range."""


class IndexOutOfRangeError(ValueError):
    """Coordinate outside [0, n)."""


def _is_coordinate(c, n: int) -> bool:
    """The rule for one coordinate: an integer (_is_int) in [0, n)."""
    return _is_int(c) and 0 <= c < n


def _coords(n: int, seq, allow_empty: bool = True) -> tuple[int, ...]:
    """Validate and canonicalize a coordinate set: sorted, unique, in range."""
    out = list(seq)
    if not allow_empty and not out:
        raise EmptySetError("coordinate set must be nonempty")
    for c in out:
        if not _is_coordinate(c, n):
            raise IndexOutOfRangeError(f"{c!r} is not a coordinate in [0, {n})")
    out.sort()
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate coordinate {a}")
    return tuple(out)


def _eliminate(field, mat, reduced: bool) -> list[int]:
    """Gaussian elimination of mat (a list of row lists) in place; returns
    the pivot columns.  Reduced mode clears each pivot's column above and
    below, leaving a reduced row echelon form with unscaled pivots in the
    first len(pivots) rows; otherwise only the rows below are cleared, which
    is all a rank needs.  Either way the scan stops once every row holds a
    pivot."""
    n_rows = len(mat)
    clear_column = field._clear_column
    pivots = []
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        for piv in range(rank, n_rows):
            if mat[piv][c]:
                break
        else:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        rows = mat[:rank] + mat[rank + 1:] if reduced else mat[rank + 1:]
        if rows:
            clear_column(mat[rank], c, rows)
        pivots.append(c)
        rank += 1
        if rank == n_rows:
            break
    return pivots


def rref(field, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over the field; returns (rows, pivot columns).

    Zero rows are dropped, so the result is a canonical basis of the row
    space (empty for the zero space).  Entries are canonical elements,
    unchecked (code_from_rows checks them where they enter).
    """
    mat = [list(r) for r in rows]
    pivots = _eliminate(field, mat, reduced=True)
    mul = field._mul
    out = []
    for row, c in zip(mat, pivots):
        inv = field._inv(row[c])
        if inv != 1:
            row = [mul(inv, x) for x in row]
        out.append(tuple(row))
    return tuple(out), tuple(pivots)


def _kernel(field, red, pivots, width) -> list[tuple[int, ...]]:
    """Basis of {x : red @ x = 0} for a matrix red in reduced row echelon
    form with the given pivot columns: one vector per free column."""
    basis = []
    for j in sorted(set(range(width)) - set(pivots)):
        v = [0] * width
        v[j] = 1
        for row, pc in zip(red, pivots):
            v[pc] = field._neg(row[j])
        basis.append(tuple(v))
    return basis


class LinearCode:
    """A length-n, dimension-k code held as a reduced-row-echelon generator.

    Two instances with the same row space over the same field compare equal.
    Instances are immutable; construct through code_from_rows.  _witnesses
    keeps _scan_witnesses' scans by t, outside pickles, == and hash.
    """

    __slots__ = ("field", "n", "k", "gen", "pivots", "_witnesses")

    def __init__(self, field, n, gen, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "k", len(gen))
        object.__setattr__(self, "_witnesses", {})

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    def __reduce__(self):
        # rebuilt through __init__: the default slot restore would go
        # through the blocked __setattr__
        return LinearCode, (self.field, self.n, self.gen, self.pivots)

    def __eq__(self, other):
        return (isinstance(other, LinearCode)
                and self.field == other.field
                and self.n == other.n
                and self.gen == other.gen)

    def __hash__(self):
        return hash((self.field, self.n, self.gen))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over {self.field!r}"


def code_from_rows(field, rows, n: int | None = None) -> LinearCode:
    """Canonical code spanned by the given rows; k = rank of the rows.

    The zero code (no rows, or all-zero rows) is allowed but then n must be
    supplied or deducible.
    """
    rows = [tuple(r) for r in rows]
    if rows:
        length = len(rows[0])
        for r in rows:
            if len(r) != length:
                raise InconsistentLengthError(
                    f"row lengths differ: {len(r)} vs {length}")
        if n is not None and n != length:
            raise InconsistentLengthError(f"n = {n} but rows have length {length}")
        n = length
        for r in rows:
            field._check_all(r)
    elif n is None:
        raise InconsistentLengthError("empty code needs an explicit length")
    gen, pivots = rref(field, rows)
    return LinearCode(field, n, gen, pivots)


def puncture(code: LinearCode, coords) -> LinearCode:
    """Restriction of every codeword to the given coordinates."""
    S = _coords(code.n, coords, allow_empty=False)
    rows = [tuple(row[c] for c in S) for row in code.gen]
    return code_from_rows(code.field, rows, len(S))


def shorten(code: LinearCode, coords) -> LinearCode:
    """Restrictions of the codewords whose support lies inside the set: the
    dual words of the dual there."""
    S = _coords(code.n, coords, allow_empty=False)
    return code_from_rows(code.field, _dual_words(dual(code), S), len(S))


def dual(code: LinearCode) -> LinearCode:
    """The [n, n-k] code orthogonal to every codeword."""
    return code_from_rows(
        code.field, _kernel(code.field, code.gen, code.pivots, code.n), code.n)


def _dual_words(code: LinearCode, coords) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the dual words supported inside the sorted,
    checked coordinates, restricted to them: shorten(dual(code), coords).gen
    without building the dual.  Those words are the dual of the punctured
    code C[coords], so they are the kernel of the generator's columns at
    coords, brought to reduced row echelon form (empty when the columns
    are independent)."""
    field = code.field
    red, pivots = rref(field, [[row[c] for c in coords] for row in code.gen])
    return rref(field, _kernel(field, red, pivots, len(coords)))[0]


# ---------------------------------------------------------------------------
# Exhaustive weight computations
# ---------------------------------------------------------------------------

def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords, by the
    Brouwer-Zimmermann search.

    The generator is brought into systematic form on m pairwise disjoint
    information sets (_information_sets; columns left over count toward
    weights, never toward the bound).  A codeword's message in the form on
    set I is its restriction to I, so a weight-w message weighs w plus its
    nonzeros on the n - k columns outside I.  Messages are enumerated by
    weight w = 1, 2, ... in turn on each set, one per projective class,
    since weights are scale invariant.  Once weight w is done on sets
    0..j - 1 and weight w - 1 on the rest, every codeword not yet seen has
    weight at least j (w + 1) + (m - j) w on the sets alone, and the search
    stops when that reaches the least weight found.  Weight k on one set
    covers every message.  m is chosen from the least row weight U by
    _set_count; m = 1 is the full projective enumeration.

    The search's own plan is its only cost gate: m sets stop by weight
    W(m) = min(k, ceil(U/m) - 1), so they reach at most m words[W(m)]
    projective messages, words[w] counting those of weight at most w.
    TooLargeToEnumerateError is raised when that reach exceeds
    DEFAULT_ENUM_CAP, read at each call: once for the planned m, before
    any information set is eliminated, and again for the sets actually
    built when the columns left over run out early.  The planned reach is
    below q^k (see _set_count).  Each set keeps one level of words, those
    of the weight-(w - 1) messages on its n - k outside columns
    (_least_weights), and forms the next one only when the next weight
    w <= W(m) is asked for, so the levels the m sets hold at once, two per
    set at most, are fewer than
    m words[W(m)] <= DEFAULT_ENUM_CAP words of n - k symbols (29.5 MiB for
    the binary [47,24,11] quadratic-residue code, which counts through
    weight 10 on one set).  The rows' q - 1 multiples are kept only once a
    set forms a level, when weight 3 is reached, and then
    C(k, 3) (q - 1)^2 <= words[3] <= DEFAULT_ENUM_CAP; weight 2 reads them
    in steps of about _CHUNK_ELEMS products.
    """
    if code.k == 0:
        raise ZeroCodeError("the zero code has no nonzero codeword")
    field = code.field
    k, n = code.k, code.n
    G = np.array(code.gen, dtype=np.int64)
    best = int(np.count_nonzero(G, axis=1).min())
    m, reach = _set_count(field.q, k, n, best)
    _within_cap(m, reach)
    sets = _information_sets(code, G, m)
    _within_cap(len(sets), reach)
    searches = [_least_weights(field, gen, columns) for gen, columns in sets]
    for w in range(1, k + 1):
        for j, search in enumerate(searches):
            if j * (w + 1) + (len(searches) - j) * w >= best:
                return best
            best = min(best, next(search))
            if w == k:
                return best
    return best


def _set_count(q: int, k: int, n: int, least_row: int):
    """(m, reach): the number m of information sets to search on, at most
    n // k, and reach(j), the projective messages that j sets can reach
    before the stop rule fires.

    With j sets the search stops by weight W(j) = min(k, ceil(U/j) - 1) at
    the latest, U the least row weight, since j (W + 1) >= U; reach(j) is
    j words[W(j)], words[w] the messages of weight at most w.  m minimises
    m (words[W(m)] + _SET_COST), so m words[W(m)] <= words[W(1)] <=
    (q^k - 1) / (q - 1) < q^k.  Only 1 and the fewest sets that stop by
    each weight need comparing: any other m costs at least as much as one
    of them."""
    words = list(itertools.accumulate(
        (math.comb(k, w) * (q - 1) ** (w - 1) for w in range(1, k + 1)),
        initial=0))

    def reach(j):
        return j * words[min(k, -(-least_row // j) - 1)]
    counts = {1} | {-(-least_row // (top + 1)) for top in range(k + 1)}
    m = min(sorted(j for j in counts if j <= n // k),
            key=lambda j: reach(j) + j * _SET_COST)
    return m, reach


def _within_cap(m: int, reach) -> None:
    """Refuse a search on m information sets that can reach more than
    DEFAULT_ENUM_CAP words."""
    if reach(m) > DEFAULT_ENUM_CAP:
        raise TooLargeToEnumerateError(
            f"the distance search on {m} information sets reaches "
            f"{reach(m)} words, past the cap {DEFAULT_ENUM_CAP}")


def _information_sets(code: LinearCode, G: np.ndarray, m: int) -> list:
    """Up to m pairs (generator, columns): generators of the code, each
    systematic on its own information set (row i is 1 at columns[i] and 0
    at the set's other columns), the sets pairwise disjoint.  The first is
    G = code.gen on code.pivots, each further one the rref of the columns no
    earlier set holds, moved to the front.  Stops early when those columns
    have rank below k."""
    k, n = G.shape
    sets = [(G, code.pivots)]
    used = set(code.pivots)
    while len(sets) < m:
        order = ([c for c in range(n) if c not in used]
                 + [c for c in range(n) if c in used])
        red, pivots = rref(code.field, [[row[c] for c in order]
                                        for row in code.gen])
        if pivots[-1] >= n - len(used):
            break
        gen = np.empty_like(G)
        gen[:, order] = red
        columns = tuple(order[c] for c in pivots)
        sets.append((gen, columns))
        used.update(columns)
    return sets


def _least_weights(field, G: np.ndarray, columns):
    """Yields the least weight of the codewords x G over the messages x of
    weight w = 1, 2, ..., k in turn, G systematic on the given columns.

    Such a codeword weighs w plus its nonzeros on the other n - k columns,
    so only those are kept: the rows there and one level of words, those of
    the weight-(w - 1) messages, one per projective class (first nonzero
    coefficient 1).  The words are coordinate-major ((n - k) x words) in
    the narrowest unsigned type that holds q - 1, sorted by last support
    index; below[j] counts those whose last index is below j.  Weight 2
    reads the rows' multiples one step of _multiples at a time; the q - 1
    multiples of rows 1 .. k - 1 are kept only from the first level formed
    on.  Level w is formed (_next_level) only when weight w + 1 is asked
    for, so the last level counted is never stored, and without the words
    whose last index is k - 1, which no row extends."""
    k, n = G.shape
    keep = np.ones(n, dtype=bool)
    keep[list(columns)] = False
    outside = G[:, keep]
    symbol = np.min_scalar_type(field.q - 1)
    words, below = outside.T.astype(symbol), np.arange(k + 1)
    yield 1 + int(np.count_nonzero(outside, axis=1).min())
    yield 2 + _least_outside(words, below, _multiples(field, outside))
    multiples = np.concatenate(tuple(_multiples(field, outside)), axis=2)
    for w in range(3, k + 1):
        words, below = _next_level(field, words, below, multiples)
        yield w + _least_outside(words, below, (multiples,))


def _multiples(field, outside):
    """The multiples of rows 1 .. k - 1 by the nonzero scalars in turn, in
    blocks of about _CHUNK_ELEMS products in the type of the words:
    block[j - 1] holds row j's multiples by one run of scalars."""
    rows = outside[1:, :, None]
    symbol = np.min_scalar_type(field.q - 1)
    step = max(1, _CHUNK_ELEMS // max(1, rows.size))
    for lo in range(1, field.q, step):
        scalars = np.arange(lo, min(lo + step, field.q))
        yield field.mul_array(rows, scalars).astype(symbol)


def _steps(width: int, scalars: int) -> tuple[int, int]:
    """Scalars and words per step over pairs of a word and a multiple,
    width symbols each: about _CHUNK_ELEMS symbols, at least one pair."""
    per = max(1, min(scalars, _CHUNK_ELEMS // max(1, width)))
    return per, max(1, _CHUNK_ELEMS // max(1, width * per))


def _least_outside(words, below, blocks) -> int:
    """Least number of nonzeros of prev + c row_j over every row j >= 1,
    every word prev whose last support index is below j and every nonzero
    c in the blocks (block[j - 1] holds row j's multiples by a run of
    scalars).

    prev + c row_j vanishes exactly where prev equals -c row_j; as c runs
    over the nonzero elements so does -c, so each count is the coordinates
    where prev differs from a multiple of row j, over the columns at once,
    one _steps step at a time."""
    width = words.shape[0]
    count = np.min_scalar_type(width)
    best = width
    for block in blocks:
        scalars = block.shape[2]
        per, step = _steps(width, scalars)
        for j, row in enumerate(block, start=1):
            stop = int(below[j])
            for c in range(0, scalars, per):
                some = row[:, c:c + per, None]
                for lo in range(0, stop, step):
                    differs = words[:, None, lo:min(lo + step, stop)] != some
                    weights = differs.view(np.uint8).sum(axis=0, dtype=count)
                    best = min(best, int(weights.min()))
    return best


def _next_level(field, words, below, multiples):
    """The next level of _least_weights' words and its below: every word
    prev whose last support index is below j, plus each multiple of row j,
    for j = 1 .. k - 2 in turn, so the new words are sorted by last index
    j.  Words whose last index would be k - 1 are left out: no row follows
    them, so no later count or level reads them.  The level is written
    into one array, one _steps step at a time."""
    width, scalars = words.shape[0], multiples.shape[2]
    total = np.min_scalar_type(2 * (field.q - 1))     # holds a sum of two
    per, step = _steps(width, scalars)
    counts = np.zeros_like(below)
    counts[2:-1] = below[1:-2] * scalars
    ends = np.cumsum(counts)
    level = np.empty((width, int(ends[-1])), dtype=words.dtype)
    for j, row in enumerate(multiples[:-1], start=1):
        stop = int(below[j])
        piece = level[:, ends[j]:ends[j + 1]].reshape(width, scalars, stop)
        for c in range(0, scalars, per):
            some = row[:, c:c + per, None].astype(total)
            for lo in range(0, stop, step):
                hi = min(lo + step, stop)
                piece[:, c:c + per, lo:hi] = field.add_array(
                    words[:, None, lo:hi], some)
    return level, ends


def _rank_cols(code: LinearCode, coords) -> int:
    """Rank of the generator restricted to the given columns (dim of C[S])."""
    mat = [[row[c] for c in coords] for row in code.gen]
    return len(_eliminate(code.field, mat, reduced=False))


def ghw(code: LinearCode, s: int) -> int:
    """s-th generalized Hamming weight: the minimum support size over all
    s-dimensional subcodes, computed as dual_ghw of the dual code."""
    if code.k == 0:
        raise ZeroCodeError("the zero code has no subcodes")
    return dual_ghw(dual(code), s)


def dual_ghw(code: LinearCode, s: int, d: int | None = None) -> int:
    """d_s(dual): the s-th generalized Hamming weight of the dual code, read
    off the columns of the code itself.

    The dual words supported inside a set S are the linear dependencies among
    the generator columns in S, a space of dimension |S| - rank(S), so d_s is
    the least |S| with that nullity at least s.  The supports of s to
    k + s - 1 columns are walked (_walk); any k + s columns have nullity at
    least s (the generalized Singleton bound), so k + s is returned untested
    when no smaller support qualifies.  d, when given, is the minimum
    distance of the code or any lower bound on it; by Wei's duality theorem
    ({d_r(C)} and {n + 1 - d_s(dual)} partition 1..n) every
    s >= n - k - d + 2 has d_s(dual) = k + s, which is returned unwalked."""
    n, k = code.n, code.k
    if not _is_int(s) or not 1 <= s <= n - k:
        raise BadRankError(f"s must lie in [1, {n - k}], got {s}")
    if d is not None and s >= n - k - d + 2:
        return k + s
    for support in _walk(code, range(s, k + s)):
        if len(support) - _rank_cols(code, support) >= s:
            return len(support)
    return k + s


def _walk(code: LinearCode, sizes: range):
    """The supports of the given sizes, by size and then lexicographically,
    after TooLargeToEnumerateError if k times their number (an elimination
    of k rows each) exceeds DEFAULT_ENUM_CAP, read at each call."""
    n, k = code.n, code.k
    if k * sum(math.comb(n, size) for size in sizes) > DEFAULT_ENUM_CAP:
        raise TooLargeToEnumerateError(
            f"k = {k} times the supports of {sizes[0]} to {sizes[-1]} of "
            f"{n} columns exceeds the cap {DEFAULT_ENUM_CAP}")
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in sizes)


# ---------------------------------------------------------------------------
# Recovery sets, error-detecting recovery sets, locality
# ---------------------------------------------------------------------------

def _checked_t(t) -> None:
    """The check of a detection level t: a nonnegative integer (_is_int)."""
    if _checked_int("t", t) < 0:
        raise ValueError(f"t must be nonnegative, got {t}")


def _checked_helpers(n: int, i, helpers=(), t: int = 0) -> tuple[int, ...]:
    """The one check of a target i in [0, n), t (_checked_t) and helpers
    distinct from each other and from i, where they enter; returns the
    helpers sorted."""
    if not _is_coordinate(i, n):
        raise IndexOutOfRangeError(f"target {i!r} is not a coordinate in [0, {n})")
    _checked_t(t)
    R = _coords(n, helpers)
    if i in R:
        raise ValueError(f"target {i} must not be among the helpers")
    return R


def is_recovery_set(code: LinearCode, i: int, helpers) -> bool:
    """True when column i lies in the span of the helper columns.

    The empty set recovers i exactly when column i is zero.
    """
    R = _checked_helpers(code.n, i, helpers)
    return _rank_cols(code, R) == _rank_cols(code, R + (i,))


def is_edr_set(code: LinearCode, i: int, helpers, t: int) -> bool:
    """True when the punctured code on helpers + {i} has distance > t + 1.

    Equivalent formulation used here: every t + 1 columns of a parity-check
    matrix of the punctured code are independent, checked by elimination
    (see _detects).  This stays polynomial in the set size where codeword
    enumeration would blow up; more than DEFAULT_ENUM_CAP such column sets
    raise TooLargeToEnumerateError.
    """
    R = _checked_helpers(code.n, i, helpers, t)
    return _detects(code, tuple(sorted(R + (i,))), t)


def _detects(code, support, t, ranks=None) -> bool:
    """is_edr_set on the sorted support S = R + {i}, unvalidated: the
    punctured code C[S] is the zero code or has distance >= t + 2.  ranks,
    when given, is a column-rank memo keyed by column tuple.

    The cheap tests come first.  A rank of 0 detects.  Singleton prefilter:
    a support that detects has rank(S) <= |S| - t - 1, so a larger rank
    fails.  Prefix screen: dropping the last t + 1 columns of S must keep
    the rank (in a lexicographic scan that rank is a memo hit).  Then
    d(C[S]) >= t + 2 holds exactly when every t + 1 columns of a
    parity-check matrix of C[S] are independent (_parity_columns,
    _independent)."""
    full = _memo_rank(code, support, ranks)
    if full == 0:
        return True
    size = len(support)
    if full > size - t - 1:
        return False
    if math.comb(size, t + 1) > DEFAULT_ENUM_CAP:
        raise TooLargeToEnumerateError(
            f"C({size},{t + 1}) supports exceed the cap {DEFAULT_ENUM_CAP}")
    if _memo_rank(code, support[:size - t - 1], ranks) < full:
        return False
    return _independent(code.field._clear_column,
                        _parity_columns(code, support), t + 1)


def _parity_columns(code, support) -> list[list[int]]:
    """The columns of a parity-check matrix of C[S], each up to a nonzero
    scalar, from one reduced elimination of S's columns: a free column of S
    gets a unit vector, and a pivot column its row's entries in the free
    columns.  (The kernel vector of free column j is 1 at j and -row[j] /
    row[pivot] at each row's pivot; scaling a column keeps every
    independence.)"""
    mat = [[row[c] for c in support] for row in code.gen]
    pivots = _eliminate(code.field, mat, reduced=True)
    free = sorted(set(range(len(support))) - set(pivots))
    cols = [None] * len(support)
    for f, c in enumerate(free):
        cols[c] = [0] * len(free)
        cols[c][f] = 1
    for row, c in zip(mat, pivots):
        cols[c] = [row[j] for j in free]
    return cols


def _independent(clear_column, vectors, w) -> bool:
    """True when every w of the vectors (lists) are linearly independent,
    depth first over the w-subsets in lexicographic order.  Each vector
    must be nonzero.  For w = 2, no two may share a projective class, which
    clearing each vector's first nonzero entry from a unit vector names.
    For w > 2, the vectors after vector a, cleared of its first nonzero
    entry, must be independent w - 1 at a time: a shares that one reduction
    with every subset it starts.  Only the vectors a reduction changes are
    copied."""
    classes = set()
    for a, v in enumerate(vectors):
        for pivot, x in enumerate(v):
            if x:
                break
        else:
            return False
        if w == 2:
            # unit - v / v[pivot], the same for every nonzero multiple of v
            key = [0] * len(v)
            key[pivot] = 1
            clear_column(v, pivot, [key])
            key = (pivot, *key)
            if key in classes:
                return False
            classes.add(key)
        elif w > 2 and a <= len(vectors) - w:
            rest = [list(u) if u[pivot] else u for u in vectors[a + 1:]]
            clear_column(v, pivot, rest)
            if not _independent(clear_column, rest, w - 1):
                return False
    return True


def _memo_rank(code, cols, ranks):
    """_rank_cols(code, cols), looked up in the memo ranks when one is given.
    A set whose prefix cols[:-1] is memoised at rank k has rank k too: rank
    never falls as columns are added and never exceeds k.  It empties at
    DEFAULT_ENUM_CAP >> 6 ranks, read at each call, to bound a walk's memory."""
    if ranks is None:
        return _rank_cols(code, cols)
    rank = ranks.get(cols)
    if rank is None:
        if len(ranks) >= DEFAULT_ENUM_CAP >> 6:
            ranks.clear()
        if ranks.get(cols[:-1]) == code.k:
            rank = ranks[cols] = code.k
        else:
            rank = ranks[cols] = _rank_cols(code, cols)
    return rank


@dataclass(frozen=True)
class CoordLocality:
    coord: int
    locality: int | None         # None when no t-edr set exists
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class BoundStatus:
    name: str
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def slack(self) -> int:
        return self.lhs - self.rhs

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "holds": self.holds, "slack": self.slack,
                "equality": self.equality}


@dataclass
class LocalityReport:
    """Per-coordinate minimal error-detecting recovery sets and their maximum."""
    t: int
    per_coord: list[CoordLocality]
    mode: str                     # "exhaustive" or "greedy" (upper bounds only)

    @property
    def r_t(self) -> int | None:
        vals = [c.locality for c in self.per_coord]
        if any(v is None for v in vals):
            return None
        return max(vals) if vals else None

    @property
    def not_t_lredc(self) -> tuple[int, ...]:
        """Coordinates admitting no t-edr set (empty when the code is t-LREDC)."""
        return tuple(c.coord for c in self.per_coord if c.locality is None)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "mode": self.mode,
            "per_coordinate": [
                {"coordinate": c.coord, "locality": c.locality,
                 "witness": list(c.witness) if c.witness is not None else None}
                for c in self.per_coord],
            "locality": self.r_t,
            "not_t_lredc": list(self.not_t_lredc),
        }


def _shared_scan(code, t, floor, d) -> dict:
    """The first t-edr set in exhaustive order of each coordinate that has
    one, as {coordinate: helpers}, a function of (code, t, floor) alone.  A
    zero column gets the empty set; the others share one walk (_walk) over
    the supports S of more than floor columns, with column ranks memoised.

    The verdict belongs to S alone, and inserting i into the lexicographic
    order of the helper sets R keeps it, so the first S containing i that
    detects is R + {i} for i's first witness R.  Each S is tested once, and
    only while some member lacks a witness; every such member gets S - {i}.
    d, when given, is the minimum distance of the code or a lower bound on
    it.  Puncturing the n - |S| columns outside S lowers a weight by at
    most n - |S|, so every S of n - d + t + 2 or more columns has
    d(C[S]) >= t + 2 and detects (the puncturing rule): only smaller sizes
    are walked, and each coordinate i still pending then gets the first S
    of the first size m left, the m - 1 lowest columns other than i."""
    n = code.n
    first = n + 1 if d is None else max(floor + 1, n - d + t + 2)
    found = {i: () for i in range(n) if not any(row[i] for row in code.gen)}
    pending = set(range(n)) - found.keys()
    ranks = {}
    for S in _walk(code, range(floor + 1, min(first, n + 1))):
        if not pending:
            break
        if pending.isdisjoint(S) or not _detects(code, S, t, ranks):
            continue
        for i in pending.intersection(S):
            found[i] = tuple(c for c in S if c != i)
        pending.difference_update(S)
    for i in pending if first <= n else ():
        found[i] = tuple(c for c in range(first) if c != i)[:first - 1]
    return found


def _scan_witnesses(code, t, weight=None, d=None) -> dict:
    """code._witnesses[t], filled by _shared_scan on first use, so that the
    supports are scanned once per (code, t).  A support holding a nonzero
    column detects only if its dual words span t + 1 dimensions
    (Singleton), so it has at least d_{t+1}(dual) columns (Wei): the scan
    starts past t + 1 columns, or past weight - 1 when certify passes the
    weight = d_{t+1}(dual) that it computed, and a dual of dimension at
    most t leaves nothing to scan.  certify also passes its distance d,
    exact or a construction's lower bound, for the puncturing rule of
    _shared_scan; neither changes a witness, so the memo holds whichever
    call came first."""
    n = code.n
    floor = (n if n - code.k <= t
             else t + 1 if weight is None else max(t + 1, weight - 1))
    found = code._witnesses.get(t)
    if found is None:
        found = code._witnesses[t] = _shared_scan(code, t, floor, d)
    return found


def t_locality(code: LinearCode, t: int,
               mode: str = "exhaustive") -> LocalityReport:
    """Minimum t-edr set size per coordinate and the maximum over them.

    Exhaustive mode keeps each coordinate's first witness in the order of
    cardinality then lexicographic order, so results are deterministic and
    minimal; one pass over the supports serves every coordinate
    (_shared_scan), kept on the code by t (_scan_witnesses); the scan
    refuses a walk past DEFAULT_ENUM_CAP (_walk), here every size past t + 1
    (certify's d and d_{t+1}(dual) narrow it).  Greedy mode tests, for
    each coordinate, only the lowest-index helpers of each size and yields
    upper bounds, flagged through the report's mode field.
    """
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    _checked_t(t)
    n = code.n
    if mode == "greedy":
        ranks = {}
        found = {}
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for size in range(n):
                R = tuple(others[:size])
                if _detects(code, tuple(sorted(R + (i,))), t, ranks):
                    found[i] = R
                    break
    else:
        found = _scan_witnesses(code, t)
    per = []
    for i in range(n):
        R = found.get(i)
        per.append(CoordLocality(i, None if R is None else len(R), R))
    return LocalityReport(t=t, per_coord=per, mode=mode)


# ---------------------------------------------------------------------------
# Parameter bounds and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    statuses: dict
    t_optimal: bool

    def to_dict(self) -> dict:
        return {"t_optimal": self.t_optimal,
                "statuses": {k: v.to_dict() for k, v in self.statuses.items()}}


def check_bounds(n: int, k: int, d: int, t: int, r_t: int,
                 dual_ghw: int | None = None) -> BoundsReport:
    """Evaluate the locality bounds on verified code parameters.

    Violations are reported, never raised: the bounds are theorems, so a
    violation is a finding that falsifies an upstream computation and must
    surface in reports and tests.
    """
    _checked_t(t)
    for name, value in (("n", n), ("k", k), ("d", d), ("r_t", r_t)):
        _checked_int(name, value)
    if dual_ghw is not None:
        _checked_int("dual_ghw", dual_ghw)
    if r_t <= t:
        raise ValueError(f"r_t = {r_t} must exceed t = {t}")
    statuses = {}
    rhs = k + d + math.ceil(k / (r_t - t)) * (t + 1)
    singleton = BoundStatus(
        name="n+t+2 >= k+d+ceil(k/(r_t-t))*(t+1)", lhs=n + t + 2, rhs=rhs)
    statuses["locality_singleton"] = singleton
    if t == 0:
        statuses["classic_lrc_singleton"] = BoundStatus(
            name="n+2 >= k+d+ceil(k/r_0)", lhs=n + 2,
            rhs=k + d + math.ceil(k / r_t))
    if dual_ghw is not None:
        statuses["dual_weight_hierarchy"] = BoundStatus(
            name="r_t >= d_{t+1}(dual)-1", lhs=r_t, rhs=dual_ghw - 1)
    return BoundsReport(statuses=statuses, t_optimal=singleton.equality)


@dataclass(frozen=True)
class Certificate:
    """A code's distance (distance_kind: "exact", "unavailable", "zero_code"
    or a spec's distance_bound kind), d_{t+1}(dual), t-locality and bounds."""
    distance: int | None
    distance_kind: str
    dual_ghw: int | None
    locality: LocalityReport
    downgraded: bool
    bounds: BoundsReport | None
    t_optimal: bool | None

    @property
    def violation(self) -> bool:
        return self.bounds is not None and any(
            not status.holds for status in self.bounds.statuses.values())

    def to_dict(self) -> dict:
        return {"distance": {"value": self.distance, "kind": self.distance_kind},
                "dual_ghw": self.dual_ghw, **self.locality.to_dict(),
                "exact_search": self.locality.mode == "exhaustive",
                "downgraded_to_greedy": self.downgraded,
                "bounds": None if self.bounds is None else self.bounds.to_dict(),
                "t_optimal": self.t_optimal}


def certify(code: LinearCode, t: int, spec=None,
            greedy: bool = False) -> Certificate:
    """Certify the code at detection level t.  The distance is exact where
    min_distance's planned search fits its cap, else the spec's
    distance_bound, else unavailable; it settles d_{t+1}(dual), the
    locality search's floor, where Wei's duality applies, and by the
    puncturing rule every support of n - d + t + 2 or more columns detects
    without a test (_shared_scan).  On an MDS code the scan starts at
    d_{t+1}(dual) = k + t + 1 = n - d + t + 2, so it runs no elimination.
    Walks past the cap leave dual_ghw null and the locality greedy."""
    _checked_t(t)
    try:
        d, distance_kind = min_distance(code), "exact"
    except TooLargeToEnumerateError:
        d, distance_kind = (None, "unavailable") if spec is None else spec.distance_bound
    except ZeroCodeError:
        d, distance_kind = None, "zero_code"
    weight = None
    if code.n - code.k > t:
        try:
            weight = dual_ghw(code, t + 1, d)
        except TooLargeToEnumerateError:
            pass
    try:
        if not greedy:
            _scan_witnesses(code, t, weight, d)
        report = t_locality(code, t, "greedy" if greedy else "exhaustive")
    except TooLargeToEnumerateError:
        report = t_locality(code, t, mode="greedy")
    downgraded = not greedy and report.mode == "greedy"
    bounds = t_optimal = None
    if report.r_t is not None and d is not None:
        bounds = check_bounds(code.n, code.k, d, t, report.r_t, dual_ghw=weight)
        if distance_kind == "exact" and report.mode == "exhaustive":
            t_optimal = bounds.t_optimal
    return Certificate(d, distance_kind, weight, report, downgraded, bounds,
                       t_optimal)
