"""Constructive evaluation codes: Reed-Solomon and piecewise-RS codes built
on the plane curve y = p(x).

An RS code evaluates the polynomials of degree below k at a fixed point set.
The piecewise construction groups the field along the fibres of the map
a -> p(a): only full fibres (all deg(p) preimages present) are kept, and the
evaluated function space is spanned by the monomials x^i y^j with j bounded
per i.  Restricted to any one fibre, y is constant, so every codeword looks
like a short RS codeword there; that is what makes cheap local repair with
error detection possible.

Every spec derives from its rows, on first use, its generator (the
simulator's engine reads it), what its field encodes with (Field.encoding:
packed rows on fields of characteristic 2 with at most 256 elements, the
generator elsewhere; encode reads it) and its LinearCode (certify reads it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import codeops
from .galois import _checked_int, _is_int


class DuplicatePointsError(ValueError):
    """Evaluation points must be pairwise distinct."""


class BadDimensionError(ValueError):
    """Dimension outside [1, number of points]."""


class NoFullFibresError(ValueError):
    """No value of p(x) has deg(p) distinct preimages."""


class DegreeOverflowError(ValueError):
    """Evaluated functions reach degree n or more, voiding the distance bound."""


class BadLVectorError(ValueError):
    """Exponent-bound vector has the wrong length or negative entries."""


class BadMessageLengthError(ValueError):
    """Message length differs from the code dimension."""


class DuplicatePositionsError(ValueError):
    """Interpolation positions must be distinct."""


class WrongCountError(ValueError):
    """Interpolation needs exactly k positions."""


class _EvaluationCode:
    """The fibre rule of an evaluation-code spec: on each fibre of fibre_size
    consecutive coordinates every codeword restricts to an MDS code of
    dimension local_k, so any local_k + t other coordinates of a fibre
    repair a target there and detect t helper errors, up to t_cap (an RS
    code is one fibre).  Its generator, encoding and code are built on first
    use; none is a field, so equality, hash and repr ignore them."""

    @property
    def t_cap(self) -> int:
        """Helper errors a plan on a fibre detects: the fibre's restriction
        has distance fibre_size - local_k + 1 = t_cap + 2."""
        return self.fibre_size - self.local_k - 1

    def fibre_coords(self, coord: int) -> range:
        """Coordinates sharing the fibre of the given coordinate."""
        codeops._checked_helpers(self.n, coord)
        start = coord - coord % self.fibre_size
        return range(start, start + self.fibre_size)

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """eval_rows as a read-only int64 (n, k) array (n x 0 when k = 0)."""
        columns = np.array(self.eval_rows, dtype=np.int64).reshape(self.k, self.n).T
        columns.flags.writeable = False
        return columns

    @functools.cached_property
    def encoding(self):
        """Field.encoding of the generator, for encode: a tuple of packed
        rows on fields of characteristic 2 with at most 256 elements, the
        generator itself elsewhere."""
        return self.field.encoding(self.generator)

    @functools.cached_property
    def code(self) -> codeops.LinearCode:
        """The rows' LinearCode; the construction makes them independent."""
        return codeops.code_from_rows(self.field, self.eval_rows, self.n)

    def __getstate__(self):
        # copies and unpickled specs rebuild all three on first use (numpy
        # would restore the generator writeable)
        return {key: value for key, value in self.__dict__.items()
                if key not in ("generator", "encoding", "code")}


@dataclass(frozen=True)
class RsSpec(_EvaluationCode):
    """A Reed-Solomon code: evaluations of 1, x, ..., x^(k-1) at the points."""
    field: object
    points: tuple[int, ...]
    k: int
    eval_rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def distance_bound(self) -> tuple[int, str]:
        return self.n - self.k + 1, "mds_formula"        # RS codes are MDS

    @property
    def fibre_size(self) -> int:
        return self.n

    @property
    def local_k(self) -> int:
        return self.k


@dataclass(frozen=True)
class LrcRsSpec(_EvaluationCode):
    """A piecewise-RS code on the curve y = p(x), kept fibre by fibre.

    points concatenates the full fibres, fibres sorted by their y value and
    members sorted by x, so coordinate c belongs to fibre c // (r + 1).
    """
    field: object
    p_poly: tuple[int, ...]
    l: tuple[int, ...]
    r: int
    fibres: tuple[tuple[int, tuple[int, ...]], ...]   # (beta, members)
    points: tuple[int, ...]
    n: int
    k: int
    delta: int
    basis: tuple[tuple[int, int], ...]                # (i, j) exponent pairs
    eval_rows: tuple[tuple[int, ...], ...]

    @property
    def u(self) -> int:
        return len(self.fibres)

    @property
    def goppa_lower_bound(self) -> int:
        return self.n - self.delta

    @property
    def distance_bound(self) -> tuple[int, str]:
        return self.goppa_lower_bound, "goppa_lower_bound"

    @property
    def fibre_size(self) -> int:
        return self.r + 1

    @property
    def local_k(self) -> int:
        """On a fibre y is constant, so every codeword is an RS word in x of
        degree below len(l) = r - 1."""
        return self.r - 1


@dataclass(frozen=True)
class Codeword:
    """A length-n symbol vector aligned with a spec's point order; erased
    positions are tracked by index and carry no symbol value."""
    symbols: tuple[int, ...]
    erased: frozenset[int] = frozenset()


def rs_make(field, points, k: int) -> RsSpec:
    """Build RS(points, k): generator rows are the monomials up to x^(k-1)."""
    pts = field._check_all(tuple(points))
    if len(set(pts)) != len(pts):
        raise DuplicatePointsError("evaluation points must be distinct")
    if not _is_int(k) or not 1 <= k <= len(pts):
        raise BadDimensionError(f"k must lie in [1, {len(pts)}], got {k!r}")
    # tolist: the rows hold Python ints, which _check_all accepts
    rows = [tuple(row.tolist())
            for row in _power_arrays(field, np.array(pts, dtype=np.int64), k - 1)]
    return RsSpec(field=field, points=pts, k=k, eval_rows=tuple(rows))


def lrcrs_make(field, p_poly, l) -> LrcRsSpec:
    """Build the piecewise-RS code for the curve y = p(x) and exponent bounds l.

    deg(p) = r + 1 fixes the fibre size; l = (l_0, ..., l_{r-2}) bounds the
    y-exponent attached to each x^i.  The code keeps only full fibres.
    """
    p_coeffs = field._check_all(tuple(p_poly))
    while p_coeffs and p_coeffs[-1] == 0:
        p_coeffs = p_coeffs[:-1]
    deg = len(p_coeffs) - 1
    if deg < 2:
        raise ValueError(f"p(x) must have degree at least 2, got degree {deg}")
    r = deg - 1
    l = tuple(l)
    if len(l) != r - 1 or any(not _is_int(v) or v < 0 for v in l):
        raise BadLVectorError(
            f"l: need {r - 1} nonnegative integer exponent bounds for degree "
            f"{deg}, got {list(l)}")

    betas, members = _full_fibres(field, p_coeffs, r)
    if not betas.size:
        raise NoFullFibresError(
            f"no value of p(x) has {r + 1} distinct preimages in {field!r}")
    points = tuple(members.ravel().tolist())
    size = r + 1
    fibres = tuple((beta, points[i * size:(i + 1) * size])
                   for i, beta in enumerate(betas.tolist()))
    n = len(points)
    k = sum(v + 1 for v in l)
    delta = max(((r + 1) * l[i] + i for i in range(r - 1)), default=0)
    if delta >= n:
        raise DegreeOverflowError(
            f"max evaluated degree {delta} must stay below n = {n}")

    basis = tuple((i, j) for i in range(r - 1) for j in range(l[i] + 1))
    xs = _power_arrays(field, members.ravel(), r - 2)
    ys = _power_arrays(field, np.repeat(betas, r + 1), max(l, default=0))
    rows = [tuple(field.mul_array(xs[i], ys[j]).tolist()) for i, j in basis]
    return LrcRsSpec(field=field, p_poly=p_coeffs, l=l, r=r, fibres=fibres,
                     points=points, n=n, k=k, delta=delta, basis=basis,
                     eval_rows=tuple(rows))


def _full_fibres(field, p_coeffs, r: int):
    """The values of p with r + 1 preimages, ascending, and their preimages,
    one ascending row per value: one Horner pass over the array of all
    elements, then a stable sort by value."""
    elements = np.arange(field.q, dtype=np.int64)
    values = np.full_like(elements, p_coeffs[-1])
    for c in reversed(p_coeffs[:-1]):
        values = field.add_array(field.mul_array(values, elements), c)
    counts = np.bincount(values, minlength=field.q)
    by_value = np.argsort(values, kind="stable")
    members = by_value[counts[values[by_value]] == r + 1]
    return np.flatnonzero(counts == r + 1), members.reshape(-1, r + 1)


def _power_arrays(field, base, top: int) -> list:
    """The arrays base^0, ..., base^top, elementwise (0^0 = 1)."""
    out = [np.ones_like(base)]
    for _ in range(top):
        out.append(field.mul_array(out[-1], base))
    return out


def suggest_p_poly(field, r: int) -> tuple[int, ...]:
    """The monomial x^(r+1), which has (q-1)/(r+1) full fibres whenever
    r + 1 divides q - 1."""
    if _checked_int("r", r) < 1:
        raise ValueError(f"r must be positive, got {r}")
    if (field.q - 1) % (r + 1) != 0:
        raise ValueError(
            f"{r + 1} does not divide q - 1 = {field.q - 1}; "
            f"x^{r + 1} has no full fibres over {field!r}")
    return tuple([0] * (r + 1) + [1])


def encode(spec, message) -> Codeword:
    """Evaluate the message's basis combination at every point of the spec."""
    field = spec.field
    if len(message) != spec.k:
        raise BadMessageLengthError(
            f"message must have {spec.k} symbols, got {len(message)}")
    return Codeword(symbols=field.encode_word(field._check_all(message),
                                              spec.encoding, spec.n))


def interpolate(spec, positions, values) -> list[int]:
    """Recover the message through the unique basis combination passing
    through the k given (point, value) pairs: message . G[:, positions] =
    values, solved by rref of the augmented k x (k + 1) system.  Positions
    with dependent columns (never k distinct RS points; on a piecewise-RS
    code, e.g. more than local_k of one fibre) raise ValueError."""
    field = spec.field
    positions = list(positions)
    if len(positions) != spec.k:
        raise WrongCountError(f"need exactly {spec.k} positions, got {len(positions)}")
    for pos in positions:
        if not codeops._is_coordinate(pos, spec.n):
            raise codeops.IndexOutOfRangeError(
                f"position {pos!r} outside [0, {spec.n})")
    if len(set(positions)) != len(positions):
        raise DuplicatePositionsError("interpolation positions must be distinct")
    values = field._check_all(list(values))
    if len(values) != len(positions):
        raise WrongCountError("one value per position required")

    system = [[row[pos] for row in spec.eval_rows] + [value]
              for pos, value in zip(positions, values)]
    red, pivots = codeops.rref(field, system)
    if pivots != tuple(range(spec.k)):
        raise ValueError(f"positions {positions} are dependent: their columns "
                         f"have rank below k = {spec.k}")
    return [row[-1] for row in red]


# ---------------------------------------------------------------------------
# Codeword files: whitespace-separated canonical integers, "?" per erasure,
# one codeword per line.
# ---------------------------------------------------------------------------

def parse_codeword_line(field, line: str) -> Codeword:
    symbols = []
    erased = set()
    for idx, tok in enumerate(line.split()):
        if tok == "?":
            symbols.append(0)
            erased.add(idx)
        else:
            try:
                symbols.append(field.normalize(int(tok, 10)))
            except ValueError as exc:
                raise ValueError(f"token {idx}: {exc}") from None
    return Codeword(symbols=tuple(symbols), erased=frozenset(erased))
