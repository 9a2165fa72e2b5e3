"""Exact arithmetic in small finite fields GF(p^m).

Field elements are canonical integers in [0, q) with q = p^m.  For extension
fields the base-p digits of an encoding are the coefficients of the residue
polynomial (digit j = coefficient of x^j), so 0 encodes the additive identity
and 1 the multiplicative identity in every field.  Every extension field
precomputes log/antilog tables, built in numpy, for O(1) products.  Its
sums XOR when p = 2; odd-p fields add by one lookup in a table of Zech's
logarithm, log(1 + g^i), so base-p digits appear only while the tables are
built.  Prime fields use plain modular arithmetic.  One builder per field
kind, run once when the field is built, sets every kernel on the field as a
closure: the unchecked scalar kernels _add, _sub, _neg, _mul, _inv and _pow,
the read kernel _reader, the elimination step _clear_column, and the array
kernels mul_array, add_array, sum_array and dot_array, which apply the same
arithmetic elementwise to numpy arrays of canonical elements.

_reader(check_rows, recovery_row) takes a recovery plan's rows once and
returns its read, a closure over them: given the helper symbols, None when
some check row meets them in a nonzero inner product, else the recovery
row's.  Prime fields sum integer products and reduce mod p once per row;
odd-p extension fields, and GF(2^m) past 256 elements, take an inner
product per row on their scalar kernels.  Fields of characteristic 2 with
at most 256 elements (ENCODE_TABLE_MAX_Q) build their q x q product table
once (_build_product_kernels), and both their kernels read it: a read holds
each plan row as its coefficients' product rows, one list read and one XOR
per term, and the encode kernel (encoding, encode_word), which only
rscodes.encode calls, XORs k per-code rows cut from it, each a whole
codeword packed one byte per symbol into a Python int.  Every other field
encodes through dot_array.

The public add, sub, neg, mul, inv and pow are _check plus the kernel.
_check and _check_all (a sequence, in one loop) are the one place where
symbols are checked, and _is_int the one integer rule; code and plan
construction call the kernels on elements checked where they entered.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

DEFAULT_MAX_ORDER = 1 << 20
# Largest field of characteristic 2 that keeps a q x q product table, which
# its encode and read kernels read: each symbol fits one byte of a packed
# encode row, and the table (q lists of q products) stays small.
ENCODE_TABLE_MAX_Q = 1 << 8


class NotPrimeError(ValueError):
    """Field characteristic is not prime."""


class NotIrreducibleError(ValueError):
    """Supplied modulus polynomial factors over GF(p)."""


class FieldTooLargeError(ValueError):
    """p^m exceeds the configured order cap."""


class DivisionByZeroError(ZeroDivisionError):
    """Inverse or quotient of the zero element."""


def _is_int(value) -> bool:
    """The one rule for an integer argument: an int, not a bool (Python's
    bool is an int subclass; JSON's booleans are not numbers) or other
    subclass."""
    return type(value) is int


def _checked_int(name: str, value) -> int:
    """value, or a ValueError naming the argument if it breaks _is_int."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, fine at desk scale."""
    if not _is_int(n) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(p) as coefficient tuples (lowest degree first), used for
# modulus validation.
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a, b, p):
    """Remainder of a by b over GF(p); b need not be monic."""
    a = list(a)
    _ptrim(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        f = (a[-1] * lead_inv) % p
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - f * b[j]) % p
        _ptrim(a)
    return a


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def is_irreducible(p: int, coeffs) -> bool:
    """Exhaustive divisor search: no monic factor of degree 1..deg/2."""
    coeffs = list(coeffs)
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] % p == 0:
        return False
    for d in range(1, m // 2 + 1):
        for low in range(p ** d):
            cand = _digits(low, p, d) + [1]
            if not _pmod(coeffs, cand, p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m over GF(p), by counting the
    non-leading coefficients upward as a base-p integer; memoised, as the
    result depends on (p, m) alone."""
    if m == 1:
        return (0, 1)
    for low in range(p ** m):
        cand = _digits(low, p, m) + [1]
        if is_irreducible(p, cand):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _checked_order(p, m) -> int:
    """p^m, or Field's error for p and m: p prime, m >= 1, p^m <= the cap."""
    cap = DEFAULT_MAX_ORDER
    # before is_prime and p ** m, which run for too long on a large p or m
    if _is_int(p) and p > cap:
        raise FieldTooLargeError(f"p = {p} exceeds the cap {cap}")
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")
    if not _is_int(m) or m < 1:
        raise ValueError(f"extension degree must be a positive integer, got {m}")
    # p^m >= 2^m > cap once m reaches the cap's bit length
    if m >= cap.bit_length() or p ** m > cap:
        raise FieldTooLargeError(f"p^m = {p}^{m} exceeds the cap {cap}")
    return p ** m


class Field:
    """Finite field GF(p^m) with canonical integer element encoding.

    Immutable after construction; every operation is a pure function of its
    inputs, so instances are safe to share between threads.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        q = _checked_order(p, m)
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields (m > 1)")
            self.modulus = None
            self._build_prime_kernels()
        else:
            if modulus is None:
                modulus = find_irreducible(p, m)
            modulus = tuple(_checked_int("modulus coefficient", c) % p
                            for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise NotIrreducibleError(
                    f"modulus must be monic of degree {m}, got {list(modulus)}")
            if not is_irreducible(p, modulus):
                raise NotIrreducibleError(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
            self._build_tables()
            self._build_extension_kernels()
        self._products = None
        if p == 2 and q <= ENCODE_TABLE_MAX_Q:
            self._build_product_kernels()

    # -- construction helpers ------------------------------------------------

    def _times(self, v, c: int):
        """v * c for one element c and v an element or an int64 array of
        elements, without the tables and with no loop over v: shift and XOR
        when p = 2, otherwise one product of v's digits by the matrix whose
        row j holds the digits of x^j * c."""
        p, m = self.p, self.m
        if p == 2:
            mod = _undigits(self.modulus, 2)     # x^m included: clears bit m
            acc = v * 0
            for bit in range(c.bit_length()):
                if c >> bit & 1:
                    acc ^= v
                v = v << 1
                v ^= (v >> m) * mod
            return acc
        rows = [_pmod([0] * j + _digits(c, p, m), self.modulus, p) for j in range(m)]
        rows = np.array([row + [0] * (m - len(row)) for row in rows])  # _pmod trims
        powers = p ** np.arange(m, dtype=np.int64)
        digits = np.asarray(v)[..., None] // powers % p
        return digits @ rows % p @ powers

    def _raw_pow(self, a: int, e: int) -> int:
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self._times(acc, base)
            base = self._times(base, base)
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        """The smallest g with g^(n/f) != 1 for every prime f dividing
        n = q - 1."""
        n = self.q - 1
        cofactors = [n // f for f in _prime_factors(n)]
        g = 2
        while any(self._raw_pow(g, e) == 1 for e in cofactors):
            g += 1
        return g

    def _build_tables(self):
        """The log/exp tables, in one layout that the array and the scalar
        kernels share.  exp holds g^i at i and i + n (n = q - 1), so a sum
        of two logs indexes it, then a zero tail to 4n; log(0) = 2n sends
        any sum with a zero operand into that tail.  exp[:n] is built by
        doubling: exp[s:2s] = exp[:s] * g^s, one vector product per stage.

        Odd-p fields also get Zech's logarithm on the same layout, read at
        log b - log a + 2n, so that a + b = exp[log a + zech[...]] for every
        pair: between n and 3n (both nonzero, offset i = log b - log a) it
        holds log(1 + g^i), and 1 + g^i is g^i with digit 0 raised by one;
        below n (a = 0) it holds the offset itself, so the sum reads
        exp[log b]; above 3n (b = 0) it holds 0, so the sum reads a."""
        n = self.q - 1
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[0] = 1
        s, g_s = 1, self._find_generator()           # g_s = g^s
        while s < n:
            step = min(s, n - s)
            exp[s:s + step] = self._times(exp[:step], g_s)
            s += step
            g_s = self._times(g_s, g_s)
        exp[n:2 * n] = exp[:n]
        log = np.empty(self.q, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        log[0] = 2 * n
        self._exp_arr, self._log_arr = exp, log
        # The scalar kernels index lists up to 2^16 elements: a product's
        # lookups take about twice as long through memoryviews.  Larger
        # fields index memoryviews of the arrays, as lists of GF(2^20)'s
        # tables would add about 130 MB of int objects.
        scalar = np.ndarray.tolist if self.q <= 1 << 16 else memoryview
        self._exp, self._log = scalar(exp), scalar(log)
        if self.p > 2:
            p, g_i = self.p, exp[:n]
            one_plus = g_i + np.where(g_i % p == p - 1, 1 - p, 1)
            zech = np.zeros(4 * n + 1, dtype=np.int64)
            zech[:n] = np.arange(-2 * n, -n)
            zech[n:3 * n] = np.tile(log[one_plus], 2)   # index j: offset j - 2n
            self._zech_arr, self._zech = zech, scalar(zech)

    def _build_prime_kernels(self):
        """Every kernel of GF(p), set on the field and closed over p: the
        integers' arithmetic mod p.  The scalar kernels _add, _sub, _neg,
        _mul, _inv and _pow are unchecked: the public operations are _check
        plus these, and internal loops over checked elements call them
        directly; inv takes a nonzero element and pow a nonnegative
        exponent.  _mul is mul_array too, as numpy broadcasts it, and its
        products stay exact in int64 for q up to DEFAULT_MAX_ORDER.  The read
        kernel's rows and sum_array reduce one integer sum mod p; sum_array
        takes any nonnegative integers and takes the remainder by floor
        division, which numpy runs faster than its % by a scalar, and
        dot_array reduces once, after the sum.  add_array subtracts p where the
        integer sum reaches it, in the operands' common dtype, which must
        hold 2(q - 1).  The row operation takes the pivot's inverse once a
        row needs it."""
        p = self.p

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def neg(a):
            return -a % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            return pow(a, p - 2, p)

        def power(a, e):
            return pow(a, e, p)

        times = operator.mul

        def reader(check_rows, recovery_row):
            def read(values):
                for row in check_rows:
                    if sum(map(times, row, values)) % p:
                        return None
                return sum(map(times, recovery_row, values)) % p
            return read

        def clear_column(prow, c, rows):
            pivot_inv = None
            cols = range(c, len(prow))
            for row in rows:
                f = row[c]
                if f:
                    if pivot_inv is None:
                        pivot_inv = inv(prow[c])
                    g = f * pivot_inv % p
                    for j in cols:
                        row[j] = (row[j] - g * prow[j]) % p

        def add_array(a, b):
            total = np.add(a, b)
            total -= np.multiply(total >= p, p, dtype=total.dtype)
            return total

        def sum_array(a, axis):
            total = a.sum(axis=axis)
            return total - total // p * p

        def dot_array(a, b, axis=-1):
            return sum_array(a * b, axis=axis)

        self._add, self._sub, self._neg = add, sub, neg
        self._mul, self._inv, self._pow = mul, inv, power
        self._reader, self._clear_column = reader, clear_column
        self.mul_array, self.add_array = mul, add_array
        self.sum_array, self.dot_array = sum_array, dot_array

    def _build_extension_kernels(self):
        """Every kernel of GF(p^m), set on the field and closed over its
        tables, with the same contracts as GF(p)'s; array operands are
        canonical elements of any integer dtype.  Products read the log/exp
        tables, where a zero operand's log lands in the zero tail.  p is
        tested once, here.  When p = 2, sums XOR and sum_array XOR-reduces,
        -a = a, and a row of the read kernel XORs log/exp lookups; fields of
        at most ENCODE_TABLE_MAX_Q elements then read by their product table
        (_build_product_kernels).  Otherwise sums read Zech's logarithm,
        sum_array folds add_array along the axis from zeros, and a row of the
        read kernel is _kernel_dot on the scalar kernels.  The shift log(-1) is 0
        when p = 2 and n/2 otherwise (n = q - 1): _neg adds it to log a, and
        the row operation to the pivot's log, adding to each entry the pivot
        row's entry times -row[c] / prow[c]."""
        n, log, exp = self.q - 1, self._log, self._exp
        log_arr, exp_arr = self._log_arr, self._exp_arr
        if self.p == 2:
            log_minus_one = 0
            add = sub = operator.xor
            neg = operator.pos
            add_array, sum_array = np.bitwise_xor, np.bitwise_xor.reduce

            def dot(xs, ys):
                acc = 0
                for x, y in zip(xs, ys):
                    acc ^= exp[log[x] + log[y]]
                return acc
        else:
            log_minus_one = n // 2
            zech, zech_arr, two_n = self._zech, self._zech_arr, 2 * n

            def add(a, b):
                log_a = log[a]
                return exp[log_a + zech[log[b] - log_a + two_n]]

            def neg(a):
                return exp[log[a] + log_minus_one]

            def sub(a, b):
                return add(a, neg(b))

            def add_array(a, b):
                log_a = log_arr[a]
                return exp_arr[log_a + zech_arr[log_arr[b] - log_a + two_n]]

            def sum_array(a, axis):
                a = np.moveaxis(a, axis, 0)
                return functools.reduce(add_array, a,
                                        np.zeros(a.shape[1:], dtype=np.int64))

            dot = functools.partial(_kernel_dot, self)
        reader = functools.partial(_row_reader, dot)

        def mul(a, b):
            return exp[log[a] + log[b]]

        def inv(a):
            return exp[n - log[a]]

        def power(a, e):
            if a:
                return exp[log[a] * e % n]
            return 0 if e else 1

        def clear_column(prow, c, rows):
            terms = None             # built once a row needs them
            for row in rows:
                if row[c]:
                    if terms is None:
                        log_pivot = log[prow[c]] + log_minus_one
                        terms = [(j, log[prow[j]])
                                 for j in range(c, len(prow)) if prow[j]]
                    log_g = (log[row[c]] - log_pivot) % n
                    for j, log_y in terms:
                        row[j] = add(row[j], exp[log_g + log_y])

        def mul_array(a, b):
            return exp_arr[log_arr[a] + log_arr[b]]

        def dot_array(a, b, axis=-1):
            return sum_array(mul_array(a, b), axis=axis)

        self._add, self._sub, self._neg = add, sub, neg
        self._mul, self._inv, self._pow = mul, inv, power
        self._reader, self._clear_column = reader, clear_column
        self.mul_array, self.add_array = mul_array, add_array
        self.sum_array, self.dot_array = sum_array, dot_array

    def _build_product_kernels(self):
        """The kernels of a field of characteristic 2 with at most
        ENCODE_TABLE_MAX_Q elements that read its q x q product table, built
        here, once, by mul_array: row a holds a * b at b.  encoding cuts its
        blocks from the table's uint8 copy.  The read kernel replaces the one
        of the field's kind: it holds each plan row as the tuple of its
        coefficients' product rows, so a term is one list read and one XOR.
        One pass over the helpers accumulates the recovery row and the first
        check row together (a plan with no check rows reads the zero row
        products[0] there), and a loop then takes check rows 2..t."""
        # 16 rows at a time: the whole table at once, in int64, would raise
        # the peak memory by 1 MB for GF(2^8)
        symbols = np.arange(self.q)
        self._products = np.empty((self.q, self.q), dtype=np.uint8)
        for a in range(0, self.q, 16):
            self._products[a:a + 16] = self.mul_array(symbols[a:a + 16, None],
                                                      symbols)
        products = self._products.tolist()

        def reader(check_rows, recovery_row):
            recovery = tuple(map(products.__getitem__, recovery_row))
            rows = [tuple(map(products.__getitem__, row)) for row in check_rows]
            first = rows[0] if rows else (products[0],) * len(recovery)
            rest = rows[1:]

            def read(values):
                acc = check = 0
                for times_w, times_h, v in zip(recovery, first, values):
                    acc ^= times_w[v]
                    check ^= times_h[v]
                if check:
                    return None
                for row in rest:
                    for times_h, v in zip(row, values):
                        check ^= times_h[v]
                    if check:
                        return None
                return acc
            return read

        self._reader = reader

    # -- element validation --------------------------------------------------

    def _check(self, a: int) -> int:
        # the _is_int rule inline, as in _check_all: this runs per operand
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of {self!r}")
        return a

    def _check_all(self, values):
        """values, each checked as _check does, in one loop; the first bad
        one is named."""
        q = self.q
        for a in values:
            if type(a) is not int or not 0 <= a < q:
                self._check(a)
        return values

    def normalize(self, v: int) -> int:
        """Map a (possibly negative) integer onto its canonical encoding."""
        if not _is_int(v):
            raise ValueError(f"field elements are integers, got {v!r}")
        if self.m == 1:
            return v % self.p
        if 0 <= v < self.q:
            return v
        if -self.q < v < 0:
            return self._neg(-v)
        raise ValueError(f"{v} is outside the value range of {self!r}")

    # -- arithmetic -----------------------------------------------------------
    # Each operation checks its operands, then runs the field's kernel.

    def add(self, a: int, b: int) -> int:
        return self._add(self._check(a), self._check(b))

    def neg(self, a: int) -> int:
        return self._neg(self._check(a))

    def sub(self, a: int, b: int) -> int:
        return self._sub(self._check(a), self._check(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul(self._check(a), self._check(b))

    def inv(self, a: int) -> int:
        if self._check(a) == 0:
            raise DivisionByZeroError(f"0 has no inverse in {self!r}")
        return self._inv(a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e, with pow(a, 0) = 1 and a negative e a power of inv(a)."""
        self._check(a)
        if _checked_int("exponent", e) < 0:
            return self._pow(self.inv(a), -e)
        return self._pow(a, e)

    # -- encoding ---------------------------------------------------------------
    # One kernel per field kind: fields with a product table (characteristic
    # 2, at most ENCODE_TABLE_MAX_Q elements) XOR packed rows, every other
    # field multiplies through dot_array.

    def encoding(self, generator):
        """What encode_word takes for a code with the (n, k) generator (one
        row per coordinate), built once per spec.

        With rows it is a tuple of k*q Python ints, one packed codeword per
        (message position, symbol): byte c of row j*q + s, little-endian, is
        s * generator[c, j].  Each generator column's q x n block is cut
        from the field's q x q uint8 product table, built once with the
        field, so nothing of k*q x n is held beside the rows.  Otherwise it
        is the generator itself."""
        if self._products is None:
            return generator
        q, n = self.q, generator.shape[0]
        rows = []
        for column in generator.T:
            block = self._products[:, column].tobytes()   # row s: s * column
            rows.extend(int.from_bytes(block[i:i + n], "little")
                        for i in range(0, q * n, n))
        return tuple(rows)

    def encode_word(self, message, encoding, n: int) -> tuple[int, ...]:
        """The length-n codeword of a sequence of canonical elements, as a
        tuple of Python ints: with rows, the XOR of the k rows
        j*q + message[j], unpacked byte by byte."""
        if self._products is None:
            word = self.dot_array(np.array(message, dtype=np.int64), encoding)
            return tuple(word.tolist())
        acc, row, q = 0, 0, self.q
        for s in message:
            acc ^= encoding[row + s]
            row += q
        return tuple(acc.to_bytes(n, "little"))

    # -- iteration ------------------------------------------------------------

    def elements(self) -> range:
        """All elements in canonical order."""
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # pickled by its parameters: __init__ rebuilds the kernel closures
        return Field, (self.p, self.m, self.modulus)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def _kernel_dot(field, xs, ys) -> int:
    """Inner product through field._add and field._mul, one call of each
    per term: a read row of odd-p extension fields, and CountingField's
    counted one."""
    add, mul = field._add, field._mul
    acc = 0
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y))
    return acc


def _row_reader(dot, check_rows, recovery_row):
    """The read kernel as one inner product per plan row: None when a check
    row meets the helper symbols in a nonzero value, else the recovery row's
    value.  The reads of odd-p extension fields, of GF(2^m) past
    ENCODE_TABLE_MAX_Q elements and of CountingField."""
    def read(values):
        for row in check_rows:
            if dot(row, values):
                return None
        return dot(recovery_row, values)
    return read


class CountingField:
    """Wraps a Field, forwarding its scalar kernels while tallying them.

    Useful for verifying the advertised costs of repair-plan construction and
    use: the plan builders and repair call the kernels, and the public
    operations are Field's, which check and then call the counted kernels.
    Duck-type compatible with Field for the operations it forwards.
    """

    add, sub, neg, mul, inv, pow = (Field.add, Field.sub, Field.neg,
                                    Field.mul, Field.inv, Field.pow)

    def _reader(self, check_rows, recovery_row):
        # a row at a time, one counted mul and add per term: a read that
        # takes every row counts (t + 1) * r of each
        return _row_reader(functools.partial(_kernel_dot, self),
                           check_rows, recovery_row)

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        self.m = field.m
        self.q = field.q
        self.modulus = field.modulus
        self._check, self._check_all = field._check, field._check_all
        self.reset()

    def reset(self):
        self.mul_count = 0
        self.inv_count = 0
        self.add_count = 0
        self.neg_count = 0
        self.pow_count = 0

    def counts(self) -> dict:
        return {"mul": self.mul_count, "inv": self.inv_count,
                "add": self.add_count, "neg": self.neg_count,
                "pow": self.pow_count}

    def _add(self, a, b):
        self.add_count += 1
        return self.field._add(a, b)

    def _sub(self, a, b):
        self.add_count += 1
        return self.field._sub(a, b)

    def _neg(self, a):
        self.neg_count += 1
        return self.field._neg(a)

    def _mul(self, a, b):
        self.mul_count += 1
        return self.field._mul(a, b)

    def _inv(self, a):
        self.inv_count += 1
        return self.field._inv(a)

    def _pow(self, a, e):
        self.pow_count += 1
        return self.field._pow(a, e)

    def __repr__(self):
        return f"Counting({self.field!r})"

