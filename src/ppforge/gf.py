"""Prime fields and extension towers F_{q^n} over F_q with q = p^e.

A field is realized as a single extension of F_p of degree e*n; the base
field F_q of the tower is recovered as the fixed set of x -> x^q.  Elements
are canonical coordinate vectors over F_p (least degree first, fully
reduced), packed into the integer sum(c_i * p^i).  Equality and hashing are
therefore bit-exact.

Multiplication, inversion and powering run on exp/log tables built from a
deterministically chosen primitive element.  Addition needs no logs.  It is
XOR in characteristic 2, a full add table for odd-characteristic fields up
to 512 elements, above that the integer sum mod p on F_p, and on extension
fields split tables: digit-wise addition carries nothing between a code's
high and low digits, so each half adds through one add table of half the
digits, read through lists of every code's halves (see
`_build_split_tables`).  The same tables add a constant (`_shift`: a shift
view, the exp table's build), and every q-linear table is the outer sum of
the map's values on the high and on the low digits.  Frobenius is the
power map on logs, x^(q^j) = exp[log[x] * q^j mod (q^n - 1)]; a power
column y -> y^e is one pass over the log table, and every sum of Frobenius
powers of one power, sum(c_j * y^(e*q^j)), is a q-linear map of such a
column (`linear_of_power`).  Everything is exact integer arithmetic on
element codes; `Elem` is the boxed view of a code used at the API edge.
Contexts never change after construction apart from one cache per field
of the tables derived from it, bounded by a budget of _TABLE_CODES codes
(see `FieldCtx.derived`).  On fields of up to _GATHER_CHUNK elements that
cache also holds a reader of each table a grid reads over and over
(`FieldCtx.reader`): the table as a tuple of the field's interned code
ints, the itemgetter over that tuple, and on add-table fields its add
rows, so a grid point reads a shared table without unpacking it again.

Building a field makes no `poly.Poly`.  The modulus search, the
validation of a given modulus (Rabin's test, `_is_irreducible`) and the
primitive element search run on coefficient lists of ints over F_p (the
`_fp_*` helpers); the exp table iterates x -> g*x, an F_p-linear map whose
table takes dim products.  Fields up to _ELEM_CACHE_MAX elements intern
their elements, each made on its first use.
"""

from __future__ import annotations

import collections.abc
import enum
import functools
import itertools
import operator
import sys
from array import array
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

_ADD_TABLE_MAX = 512      # full add table for odd characteristic up to this order
_ELEM_CACHE_MAX = 1 << 16  # interned Elem objects up to this order
_TABLE_CODES = 1 << 23    # budget of a field's table cache, in codes (FieldCtx.derived)
_GATHER_CHUNK = 1 << 16   # indices one gather call reads at a time


def code_table(values: Iterable[int]) -> array:
    """A table indexed by element code.  Unsigned 32-bit integers in an
    array (codes stay far below 2^32: the field's exp table must fit in
    memory), so a table costs 4 bytes per element and no int objects.
    Tables are read a whole index at a time through `gather`."""
    return array("I", values)


def gather(table: Sequence[int], index: Iterable[int]) -> tuple[int, ...]:
    """table[i] for every i of index, as a tuple: the whole-table lookup
    pass behind every value list, shift view, linear table and square.

    A list, tuple, array or range of up to _GATHER_CHUNK indices is read
    by one operator.itemgetter(*index) call, which runs neither a Python
    frame nor a slot wrapper per element (mapping an array's __getitem__
    does); itemgetter refuses no indices and returns one bare, so those go
    through a comprehension.  A longer index, or an iterator, is read a
    chunk at a time: no tuple of a whole index is made, nor the int objects
    of all of an array's codes.  A tuple index is not copied: itemgetter
    keeps it as its argument tuple.  An index read again and again, such
    as a grid's shared inner table, has a cached reader instead
    (`FieldCtx.reader`), whose itemgetter is built once."""
    if isinstance(index, (list, tuple, array, range)) and len(index) <= _GATHER_CHUNK:
        if len(index) > 1:
            return operator.itemgetter(*index)(table)
        return tuple([table[i] for i in index])
    index = iter(index)
    chunks = iter(lambda: tuple(itertools.islice(index, _GATHER_CHUNK)), ())
    head = gather(table, next(chunks, ()))
    if len(head) < _GATHER_CHUNK:
        return head
    return tuple(itertools.chain(head, itertools.chain.from_iterable(
        map(functools.partial(gather, table), chunks))))


def _codes_held(value) -> int:
    """The codes a cache entry holds, its charge against _TABLE_CODES: a
    table (a list, tuple or array of codes) its length, a tuple or list of
    tables the sum over them, an object with slots (a fiber table) the sum
    over its slots, and a verdict nothing."""
    if not isinstance(value, (array, list, tuple)):
        return sum(_codes_held(getattr(value, name, None))
                   for name in getattr(type(value), "__slots__", ()))
    if value and not isinstance(value[0], int):
        return sum(map(_codes_held, value))
    return len(value)


class FieldError(Exception):
    """Base class for field construction and arithmetic errors."""


class NonPrimeError(FieldError):
    """Raised when the requested characteristic is not prime."""


class ReducibleModulusError(FieldError):
    """Raised when a supplied modulus polynomial is reducible."""


class DegreeMismatchError(FieldError):
    """Raised when a supplied modulus has the wrong degree."""


class CtxMismatchError(FieldError):
    """Raised when elements of different field contexts are combined."""


class EvenCharacteristicError(FieldError):
    """Raised for operations that require odd characteristic."""


class FieldSpecError(FieldError):
    """Raised on malformed field spec strings; carries the error position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ResidueClass(enum.Enum):
    """Multiplicative residue class of an element, odd characteristic only."""

    ZERO = "Zero"
    D0 = "D0"   # nonzero squares
    D1 = "D1"   # nonsquares


# ---------------------------------------------------------------------------
# integer helpers

def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def _digits(code: int, p: int) -> list[int]:
    out = []
    while code:
        code, r = divmod(code, p)
        out.append(r)
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


# ---------------------------------------------------------------------------
# polynomials over F_p for building fields: lists of ints in [0, p),
# constant term first, no trailing zeros (the zero polynomial is [])

def _fp_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """a mod m over F_p, m monic; a is any list of ints, used as scratch."""
    d = len(m) - 1
    low = [(i, c) for i, c in enumerate(m[:d]) if c]
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top] % p
        if c:
            for i, mi in low:
                a[top - d + i] -= c * mi
    out = [c % p for c in a[:d]]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_mulmod(a: list[int], b: list[int], m: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return _fp_mod(prod, m, p)


def _fp_powmod(a: list[int], k: int, m: Sequence[int], p: int) -> list[int]:
    """a^k mod m over F_p, a reduced and k >= 1: square-and-multiply."""
    out = a
    for bit in bin(k)[3:]:
        out = _fp_mulmod(out, out, m, p)
        if bit == "1":
            out = _fp_mulmod(out, a, m, p)
    return out


def _fp_coprime(a: list[int], m: Sequence[int], p: int) -> bool:
    """Whether gcd(a, m) = 1 over F_p, for a reduced mod the monic m: the
    Euclidean algorithm, each divisor made monic."""
    while a:
        inv = pow(a[-1], p - 2, p)
        a, m = _fp_mod(list(m), [c * inv % p for c in a], p), a
    return len(m) == 1


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test (Rabin 1980, "Probabilistic algorithms in finite
    fields"): a monic m of degree d >= 1 over F_p is irreducible exactly
    when x^(p^d) = x mod m and gcd(x^(p^(d/r)) - x, m) = 1 for every prime
    r dividing d."""
    d = len(coeffs) - 1
    x = _fp_mod([0, 1], coeffs, p)
    powers = [x]  # x^(p^i) mod m
    for _ in range(d):
        powers.append(_fp_powmod(powers[-1], p, coeffs, p))
    if powers[d] != x:
        return False
    for r in prime_factors(d):  # none for d = 1, so x is [0, 1] here
        y = powers[d // r] + [0, 0]
        y[1] -= 1
        if not _fp_coprime(_fp_mod(y, coeffs, p), coeffs, p):
            return False
    return True


@functools.lru_cache(maxsize=None)
def first_irreducible_coeffs(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree d over F_p.

    Coefficient vectors (c_0, ..., c_{d-1}, 1) are compared constant term
    first, so the scan runs c_0 as the slowest index.  For d >= 2 it starts
    at c_0 = 1, since every candidate with c_0 = 0 is divisible by x; x
    itself is the answer for d = 1.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if d == 1:
        return (0, 1)
    for m in range(p ** (d - 1), p ** d):
        coeffs = _digits(m, p)
        coeffs.reverse()  # most significant digit of m becomes c_0
        cand = tuple(coeffs) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class Elem:
    """A field element: an immutable, canonical coordinate vector.

    Two elements are equal exactly when they belong to the same context and
    their packed coordinate codes coincide.
    """

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: "FieldCtx", code: int):
        _set_elem_ctx(self, ctx)
        _set_elem_code(self, code)

    def __setattr__(self, name, value):
        raise AttributeError("Elem is immutable")

    @property
    def coords(self) -> tuple[int, ...]:
        """Coordinates over F_p, constant term first, length e*n."""
        d = _digits(self.code, self.ctx.p)
        return tuple(d + [0] * (self.ctx.dim - len(d)))

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    def __bool__(self) -> bool:
        return self.code != 0

    def _other(self, other: "Elem") -> int:
        if not isinstance(other, Elem):
            raise TypeError(f"expected Elem, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise CtxMismatchError("elements belong to different field contexts")
        return other.code

    def __add__(self, other):
        return self.ctx._wrap(self.ctx._add(self.code, self._other(other)))

    def __sub__(self, other):
        return self.ctx._wrap(self.ctx._sub(self.code, self._other(other)))

    def __neg__(self):
        return self.ctx._wrap(self.ctx._neg(self.code))

    def __mul__(self, other):
        return self.ctx._wrap(self.ctx._mul(self.code, self._other(other)))

    def __truediv__(self, other):
        return self.ctx._wrap(self.ctx._mul(self.code, self.ctx._inv(self._other(other))))

    def __pow__(self, k: int):
        return self.ctx._wrap(self.ctx._pow(self.code, k))

    def inv(self) -> "Elem":
        return self.ctx._wrap(self.ctx._inv(self.code))

    def frobenius(self, j: int = 1) -> "Elem":
        """x -> x^(q^j); j is taken modulo the tower degree n."""
        return self.ctx._wrap(self.ctx._frob(self.code, j))

    def trace(self) -> "Elem":
        """Trace into the tower base field F_q: sum of x^(q^i), i < n, read
        from the field's all-ones linear table."""
        return self.ctx._wrap(self.ctx.linear_map((1,) * self.ctx.n)[self.code])

    def residue_class(self) -> ResidueClass:
        return self.ctx.residue_class_of_code(self.code)

    def in_subfield(self, k: int = 1) -> bool:
        """True when the element is fixed by x -> x^(q^k)."""
        return self.ctx._frob(self.code, k) == self.code

    def __eq__(self, other):
        return (
            isinstance(other, Elem)
            and other.ctx is self.ctx
            and other.code == self.code
        )

    def __hash__(self):
        return hash((id(self.ctx), self.code))

    def __repr__(self):
        return f"Elem({self.ctx.label}|{','.join(map(str, self.coords))})"

    def __str__(self):
        return ",".join(map(str, self.coords))


# Elem's slots are written only by its __init__, through their descriptors:
# Elem.__setattr__ refuses every assignment
_set_elem_ctx = Elem.ctx.__set__
_set_elem_code = Elem.code.__set__


class _ElementView(collections.abc.Sequence):
    """The elements of a field above _ELEM_CACHE_MAX by code, each made only
    when it is read; indexed and sliced as the interned tuple of a smaller
    field is."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: "FieldCtx"):
        self.ctx = ctx

    def __len__(self) -> int:
        return self.ctx.order

    def __getitem__(self, i):
        codes = range(self.ctx.order)[i]
        if isinstance(codes, range):
            return tuple(map(self.ctx._wrap, codes))
        return self.ctx._wrap(codes)

    def __iter__(self) -> Iterator[Elem]:
        return map(functools.partial(Elem, self.ctx), range(self.ctx.order))


class TabulatedMap:
    """A map on one field given by its table of codes; callable on elements."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: "FieldCtx", codes: Sequence[int]):
        self.ctx = ctx
        self.codes = codes

    def __call__(self, x: Elem) -> Elem:
        if x.ctx is not self.ctx:
            raise CtxMismatchError("argument from a different field")
        return self.ctx._wrap(self.codes[x.code])


class FieldCtx:
    """Immutable description of F_{q^n} over F_q with q = p^e.

    Construct through :func:`make_field`; the constructor assumes its
    arguments were already validated there.
    """

    def __init__(self, p: int, e: int, n: int, modulus_coeffs: tuple[int, ...],
                 default_modulus: bool):
        self.p = p
        self.e = e
        self.n = n
        self.q = p ** e
        self.dim = e * n
        self.order = self.q ** n
        self.modulus_coeffs = modulus_coeffs
        self._default_modulus = default_modulus
        self._om1 = self.order - 1
        # q^j mod (q^n - 1): the log multiplier of x -> x^(q^j)
        self._qpow = tuple(pow(self.q, j, self._om1) for j in range(n))

        # the add tables first: the exp table is built with linear_table,
        # which adds constants to codes (_shift); _neg needs the logs built
        # after it
        self._add_table: Optional[list[list[int]]] = None
        self._digit_add: Optional[list[list[int]]] = None
        if self.p == 2:
            self._add = self._sub = operator.xor
        else:
            if self.order <= _ADD_TABLE_MAX:
                table = self._add_table = self._build_add_table(self.order)
                self._add = lambda a, b: table[a][b]
            elif self.dim == 1:
                p = self.p
                self._add = lambda a, b: (a + b) % p
            else:
                self._add = self._build_split_tables()
            self._sub = lambda a, b: self._add(a, self._neg(b))
        self.generator_code = self._find_primitive_code()
        self._build_mul_tables()
        # interned elements, each made on its first _wrap; a tuple once
        # elements() has made them all
        self._elems: Optional[Sequence[Optional[Elem]]] = None
        if self.order <= _ELEM_CACHE_MAX:
            self._elems = [None] * self.order
        self._subfield_codes = self._build_subfield_codes()
        self._subfield_set = frozenset(self._subfield_codes)
        # key -> (derived value, codes charged), oldest first: see derived
        self._tables: dict[Hashable, tuple[object, int]] = {}
        self._charged = 0

        self.zero = self._wrap(0)
        self.one = self._wrap(1)
        self.generator = self._wrap(self.generator_code)

    # -- construction ------------------------------------------------------
    #
    # Before the exp/log tables exist, products are taken on coefficient
    # lists over F_p modulo the modulus.

    def _raw_mul(self, a: int, b: int) -> int:
        p = self.p
        return _undigits(_fp_mulmod(_digits(a, p), _digits(b, p), self.modulus_coeffs, p), p)

    def _raw_pow(self, c: int, k: int) -> int:
        p = self.p
        return _undigits(_fp_powmod(_digits(c, p), k, self.modulus_coeffs, p), p)

    def _find_primitive_code(self) -> int:
        """Smallest code whose multiplicative order is q^n - 1."""
        factors = prime_factors(self._om1) if self._om1 > 1 else ()
        for cand in range(1, self.order):
            if all(self._raw_pow(cand, self._om1 // r) != 1 for r in factors):
                return cand
        raise AssertionError("no primitive element found")  # unreachable

    def _build_mul_tables(self) -> None:
        """exp/log by iterating x -> g*x, an F_p-linear map whose table
        linear_table builds from dim products."""
        om1, g = self._om1, self.generator_code
        times_g = self.linear_table(lambda c: self._raw_mul(c, g))
        exp = [0] * (2 * om1)
        log = [0] * self.order
        cur = 1
        for i in range(om1):
            exp[i] = exp[i + om1] = cur
            log[cur] = i
            cur = times_g[cur]
        self._exp = exp
        self._log = log

    def _build_add_table(self, size: int) -> list[list[int]]:
        """table[b][v] = v + b on the codes below size, a power of p, digit
        by digit: the codes below p*step are the p blocks j*step + (codes
        below step), so the b that share their lower digits share one lane,
        the blocks over their last row, whose rotations (slices of the lane
        laid twice) are their rows.  A lane reads its blocks out of
        list(range(size)), so the table holds only that list's ints."""
        p, codes, table, step = self.p, list(range(size)), [[0]], 1
        while step < size:
            blocks = [codes[j * step:(j + 1) * step] for j in range(p)]
            rows: list[list[int]] = [[]] * (p * len(table))
            for b, row in enumerate(table):  # one lane alive at a time
                lane = [block[v] for block in blocks for v in row] * 2
                rows[b::len(table)] = [lane[d * step:(d + p) * step] for d in range(p)]
            table, step = rows, step * p
        return table

    def _build_split_tables(self) -> Callable[[int, int], int]:
        """The split tables of an odd extension field past the add table,
        and its addition of two codes.  A code is h*_split + l: h its high
        floor(dim/2) digits and l its low ceil(dim/2), on odd dims a middle
        digit over as many low digits as h has.  Digit-wise addition carries
        nothing between the parts, so each adds on its own: the low parts
        through the add table of floor(dim/2)-digit codes (_digit_add), the
        high parts through its rows scaled by _split (_high_add, read out of
        the size distinct multiples of _split, so it holds no more ints), a
        middle digit through _mids.  _hi, _lo and on odd dims _mid hold
        every code's parts, so a sum is a few list reads; 0 is returned
        before them, since value lists are often dense in zeros."""
        p, dim = self.p, self.dim
        size = p ** (dim // 2)
        split = self._split = p ** (dim - dim // 2)
        low = self._digit_add = self._build_add_table(size)
        scaled = list(range(0, self.order, split))
        high = self._high_add = [list(gather(scaled, row)) for row in low]
        hi = self._hi = list(itertools.chain.from_iterable(
            map(itertools.repeat, range(size), itertools.repeat(split))))
        lo = self._lo = list(range(size)) * (self.order // size)
        self._mid = None
        if split == size:
            return lambda x, y: high[hi[x]][hi[y]] + low[lo[x]][lo[y]] if x and y else x or y
        # _mids[t][d]: the middle digit d plus t, times size
        mids = self._mids = [[size * d for d in row[:p]] for row in low[:p]]
        mid = self._mid = list(itertools.chain.from_iterable(
            map(itertools.repeat, range(p), itertools.repeat(size)))) * size
        return lambda x, y: (high[hi[x]][hi[y]] + mids[mid[x]][mid[y]] + low[lo[x]][lo[y]]
                             if x and y else x or y)

    def _build_subfield_codes(self) -> tuple[int, ...]:
        if self.n == 1:
            return tuple(range(self.order))
        step = self._om1 // (self.q - 1)
        codes = {0}
        codes.update(self._exp[i * step] for i in range(self.q - 1))
        return tuple(sorted(codes))

    # -- code-level arithmetic ---------------------------------------------
    #
    # _add and _sub are bound per field in __init__: XOR in characteristic 2,
    # the add table for small odd fields, integers mod p on larger prime
    # fields and the split tables on larger extension fields.

    def _wrap(self, code: int) -> Elem:
        elems = self._elems
        if elems is None:
            return Elem(self, code)
        elem = elems[code]
        if elem is None:
            elem = elems[code] = Elem(self, code)
        return elem

    def _neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self._exp[self._log[a] + self._om1 // 2]  # -1 = g^((q^n-1)/2)

    def _shift(self, codes: Sequence[int], b: int) -> tuple[int, ...]:
        """v + b for every code v of codes, as a tuple: XOR by b, a gather
        through the add table's row of b, on F_p the integer sum mod p, and
        otherwise each part of v read through the split tables' row of b's
        part (needs no logs, so it also serves the exp table's build)."""
        if self.p == 2:
            return tuple(map(operator.xor, codes, itertools.repeat(b)))
        if self._add_table is not None:
            return gather(self._add_table[b], codes)
        if self.dim == 1:
            return tuple(map(operator.mod, map(operator.add, codes, itertools.repeat(b)),
                             itertools.repeat(self.p)))
        hi, lo, mid = self._hi, self._lo, self._mid
        high, low = self._high_add[hi[b]], self._digit_add[lo[b]]
        if mid is None:
            return tuple([high[hi[v]] + low[lo[v]] for v in codes])
        middle = self._mids[mid[b]]
        return tuple([high[hi[v]] + middle[mid[v]] + low[lo[v]] for v in codes])

    def _add_codes(self, a: Iterable[int], b: Iterable[int]) -> Iterable[int]:
        """a[i] + b[i] for every i, without a Python frame per element: XOR,
        add-table rows gathered by a and indexed by b, or on F_p the integer
        sum mod p, as iterators; otherwise _add's split-table reads, as a
        list."""
        if self.p == 2:
            return map(operator.xor, a, b)
        if self._add_table is not None:
            return map(list.__getitem__, gather(self._add_table, a), b)
        if self.dim == 1:
            return map(operator.mod, map(operator.add, a, b), itertools.repeat(self.p))
        hi, lo, high, low, mid = self._hi, self._lo, self._high_add, self._digit_add, self._mid
        if mid is None:
            return [high[hi[x]][hi[y]] + low[lo[x]][lo[y]] if x and y else x or y
                    for x, y in zip(a, b)]
        mids = self._mids
        return [high[hi[x]][hi[y]] + mids[mid[x]][mid[y]] + low[lo[x]][lo[y]]
                if x and y else x or y for x, y in zip(a, b)]

    def _mul_row(self, a: int) -> list[int]:
        """v -> a*v on every code: exp[log a + log v], one gather of the
        log table through the exp table from log a on."""
        if a == 0:
            return [0] * self.order
        log_a = self._log[a]
        return [0, *gather(self._exp[log_a:log_a + self._om1], self._log[1:])]

    def _mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[self._om1 - self._log[a]]

    def _pow(self, c: int, k: int) -> int:
        """Power on logs; the exponent of a nonzero base is reduced modulo
        q^n - 1.  0^0 = 1 by convention."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if c == 0:
            return 1 if k == 0 else 0
        return self._exp[self._log[c] * (k % self._om1) % self._om1]

    def _frob(self, c: int, j: int) -> int:
        """x -> x^(q^j) as the power map on logs."""
        if c == 0:
            return 0
        return self._exp[self._log[c] * self._qpow[j % self.n] % self._om1]

    def _power_column(self, e: int, c: int = 1) -> Iterator[int]:
        """y -> c*y^e on every code, c nonzero: exp[log c + (log y * e mod
        (q^n - 1))], read lazily in one pass over the log table (the exp
        table spans two periods); 0^0 = 1 as in _pow."""
        om1, log_c = self._om1, self._log[c]
        logs = map(operator.mod, map(operator.mul, itertools.islice(self._log, 1, None),
                                     itertools.repeat(e % om1)), itertools.repeat(om1))
        if log_c:
            logs = map(operator.add, logs, itertools.repeat(log_c))
        return itertools.chain((self._mul(c, self._pow(0, e)),), map(self._exp.__getitem__, logs))

    def power_table(self, t: int) -> array:
        """y -> y^t on every code, built once per field and exponent."""
        return self.derived(("power", t), lambda: code_table(self._power_column(t)))

    def linear_of_power(self, coeffs: Sequence[int], e: int = 1,
                        h: Optional[Sequence[int]] = None) -> tuple[int, ...]:
        """x -> Lambda(h[x]^e) on every code, Lambda(y) = sum(coeffs[j] *
        y^(q^j)) and h the identity when None.  The power column, and
        Lambda's table unless the field holds it, are built for this call
        only: the caller keeps the result, not its ingredients.  With h
        None the power column is read in order, a gather chunk at a time,
        and never held whole."""
        if e == 1:
            values = range(self.order) if h is None else h
        elif h is None:
            values = self._power_column(e)
        else:
            values = gather(tuple(self._power_column(e)), h)
        codes = tuple(coeffs) + (0,) * (self.n - len(coeffs))
        if codes != (1,) + (0,) * (self.n - 1):  # Lambda is not the identity
            held = self._tables.get(("lin", codes))
            lin = held[0] if held else self.linear_table(
                functools.partial(self._linear_code, codes))
            values = gather(lin, values)
        return tuple(values)

    def linear_table(self, image: Callable[[int], int]) -> array:
        """Table over every code of an F_p-linear map, given by its value
        on codes; only the basis codes p^i are evaluated.  On F_p it is
        c -> c*image(1).  On a field with a digit add table it is the outer
        sum T[h*_split + l] = high[h] + low[l] of the map's values on the
        high and on the low digits, split into parts once (_linear_parts):
        a block of _split entries for each h is a gather of each part of
        low through an add row of high[h]'s part, and their sum.  Otherwise
        the codes in [j*p^i, (j+1)*p^i) are those in [0, p^i) plus j*p^i
        digit by digit, so each block is the previous one shifted by
        image(p^i)."""
        if self.dim == 1:
            return code_table(map(operator.mod, map(operator.mul, range(self.p),
                                                    itertools.repeat(image(1))),
                                  itertools.repeat(self.p)))
        if self._digit_add is None:
            table = [0]
            for _ in range(self.dim):
                b = image(len(table))
                block = table
                for _ in range(self.p - 1):
                    block = self._shift(block, b)
                    table += block
            return code_table(table)
        digits = self._digit_add
        parts = [operator.itemgetter(*part)
                 for part in self._linear_parts(image, 1, self.dim - self.dim // 2)]
        high_part, low_part = parts[0], parts[-1]
        table = code_table(())
        for h, *t, l in zip(*self._linear_parts(image, self._split, self.dim // 2)):
            block = map(operator.add, high_part(self._high_add[h]), low_part(digits[l]))
            if t:  # an odd dim's middle digit
                block = map(operator.add, block, parts[1](self._mids[t[0]]))
            table.extend(block)
        return table

    def _linear_parts(self, image: Callable[[int], int], unit: int,
                      count: int) -> list[list[int]]:
        """The map's values on c*unit for the codes c below p^count, each
        value v in parts: v // _split and v % size, size the digit add
        table's, and on odd dims between them the middle digit v % _split //
        size.  Built a digit at a time as in linear_table, a block shifted
        by gathering each of its parts through the add row of that part of
        the shift: digit-wise addition carries nothing between them."""
        p, split, digits = self.p, self._split, self._digit_add
        size = len(digits)
        bounds = (self.order, split, size, 1) if split > size else (self.order, split, 1)
        parts = [[0] for _ in bounds[1:]]
        for i in range(count):
            b = image(p ** i * unit)
            rows = [digits[b % top // bottom] for top, bottom in zip(bounds, bounds[1:])]
            block = parts
            for _ in range(p - 1):
                block = [gather(row, part) for row, part in zip(rows, block)]
                for part, shifted in zip(parts, block):
                    part += shifted
        return parts

    def _linear_code(self, coeffs: Sequence[int], c: int) -> int:
        """sum(coeffs[i] * c^(q^i)) for one code c: the evaluator behind
        every q-linear table and LinPoly.apply_code."""
        acc = 0
        for i, a in enumerate(coeffs):
            if a:
                acc = self._add(acc, self._mul(a, self._frob(c, i)))
        return acc

    def linear_map(self, coeffs: Sequence[int]) -> array:
        """x -> sum(coeffs[i] * x^(q^i)) on every code, the coefficient codes
        zero-padded to n; built once per field and coefficient vector from the
        images of the F_p basis (the map is F_p-linear).  The trace is the
        all-ones vector, and every fixed, anti-fixed or kernel set is the zero
        set of one such table."""
        codes = tuple(coeffs) + (0,) * (self.n - len(coeffs))
        return self.derived(("lin", codes), lambda: self.linear_table(
            functools.partial(self._linear_code, codes)))

    def frob_shift(self, k: int, sign: int) -> array:
        """x^(q^k) + sign*x on every code, with sign +1 or -1."""
        def build() -> array:
            coeffs = [0] * self.n
            coeffs[0] = sign % self.p  # the code p - 1 is the element -1
            coeffs[k % self.n] = self._add(coeffs[k % self.n], 1)
            return self.linear_map(coeffs)

        return self.derived(("frob_shift", k, sign), build)

    def shift_view(self, table: Sequence[int], b: int) -> Optional[Sequence[int]]:
        """table read through y -> table[y + b], or None when the caller is
        to add b on the fly.  b = 0 gives the table itself.  For b != 0 the
        first request for a (table, b) only records it, the second builds
        the view as a tuple in one gather, and later ones read it: a
        view built on the first request costs a pass no later request may
        repay.  The record is an entry [table, view] of the field's cache,
        keyed by id(table) and b and charged the two tables from the start,
        so a field too large for both records nothing; it holds its table,
        so no id() in a key is reused while the entry lives."""
        if b == 0:
            return table
        key = ("view", id(table), b)
        entry = self._tables.get(key)
        if entry is None:
            self._store(key, [table, None], 2 * len(table))
            return None
        view = entry[0]
        if view[1] is None:
            view[1] = self._shifted(table, b)
        return view[1]

    def _shifted(self, table: Sequence[int], b: int) -> tuple[int, ...]:
        """y -> table[y + b] on every code, in one gather."""
        return gather(table, self._shift(range(self.order), b))

    def reader(self, table: Sequence[int]) -> tuple:
        """(table, codes, read, rows) for a table read again and again, on a
        field of up to _GATHER_CHUNK elements (a larger field reads its
        tables a chunk at a time, see gather): codes is the table as a tuple
        of the field's interned code ints, read(seq) the tuple of seq[t] for
        every entry t of the table (gather(seq, codes) without the call and
        checks of gather, about 1 us a call on fields of up to 81 elements),
        and rows, on add-table fields, the add row of every entry,
        rows[x][v] = table[x] + v (None elsewhere).  Built on the first
        request and kept in the field's cache under id(table); the entry
        holds the table, so its id is not reused while the entry lives.  It
        is charged the bytes of its tuples and getter (which shares codes),
        in 4-byte codes: its rows are the add table's, and its code ints
        those of the field's one list of them, a cache entry charged its
        list and ints (readers outliving that entry keep some of its ints,
        and are evicted before the list built after it).  A hit is one
        dict.get."""
        key = ("reader", id(table))
        entry = self._tables.get(key)
        if entry is not None:
            return entry[0]
        entry = self._tables.get(("codes",))
        if entry is None:
            ints = list(range(self.order))
            # a reader's field has at most _GATHER_CHUNK elements, so every int
            # past 0 has one digit: the ints are charged with no call apiece
            held = sys.getsizeof(ints) + sys.getsizeof(0) + (self.order - 1) * sys.getsizeof(1)
            self._store(("codes",), ints, -(-held // 4))
        else:
            ints = entry[0]
        codes = gather(ints, table)
        rows = None if self._add_table is None else gather(self._add_table, codes)
        reader = (table, codes, operator.itemgetter(*codes), rows)
        held = sum(sys.getsizeof(part) for part in (reader, *reader[1:]) if part is not None)
        self._store(key, reader, -(-held // 4))
        return reader

    def zero_set(self, table: Sequence[int]) -> tuple[Elem, ...]:
        """The x with table[x] = 0, ascending code order, in one pass over
        the table; an element is made only for each member."""
        return tuple(map(self._wrap, itertools.compress(range(self.order),
                                                        map(operator.not_, table))))

    def derived(self, key: Hashable, build: Callable[[], object]):
        """build() memoized on this field under key: the field's one cache of
        tables (linear, power, recipe, fiber and scaled tables, shift views,
        readers) and verdicts on them.  Each entry is charged the codes it
        holds, and when the charges pass _TABLE_CODES the oldest entries are
        evicted; a hit does not reorder them."""
        entry = self._tables.get(key)
        if entry is None:
            value = build()
            self._store(key, value, _codes_held(value))
            return value
        return entry[0]

    def _store(self, key: Hashable, value, charge: int) -> None:
        """Keep value under a new key as the newest entry, charged charge
        codes, evicting the oldest entries past the budget; a value charged
        more than the whole budget is not kept."""
        if charge <= _TABLE_CODES:
            tables = self._tables
            self._charged += charge
            while self._charged > _TABLE_CODES:
                self._charged -= tables.pop(next(iter(tables)))[1]
            tables[key] = (value, charge)

    # -- public API ----------------------------------------------------------

    @property
    def label(self) -> str:
        base = f"{self.p}^{self.e}:{self.n}"
        if self._default_modulus:
            return base
        return base + ":mod=" + ",".join(map(str, self.modulus_coeffs))

    @property
    def modulus(self):
        """The modulus as a polynomial over the prime field."""
        from . import poly  # deferred: poly depends on this module

        base = self if self.dim == 1 else make_field(self.p, 1, 1)
        return poly.Poly(base, self.modulus_coeffs)

    def elem(self, code: int) -> Elem:
        if not 0 <= code < self.order:
            raise ValueError(f"element code {code} out of range [0, {self.order})")
        return self._wrap(code)

    def from_coords(self, coords: Sequence[int]) -> Elem:
        if len(coords) > self.dim:
            raise ValueError("too many coordinates")
        if any(not 0 <= c < self.p for c in coords):
            raise ValueError("coordinates must lie in [0, p)")
        return self._wrap(_undigits(coords, self.p))

    def elements(self) -> Sequence[Elem]:
        """All q^n elements in canonical order (ascending packed code): the
        interned tuple up to _ELEM_CACHE_MAX elements, above that a view that
        makes each element as it is read."""
        elems = self._elems
        if elems is None:
            return _ElementView(self)
        if not isinstance(elems, tuple):
            elems = self._elems = tuple(map(self._wrap, range(self.order)))
        return elems

    def subfield_elements(self) -> tuple[Elem, ...]:
        """The q elements of the tower base field, ascending code order."""
        return tuple(self._wrap(c) for c in self._subfield_codes)

    def is_subfield_code(self, code: int) -> bool:
        return code in self._subfield_set

    def residue_class_of_code(self, code: int) -> ResidueClass:
        if self.p == 2:
            raise EvenCharacteristicError("residue classes need odd characteristic")
        if code == 0:
            return ResidueClass.ZERO
        return ResidueClass.D0 if self._log[code] % 2 == 0 else ResidueClass.D1

    def frobenius_eigenspace(self, k: int, sign: int) -> tuple[Elem, ...]:
        """All x with x^(q^k) = sign*x: the zero set of x^(q^k) - sign*x.

        sign=+1 collects the subfield-type fixed set of x -> x^(q^k);
        sign=-1 its antisymmetric counterpart.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self.zero_set(self.frob_shift(k, -sign))

    def __repr__(self):
        return f"FieldCtx({self.label}, order={self.order})"


# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int, int, tuple[int, ...]], FieldCtx] = {}


def _coerce_modulus(modulus, p: int) -> tuple[int, ...]:
    coeffs = getattr(modulus, "codes", None)
    if coeffs is None:
        coeffs = tuple(int(c) for c in modulus)
    else:
        coeffs = tuple(coeffs)
    if any(not 0 <= c < p for c in coeffs):
        raise ValueError("modulus coefficients must lie in [0, p)")
    return coeffs


def make_field(p: int, e: int = 1, n: int = 1, modulus=None) -> FieldCtx:
    """Build (or fetch from cache) the field F_{(p^e)^n}.

    When no modulus is given, the lexicographically first monic irreducible
    of degree e*n over F_p is selected, so repeated calls with equal
    arguments return the identical context object.
    """
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if e < 1 or n < 1:
        raise ValueError("e and n must be positive")
    d = e * n
    if modulus is None:
        coeffs = first_irreducible_coeffs(p, d)
        default = True
    else:
        coeffs = _coerce_modulus(modulus, p)
        default = False
        if len(coeffs) - 1 != d:
            raise DegreeMismatchError(
                f"modulus degree {len(coeffs) - 1} does not match e*n = {d}")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(list(coeffs), p):
            raise ReducibleModulusError("modulus is reducible over the prime field")
        if coeffs == first_irreducible_coeffs(p, d):
            default = True
    key = (p, e, n, coeffs)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, e, n, coeffs, default)
        _FIELD_CACHE[key] = ctx
    return ctx


def field_spec_parts(text: str) -> tuple[int, int, int, Optional[tuple[int, ...]]]:
    """Read "p^e:n" with optional ":mod=c0,c1,...,1" into (p, e, n, modulus)
    without building anything, so callers can size the field first."""

    def fail(msg: str, pos: int):
        raise FieldSpecError(msg, pos)

    def read_int(s: str, pos: int) -> tuple[int, int]:
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            fail("expected an integer", start)
        return int(s[start:pos]), pos

    p, pos = read_int(text, 0)
    if pos >= len(text) or text[pos] != "^":
        fail("expected '^'", pos)
    e, pos = read_int(text, pos + 1)
    if pos >= len(text) or text[pos] != ":":
        fail("expected ':'", pos)
    n, pos = read_int(text, pos + 1)
    modulus = None
    if pos < len(text):
        if not text.startswith(":mod=", pos):
            fail("expected ':mod='", pos)
        pos += len(":mod=")
        coeffs = []
        while True:
            c, pos = read_int(text, pos)
            coeffs.append(c)
            if pos == len(text):
                break
            if text[pos] != ",":
                fail("expected ','", pos)
            pos += 1
        modulus = tuple(coeffs)
    return p, e, n, modulus


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "p^e:n" with optional ":mod=c0,c1,...,1" and build the field."""
    p, e, n, modulus = field_spec_parts(text)
    try:
        return make_field(p, e, n, modulus)
    except ValueError as exc:
        raise FieldSpecError(str(exc), 0) from exc
