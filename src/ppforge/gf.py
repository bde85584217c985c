"""Prime fields and extension towers F_{q^n} over F_q with q = p^e.

A field is realized as a single extension of F_p of degree e*n; the base
field F_q of the tower is recovered as the fixed set of x -> x^q.  Elements
are canonical coordinate vectors over F_p (least degree first, fully
reduced), packed into the integer sum(c_i * p^i).  Equality and hashing are
therefore bit-exact.

Multiplication, inversion and powering run on exp/log tables built from a
deterministically chosen primitive element.  Addition is XOR in
characteristic 2, a full add table for odd-characteristic fields up to 512
elements, and above that Zech logarithms: a + b = g^(log a + z[log b -
log a]) with z[d] = log(1 + g^d), a table built once with the exp/log
tables.  Adding a constant, as linear tables and the exp table's own build
do, looks the result up in rows built digit by digit.  Frobenius is the
power map on logs,
x^(q^j) = exp[log[x] * q^j mod (q^n - 1)].  Everything is exact integer
arithmetic on element codes; `Elem` is the boxed view of a code used at the
API edge.  Contexts never change after construction apart from lazily
filled caches of derived tables.

The module has no polynomial arithmetic of its own.  The modulus search,
the validation of a given modulus and the primitive element search run on
`poly.Poly` over F_p, where Rabin's irreducibility test and modular powering
live; the exp table iterates x -> g*x, an F_p-linear map whose table takes
dim products.
"""

from __future__ import annotations

import collections.abc
import enum
import functools
import itertools
import operator
from array import array
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

_ADD_TABLE_MAX = 512      # full add table for odd characteristic up to this order
_ELEM_CACHE_MAX = 1 << 16  # interned Elem objects up to this order


def code_table(values: Iterable[int]) -> array:
    """A table indexed by element code.  Unsigned 32-bit integers in an
    array (codes stay far below 2^32: the field's exp table must fit in
    memory), so a table costs 4 bytes per element and no int objects."""
    return array("I", values)


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


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's irreducibility test for coeffs as a polynomial over F_p."""
    from .poly import Poly, is_irreducible  # deferred: poly depends on this module

    return is_irreducible(Poly(make_field(p), coeffs))


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
        # memoized per field and code: census rows print the same few
        # parameters thousands of times
        labels = self.ctx._labels
        label = labels.get(self.code)
        if label is None:
            label = labels[self.code] = ",".join(map(str, self.coords))
        return label


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

        # the add table first: the exp table is built with linear_table,
        # which adds constants to codes (_add_const); the Zech table and _neg
        # need the logs built after it
        self._add_table: Optional[list[list[int]]] = None
        if self.p == 2:
            self._add = self._sub = operator.xor
        else:
            if self.order <= _ADD_TABLE_MAX:
                table = self._add_table = self._build_add_table()
                self._add = lambda a, b: table[a][b]
            self._sub = lambda a, b: self._add(a, self._neg(b))
        self.generator_code = self._find_primitive_code()
        self._build_mul_tables()
        if self.p != 2 and self._add_table is None:
            self._add = self._zech_add()
        self._elems: Optional[tuple[Elem, ...]] = None
        if self.order <= _ELEM_CACHE_MAX:
            self._elems = tuple(Elem(self, c) for c in range(self.order))
        self._subfield_codes = self._build_subfield_codes()
        self._subfield_set = frozenset(self._subfield_codes)
        self._derived: dict = {}
        self._labels: dict[int, str] = {}  # str(Elem) by code, filled as printed

        self.zero = self._wrap(0)
        self.one = self._wrap(1)
        self.generator = self._wrap(self.generator_code)

    # -- construction ------------------------------------------------------
    #
    # Before the exp/log tables exist, products are taken directly: a * b % p
    # in the prime field, and in an extension as Polys over F_p modulo the
    # modulus (Poly needs the prime field, which is therefore built first).

    def _as_poly(self, c: int):
        from .poly import Poly  # deferred: poly depends on this module

        return Poly(make_field(self.p), _digits(c, self.p))

    def _raw_mul(self, a: int, b: int) -> int:
        if self.dim == 1:
            return a * b % self.p
        prod = self._as_poly(a) * self._as_poly(b) % self.modulus
        return _undigits(prod.codes, self.p)

    def _raw_pow(self, c: int, k: int) -> int:
        if self.dim == 1:
            return pow(c, k, self.p)
        from .poly import powmod  # deferred: poly depends on this module

        return _undigits(powmod(self._as_poly(c), k, self.modulus).codes, self.p)

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

    def _shift_row(self, b: int, size: int) -> list[int]:
        """v -> v + b on the codes v < size, a power of p, with b < size.
        Built a digit at a time: the codes below p*step are the p blocks
        j*step + (codes below step), so the next row is the lane of those
        blocks over the last row, rotated by the next digit of b."""
        p, row, step = self.p, [0], 1
        while step < size:
            b, d = divmod(b, p)
            lane = [j * step + v for j in range(p) for v in row]
            row = lane[d * step:] + lane[:d * step]
            step *= p
        return row

    def _build_add_table(self) -> list[list[int]]:
        """table[b][v] = v + b, built as in _shift_row for every b at once:
        the b that share their lower digits share one lane, whose rotations
        (slices of the lane laid twice) are their rows."""
        p, table, step = self.p, [[0]], 1
        while step < self.order:
            lanes = [[j * step + v for j in range(p) for v in row] * 2 for row in table]
            table = [lane[d * step:(d + p) * step] for d in range(p) for lane in lanes]
            step *= p
        return table

    def _zech_add(self) -> Callable[[int, int], int]:
        """Addition on logs: a + b = g^(log a + z[log b - log a]), with the
        Zech logarithm z[d] = log(1 + g^d) built in one pass over the exp
        table (1 + c only bumps the lowest digit of c).  1 + g^d = 0 only
        at d = (q^n - 1)/2, where z holds log[0] = 0, which no other d
        has (1 + g^d = 1 would need g^d = 0), so z[d] = 0 means b = -a.
        z refers to the int objects of the log table, and a negative index
        log b - log a wraps modulo q^n - 1 by itself."""
        p, exp, log = self.p, self._exp, self._log
        zech = [log[c - c % p + (c + 1) % p] for c in itertools.islice(exp, self._om1)]

        def add(a: int, b: int) -> int:
            if a == 0:
                return b
            if b == 0:
                return a
            la = log[a]
            d = zech[log[b] - la]
            return exp[la + d] if d else 0

        return add

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
    # the add table for small odd fields, the Zech table otherwise.

    def _wrap(self, code: int) -> Elem:
        if self._elems is not None:
            return self._elems[code]
        return Elem(self, code)

    def _neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        return self._exp[self._log[a] + self._om1 // 2]  # -1 = g^((q^n-1)/2)

    def _add_const(self, b: int) -> Callable[[int], int]:
        """v -> v + b on codes: XOR, a row of the add table, or, above the
        table, two rows of _shift_row for the low and the high half of the
        digits (needs no logs, so it also serves the exp table's build)."""
        if self.p == 2:
            return b.__xor__
        if self._add_table is not None:
            return self._add_table[b].__getitem__
        low = self.p ** (self.dim // 2)
        lo = self._shift_row(b % low, low)
        hi = [v * low for v in self._shift_row(b // low, self.order // low)]
        return lambda v: hi[v // low] + lo[v % low]

    def _add_codes(self, a: Iterable[int], b: Iterable[int]) -> Iterator[int]:
        """a[i] + b[i] for every i, as an iterator: XOR, or add-table rows
        picked by a and indexed by b, both without a Python frame per
        element; above the table, the Zech addition."""
        if self.p == 2:
            return map(operator.xor, a, b)
        if self._add_table is not None:
            return map(list.__getitem__, map(self._add_table.__getitem__, a), b)
        return map(self._add, a, b)

    def _mul_row(self, a: int) -> list[int]:
        """v -> a*v on every code, in one pass over the log table."""
        if a == 0:
            return [0] * self.order
        return [0, *map(self._exp.__getitem__,
                        map(self._log[a].__add__, itertools.islice(self._log, 1, None)))]

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

    def power_sum_table(self, terms: Sequence[tuple[int, int]]) -> array:
        """y -> sum of sign * y^e over (e, sign) in terms, on every code;
        built once per field and terms, one pass over the log table a term."""
        terms = tuple(terms)

        def build() -> array:
            columns = [self._power_column(e, sign) for e, sign in terms] or [[0] * self.order]
            return code_table(functools.reduce(self._add_codes, columns))

        return self.derived(("powers", terms), build)

    def _power_column(self, e: int, sign: int) -> list[int]:
        """y -> sign * y^e on every code: exp[log y * (e mod (q^n - 1)) mod
        (q^n - 1)], turned by half the group order when the sign is -1 in odd
        characteristic (-1 = g^((q^n-1)/2)); 0^0 = 1 as in _pow."""
        om1, zero = self._om1, self._pow(0, e)
        logs = map(om1.__rmod__, map((e % om1).__mul__, itertools.islice(self._log, 1, None)))
        if sign != 1 and self.p != 2:
            logs, zero = map((om1 // 2).__add__, logs), self._neg(zero)
        return [zero, *map(self._exp.__getitem__, logs)]

    def power_table(self, t: int) -> array:
        """y -> y^t on every code, built once per field and exponent."""
        table = self._derived.get(("powers", ((t, 1),)))
        return self.power_sum_table(((t, 1),)) if table is None else table

    def linear_table(self, image: Callable[[int], int]) -> array:
        """Table over every code of an F_p-linear map, given by its value
        on codes; only the basis codes p^i are evaluated.  The codes in
        [j*p^i, (j+1)*p^i) are those in [0, p^i) plus j*p^i digit by digit,
        so each block is the previous one shifted by image(p^i)."""
        table = [0]
        for _ in range(self.dim):
            plus = self._add_const(image(len(table)))
            block = table
            for _ in range(self.p - 1):
                block = list(map(plus, block))
                table += block
        return code_table(table)

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
        coeffs = [0] * self.n
        coeffs[0] = sign % self.p  # the code p - 1 is the element -1
        coeffs[k % self.n] = self._add(coeffs[k % self.n], 1)
        return self.linear_map(coeffs)

    def zero_set(self, table: Sequence[int]) -> tuple[Elem, ...]:
        """The x with table[x] = 0, ascending code order, in one pass over
        the table; an element is made only for each member."""
        return tuple(map(self._wrap, itertools.compress(range(self.order),
                                                        map(operator.not_, table))))

    def derived(self, key: Hashable, build: Callable[[], object]):
        """build() memoized on this field under key.  Holds the tables other
        modules derive from the field (g recipes, linearized maps), so each is
        built once per field however many instances share it."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

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
        if self._elems is not None:
            return self._elems
        return _ElementView(self)

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
