import functools
import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import gf
from ppforge.gf import (
    CtxMismatchError,
    DegreeMismatchError,
    EvenCharacteristicError,
    FieldSpecError,
    NonPrimeError,
    ReducibleModulusError,
    ResidueClass,
    first_irreducible_coeffs,
    make_field,
    parse_field_spec,
)

F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 1, 2)
F8 = make_field(2, 1, 3)
F9 = make_field(3, 1, 2)
F16 = make_field(2, 2, 2)   # q = 4, n = 2
F25 = make_field(5, 1, 2)
F27 = make_field(3, 1, 3)


def test_make_field_prime():
    assert F5.order == 5
    assert F5.modulus_coeffs == (0, 1)


def test_make_field_first_irreducible():
    assert F9.modulus_coeffs == (1, 0, 1)   # x^2 + 1 over F_3
    assert F4.modulus_coeffs == (1, 1, 1)   # x^2 + x + 1 over F_2


def test_make_field_rejects_reducible():
    with pytest.raises(ReducibleModulusError):
        make_field(2, 1, 2, modulus=(0, 1, 1))  # x^2 + x = x(x+1)


def test_make_field_rejects_nonprime():
    with pytest.raises(NonPrimeError):
        make_field(4)


def test_make_field_rejects_bad_degree():
    with pytest.raises(DegreeMismatchError):
        make_field(3, 1, 2, modulus=(1, 1))


def test_make_field_caches():
    assert make_field(3, 1, 2) is F9
    assert make_field(3, 1, 2, modulus=(1, 0, 1)) is F9  # explicit default modulus


def test_add_examples():
    assert (F5.elem(3) + F5.elem(4)).code == 2
    assert (F5.elem(3) - F5.elem(4)).code == 4
    assert (-F5.elem(2)).code == 3


def test_mul_examples():
    assert (F7.elem(3) * F7.elem(5)).code == 1
    w = F9.from_coords([0, 1])
    assert (w * w).coords == (2, 0)  # w^2 = -1 in F_3[w]/(w^2+1)


def test_division():
    assert (F7.elem(1) / F7.elem(5)).code == 3
    with pytest.raises(ZeroDivisionError):
        F7.elem(1) / F7.elem(0)
    with pytest.raises(ZeroDivisionError):
        F7.elem(0).inv()


def test_ctx_mismatch():
    with pytest.raises(CtxMismatchError):
        F5.elem(1) + F7.elem(1)


@pytest.mark.parametrize("ctx", [F9, make_field(2, 1, 17)])
def test_elements_are_immutable(ctx):
    # interned below 2^16 elements, made on demand above
    x = ctx.elem(3)
    for name, value in [("code", 4), ("ctx", F7), ("other", 0)]:
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x.ctx is ctx and x.code == 3 and x == ctx.elem(3)


@pytest.mark.parametrize("ctx", [F5, F7, F4, F8, F9, F16, F25, F27])
def test_inverses_exhaustive(ctx):
    for x in ctx.elements()[1:]:
        assert (x * x.inv()) == ctx.one


@pytest.mark.parametrize("ctx", [F9, F16, F25])
def test_field_axioms_exhaustive_pairs(ctx):
    els = ctx.elements()
    for x, y in itertools.product(els, els):
        assert x + y == y + x
        assert x * y == y * x


@pytest.mark.parametrize("ctx", [make_field(3, 1, 4), make_field(2, 1, 6)])
def test_field_axioms_random_triples(ctx):
    rng = random.Random(17)
    els = ctx.elements()
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_add_fallback_above_table_threshold():
    # 3^6 = 729 exceeds the add-table bound, exercising the split tables
    ctx = make_field(3, 1, 6)
    assert ctx._add_table is None
    rng = random.Random(3)
    els = ctx.elements()
    for _ in range(200):
        x, y = rng.choice(els), rng.choice(els)
        s = x + y
        assert s.coords == tuple((a + b) % 3 for a, b in zip(x.coords, y.coords))
        assert x + (-x) == ctx.zero


def test_pow_lagrange():
    g = F9.generator
    assert (g ** 8) == F9.one
    assert (g ** 9) == g  # exponent reduced mod q^n - 1


def test_pow_zero_conventions():
    assert (F5.elem(0) ** 0) == F5.one
    assert (F5.elem(0) ** 3) == F5.zero
    with pytest.raises(ValueError):
        F5.elem(2) ** -1


def test_pow_matches_repeated_multiplication():
    for ctx in (F8, F9):
        for x in ctx.elements():
            acc = ctx.one
            for k in range(21):
                assert x ** k == acc
                acc = acc * x


def test_pow_half_exponent_separates_squares():
    # x^((9+1)/2) = x on squares and -x on nonsquares of F_9
    squares = {x * x for x in F9.elements()}
    for x in F9.elements():
        if x.is_zero:
            assert (x ** 5).is_zero
        elif x in squares:
            assert x ** 5 == x
        else:
            assert x ** 5 == -x


def test_frobenius_identity_power():
    for x in F9.elements():
        assert x.frobenius(0) == x


def test_frobenius_example_f4():
    w = F4.from_coords([0, 1])
    assert w.frobenius().coords == (1, 1)  # w^2 = w + 1


def test_frobenius_fixes_subfield():
    for x in F16.subfield_elements():
        assert x.frobenius() == x


@pytest.mark.parametrize("ctx", [F9, F16, F27])
def test_frobenius_table_matches_pow(ctx):
    for x in ctx.elements():
        for j in range(ctx.n):
            assert x.frobenius(j) == x ** (ctx.q ** j)


def test_frobenius_is_ring_morphism():
    els = F9.elements()
    for x, y in itertools.product(els, els):
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()


@pytest.mark.parametrize("ctx", [F9, F16, F25, F27])
def test_frobenius_fixes_exactly_q_elements(ctx):
    fixed = [x for x in ctx.elements() if x.frobenius() == x]
    assert len(fixed) == ctx.q
    assert set(fixed) == set(ctx.subfield_elements())


def test_trace_trivial_tower():
    for x in F5.elements():
        assert x.trace() == x


def test_trace_example_f4():
    w = F4.from_coords([0, 1])
    assert w.trace() == F4.one
    assert F4.zero.trace() == F4.zero


@pytest.mark.parametrize("ctx", [F9, F16, F27])
def test_trace_linear_and_surjective(ctx):
    els = ctx.elements()
    for x, y in itertools.product(els, els):
        assert (x + y).trace() == x.trace() + y.trace()
    for c in ctx.subfield_elements():
        for x in els:
            assert (c * x).trace() == c * x.trace()
    image = {x.trace() for x in els}
    assert image == set(ctx.subfield_elements())


def test_residue_class_examples():
    assert F5.elem(4).residue_class() == ResidueClass.D0
    assert F5.elem(2).residue_class() == ResidueClass.D1
    assert F5.elem(0).residue_class() == ResidueClass.ZERO


def test_residue_class_even_characteristic():
    with pytest.raises(EvenCharacteristicError):
        F4.elem(1).residue_class()


@pytest.mark.parametrize("ctx", [F5, F9, F25, F27])
def test_residue_class_structure(ctx):
    d0 = [x for x in ctx.elements() if x.residue_class() == ResidueClass.D0]
    d1 = [x for x in ctx.elements() if x.residue_class() == ResidueClass.D1]
    assert len(d0) == (ctx.order - 1) // 2 == len(d1)
    assert {x * x for x in ctx.elements() if x} == set(d0)
    for x, y in itertools.product(d0, d0):
        assert (x * y).residue_class() == ResidueClass.D0
    for x, y in itertools.product(d1, d1):
        assert (x * y).residue_class() == ResidueClass.D0
    # power characterization
    half = (ctx.order - 1) // 2
    for x in ctx.elements():
        if x:
            expected = ResidueClass.D0 if x ** half == ctx.one else ResidueClass.D1
            assert x.residue_class() == expected


def test_find_primitive_examples():
    assert F5.generator.code == 2
    assert F7.generator.code == 3
    assert make_field(2).generator.code == 1


def test_generator_has_full_order():
    for ctx in (F9, F16, F27):
        g = ctx.generator
        seen = set()
        acc = ctx.one
        for _ in range(ctx.order - 1):
            seen.add(acc)
            acc = acc * g
        assert len(seen) == ctx.order - 1


def test_enumerate():
    f3 = make_field(3)
    assert [x.code for x in f3.elements()] == [0, 1, 2]
    assert len(set(F4.elements())) == 4
    assert F9.elements()[0] == F9.zero
    assert len(F9.elements()) == 9


def test_frobenius_eigenspace():
    neg = F9.frobenius_eigenspace(1, -1)
    assert len(neg) == 3  # q solutions when n is even
    for x in neg:
        assert x.frobenius() == -x
    assert F27.frobenius_eigenspace(1, -1) == (F27.zero,)  # only x = 0, n odd
    assert len(F9.frobenius_eigenspace(F9.n, 1)) == F9.order  # x^(q^n) = x


def test_coords_round_trip():
    for x in F16.elements():
        assert F16.from_coords(x.coords) == x
        assert all(0 <= c < 2 for c in x.coords)


def test_equality_and_hash():
    a = F9.elem(4)
    b = F9.elem(4)
    assert a == b and hash(a) == hash(b)
    assert a != F9.elem(5)
    assert F5.elem(1) != F7.elem(1)


def test_in_subfield():
    for x in F16.elements():
        assert x.in_subfield(1) == (x in F16.subfield_elements())
    # intermediate field of F_81: fixed points of the squared map
    f81 = make_field(3, 1, 4)
    mid = [x for x in f81.elements() if x.in_subfield(2)]
    assert len(mid) == 9


def test_first_irreducible_examples():
    assert first_irreducible_coeffs(3, 2) == (1, 0, 1)
    assert first_irreducible_coeffs(2, 1) == (0, 1)
    assert first_irreducible_coeffs(2, 2) == (1, 1, 1)
    assert first_irreducible_coeffs(5, 2) == (1, 1, 1)


def test_parse_field_spec():
    assert parse_field_spec("3^1:2") is F9
    assert parse_field_spec("2^2:2") is F16
    ctx = parse_field_spec("3^1:2:mod=1,0,1")
    assert ctx is F9
    with pytest.raises(FieldSpecError) as exc:
        parse_field_spec("3^1")
    assert exc.value.pos == 3
    with pytest.raises(FieldSpecError):
        parse_field_spec("3^1:2:junk")
    with pytest.raises(NonPrimeError):
        parse_field_spec("4^1:1")


def test_modulus_poly_view():
    assert str(F9.modulus) == "x^2 + 1"
    assert F9.modulus.ctx.order == 3


# Field identity: the default modulus, the generator and the exp/log tables
# of these fields, as built before field construction moved onto Poly.
GOLDEN_FIELDS = [
    ((2, 8), (1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    ((2, 12), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 6),
    ((2, 16), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 6),
    ((3, 4), (1, 0, 1, 1, 1), 10),
    ((3, 6), (1, 0, 0, 0, 1, 1, 1), 4),
    ((3, 8), (1, 0, 0, 0, 0, 1, 1, 0, 1), 4),
    ((3, 10), (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), 34),
    ((5, 2), (1, 1, 1), 7),
    ((7, 5), (1, 0, 0, 0, 3, 1), 11),
]

EXP_LOG_SHA256 = {
    (2, 8): "900dd8874b037efe1d6d993df8991ac77bac94749d222cf4f4cb03755aa0cc3c",
    (2, 12): "cecc23ef1a0dbb324c5ba0ee863d33f12f9174832efbe810f1701a6e864fc99d",
    (3, 4): "6cbe37b14d947dbb37f79529335b0b49485b36d70e06375540bd6b2a68909298",
    (3, 6): "8b1645d6ffed0ddeb8e9cc71007fc920927532c809c01fa0811c3155e0b446f2",
    (5, 2): "bf5f64fd9e38cdb459a1bc496a6b2840b4c800890dbd3427b76a9d08ff838464",
    (7, 5): "c2d7cb670447043da54d32e7af85cddddfd5bbc3f5a79024112baaf46ca44306",
}


@pytest.mark.parametrize("pd, modulus, generator", GOLDEN_FIELDS)
def test_default_modulus_and_generator_are_pinned(pd, modulus, generator):
    assert first_irreducible_coeffs(*pd) == modulus
    ctx = make_field(pd[0], 1, pd[1])
    assert ctx.modulus_coeffs == modulus
    assert ctx.generator_code == generator


@pytest.mark.parametrize("pd", sorted(EXP_LOG_SHA256))
def test_exp_log_tables_are_pinned(pd):
    ctx = make_field(pd[0], 1, pd[1])
    om1 = ctx.order - 1
    assert ctx._exp[om1:] == ctx._exp[:om1]
    text = ",".join(map(str, ctx._exp[:om1])) + "|" + ",".join(map(str, ctx._log))
    assert hashlib.sha256(text.encode()).hexdigest() == EXP_LOG_SHA256[pd]


def _remainder(a, m, p):
    """a mod m over F_p; ascending coefficient lists, m monic."""
    a = list(a)
    while len(a) >= len(m):
        lead = a[-1]
        shift = len(a) - len(m)
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return a


def _has_factor(m, p):
    """Trial division by every monic polynomial of degree 1 .. deg(m) // 2."""
    for k in range(1, (len(m) - 1) // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            if not any(_remainder(m, list(low) + [1], p)):
                return True
    return False


def _first_irreducible_by_trial_division(p, d):
    # product() runs its first position slowest: c_0, as the spec orders them
    for low in itertools.product(range(p), repeat=d):
        if not _has_factor(low + (1,), p):
            return low + (1,)
    raise AssertionError("no irreducible polynomial")


SMALL_DEGREES = [(p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
                 for d in range(1, 10) if p ** d <= 729]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_modulus_search_and_validation_match_trial_division(data):
    p, d = data.draw(st.sampled_from(SMALL_DEGREES))
    assert first_irreducible_coeffs(p, d) == _first_irreducible_by_trial_division(p, d)
    modulus = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)))
    modulus += (1,)
    if _has_factor(modulus, p):
        with pytest.raises(ReducibleModulusError):
            make_field(p, 1, d, modulus=modulus)
    else:
        assert make_field(p, 1, d, modulus=modulus).modulus_coeffs == modulus


def test_field_of_order_2_20_builds_in_seconds(run_python):
    # a separate process, so the 2^20 tables are not kept for later tests
    script = ("import time; from ppforge.gf import make_field; t = time.perf_counter(); "
              "ctx = make_field(2, 1, 20); "
              "print(ctx.modulus_coeffs, ctx.generator_code, time.perf_counter() - t)")
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    modulus, generator, seconds = proc.stdout.rsplit(" ", 2)
    x20_x17_1 = (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert modulus == str(x20_x17_1)
    assert int(generator) == 2
    assert float(seconds) < 10.0


# Addition above the add table (the split tables of high and low digits, or
# integers mod p on a prime field) and the add table itself, against
# digit-by-digit references.

def _digit_add(a, b, p):
    out, shift = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += (ra + rb) % p * shift
        shift *= p
    return out


@functools.lru_cache(maxsize=None)
def _zech_add(ctx):
    """Addition on logs, a reference independent of the digit tables: a + b
    = g^(log a + z[log b - log a]) with the Zech logarithm z[d] = log(1 +
    g^d), one pass over the exp table (1 + c only bumps the lowest digit of
    c).  1 + g^d = 0 only at d = (q^n - 1)/2, where z holds log[0] = 0, so
    z[d] = 0 means b = -a; a negative index log b - log a wraps by itself."""
    p, exp, log = ctx.p, ctx._exp, ctx._log
    zech = [log[c - c % p + (c + 1) % p] for c in exp[:ctx.order - 1]]

    def add(a, b):
        if a == 0 or b == 0:
            return a or b
        la = log[a]
        d = zech[log[b] - la]
        return exp[la + d] if d else 0

    return add


def _digit_neg(a, p):
    out, shift = 0, 1
    while a:
        a, r = divmod(a, p)
        out += (p - r) % p * shift
        shift *= p
    return out


EXTENSION_FIELDS = [(3, 6), (3, 7), (3, 8), (5, 4), (7, 4)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_split_addition_matches_digit_reference(data):
    p, d = data.draw(st.sampled_from(EXTENSION_FIELDS))
    ctx = make_field(p, 1, d)
    assert ctx._add_table is None
    code = st.integers(0, ctx.order - 1)
    a = data.draw(code)
    b = data.draw(st.one_of(code, st.sampled_from(["zero", "neg", "same"])))
    b = {"zero": 0, "neg": _digit_neg(a, p), "same": a}.get(b, b)
    if data.draw(st.booleans()):
        a, b = b, a
    c = data.draw(code)
    add, sub, mul = ctx._add, ctx._sub, ctx._mul
    assert add(a, b) == _digit_add(a, b, p)
    assert sub(a, b) == _digit_add(a, _digit_neg(b, p), p)
    assert [*ctx._shift([a], b)] == [_digit_add(a, b, p)]
    assert [*ctx._shift([b], a)] == [_digit_add(a, b, p)]
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(c, add(a, b)) == add(mul(c, a), mul(c, b))


def test_split_addition_edge_cases_exhaustive_on_3_6():
    ctx = make_field(3, 1, 6)
    for a in range(ctx.order):
        neg = _digit_neg(a, 3)
        assert ctx._neg(a) == neg
        assert ctx._add(a, neg) == 0 and ctx._add(neg, a) == 0
        assert ctx._sub(a, a) == 0
        assert ctx._add(a, 0) == a and ctx._add(0, a) == a
        assert ctx._add(a, a) == _digit_add(a, a, 3)
        assert [*ctx._shift([a], 0)] == [a] and [*ctx._shift([0], a)] == [a]
        assert [*ctx._shift([a], neg)] == [0]


@pytest.mark.parametrize("p, d", [(3, 5), (5, 3), (7, 3), (509, 1)])
def test_add_table_matches_digit_reference(p, d):
    ctx = make_field(p, 1, d)
    order = ctx.order
    expected = [[_digit_add(a, b, p) for b in range(order)] for a in range(order)]
    assert ctx._add_table == expected


SPLIT_UNDER_O = """
import sys
from ppforge.gf import make_field
ctx = make_field(3, 1, 6)
print("optimize", sys.flags.optimize)
print("table", ctx._add_table is None)
for a in (1, 2, 3, 364, 728):
    b = ctx._neg(a)
    print("neg", a, b, ctx._add(a, b), ctx._add(b, a), ctx._sub(a, a), *ctx._shift([a], b))
    print("zero", a, ctx._add(a, 0), ctx._add(0, a), *ctx._shift([a], 0), *ctx._shift([0], a))
print("zero_zero", ctx._add(0, 0), ctx._sub(0, 0), *ctx._shift([0], 0))
"""


def test_split_zero_and_negation_cases_under_python_O(run_python):
    proc = run_python(SPLIT_UNDER_O, "-O")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["optimize 1", "table True"]
    for a in (1, 2, 3, 364, 728):
        assert f"neg {a} {_digit_neg(a, 3)} 0 0 0 0" in lines
        assert f"zero {a} {a} {a} {a} {a}" in lines
    assert lines[-1] == "zero_zero 0 0 0"


# Constant shifts and linear tables above the add table, against the Zech
# addition (a log-based reference, see _zech_add) and the scalar linear map:
# split tables on even and odd dimensions, integers mod p on a prime field.

DIGIT_FIELDS = [(3, 6), (7, 4), (3, 7), (5, 5), (11, 3), (1009, 1)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_digit_shifts_and_linear_tables_match_zech_addition(data):
    p, d = data.draw(st.sampled_from(DIGIT_FIELDS), label="field")
    ctx = make_field(p, 1, d)
    assert ctx._add_table is None and (ctx._digit_add is None) == (d == 1)
    code = st.integers(0, ctx.order - 1)
    coeffs = data.draw(st.lists(st.one_of(st.just(0), st.just(1), code),
                                min_size=d, max_size=d), label="coeffs")
    table = ctx.linear_table(functools.partial(ctx._linear_code, coeffs))
    assert list(table) == [ctx._linear_code(coeffs, c) for c in range(ctx.order)]
    # b is 0, a multiple of the split (high digits only), below it (low
    # digits only), the last code or any code
    split = getattr(ctx, "_split", 1)
    b = data.draw(st.one_of(st.sampled_from([0, ctx.order - 1]), code,
                            st.integers(0, ctx.order // split - 1).map(split.__mul__),
                            st.integers(0, split - 1)), label="b")
    add = _zech_add(ctx)
    assert ctx._shifted(table, b) == tuple([table[add(y, b)] for y in range(ctx.order)])
    codes = data.draw(st.one_of(st.lists(code, max_size=40), st.just(range(ctx.order))),
                      label="codes")
    assert ctx._shift(codes, b) == tuple([add(v, b) for v in codes])


@pytest.mark.parametrize("p", [1009, 65521])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prime_fields_past_the_add_table_add_value_lists_like_zech(p, data):
    # value lists and the scalar _add on F_p past the add table add as
    # integers mod p; the Zech addition is the reference, and a = 0, b = 0
    # and b = -a, the cases it special-cases, are drawn on purpose
    ctx = make_field(p)
    assert ctx._add_table is None and ctx.dim == 1
    code = st.integers(0, p - 1)
    pairs = data.draw(st.lists(st.one_of(
        st.tuples(code, code), st.tuples(st.just(0), code), st.tuples(code, st.just(0)),
        code.map(lambda a: (a, -a % p))), max_size=60), label="pairs")
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    expected = list(map(_zech_add(ctx), a, b))
    assert list(ctx._add_codes(a, b)) == expected
    assert list(map(ctx._add, a, b)) == expected


# every odd field class past the add table: even dims, odd dims (a middle
# digit between the high and the low halves) and a prime field
SPLIT_FIELDS = [(3, 6), (3, 8), (3, 7), (5, 5), (11, 3), (1009, 1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_list_and_scalar_addition_match_digit_reference(data):
    # value lists are often dense in zeros (a kernel, a trace), so lists draw
    # 0 on either side and b = -a on purpose; a whole-field list is added to
    # its multiple by m, which is the zero list for m = 0 and -a for m = -1
    p, d = data.draw(st.sampled_from(SPLIT_FIELDS), label="field")
    ctx = make_field(p, 1, d)
    assert ctx._add_table is None
    code = st.integers(0, ctx.order - 1)
    if data.draw(st.booleans(), label="whole field"):
        m = data.draw(st.one_of(st.sampled_from([0, 1, ctx.order - 1]), code), label="m")
        m = ctx._neg(1) if m == ctx.order - 1 else m
        a = list(range(ctx.order))
        b = [ctx._mul(m, x) for x in a]
    else:
        entry = st.one_of(st.just(0), code)
        pairs = data.draw(st.lists(st.one_of(
            st.tuples(entry, entry), code.map(lambda x: (x, _digit_neg(x, p)))),
            max_size=80), label="pairs")
        a, b = [x for x, _ in pairs], [y for _, y in pairs]
    expected = [_digit_add(x, y, p) for x, y in zip(a, b)]
    assert list(ctx._add_codes(a, b)) == expected
    assert list(ctx._add_codes(iter(a), tuple(b))) == expected
    assert list(map(ctx._add, a, b)) == expected


@pytest.mark.parametrize("p, d", [(3, 6), (3, 7), (3, 10), (5, 5), (7, 4), (11, 3)])
def test_digit_add_table_is_small_and_shares_its_ints(p, d):
    # p^floor(d/2) rows of as many codes, all of them the ints of one list:
    # a (p*size)^2 table on odd dims, or an int per entry, is a measured
    # memory blow-up
    ctx = make_field(p, 1, d)
    table, size = ctx._digit_add, p ** (d // 2)
    assert len(table) == size and {len(row) for row in table} == {size}
    assert size * size <= ctx.order
    assert len({id(v) for row in table for v in row}) == size
    assert table == [[_digit_add(a, b, p) for a in range(size)] for b in range(size)]


@pytest.mark.parametrize("p, d", [(3, 10), (3, 11)])
def test_a_constant_shift_reads_the_digit_rows_in_place(p, d):
    # adding a constant to one code allocates about its result: no row of
    # the p^floor(d/2) high or p^ceil(d/2) low codes is built per call
    ctx = make_field(p, 1, d)
    b = ctx.order - 2
    assert ctx._shift([5], b) == (ctx._add(5, b),)
    tracemalloc.start()
    try:
        ctx._shift([5], b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ctx._split


# Whole-table passes (_add_codes, _mul_row) against the scalar _add and _mul,
# on XOR, add-table and split-table fields.

PASS_FIELDS = [(2, 8), (3, 4), (3, 6), (5, 4)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_passes_match_scalar_arithmetic(data):
    p, d = data.draw(st.sampled_from(PASS_FIELDS), label="field")
    ctx = make_field(p, 1, d)
    code = st.integers(0, ctx.order - 1)
    # b is 0, -a, a or any code, so zero operands and sums hit on purpose
    pairs = data.draw(st.lists(st.tuples(st.one_of(st.just(0), code),
                                         st.sampled_from(["zero", "neg", "same", "any"]),
                                         code), min_size=1, max_size=40), label="pairs")
    a = [x for x, _, _ in pairs]
    b = [{"zero": 0, "neg": _digit_neg(x, p), "same": x, "any": y}[kind]
         for x, kind, y in pairs]
    assert list(ctx._add_codes(a, b)) == list(map(ctx._add, a, b))
    # the arguments may be iterators, as in the code maps' nested passes
    assert list(ctx._add_codes(iter(b), iter(a))) == list(map(ctx._add, b, a))
    scale = data.draw(st.one_of(st.just(0), st.just(1), code), label="scale")
    row = ctx._mul_row(scale)
    assert len(row) == ctx.order
    assert row == [ctx._mul(scale, v) for v in range(ctx.order)]


# gather: table[i] for every i of an index, one itemgetter call a chunk.

INDEX_KINDS = {"list": list, "tuple": tuple, "array": lambda v: array("I", v),
               "iterator": iter, "generator": lambda v: (i for i in v)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gather_matches_a_comprehension(data):
    chunk = data.draw(st.integers(2, 5), label="chunk")
    table = data.draw(st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=30),
                      label="table")
    table = data.draw(st.sampled_from([list, tuple, lambda v: array("I", v)]))(table)
    # 0 and 1 indices, 2, and lengths on both sides of one and two chunks
    length = data.draw(st.sampled_from([0, 1, 2, chunk - 1, chunk, chunk + 1,
                                        2 * chunk, 2 * chunk + 1, 3 * chunk + 2]),
                       label="length")
    kind = data.draw(st.sampled_from(sorted(INDEX_KINDS) + ["range"]), label="kind")
    if kind == "range":
        start = data.draw(st.integers(0, len(table) - 1), label="start")
        step = data.draw(st.sampled_from([1, -1]), label="step")
        codes = index = range(start, -1 if step < 0 else len(table), step)[:length]
    else:
        codes = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=length,
                                   max_size=length), label="codes")
        index = INDEX_KINDS[kind](codes)
    with mock.patch.object(gf, "_GATHER_CHUNK", chunk):
        out = gf.gather(table, index)
    assert type(out) is tuple
    assert out == tuple([table[i] for i in codes])


@pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
@pytest.mark.parametrize("codes", [[3], [0, 3], [0, 1, 2, 0, 1, 2, 0, 3]])
def test_gather_refuses_an_index_outside_the_table(kind, codes):
    # [0, 1, 2, 0, 1, 2, 0, 3] is three chunks of 3 with the bad index last
    with mock.patch.object(gf, "_GATHER_CHUNK", 3), pytest.raises(IndexError):
        gf.gather(array("I", [7, 8, 9]), INDEX_KINDS[kind](codes))


def test_gather_through_a_long_array_index_holds_about_its_result():
    # one itemgetter(*index) call would unpack all 2^18 codes into a tuple of
    # new ints beside the result, about 5.5 times the result's size; a chunk
    # at a time the peak stays under 3 times it
    n = 1 << 18
    table, index = list(range(n)), array("I", reversed(range(n)))
    tracemalloc.start()
    try:
        out = gf.gather(table, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == tuple(reversed(table))
    assert peak < 3 * sys.getsizeof(out)


# str(Elem) is the comma-separated coordinate vector.

@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 1, 8)])
def test_labels_match_coordinates_exhaustive(spec):
    ctx = make_field(*spec)
    for x in ctx.elements():
        assert str(x) == ",".join(map(str, x.coords))


@settings(max_examples=50, deadline=None)
@given(code=st.integers(0, (1 << 17) - 1))
def test_labels_above_the_interning_bound(code):
    ctx = make_field(2, 1, 17)
    x, y = ctx.elem(code), ctx.elem(code)
    assert x is not y  # not interned at this order
    assert str(x) == ",".join(map(str, x.coords)) == str(y)
    assert len(str(x).split(",")) == 17


# power_table builds y^t in one pass over the log table; it must agree with
# _pow element by element, including 0^0 = 1, exponents that are multiples
# of q^n - 1 and huge exponents, and be built once per field and exponent.

POWER_FIELDS = [(2, 1, 8), (3, 1, 6), (5, 1, 4)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_table_matches_pow(data):
    ctx = make_field(*data.draw(st.sampled_from(POWER_FIELDS), label="field"))
    om1 = ctx.order - 1
    t = data.draw(st.one_of(st.just(0), st.integers(1, 3).map(om1.__mul__),
                            st.integers(0, 2 * om1), st.integers(0, 1 << 200)), label="t")
    assert list(ctx.power_table(t)) == [ctx._pow(y, t) for y in range(ctx.order)]
    assert ctx.power_table(t) is ctx.power_table(t)


# Field identity of fields the tests above do not pin (GOLDEN_FIELDS holds
# 2^1:8, 2^1:12, 3^1:4, 3^1:6, 3^1:8 and 5^1:2, the 2^20 test 2^1:20):
# (default modulus, generator code), at the values every earlier build gave.
# One fresh interpreter builds them one at a time, so the fields above 2^16
# elements are not kept for later tests.

FIELD_IDENTITY = {
    "3^1:12": ((1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1), 4),
    # prime fields past the add table; 1048573 is the largest prime under
    # the 2^20 cap, and 8191 is pinned further below
    "8191^1:1": ((0, 1), 17),
    "65521^1:1": ((0, 1), 17),
    "1048573^1:1": ((0, 1), 2),
    "5^1:8": ((1, 0, 0, 0, 0, 1, 1, 0, 1), 6),
    "7^1:6": ((1, 0, 0, 0, 1, 0, 1), 8),
    "2^2:3": ((1, 0, 0, 0, 0, 1, 1), 2),
    "3^2:2": ((1, 0, 1, 1, 1), 10),
}

IDENTITY_SCRIPT = """
from ppforge import gf
for spec in {specs!r}:
    ctx = gf.parse_field_spec(spec)
    print(spec, ctx.modulus_coeffs, ctx.generator_code, sep="|")
    gf._FIELD_CACHE.clear()
    del ctx
"""


def test_field_identity_is_pinned(run_python):
    proc = run_python(IDENTITY_SCRIPT.format(specs=list(FIELD_IDENTITY)))
    assert proc.returncode == 0, proc.stderr
    expected = [f"{spec}|{modulus}|{generator}"
                for spec, (modulus, generator) in FIELD_IDENTITY.items()]
    assert proc.stdout.splitlines() == expected


def test_prime_field_past_the_add_table_is_pinned():
    # the exp table iterates linear_table's x -> 17*x, on F_p the integers c*17 mod p
    ctx = make_field(8191)
    assert ctx._add_table is None and ctx._digit_add is None
    assert ctx.generator_code == 17
    assert ctx._exp[:5] == [1, 17, 289, 4913, 1611]
    assert ctx._exp[ctx._log[4913] + ctx._log[1611]] == 4913 * 1611 % 8191


def _times(a, b, m, p):
    """The product of two codes as polynomials over F_p modulo m, digit by
    digit, for the brute-force generator check."""
    def digits(c):
        return [c // p ** i % p for i in range(len(m) - 1)]
    prod = [0] * (2 * len(m))
    for i, x in enumerate(digits(a)):
        for j, y in enumerate(digits(b)):
            prod[i + j] += x * y
    rem = _remainder([c % p for c in prod], m, p)
    return sum(c * p ** i for i, c in enumerate(rem))


def _orbit_length(g, m, p):
    """Length of the orbit of 1 under x -> g*x, g nonzero."""
    x, length = _times(1, g, m, p), 1
    while x != 1:
        x, length = _times(x, g, m, p), length + 1
    return length


@pytest.mark.parametrize("p, d", SMALL_DEGREES)
def test_generator_is_the_smallest_code_of_full_orbit(p, d):
    ctx = make_field(p, 1, d)
    m = ctx.modulus_coeffs
    full = [c for c in range(1, ctx.generator_code + 1)
            if _orbit_length(c, m, p) == ctx.order - 1]
    assert full == [ctx.generator_code]


# The F_p coefficient-list helpers that build fields, against poly.Poly over
# the prime field: Rabin's test and modular powering, on random monic moduli
# up to degree 16 and on products of two random monic factors (reducible,
# and often passing x^(p^d) = x, so the gcd step decides them).

def _monic(p, degree):
    return st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree).map(
        lambda low: tuple(low) + (1,))


def _poly_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _trimmed(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_field_helpers_match_trial_division_and_repeated_products(data):
    # Rabin's test against trial division, on degrees whose trial division
    # stays short (p^(d/2) <= 3125), products of two monics among them; the
    # modular power a^k against k - 1 products, and a^(j * p^d + k) against
    # a^(j + k) when m is irreducible of degree d, since a^(p^d) = a there
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    top = max(d for d in range(1, 17) if p ** (d // 2) <= 3125)
    if data.draw(st.booleans(), label="product"):
        left = data.draw(st.integers(1, top - 1), label="left")
        right = data.draw(st.integers(1, top - left), label="right")
        m = _poly_product(data.draw(_monic(p, left)), data.draw(_monic(p, right)), p)
    else:
        m = data.draw(st.integers(1, top).flatmap(lambda d: _monic(p, d)), label="m")
    irreducible = not _has_factor(m, p)
    assert gf._is_irreducible(m, p) == irreducible
    a = _trimmed(data.draw(st.lists(st.integers(0, p - 1), max_size=len(m) - 1), label="a"))
    k = data.draw(st.integers(1, 40), label="k")
    expected = a
    for _ in range(k - 1):
        expected = _trimmed(_remainder(_poly_product(expected, a, p) if expected else [], m, p))
    assert gf._fp_powmod(a, k, m, p) == expected
    if irreducible and a:
        j = data.draw(st.integers(1, 3), label="j")
        big = j * p ** (len(m) - 1) + k
        assert gf._fp_powmod(a, big, m, p) == gf._fp_powmod(a, j + k, m, p)


# Building a field runs on plain integers: no Poly is made, nothing is
# imported from poly, and a field makes only zero, one and its generator
# until something reads another element.

def test_building_a_field_makes_no_poly_and_three_elements(monkeypatch):
    import sys

    from ppforge import gf, poly

    def refuse(*args, **kwargs):
        raise AssertionError("a Poly was made while building a field")

    made = []
    make_elem = gf.Elem.__init__

    def counted(self, ctx, code):
        made.append((ctx, code))
        make_elem(self, ctx, code)

    built = []
    init_ctx = gf.FieldCtx.__init__

    def counted_ctx(self, *args):
        built.append(self)
        init_ctx(self, *args)

    monkeypatch.setattr(poly.Poly, "__init__", refuse)
    monkeypatch.setitem(sys.modules, "ppforge.poly", None)  # an import would fail
    monkeypatch.setattr(gf.Elem, "__init__", counted)
    monkeypatch.setattr(gf.FieldCtx, "__init__", counted_ctx)
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    gf.first_irreducible_coeffs.cache_clear()
    fields = [make_field(3, 1, 6),  # split tables, modulus searched afresh
              make_field(2, 1, 8, modulus=(1, 1, 0, 1, 1, 0, 0, 0, 1)),
              make_field(5, 1, 3)]
    assert built == fields  # an extension field no longer builds F_p first
    for ctx in fields:
        assert sorted(code for owner, code in made if owner is ctx) == [0, 1, ctx.generator_code]
    assert fields[1].label == "2^1:8:mod=1,1,0,1,1,0,0,0,1"


@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 1, 8)])
def test_elements_are_interned_as_first_made(spec):
    ctx = make_field(*spec)
    early = {c: ctx._wrap(c) for c in (5, 0, ctx.order - 1)}
    elements = ctx.elements()
    assert isinstance(elements, tuple) and len(elements) == ctx.order
    assert [x.code for x in elements] == list(range(ctx.order))
    assert all(elements[c] is ctx._wrap(c) for c in range(ctx.order))
    assert all(elements[c] is x for c, x in early.items())
    assert ctx.elements() is elements
