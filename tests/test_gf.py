import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # 3^6 = 729 exceeds the add-table bound, exercising the Zech path
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


# Addition above the add table (Zech logarithms for _add, half-digit rows for
# _add_const) and the add table itself, against digit-by-digit references.

def _digit_add(a, b, p):
    out, shift = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        out += (ra + rb) % p * shift
        shift *= p
    return out


def _digit_neg(a, p):
    out, shift = 0, 1
    while a:
        a, r = divmod(a, p)
        out += (p - r) % p * shift
        shift *= p
    return out


ZECH_FIELDS = [(3, 6), (3, 7), (3, 8), (5, 4), (7, 4)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_zech_addition_matches_digit_reference(data):
    p, d = data.draw(st.sampled_from(ZECH_FIELDS))
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
    assert ctx._add_const(b)(a) == _digit_add(a, b, p)
    assert ctx._add_const(a)(b) == _digit_add(a, b, p)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(c, add(a, b)) == add(mul(c, a), mul(c, b))


def test_zech_addition_edge_cases_exhaustive_on_3_6():
    ctx = make_field(3, 1, 6)
    for a in range(ctx.order):
        neg = _digit_neg(a, 3)
        assert ctx._neg(a) == neg
        assert ctx._add(a, neg) == 0 and ctx._add(neg, a) == 0
        assert ctx._sub(a, a) == 0
        assert ctx._add(a, 0) == a and ctx._add(0, a) == a
        assert ctx._add(a, a) == _digit_add(a, a, 3)
        assert ctx._add_const(0)(a) == a and ctx._add_const(a)(0) == a
        assert ctx._add_const(neg)(a) == 0


@pytest.mark.parametrize("p, d", [(3, 5), (5, 3), (7, 3), (509, 1)])
def test_add_table_matches_digit_reference(p, d):
    ctx = make_field(p, 1, d)
    order = ctx.order
    expected = [[_digit_add(a, b, p) for b in range(order)] for a in range(order)]
    assert ctx._add_table == expected


ZECH_UNDER_O = """
import sys
from ppforge.gf import make_field
ctx = make_field(3, 1, 6)
print("optimize", sys.flags.optimize)
print("table", ctx._add_table is None)
for a in (1, 2, 3, 364, 728):
    b = ctx._neg(a)
    print("neg", a, b, ctx._add(a, b), ctx._add(b, a), ctx._sub(a, a), ctx._add_const(b)(a))
    print("zero", a, ctx._add(a, 0), ctx._add(0, a), ctx._add_const(0)(a), ctx._add_const(a)(0))
print("zero_zero", ctx._add(0, 0), ctx._sub(0, 0), ctx._add_const(0)(0))
"""


def test_zech_zero_and_negation_cases_under_python_O(run_python):
    proc = run_python(ZECH_UNDER_O, "-O")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["optimize 1", "table True"]
    for a in (1, 2, 3, 364, 728):
        assert f"neg {a} {_digit_neg(a, 3)} 0 0 0 0" in lines
        assert f"zero {a} {a} {a} {a} {a}" in lines
    assert lines[-1] == "zero_zero 0 0 0"


# Whole-table passes (_add_codes, _mul_row) against the scalar _add and _mul,
# on XOR, add-table and Zech fields.

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


# str(Elem) is memoized per field and code.

@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 1, 8)])
def test_labels_match_coordinates_exhaustive(spec):
    ctx = make_field(*spec)
    for x in ctx.elements():
        assert str(x) == ",".join(map(str, x.coords))
        assert str(x) == ",".join(map(str, x.coords))  # read from the memo
    assert set(ctx._labels) == set(range(ctx.order))


@settings(max_examples=50, deadline=None)
@given(code=st.integers(0, (1 << 17) - 1))
def test_labels_above_the_interning_bound(code):
    ctx = make_field(2, 1, 17)
    x, y = ctx.elem(code), ctx.elem(code)
    assert x is not y  # not interned at this order: one label serves both
    assert str(x) == ",".join(map(str, x.coords)) == str(y)
    assert len(str(x).split(",")) == 17


# power_sum_table builds each term in passes over the log table; it must
# agree with _pow, _add and _sub element by element, including 0^0 = 1,
# exponents that are multiples of q^n - 1, huge exponents and negated terms.

POWER_FIELDS = [(2, 1, 8), (3, 1, 6), (5, 1, 4)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_sum_table_matches_pow(data):
    ctx = make_field(*data.draw(st.sampled_from(POWER_FIELDS), label="field"))
    om1 = ctx.order - 1
    exponent = st.one_of(st.just(0), st.integers(1, 3).map(om1.__mul__),
                         st.integers(0, 2 * om1), st.integers(0, 1 << 200))
    terms = data.draw(st.lists(st.tuples(exponent, st.sampled_from([1, -1])),
                               min_size=1, max_size=3), label="terms")
    want = []
    for y in range(ctx.order):
        acc = 0
        for e, sign in terms:
            acc = (ctx._add if sign == 1 else ctx._sub)(acc, ctx._pow(y, e))
        want.append(acc)
    assert list(ctx.power_sum_table(terms)) == want
    if len(terms) == 1 and terms[0][1] == 1:
        assert ctx.power_table(terms[0][0]) is ctx.power_sum_table(terms)
