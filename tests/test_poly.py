import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge.gf import CtxMismatchError, make_field
from ppforge.poly import (
    Poly,
    format_poly,
    gcd,
    parse_poly,
)

F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(3, 1, 2)


def rand_poly(ctx, rng, max_deg=5):
    return Poly(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(max_deg + 1))])


def test_eval_examples():
    p = Poly(F5, [1, 0, 1])  # x^2 + 1
    assert p.eval(F5.elem(2)) == F5.zero
    assert Poly.zero(F5).eval(F5.elem(4)) == F5.zero
    g = F9.generator
    assert Poly.monomial(F9, 5).eval(g) == g ** 5


def test_eval_requires_same_ctx():
    with pytest.raises(CtxMismatchError):
        Poly.one(F5).eval(F3.elem(1))


def test_normalization():
    assert Poly(F5, [1, 2, 0, 0]).codes == (1, 2)
    assert Poly(F5, [0, 0]).is_zero
    assert Poly(F5, [0, 0]).degree == -1


def test_gcd_examples():
    a = Poly(F5, [4, 0, 1])  # x^2 - 1
    b = Poly(F5, [4, 1])     # x - 1
    g = gcd(a, b)
    assert g == Poly(F5, [4, 1])
    assert g.codes[-1] == 1  # monic
    assert gcd(Poly.x(F3), Poly(F3, [1, 0, 1])) == Poly.one(F3)
    assert gcd(Poly.zero(F5), Poly.zero(F5)).is_zero


def test_mul_identity():
    rng = random.Random(5)
    for _ in range(20):
        f = rand_poly(F9, rng)
        assert f * Poly.one(F9) == f
        assert f + Poly.zero(F9) == f


def test_euclidean_property():
    rng = random.Random(11)
    for ctx in (F5, F9):
        for _ in range(50):
            f = rand_poly(ctx, rng, 6)
            g = rand_poly(ctx, rng, 4)
            if g.is_zero:
                continue
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.degree < g.degree


def test_gcd_divides_both():
    rng = random.Random(23)
    for _ in range(40):
        f, g = rand_poly(F9, rng, 5), rand_poly(F9, rng, 5)
        d = gcd(f, g)
        if d.is_zero:
            assert f.is_zero and g.is_zero
            continue
        assert (f % d).is_zero and (g % d).is_zero
        assert d.codes[-1] == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(F5), Poly.zero(F5))


def test_eval_is_ring_homomorphism():
    rng = random.Random(37)
    for _ in range(10):
        f, g = rand_poly(F9, rng, 4), rand_poly(F9, rng, 4)
        for x in F9.elements():
            assert (f + g).eval(x) == f.eval(x) + g.eval(x)
            assert (f * g).eval(x) == f.eval(x) * g.eval(x)


def test_text_round_trip_prime():
    f = Poly(F5, [1, 2, 3])
    assert format_poly(f) == "1,2,3"
    assert parse_poly(F5, "1,2,3") == f
    assert parse_poly(F5, "") == Poly.zero(F5)


def test_text_round_trip_extension():
    f = Poly(F9, [F9.from_coords([1, 2]), F9.from_coords([0, 1])])
    text = format_poly(f)
    assert text == "1,2;0,1"
    assert parse_poly(F9, text) == f


def test_str_form():
    assert str(Poly(F5, [1, 0, 1])) == "x^2 + 1"
    assert str(Poly(F5, [0, 3])) == "3*x"
    assert str(Poly.zero(F5)) == "0"


@pytest.mark.parametrize("ctx", [make_field(2, 1, 6), make_field(3, 1, 4), make_field(3, 1, 6)],
                         ids=["xor", "add_table", "split_tables"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tabulate_matches_eval_code(ctx, data):
    # the fields add by XOR, by the add table (up to 512 elements) and by the
    # split tables of high and low digits; terms reach degree q^n - 1 on the
    # two small fields, and the constant term, drawn on its own, is the value
    # at x = 0
    top = min(ctx.order - 1, 80)
    terms = data.draw(st.dictionaries(st.integers(1, top), st.integers(1, ctx.order - 1),
                                      max_size=4), label="terms")
    codes = [terms.get(i, 0) for i in range(max(terms, default=0) + 1)]
    codes[0] = data.draw(st.integers(0, ctx.order - 1), label="constant")
    f = Poly(ctx, codes)
    assert list(f.tabulate()) == [f.eval_code(x) for x in range(ctx.order)]
