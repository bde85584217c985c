import functools
import itertools

import pytest

from ppforge.gf import make_field
from ppforge import linearized
from ppforge.linearized import (
    CriteriaDisagreeError,
    LinPoly,
    SubfieldCoefficientError,
    circulant_det_is_nonzero,
    format_linpoly,
    gcd_criterion_is_pp,
    is_permutation,
    parse_linpoly,
    random_linearized_pp,
)
from ppforge.oracle import check_bijective

F9 = make_field(3, 1, 2)
F27 = make_field(3, 1, 3)
F81 = make_field(3, 1, 4)


def all_subfield_linpolys(ctx):
    base = [x.code for x in ctx.subfield_elements()]
    for codes in itertools.product(base, repeat=ctx.n):
        yield LinPoly(ctx, codes)


def test_apply_monomial():
    L = LinPoly.frobenius_term(F9, 1)
    for x in F9.elements():
        assert L.apply(x) == x.frobenius()


def test_apply_trace():
    L = LinPoly.trace_map(F9)
    for x in F9.elements():
        assert L.apply(x) == x.trace()


def test_apply_additive():
    L = LinPoly(F9, (2, 1))
    els = F9.elements()
    for x, y in itertools.product(els, els):
        assert L.apply(x + y) == L.apply(x) + L.apply(y)


def test_apply_commutes_with_base_scalars():
    L = LinPoly(F9, (2, 1))
    for c in F9.subfield_elements():
        for x in F9.elements():
            assert L.apply(c * x) == c * L.apply(x)


def test_subfield_flag():
    assert LinPoly(F9, (1, 2)).subfield_flag
    w = F9.from_coords([0, 1])
    assert not LinPoly(F9, (w, F9.one)).subfield_flag


def test_circulant_identity_true():
    assert circulant_det_is_nonzero(LinPoly.identity(F27))


def test_circulant_trace_false():
    assert not circulant_det_is_nonzero(LinPoly.trace_map(F9))
    assert not circulant_det_is_nonzero(LinPoly.trace_map(F27))


def test_circulant_frobenius_true():
    L = LinPoly.frobenius_term(F81, 1)
    assert circulant_det_is_nonzero(L)
    assert check_bijective(L.apply, F81).bijective


def test_gcd_criterion_examples():
    assert gcd_criterion_is_pp(LinPoly.frobenius_term(F81, 1))   # l = x
    assert not gcd_criterion_is_pp(LinPoly.trace_map(F81))       # l divides x^n - 1


def test_gcd_criterion_needs_subfield():
    w = F9.from_coords([0, 1])
    with pytest.raises(SubfieldCoefficientError):
        gcd_criterion_is_pp(LinPoly(F9, (w,)))


def test_criteria_agree_with_oracle_exhaustive_f81_subfield():
    for L in all_subfield_linpolys(F81):
        gc = gcd_criterion_is_pp(L)
        cc = circulant_det_is_nonzero(L)
        bf = check_bijective(L.apply, F81).bijective
        assert gc == cc == bf, L.codes


def test_circulant_matches_oracle_with_general_coefficients():
    # coefficients outside F_q: only the circulant criterion applies
    for codes in itertools.product(range(9), repeat=2):
        L = LinPoly(F9, codes)
        assert circulant_det_is_nonzero(L) == check_bijective(L.apply, F9).bijective


def test_trace_commutation():
    # L(Tr x) = Tr(L x) = (sum a_i) Tr(x) for every base-field L, on tables
    trace = LinPoly.trace_map(F9).tabulate()
    for L in all_subfield_linpolys(F9):
        table = F9.linear_map(L.codes)
        coeff_sum = functools.reduce(F9._add, L.codes)
        for x in range(F9.order):
            assert table[trace[x]] == trace[table[x]] == F9._mul(coeff_sum, trace[x])


def test_associate_round_trip():
    # the conventional associate keeps the coefficient vector
    for L in all_subfield_linpolys(F27):
        assert LinPoly(F27, L.conventional().codes) == L


def test_random_linearized_pp():
    for seed in range(6):
        L = random_linearized_pp(F81, seed)
        assert gcd_criterion_is_pp(L)
        assert circulant_det_is_nonzero(L)
        assert check_bijective(L.apply, F81).bijective
        assert random_linearized_pp(F81, seed) == L  # deterministic


def test_is_permutation_cross_checks():
    assert is_permutation(LinPoly.identity(F27))
    assert not is_permutation(LinPoly.trace_map(F27))
    w = F9.from_coords([0, 1])
    assert is_permutation(LinPoly(F9, (0, w))) == check_bijective(
        LinPoly(F9, (0, w)).apply, F9).bijective


def test_is_permutation_raises_when_criteria_disagree(monkeypatch):
    # a real exception, so the cross-check also runs under python -O
    monkeypatch.setattr(linearized, "gcd_criterion_is_pp", lambda L: False)
    with pytest.raises(CriteriaDisagreeError):
        is_permutation(LinPoly.identity(F27))
    # general coefficients: only the circulant criterion applies
    w = F9.from_coords([0, 1])
    assert is_permutation(LinPoly(F9, (0, w)))


def test_text_round_trip():
    L = LinPoly(F9, (F9.from_coords([1, 2]), F9.one))
    text = format_linpoly(L)
    assert text == "lin:1,2;1,0"
    assert parse_linpoly(F9, text) == L
