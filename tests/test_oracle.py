import pytest

from ppforge.families import family_half_power
from ppforge.gf import make_field
from ppforge.oracle import (
    FieldTooLargeError,
    NotBijectiveError,
    check_bijective,
    check_iff,
    scan_codes,
    cycle_structure,
    format_cycle_type,
)

F4 = make_field(2, 1, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 1, 2)


def test_identity_is_bijective_with_fixed_points():
    v = check_bijective(lambda x: x, F9)
    assert v.bijective
    assert v.collision is None and v.missed is None
    assert v.cycle_type == (1,) * 9


def test_square_map_collision_on_f5():
    v = check_bijective(lambda x: x * x, F5)
    assert not v.bijective
    # 2^2 = 3^2 = 4 is the first collision in scan order
    assert v.collision == (F5.elem(2), F5.elem(3))
    assert v.missed == F5.elem(2)  # smallest value with no preimage
    assert v.cycle_type is None


def test_frobenius_bijective():
    v = check_bijective(lambda x: x.frobenius(), F9)
    assert v.bijective


def test_cycle_structure_identity():
    assert cycle_structure(lambda x: x, F7) == (1,) * 7


def test_cycle_structure_frobenius_f4():
    # fixes the subfield, swaps the two outside elements
    assert cycle_structure(lambda x: x.frobenius(), F4) == (1, 1, 2)


def test_cycle_structure_additive_shift():
    one = F7.one
    assert cycle_structure(lambda x: x + one, F7) == (7,)


def test_cycle_structure_rejects_non_bijection():
    with pytest.raises(NotBijectiveError):
        cycle_structure(lambda x: x * x, F5)


def test_field_cap():
    with pytest.raises(FieldTooLargeError):
        check_bijective(lambda x: x, F9, cap=8)


def test_determinism():
    a = check_bijective(lambda x: x * x, F9)
    b = check_bijective(lambda x: x * x, F9)
    assert a == b


def test_presence_recount():
    v = check_bijective(lambda x: x.frobenius() + F9.one, F9)
    assert v.bijective
    images = {(x.frobenius() + F9.one).code for x in F9.elements()}
    assert len(images) == 9


def test_scan_codes_on_value_lists():
    # 2 -> 4 and 3 -> 4: first repeat at x = 3, codes 0 and 2 never hit
    v = scan_codes([1, 3, 4, 4, 1], F5)
    assert not v.bijective
    assert v.collision == (F5.elem(2), F5.elem(3))
    assert v.missed == F5.elem(0)
    # (0 1 2)(3 4)
    assert scan_codes([1, 2, 0, 4, 3], F5).cycle_type == (2, 3)
    with pytest.raises(ValueError):
        scan_codes([0, 1, 2], F5)


def test_scan_codes_collision_at_the_last_code_and_after_the_tail():
    # the only repeat is the last value: 6 -> 1 as 1 -> 1; 2 is never hit
    v = scan_codes([3, 1, 4, 0, 6, 5, 1], F7)
    assert v.collision == (F7.elem(1), F7.elem(6))
    assert v.missed == F7.elem(2)
    # the first repeat is at x = 1; only the values after it show 5 is the
    # smallest code missed
    v = scan_codes([0, 0, 1, 2, 3, 4, 6], F7)
    assert v.collision == (F7.elem(0), F7.elem(1))
    assert v.missed == F7.elem(5)


@pytest.mark.parametrize("codes", [[0, -1, 1], [0, 1, 3], [2, 1, -3]])
def test_scan_codes_refuses_values_outside_the_field(codes):
    # a negative value would index the hit table from its end: [0, -1, 1]
    # then scanned as a bijection of F_3
    with pytest.raises(ValueError, match="codes in"):
        scan_codes(codes, make_field(3))


def test_format_cycle_type():
    assert format_cycle_type((1, 1, 1, 2, 2, 5)) == "1^3 2^2 5^1"
    assert format_cycle_type((9,)) == "9^1"


def test_check_iff_agreement():
    inst = family_half_power(F9, 1, F9.one, F9.one, F9.zero)
    rec = check_iff(inst)
    assert rec.agree and rec.predicted and rec.observed
    assert rec.family_id == "half_power"

