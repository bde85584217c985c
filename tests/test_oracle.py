import array
import itertools
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge.families import family_half_power
from ppforge.gf import CtxMismatchError, make_field, parse_field_spec
from ppforge.oracle import (
    FieldTooLargeError,
    IffRecord,
    Verdict,
    check_bijective,
    check_iff,
    cycle_type,
    scan_codes,
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


def test_cycle_type_identity():
    assert check_bijective(lambda x: x, F7).cycle_type == (1,) * 7


def test_cycle_type_frobenius_f4():
    # fixes the subfield, swaps the two outside elements
    assert check_bijective(lambda x: x.frobenius(), F4).cycle_type == (1, 1, 2)


def test_cycle_type_additive_shift():
    one = F7.one
    assert check_bijective(lambda x: x + one, F7).cycle_type == (7,)


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


@pytest.mark.parametrize("codes, order", [
    ([-1, 0], 2),        # walked as the 2-cycle 0 -> -1 (= 1 from the end) -> 0
    ([1, 2], 2),         # q^n met by the walk
    ([0, 0, 5], 3),      # q^n after the first repeat: read by the canonical scan only
    ([1, 1, 0, 7], 2 ** 2),
])
def test_scan_codes_refuses_codes_outside_the_field_on_both_scans(codes, order):
    ctx = {2: make_field(2), 3: make_field(3), 4: F4}[order]
    with pytest.raises(ValueError, match="codes in"):
        scan_codes(codes, ctx)


def test_format_cycle_type():
    assert format_cycle_type((1, 1, 1, 2, 2, 5)) == "1^3 2^2 5^1"
    assert format_cycle_type((9,)) == "9^1"


def test_check_iff_agreement():
    inst = family_half_power(F9, 1, F9.one, F9.one, F9.zero)
    rec = check_iff(inst)
    assert rec.agree and rec.predicted and rec.observed
    assert rec.family_id == "half_power"



@pytest.mark.parametrize("spec", ["2^1:3:mod=1,1,0,1", "3^1:2"])
def test_values_from_another_field_are_refused(spec):
    # F_8 under another modulus has the same codes 0..7, and F_9's codes
    # 0..7 are in range too: neither may be scanned as a map on F_8
    F8 = make_field(2, 1, 3)
    other = parse_field_spec(spec)
    assert other is not F8
    with pytest.raises(CtxMismatchError):
        check_bijective(lambda x: other.elem(x.code), F8)


@pytest.mark.parametrize("evaluator", [lambda x: x.code, lambda x: None], ids=["code", "none"])
def test_values_that_are_not_elements_are_refused(evaluator):
    with pytest.raises(CtxMismatchError, match=r"must be elements of 2\^1:3$"):
        check_bijective(evaluator, make_field(2, 1, 3))


def _reference_scan(codes, ctx):
    """Two passes: the first repeat in canonical order, then the cycles."""
    first, collision = {}, None
    for x, y in enumerate(codes):
        if y in first:
            collision = (first[y], x)
            break
        first[y] = x
    if collision is not None:
        missed = min(set(range(ctx.order)) - set(codes))
        return False, tuple(map(ctx.elem, collision)), ctx.elem(missed), None
    seen, lengths = set(), []
    for start in range(ctx.order):
        length, c = 0, start
        while c not in seen:
            seen.add(c)
            c = codes[c]
            length += 1
        if length:
            lengths.append(length)
    return True, None, None, tuple(sorted(lengths))


SMALL_FIELDS = [make_field(2), make_field(3), F4, F5, F7, make_field(2, 1, 3), F9,
                make_field(2, 1, 4), make_field(5, 1, 2)]


@st.composite
def value_lists(draw, fields=SMALL_FIELDS):
    ctx = draw(st.sampled_from(fields))
    n = ctx.order
    kind = draw(st.sampled_from(["bijection", "map", "last", "cycles_then_rho"]))
    if kind == "bijection":
        codes = draw(st.permutations(range(n)))
    elif kind == "map":
        codes = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elif kind == "last":
        # a bijection whose last value is moved onto another one's
        codes = list(draw(st.permutations(range(n))))
        codes[-1] = codes[draw(st.integers(0, n - 2))]
    else:
        # closed cycles on 0..k-1 before any walk can reach a repeat
        k = draw(st.integers(1, n - 1))
        codes = list(draw(st.permutations(range(k))))
        codes += draw(st.lists(st.integers(0, n - 1), min_size=n - k, max_size=n - k))
        codes[draw(st.integers(k, n - 1))] = draw(st.integers(0, k - 1))
    return ctx, list(codes)


@settings(max_examples=300, deadline=None)
@given(value_lists())
def test_scan_codes_matches_a_two_pass_scan(case):
    ctx, codes = case
    v = scan_codes(codes, ctx)
    assert (v.bijective, v.collision, v.missed, v.cycle_type) == _reference_scan(codes, ctx)


@settings(max_examples=300, deadline=None)
@given(value_lists())
def test_cycle_type_matches_a_two_pass_scan(case):
    # the walk alone: a bijection's sorted cycle lengths, None for every
    # non-bijection (the reference gives a non-bijection no cycle type)
    ctx, codes = case
    bijective, _, _, expected = _reference_scan(codes, ctx)
    assert cycle_type(codes, ctx) == expected
    assert (expected is None) == (not bijective)


@pytest.mark.parametrize("codes, order", [
    ([-1, 0], 2),        # a negative code, wherever it is: refused by the min pass
    ([0, 1, -2], 3),
    ([1, 2], 2),         # q^n met by the walk
    ([0, 3, 1], 3),      # q^n met by the walk after a closed cycle
])
def test_cycle_type_refuses_codes_outside_the_field(codes, order):
    ctx = {2: make_field(2), 3: make_field(3)}[order]
    with pytest.raises(ValueError, match="codes in"):
        cycle_type(codes, ctx)


def test_cycle_type_stops_at_the_first_repeat():
    # 0 closes, then 1 -> 0 meets the mark on 0 before the walk reaches the 5
    # that only scan_codes' canonical scan reads and refuses
    assert cycle_type([0, 0, 5], make_field(3)) is None


# codes past CPython's small-int cache (256), so marks are indexed by ints that
# are not shared objects
LARGE_FIELDS = [make_field(2, 1, 9), make_field(3, 1, 6)]


@settings(max_examples=30, deadline=None)
@given(value_lists(LARGE_FIELDS))
def test_scan_codes_matches_a_two_pass_scan_above_256_on_any_sequence(case):
    # scan_codes takes any Sequence[int] and its walk indexes it directly
    ctx, codes = case
    expected = _reference_scan(codes, ctx)
    for copy in (codes, tuple(codes), array.array("I", codes)):
        v = scan_codes(copy, ctx)
        assert (v.bijective, v.collision, v.missed, v.cycle_type) == expected, type(copy)


def test_records_are_immutable_with_unchanged_fields():
    v = Verdict(bijective=True)
    assert Verdict._fields == ("bijective", "collision", "missed", "cycle_type")
    assert (v.collision, v.missed, v.cycle_type) == (None, None, None)
    rec = IffRecord(family_id="f", predicted=True, observed=False, verdict=v)
    assert IffRecord._fields == ("family_id", "predicted", "observed", "verdict")
    assert IffRecord._field_defaults == {}
    assert not rec.agree
    for record, name in ((v, "bijective"), (v, "extra"), (rec, "observed"), (rec, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, False)
    assert hash(v) == hash(Verdict(True)) and v == Verdict(True)


def test_grid_and_square_records_are_immutable_with_unchanged_fields():
    from ppforge.agw import FiberReport, PerturbReport, ShiftReport
    from ppforge.families import SkippedInstance

    assert SkippedInstance._fields == ("family_id", "ctx", "params", "reason")
    assert SkippedInstance._field_defaults == {}
    assert FiberReport._fields == ("f_bijective", "h_bijective", "fiber_injective",
                                   "fiber_witness")
    assert FiberReport._field_defaults == {"fiber_witness": None}
    assert PerturbReport._fields == ("perturbed_bijective", "base_bijective", "counterexample")
    assert PerturbReport._field_defaults == {"counterexample": None}
    assert ShiftReport._fields == ("shifted_bijective", "h_bijective", "base_fiber_injective",
                                   "kernel_condition", "base_bijective", "counterexample")
    assert ShiftReport._field_defaults == {"base_bijective": None, "counterexample": None}
    skipped = SkippedInstance("n4k", F9, {"a": F9.one}, "n_not_multiple_of_4")
    assert skipped.describe_params() == "a=1,0"
    bools = (False, True)
    for f, h, injective in itertools.product(bools, repeat=3):
        assert FiberReport(f, h, injective).equivalence_holds == (f == (h and injective))
    for perturbed, base in itertools.product(bools, repeat=2):
        assert PerturbReport(perturbed, base).equivalence_holds == (perturbed == base)
    for shifted, h, injective, kernel, base in itertools.product(bools, repeat=5):
        report = ShiftReport(shifted, h, injective, kernel, base if kernel else None)
        assert report.equivalence_holds == (shifted == (h and injective))
        assert report.reduction_holds == (shifted == base if kernel else None)
    records = (skipped, FiberReport(True, True, True), PerturbReport(True, True),
               ShiftReport(True, True, True, False))
    for record in records:
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, False)


OPTIMIZED_SCRIPT = textwrap.dedent("""
    import sys
    from ppforge.gf import CtxMismatchError, make_field
    from ppforge.oracle import check_bijective, scan_codes

    F5 = make_field(5)

    def refused(codes):
        try:
            scan_codes(codes, F5)
        except ValueError as exc:
            return str(exc)
        return "scanned"

    print("optimize", sys.flags.optimize)
    print("length", refused([0, 1, 2]))
    print("negative", refused([0, 1, 2, 3, -1]))
    print("too_large", refused([0, 1, 2, 3, 5]))
    v = scan_codes([1, 0, 2, 4, 2], F5)
    print("fallback", v.bijective, v.collision[0].code, v.collision[1].code, v.missed.code)
    try:
        check_bijective(lambda x: make_field(7).elem(x.code), F5)
    except CtxMismatchError:
        print("ctx_mismatch True")
""")


def test_scan_refusals_and_fallback_hold_under_python_O(run_python):
    proc = run_python(OPTIMIZED_SCRIPT, "-O")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "optimize 1" in lines
    assert "length expected 5 values, got 3" in lines
    assert "negative values must be codes in [0, 5)" in lines
    assert "too_large values must be codes in [0, 5)" in lines
    # 0 <-> 1 closes, then 3 -> 4 -> 2 -> 2 stops on 2: the first repeat in
    # canonical order is 4 -> 2 after 2 -> 2, and 3 is never hit
    assert "fallback False 2 4 3" in lines
    assert "ctx_mismatch True" in lines


def test_no_module_checks_with_assert():
    # python -O strips assert statements, so no check in the package may be one
    import ast
    import pathlib

    import ppforge

    modules = sorted(pathlib.Path(ppforge.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert modules and found == []


def test_no_module_keeps_a_cache_of_its_own():
    # tables are kept only in each field's one bounded cache (FieldCtx.derived):
    # no module state rebound through `global` and no functools cache, except
    # on first_irreducible_coeffs, which is keyed by ints and holds no table
    import ast
    import pathlib

    import ppforge

    found = []
    for path in sorted(pathlib.Path(ppforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name == "first_irreducible_coeffs"
                   for decorator in func.decorator_list for node in ast.walk(decorator)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)
                  or (id(node) not in allowed
                      and (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                           or isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")))]
    assert found == []


def test_only_two_classes_are_dataclasses():
    # a dataclass decorator generates its methods' source and compiles it at
    # import time; records are named tuples or plain classes instead.  Two stay:
    # - FamilyInstance, which dataclasses.replace copies with a new evaluator
    #   (the bench's trace wrapper does, and test_family_instances_stay_frozen);
    # - GRecipe, since a tuple recipe would be flattened by the grid resolver
    #   as a list of values
    import ast
    import pathlib

    import ppforge

    found = []
    for path in sorted(pathlib.Path(ppforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = getattr(target, "id", getattr(target, "attr", None))
                    if name == "dataclass":
                        found.append(f"{path.name}:{node.name}")
    assert found == ["families.py:FamilyInstance", "recipes.py:GRecipe"]


def test_the_command_line_expands_grids_in_one_loop():
    # verify, census and agw-check run every grid through cli._run_grid: no
    # other top-level definition of the command line names _grid_points,
    # and none names instantiate_grid, which builds an instance per point
    import ast
    import pathlib

    import ppforge.cli

    tree = ast.parse(pathlib.Path(ppforge.cli.__file__).read_text())

    def users(name: str) -> list:
        return [getattr(top, "name", f"line {top.lineno}") for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name]

    assert users("_grid_points") == ["_run_grid"]
    assert users("instantiate_grid") == []
