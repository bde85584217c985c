"""The commuting-square checkers on integer codes: the additivity
hypothesis adds in the field, the error paths hold with assertions
stripped (python -O), a family square costs one composition call and
shares its fiber table with the other squares over the same psibar, and
agw-check decides each square from its counts as its report would."""

import itertools
import random
import re
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import agw, cli
from ppforge import families as fam
from ppforge.agw import (
    AGWInstance,
    FiniteMap,
    HypothesisViolatedError,
    check_fiber_criterion,
    check_fiber_shift,
    check_perturbed_bijection,
    wrap_family_instance,
)
from ppforge.gf import Elem, make_field
from ppforge.linearized import LinPoly
from ppforge.poly import Poly

F9 = make_field(3, 1, 2)
A9 = F9.elements()


def psi9(x):
    return x.frobenius() - x


def test_additive_map_passes_although_codes_do_not_add():
    # x^3 - x is additive on F_9, but the codes of 1 and 2 sum to 3 as
    # integers and to 0 in the field: integer addition would refute it
    assert F9.elem(1) + F9.elem(2) == F9.zero
    perturbed = check_perturbed_bijection(A9, psi9, psi9, lambda x: x, lambda x: F9.zero)
    assert perturbed.equivalence_holds and perturbed.perturbed_bijective
    shifted = check_fiber_shift(A9, psi9, psi9, lambda x: x, lambda s: F9.zero)
    assert shifted.equivalence_holds and shifted.kernel_condition


def test_map_additive_on_integer_codes_is_refused():
    # c -> 2c mod 9 is additive on the integers mod 9 but not on F_9:
    # codes 1 + 1 = 2 in both, and 2 -> 4 while 2*(2,0) = (1,0) in the field
    doubled = lambda x: F9.elem(2 * x.code % 9)
    identity = lambda x: x
    with pytest.raises(HypothesisViolatedError) as exc:
        check_perturbed_bijection(A9, identity, doubled, identity, lambda x: F9.zero)
    assert exc.value.name == "additivity"
    with pytest.raises(HypothesisViolatedError) as exc:
        check_fiber_shift(A9, identity, doubled, identity, lambda s: F9.zero)
    assert exc.value.name == "additivity"


def test_domain_not_closed_under_addition_is_refused():
    # (1,0) + (1,1) = (2,1): codes 1 + 4 = 5, which the first five codes miss;
    # past 256 points the sampled pairs meet such a sum as well
    identity = lambda x: x
    for A, pair in [(A9[:5], "Elem(3^1:2|1,0) + Elem(3^1:2|1,1)"),
                    (make_field(3, 1, 6).elements()[:300], "")]:
        zero = lambda x: A[0].ctx.zero
        with pytest.raises(HypothesisViolatedError, match=rf"{re.escape(pair)}.* is not in A"):
            check_perturbed_bijection(A, identity, identity, identity, zero)
        with pytest.raises(HypothesisViolatedError, match=rf"{re.escape(pair)}.* is not in A"):
            check_fiber_shift(A, identity, identity, identity, zero)


def test_witness_follows_the_order_of_S_and_of_each_fiber():
    # a constant map descends along x^3 - x and collapses all three fibers
    S = FiniteMap.from_callable(A9, psi9).image()
    const = lambda x: F9.zero
    first = check_fiber_criterion(AGWInstance(A9, psi9, psi9, const)).fiber_witness
    fiber = [x for x in A9 if psi9(x) == S[0]]
    assert first == (S[0], fiber[0], fiber[1])
    last = check_fiber_criterion(AGWInstance(A9, psi9, psi9, const, S=S[::-1])).fiber_witness
    fiber = [x for x in A9 if psi9(x) == S[-1]]
    assert last == (S[-1], fiber[0], fiber[1])
    backwards = check_fiber_criterion(AGWInstance(A9[::-1], psi9, psi9, const)).fiber_witness
    fiber = [x for x in A9[::-1] if psi9(x) == psi9(A9[-1])]
    assert backwards == (psi9(A9[-1]), fiber[0], fiber[1])


OPTIMIZED_SCRIPT = textwrap.dedent("""
    import sys
    from ppforge import agw, cli, families
    from ppforge.gf import make_field
    from ppforge.linearized import LinPoly

    F9 = make_field(3, 1, 2)
    A9 = F9.elements()
    psi = lambda x: x.frobenius() - x

    def raised(fn, error, name=None):
        try:
            fn()
        except error as exc:
            return name is None or exc.name == name
        return False

    print("optimize", sys.flags.optimize)
    print("not_commuting",
          raised(lambda: agw.AGWInstance(A9, psi, psi, lambda x: x * x),
                 agw.NotCommutingError))
    print("kernel_value",
          raised(lambda: agw.check_perturbed_bijection(
              A9, psi, psi, lambda x: x, lambda x: F9.generator),
              agw.HypothesisViolatedError, "kernel_value"))
    print("fiber_constant",
          raised(lambda: agw.check_perturbed_bijection(
              A9, psi, psi, lambda x: x, lambda x: F9.subfield_elements()[x.code % 3]),
              agw.HypothesisViolatedError, "fiber_constant"))
    # a family square that does not commute: a test-only composition whose
    # first term (the zero table on x^3 - x) makes psibar = x^3 - x and
    # psi = psibar + 1, while its second term adds x^2, which does not descend
    def squares(ctx, P):
        return ([([0] * ctx.order, ctx.linear_map([ctx.p - 1, 1])),
                 (ctx.power_table(2), ctx.linear_map([1]))], 0, [0] * ctx.order, 1)

    even_t = families.COMPOSITIONS["even_t"]
    families.COMPOSITIONS["even_t"] = squares
    inst = families.family_even_t(F9, 0, F9.zero, LinPoly.identity(F9))
    try:
        agw.wrap_family_instance(inst)
    except agw.NotCommutingError as exc:
        print("family_not_commuting", exc)
    families.COMPOSITIONS["even_t"] = even_t
    violated = agw.FiberReport(f_bijective=True, h_bijective=False, fiber_injective=True)
    print("report_violated", not violated.equivalence_holds)
    # agw-check reports only a square its decision fails, so both are rebound
    cli._square_holds = lambda ctx, f, fiber: False
    cli.check_fiber_criterion = lambda inst: violated
    print("cli_exit", cli.main(["agw-check", '{"family": "even_t", "field": "3^1:2"}']))
""")


def test_error_paths_hold_under_python_O(run_python):
    proc = run_python(OPTIMIZED_SCRIPT, "-O")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "optimize 1" in lines
    for check in ("not_commuting", "kernel_value", "fiber_constant", "report_violated"):
        assert f"{check} True" in lines, proc.stdout
    assert ("family_not_commuting no induced map: psibar(f(.)) not constant on the fiber "
            "over Elem(3^1:2|1,1)") in lines, proc.stdout
    assert "cli_exit 1" in lines
    assert any(line.startswith("  violated: ") for line in lines)


def _grid(family, spec):
    ctx = make_field(*spec)
    return ctx, [inst for inst in fam.instantiate_grid(family, [ctx], fam.DEFAULT_GRIDS[family])
                 if isinstance(inst, fam.FamilyInstance)]


@pytest.mark.parametrize("family, spec", [("n4k", (2, 1, 8)), ("trace_gamma", (3, 1, 4))])
def test_one_composition_call_per_square(family, spec, monkeypatch):
    ctx, grid = _grid(family, spec)
    calls = []
    composition = fam.COMPOSITIONS[family]

    def counting(*args):
        calls.append(args)
        return composition(*args)

    monkeypatch.setitem(fam.COMPOSITIONS, family, counting)
    for inst in grid:
        check_fiber_criterion(wrap_family_instance(inst))
    assert grid and len(calls) == len(grid)


@pytest.mark.parametrize("family, spec", [("n4k", (2, 1, 8)), ("trace_gamma", (3, 1, 4))])
def test_fiber_table_built_once_per_field_and_psibar(family, spec, monkeypatch, cold_caches):
    ctx, grid = _grid(family, spec)
    cold_caches(ctx)
    built = []

    class CountingTable(agw.FiberTable):
        __slots__ = ()

        def __init__(self, values):
            built.append(values)
            super().__init__(values)

    monkeypatch.setattr(agw, "FiberTable", CountingTable)
    squares = [wrap_family_instance(inst) for inst in grid]
    psibars = {id(inst.square_codes()[1][0]) for inst in grid}
    assert len(built) == len(psibars) == 1
    assert len({id(square._fibers) for square in squares}) == 1
    assert all(check_fiber_criterion(square).equivalence_holds for square in squares)


def test_family_square_makes_elements_only_when_read(monkeypatch):
    # above the interned elements, ctx.elements() is a view that makes each
    # element as it is read; the domain of a family square is that view, read
    # only for the witness and the fibers
    ctx = make_field(2, 1, 17)
    inst = fam.family_additive_g(ctx, fam.trace_of_h(Poly.x(ctx)),
                                 LinPoly(ctx, [ctx.one, ctx.one]), ctx.one)
    made = []
    init = Elem.__init__

    def counting_init(self, ctx, code):
        made.append(code)
        init(self, ctx, code)

    monkeypatch.setattr(Elem, "__init__", counting_init)
    elements = ctx.elements()
    assert made == [] and len(elements) == ctx.order
    # L = x^2 + x vanishes at 1, so f collides on the fiber {0, 1} over psi = 1
    square = wrap_family_instance(inst)
    report = check_fiber_criterion(square)
    witness = report.fiber_witness
    assert witness == (ctx.one, ctx.zero, ctx.one) and len(made) == 3
    assert all(x.ctx is ctx for x in witness)
    last = ctx.order - 1
    assert elements[5] == ctx.elem(5) and elements[-1] == ctx.elem(last)
    assert elements[-ctx.order] == ctx.elem(0)
    assert elements[3:6] == (ctx.elem(3), ctx.elem(4), ctx.elem(5))
    assert elements[-2:] == (ctx.elem(last - 1), ctx.elem(last))
    assert elements[::50000] == (ctx.elem(0), ctx.elem(50000), ctx.elem(100000))
    for outside in (ctx.order, -ctx.order - 1):
        with pytest.raises(IndexError):
            elements[outside]
    assert len(square.A) == ctx.order
    assert list(square.A) == list(elements) == list(map(ctx.elem, range(ctx.order)))
    fibers = square.fibers
    assert sorted(x.code for fiber in fibers.values() for x in fiber) == list(range(ctx.order))

def _report_holds(ctx, f, fiber) -> bool:
    """The fiber criterion's equivalence on the wrapped square, False for a
    square that does not commute."""
    try:
        return check_fiber_criterion(agw._wrap_codes(ctx, f, fiber)).equivalence_holds
    except agw.NotCommutingError:
        return False


# a grid past this many points is checked at a stride, to as many points
_DECIDED_POINTS = 20_000


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 2), (3, 1, 4), (5, 1, 2)])
@pytest.mark.parametrize("family", sorted(fam.FAMILY_BUILDERS))
def test_square_decision_matches_the_report_on_default_grids(family, spec):
    ctx, grid = make_field(*spec), fam.DEFAULT_GRIDS[family]
    size = sum(1 for _ in fam._grid_points(family, ctx, grid, 0))
    stride = 1 + size // _DECIDED_POINTS
    for params, _, reason in itertools.islice(fam._grid_points(family, ctx, grid, 0),
                                              0, None, stride):
        if reason is None:
            f, fiber = fam._square_codes(family, ctx, params)
            assert agw._square_holds(ctx, f, fiber) == _report_holds(ctx, f, fiber), params


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_square_decision_matches_the_report_on_random_squares(data):
    # f sends each fiber of psibar into the fiber over h of its point, with h
    # a permutation or not and f injective on each fiber or not, so every
    # branch of the decision is met; a free f rarely commutes
    ctx = make_field(*data.draw(st.sampled_from([(3, 1, 2), (2, 1, 4), (5, 1, 2), (3, 1, 3)])))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    if data.draw(st.booleans(), label="identity"):
        psibar, fiber = list(range(ctx.order)), None
    else:
        coeffs = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=ctx.n))
        psibar = ctx.linear_map(coeffs)
        fiber = (psibar, data.draw(st.integers(0, ctx.order - 1), label="delta"))
    kind = data.draw(st.sampled_from(["free", "h_bijective", "h_any"]))
    if kind == "free":
        f = [rng.randrange(ctx.order) for _ in range(ctx.order)]
    else:
        over = {}
        for x, s in enumerate(psibar):
            over.setdefault(s, []).append(x)
        points = list(over)
        h = dict(zip(points, rng.sample(points, len(points)) if kind == "h_bijective"
                     else rng.choices(points, k=len(points))))
        injective = data.draw(st.booleans(), label="fiber_injective")
        f = [0] * ctx.order
        for s, xs in over.items():  # every fiber of a linear map has the same size
            ys = over[h[s]]
            for x, y in zip(xs, rng.sample(ys, len(ys)) if injective
                            else rng.choices(ys, k=len(xs))):
                f[x] = y
    assert agw._square_holds(ctx, f, fiber) == _report_holds(ctx, f, fiber)


def _not_commuting(ctx, P):
    # the composition of the -O script's family square that does not commute
    return ([([0] * ctx.order, ctx.linear_map([ctx.p - 1, 1])),
             (ctx.power_table(2), ctx.linear_map([1]))], 0, [0] * ctx.order, 1)


def test_a_square_that_does_not_commute_keeps_its_record(monkeypatch, capsys):
    monkeypatch.setitem(fam.COMPOSITIONS, "even_t", _not_commuting)
    assert cli.main(["agw-check", '{"family": "even_t", "field": "3^1:2"}']) == 1
    first, *problems = capsys.readouterr().out.splitlines()
    assert first == "checked 18 instances: 0 satisfy the fiber criterion, 0 skipped, 18 problems"
    detail = ("(no induced map: psibar(f(.)) not constant on the fiber over "
              "Elem(3^1:2|1,1))")
    assert len(problems) == 18
    assert all(line.startswith("  no_diagram: ") and line.endswith(detail) for line in problems)


def test_agreeing_squares_are_neither_wrapped_nor_reported(monkeypatch, capsys):
    calls = []
    for name in ("check_fiber_criterion", "_wrap_codes"):
        def spy(*args, _real=getattr(cli, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, spy)
    assert cli.main(["agw-check", '{"family": "n4k", "field": "2^1:8"}']) == 0
    assert capsys.readouterr().out == (
        "checked 512 instances: 512 satisfy the fiber criterion, 0 skipped, 0 problems\n")
    assert calls == []
