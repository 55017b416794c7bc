"""Differential forms with two generator kinds: normalization rules, the
differential, the product's branches, and the seam residual of the
product rule.  The laws of ``d`` and the product are the kit's checks in
``shared.py``, run by ``test_laws.py``; the seeded tests here run them on
verify's generators."""

from __future__ import annotations

import random
from itertools import product

import pytest

from z3forms import (
    CoeffExpr,
    EvalContext,
    Form,
    JetSymbol,
    coefficient_form,
    components,
    coordinate,
    ddx,
    dx,
    evaluate_text,
    form_from_components,
    redistribute_t3,
)
from z3forms.coeffs import RESERVED_NAMES
from z3forms.forms import normalize_form_word, word_degree
from z3forms.scalar import J, J2, ONE
from z3forms.verify import _rand_degree3, _rand_form

from shared import (
    FORMS,
    F,
    G,
    U,
    UINV,
    check_d_nilpotent,
    check_twisted_leibniz,
    rand_generator_tailed,
)


# -- normalization rules ---------------------------------------------------------


def test_degree_cap():
    n = 3
    assert (dx(1, n) * dx(2, n) * dx(3, n) * dx(1, n)).is_zero()
    assert (ddx(1, n) * dx(2, n) * dx(3, n)).is_zero()
    assert (ddx(1, n) * ddx(2, n)).is_zero()  # degree 4
    d3 = dx(1, n) * dx(2, n) * dx(3, n)
    assert not d3.is_zero()


def test_second_generator_squares_vanish():
    n = 2
    assert (ddx(1, n) * ddx(1, n)).is_zero()
    assert (ddx(1, n) * ddx(2, n)).is_zero()


def test_generator_swap_phase():
    n = 3
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            lhs = dx(i, n) * ddx(k, n)
            rhs = (ddx(k, n) * dx(i, n)).scale(J)
            assert lhs == rhs


def test_triple_rotation_to_least_representative():
    n = 3
    w231 = Form(n, [(ONE, (("dx", 2), ("dx", 3), ("dx", 1)))])
    w123 = dx(1, n) * dx(2, n) * dx(3, n)
    assert w231 == w123.scale(J2)
    w312 = Form(n, [(ONE, (("dx", 3), ("dx", 1), ("dx", 2)))])
    assert w312 == w123.scale(J)
    # each left rotation costs one phase factor
    w112 = Form(n, [(ONE, (("dx", 1), ("dx", 1), ("dx", 2)))])
    w121 = Form(n, [(ONE, (("dx", 1), ("dx", 2), ("dx", 1)))])
    w211 = Form(n, [(ONE, (("dx", 2), ("dx", 1), ("dx", 1)))])
    assert w121 == w112.scale(J2)
    assert w211 == w112.scale(J)


def test_all_equal_triples_vanish():
    n = 2
    assert (dx(1, n) * dx(1, n) * dx(1, n)).is_zero()
    assert (dx(2, n) * dx(2, n) * dx(2, n)).is_zero()


def test_degree_three_collapse_multiplies_coefficients():
    n = 3
    f, g = JetSymbol("f"), JetSymbol("g")
    interleaved = Form(
        n,
        [(ONE, (f, ("dx", 1), g, ("dx", 2), ("dx", 3)))],
    )
    fg = CoeffExpr.from_symbol(f) * CoeffExpr.from_symbol(g)
    collapsed = coefficient_form(fg, n) * dx(1, n) * dx(2, n) * dx(3, n)
    assert interleaved == collapsed
    # collapse preserves left-to-right coefficient order (no commuting)
    gf = CoeffExpr.from_symbol(g) * CoeffExpr.from_symbol(f)
    other = coefficient_form(gf, n) * dx(1, n) * dx(2, n) * dx(3, n)
    assert interleaved != other


def test_low_degree_words_stay_interleaved():
    n = 2
    f, g = JetSymbol("f"), JetSymbol("g")
    interleaved = Form(n, [(ONE, (f, ("dx", 1), g, ("dx", 2)))])
    collapsed = Form(n, [(ONE, (f, g, ("dx", 1), ("dx", 2)))])
    assert interleaved != collapsed
    assert not (interleaved - collapsed).is_zero()


def test_index_range_enforced():
    with pytest.raises(ValueError):
        dx(3, 2)
    with pytest.raises(ValueError):
        Form(2, [(ONE, (("ddx", 5),))])
    with pytest.raises(ValueError):
        Form(0)


# -- the differential ---------------------------------------------------------------


def test_differential_of_coordinate_product():
    n = 2
    x1, x2 = coordinate(1, n), coordinate(2, n)
    got = (x1 * x2).d()
    want = x1 * dx(2, n) + x2 * dx(1, n)
    assert got == want


def test_differential_of_coefficient():
    n = 3
    f = coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), n)
    got = f.d()
    want = Form.zero(n)
    for i in range(1, n + 1):
        want = want + Form(n, [(ONE, (JetSymbol("f", derivs=(i,)), ("dx", i)))])
    assert got == want


def test_third_differential_vanishes_random():
    rng = random.Random(51)
    for n in (2, 3):
        for _ in range(80):
            check_d_nilpotent(FORMS, _rand_form(rng, n))


def test_image_containments():
    # im d^k in ker d^(3-k): d^(3-k)(d^k w) is d^3 w, the kit's d^N law
    rng = random.Random(52)
    for _ in range(60):
        check_d_nilpotent(FORMS, _rand_form(rng, 3))


# -- products ---------------------------------------------------------------


def test_left_module_scalar_runs_merge():
    n = 2
    f = coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), n)
    g = coefficient_form(CoeffExpr.from_symbol(JetSymbol("g")), n)
    fg = coefficient_form(
        CoeffExpr.from_symbol(JetSymbol("f")) * CoeffExpr.from_symbol(JetSymbol("g")), n
    )
    assert f * g == fg


def test_product_rule_generator_tailed():
    rng = random.Random(54)
    n = 2
    for _ in range(120):
        w = rand_generator_tailed(rng, n)
        phi = _rand_form(rng, n, 1)
        if w.grade_and_degree()[1] != "mixed":
            check_twisted_leibniz(FORMS, w, phi)


def test_product_rule_seam_residual():
    # Because a coefficient run differentiates as one block, the product
    # rule on two bare coefficients acquires an exact residual: the version
    # with g merged into the differentiated run minus the interleaved one.
    n = 2
    f = coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), n)
    g = coefficient_form(CoeffExpr.from_symbol(JetSymbol("g")), n)
    lhs = (f * g).d()
    rhs = f.d() * g + f * g.d()
    residual = lhs - rhs
    expected = Form.zero(n)
    for q in range(1, n + 1):
        fq = JetSymbol("f", derivs=(q,))
        expected = expected + Form(
            n, [(ONE, (fq, JetSymbol("g"), ("dx", q)))]
        )
        expected = expected + Form(
            n, [(-ONE, (fq, ("dx", q), JetSymbol("g")))]
        )
    assert residual == expected
    assert not residual.is_zero()


H = JetSymbol("h")
DX1, DX2, DDX1, DDX2 = ("dx", 1), ("dx", 2), ("ddx", 1), ("ddx", 2)

# One product per branch of ``Form.__mul__``, as pairs of raw words.
PRODUCT_BRANCHES = {
    "runs meet below degree 3": [((DX1, U), (UINV, DX2)), ((F, DX1, G), (H,)),
                                 ((G,), (F, DX1)), ((F, DX1, U), (UINV, G))],
    "runs apart below degree 3": [((F, DX1), (G, DX2)), ((), (DX1, G)), ((DX1,), (U, DX2)),
                                  ((G, DDX1), (F,)), ((F,), ())],
    "degree 3": [((F, DX1, G), (DDX2,)), ((DX2, DX1), (F, DX1)), ((DX1,), (DDX1,)),
                 ((DX1, DX1), (DX1,)), ((G, DX1, U), (UINV, F, DDX2))],
    "past degree 3": [((DDX1,), (DDX2,)), ((DX1, DX2), (F, DDX1))],
}


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("branch", sorted(PRODUCT_BRANCHES))
def test_each_product_branch_matches_normalize_form_word(branch, commutative):
    for raw1, raw2 in PRODUCT_BRANCHES[branch]:
        x, y = (Form(2, [(ONE, raw)], commutative) for raw in (raw1, raw2))
        (w1,), (w2,) = x.terms, y.terms
        degree = word_degree(w1) + word_degree(w2)
        meet = bool(w1) and bool(w2) and tuple not in (type(w1[-1]), type(w2[0]))
        assert {
            "runs meet below degree 3": degree < 3 and meet,
            "runs apart below degree 3": degree < 3 and not meet,
            "degree 3": degree == 3,
            "past degree 3": degree > 3,
        }[branch]
        expected = {canon: phase for phase, canon in normalize_form_word(w1 + w2, commutative)}
        assert (x * y).terms == expected


@pytest.mark.parametrize("commutative", [False, True])
def test_runs_meeting_in_a_product_cancel(commutative):
    dx1_u, uinv_dx2 = (Form(2, [(ONE, raw)], commutative) for raw in ((DX1, U), (UINV, DX2)))
    assert (dx1_u * uinv_dx2).terms == {(DX1, DX2): ONE}


# -- structure helpers ---------------------------------------------------------


def test_grade_and_degree():
    n = 3
    assert dx(1, n).grade_and_degree() == (1, 1)
    assert ddx(1, n).grade_and_degree() == (2, 2)
    assert (dx(1, n) * dx(2, n)).grade_and_degree() == (2, 2)
    assert (ddx(1, n) * dx(2, n)).grade_and_degree() == (0, 3)
    assert (dx(1, n) * dx(2, n) * dx(3, n)).grade_and_degree() == (0, 3)
    assert coordinate(1, n).grade_and_degree() == (0, 0)
    assert Form.zero(n).grade_and_degree() == (0, 0)
    mixed = dx(1, n) + ddx(1, n)
    assert mixed.grade_and_degree() == ("mixed", "mixed")


def test_word_degree_helper():
    word = (JetSymbol("f"), ("ddx", 1), ("dx", 2))
    assert word_degree(word) == 3


def test_symbols_cannot_take_grammar_words_as_names():
    # The grammar reads each reserved word as something other than a
    # symbol, and any non-identifier does not read back at all.
    for name in [*RESERVED_NAMES, "f_1", "1f", "", "f g", "~f", "f\u00e9"]:
        with pytest.raises(ValueError, match="is not a symbol name"):
            JetSymbol(name)
        with pytest.raises(ValueError, match="is not a symbol name"):
            JetSymbol(name, 1)
    # A word's generators are its plain tuples; a symbol whose name starts
    # like a generator is a coefficient, and its text reads back.
    x = Form(2, [(ONE, (JetSymbol("dy"), ("dx", 1)))])
    assert str(x) == "dy dx[1]"
    assert x.grade_and_degree() == (1, 1)
    assert str(x.d()) == "dy ddx[1] + (dy_,1) dx[1] dx[1] + (dy_,2) dx[2] dx[1]"
    y = Form(2, [(ONE, (JetSymbol("ddx2"), ("ddx", 1)))])
    assert str(y) == "ddx2 ddx[1]"
    assert y.grade_and_degree() == (2, 2)
    assert str(y.d()) == "j * (ddx2_,1) ddx[1] dx[1] + j * (ddx2_,2) ddx[1] dx[2]"
    for v in (x, x.d(), y, y.d()):
        assert evaluate_text(str(v), EvalContext(2)) == v


def test_plain_tuples_other_than_generators_are_rejected():
    with pytest.raises(ValueError, match="unknown generator kind 'th'"):
        Form(2, [(ONE, (JetSymbol("f"), ("th", 1)))])
    with pytest.raises(ValueError, match="out of range"):
        Form(2, [(ONE, (JetSymbol("f"), ("dx", 3)))])


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degree_three_generator_words_exhaustively(n, commutative):
    # Every raw word of dx dx dx, ddx dx or dx ddx: n^3 + 2n^2 of them.  The
    # canonical ones are the (n^3 - n)/3 least rotations of dx-triples with
    # two distinct indices and the n^2 words ddx[i] dx[k]; each is a fixed
    # point.
    gens = [("dx", i) for i in range(1, n + 1)]
    twos = [("ddx", i) for i in range(1, n + 1)]
    raw = [*product(gens, repeat=3), *product(twos, gens), *product(gens, twos)]
    assert len(raw) == n ** 3 + 2 * n ** 2
    canonical = {w for word in raw for _, w in normalize_form_word(word, commutative)}
    assert len(canonical) == (n ** 3 - n) // 3 + n ** 2
    for word in canonical:
        assert normalize_form_word(word, commutative) == [(ONE, word)]


def test_components_round_trip():
    rng = random.Random(55)
    n = 3
    for _ in range(60):
        w = _rand_degree3(rng, n)
        table = components(w)
        back = form_from_components(table)
        assert back == w


def test_components_check_only_the_degree():
    n = 3
    f = coefficient_form(CoeffExpr.from_symbol(JetSymbol("f")), n)
    message = "components are defined for forms of degree 3 only"
    with pytest.raises(ValueError, match=message):
        components(f * dx(1, n) * dx(2, n))
    with pytest.raises(ValueError, match=message):
        components(ddx(1, n) + f * ddx(2, n) * dx(1, n))
    table = components(Form.zero(n))
    assert (table.T3, table.T21) == ({}, {})
    # A canonical word ends in its generators: ddx dx, or a least dx-triple.
    mixed = f * (ddx(2, n) * dx(1, n) + dx(3, n) * dx(1, n) * dx(2, n))
    table = components(mixed)
    assert list(table.T21) == [(2, 1)] and list(table.T3) == [(1, 2, 3)]
    assert form_from_components(table) == mixed


def test_redistribute_preserves_class():
    rng = random.Random(56)
    n = 3
    for _ in range(40):
        w = _rand_degree3(rng, n)
        table = components(w)
        spread = redistribute_t3(table.T3)
        rebuilt = Form(n, [(s, cw + (("dx", i), ("dx", k), ("dx", m)))
                           for (i, k, m), coeff in spread.items() for cw, s in coeff.terms.items()]
                       + [(s, cw + (("ddx", i), ("dx", k)))
                          for (i, k), coeff in table.T21.items() for cw, s in coeff.terms.items()])
        assert rebuilt == w
