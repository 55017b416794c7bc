"""Conjugate-side forms, the degree-3 pairing, and the quadratic action.

The pairing of two degree-3 forms contracts their component tables:

    <w | phi> = sum_c conj(w_c) phi_c  +  mu * sum_{i,k} conj(w_ik) phi_ik

where c ranges over canonical dx-triples, (i, k) over the ddx[i] dx[k]
sector, and mu is a positive weight (a Scalar or a formal symbol).  The
two sectors are mutually orthogonal.  Contraction runs over canonical
representatives, which norms <dx[1]dx[2]dx[3] | same> to exactly 1.

For a commuting connection the pairing of the curvature with itself is a
quadratic form in the jets of the field strength; its exact coefficients
and the formal variation (integration by parts with discarded boundary
terms) are computed symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .coeffs import CONSTANT_NAMES, CoeffExpr, JetSymbol, Word
from .forms import Form, components, word_degree
from .gauge import Connection, abelian_connection, curvature, field_strength
from .lincomb import LinComb, accumulate, total
from .scalar import ONE, Scalar, ZERO, scalar

MU = JetSymbol("mu")


def _weight(mu: Scalar | None, commutative: bool = True) -> CoeffExpr:
    """The weight of the ddx-dx sector: a nonzero Scalar, or the formal
    positive symbol mu for None."""
    if mu is None:
        return CoeffExpr.from_symbol(MU, commutative)
    if mu.is_zero():
        raise ValueError("the sector weight mu must be nonzero")
    return CoeffExpr.from_scalar(mu, commutative)


# -- conjugate-side forms ---------------------------------------------------------


class ConjForm(LinComb):
    """The conjugate-side image delta(x) of a degree-3 form x.

    It stores the canonical words of its preimage x with conjugated
    coefficients, so the linear operations it inherits are antilinear in
    x: delta(s x) = conj(s) delta(x).
    """

    __slots__ = ("n", "commutative")

    def __init__(self, x: Form) -> None:
        if x.terms and x._common(word_degree) != 3:
            raise ValueError("only degree-3 forms have a conjugate-side image")
        self.n = x.n
        self.commutative = x.commutative
        self.terms = {w: c.conjugate() for w, c in x.terms.items()}

    def conjugate_back(self) -> Form:
        """The preimage x of delta(x)."""
        zero = Form.zero(self.n, self.commutative)
        return zero._like({w: c.conjugate() for w, c in self.terms.items()})

    def __str__(self) -> str:
        from .render import render_conj_form

        return render_conj_form(self)


def conjugate_form(x: Form) -> ConjForm:
    """delta(x) for a degree-3 form x."""
    return ConjForm(x)


# -- the pairing -------------------------------------------------------------------


def _contract(
    a: Mapping[object, CoeffExpr], b: Mapping[object, CoeffExpr],
    real: frozenset[str], commutative: bool,
) -> CoeffExpr:
    """Sum over the keys of both sector tables of conj(a[key]) * b[key]."""
    return total(CoeffExpr.zero(commutative),
                 (expr.conjugate(real) * b[key] for key, expr in a.items() if key in b))


def scalar_product(w: Form, phi: Form, mu: Scalar | None = None) -> CoeffExpr:
    """Contract two degree-3 forms over their component tables; ``mu``
    weighs the ddx-dx sector (None: the formal symbol mu)."""
    if w.n != phi.n or w.commutative != phi.commutative:
        raise ValueError("pairing requires forms of equal dimension and mode")
    cw, cp = components(w), components(phi)
    commutative = w.commutative
    return (_contract(cw.T3, cp.T3, frozenset(), commutative)
            + _weight(mu, commutative) * _contract(cw.T21, cp.T21, frozenset(), commutative))


# -- quadratic action for commuting connections -------------------------------------


def _base_names(conn: Connection) -> frozenset[str]:
    """The base names of the symbols in a connection's coefficients."""
    names: set[str] = set()
    for expr in conn.coefficients.values():
        for word, _ in expr:
            names.update(sym.name for sym in word)
    return frozenset(names)


def lagrangian_density(conn: Connection, mu: Scalar | None = None) -> CoeffExpr:
    """<Omega | Omega> for a commuting connection, as a jet polynomial;
    ``mu`` weighs the ddx-dx sector (None: the formal symbol mu)."""
    weight = _weight(mu)
    L3, L21 = lagrangian_sectors(conn)
    return L3 + weight * L21


def lagrangian_sectors(conn: Connection) -> tuple[CoeffExpr, CoeffExpr]:
    """The two orthogonal sectors (dx-triple part, ddx-dx part) of <Omega|Omega>.

    The second sector is returned WITHOUT its mu weight.
    """
    if not conn.commutative:
        raise ValueError("the quadratic Lagrangian is defined for commuting "
                         "connections")
    comps = components(curvature(conn))
    real = _base_names(conn)
    return (_contract(comps.T3, comps.T3, real, True),
            _contract(comps.T21, comps.T21, real, True))


# -- formal variation ----------------------------------------------------------------


def variational_derivative(
    L: CoeffExpr, n: int, base: str = "A"
) -> dict[int, CoeffExpr]:
    """Formal Euler-Lagrange operator with discarded boundary terms.

    For each component index p returns
    sum_alpha (-1)^|alpha| derive^alpha ( dL / d(base[p]_alpha) ).
    """
    if not L.commutative:
        raise ValueError("the formal variation is defined in commutative mode")
    indices = range(1, n + 1)
    # One scan of L: the partial derivative items under each jet base[p]_alpha.
    partials: dict[JetSymbol, list[tuple[Scalar, Word]]] = {}
    for word, coeff in L:
        for pos, sym in enumerate(word):
            if sym.name == base and sym.index in indices and not sym.barred:
                partials.setdefault(sym, []).append((coeff, word[:pos] + word[pos + 1 :]))
    groups: dict[int, list[CoeffExpr]] = {p: [] for p in indices}
    for sym, items in partials.items():
        term = CoeffExpr(items, True)
        for q in sym.derivs:
            term = term.derive(q)
        if len(sym.derivs) % 2 == 1:
            term = term.scale(-ONE)
        groups[sym.index].append(term)
    zero = CoeffExpr.zero(True)
    return {p: total(zero, terms) for p, terms in groups.items()}


def euler_lagrange_abelian(conn: Connection) -> dict[int, CoeffExpr]:
    """Variation of the derived quadratic Lagrangian with the formal weight
    mu, one expression per index."""
    base_names = _base_names(conn)
    if len(base_names) != 1:
        raise ValueError("the variation needs a connection built from a single "
                         "symbol family")
    (base,) = base_names
    L = lagrangian_density(conn)
    return variational_derivative(L, conn.n, base)


# -- exact sparse elimination over Q(j) --------------------------------------------------
#
# A vector is a dict from key to nonzero Scalar; an echelon is a dict from
# pivot key to row.


def _reduce(vec: Mapping, rows: Mapping[object, dict]) -> dict:
    """The residue of ``vec`` modulo a fully reduced echelon ``rows``.

    Each row is zero at every other row's pivot, so subtracting one row
    leaves the entries at the other pivots as they are: only the rows at
    the pivots in the support of ``vec`` are subtracted, in any order.  The
    residue is the unique vector in ``vec + span`` whose support avoids
    the pivots.  Zero entries of ``vec`` are dropped.
    """
    out = {key: coeff for key, coeff in vec.items() if not coeff.is_zero()}
    for pivot in [key for key in out if key in rows]:
        factor = -out[pivot]
        for key, coeff in rows[pivot].items():
            accumulate(out, key, factor * coeff)
    return out


def _echelon(
    vectors: Iterable[Mapping], pivot_of: Callable[[dict], object]
) -> dict[object, dict]:
    """A fully reduced echelon of the span of ``vectors``.

    Each row has entry 1 at its pivot and 0 at every other row's pivot.
    ``pivot_of`` picks the pivot among the keys of a nonzero residue; a
    residue for which it returns None adds no row.
    """
    rows: dict[object, dict] = {}
    for vec in vectors:
        vec = _reduce(vec, rows)
        pivot = pivot_of(vec) if vec else None
        if pivot is None:
            continue
        inv = vec[pivot].inverse()
        new = {pivot: {key: coeff * inv for key, coeff in vec.items()}}
        for p, row in rows.items():
            if pivot in row:
                rows[p] = _reduce(row, new)
        rows.update(new)
    return rows


def solve_linear(
    columns: Sequence[Mapping], target: Mapping
) -> list[Scalar] | None:
    """Solve sum_i x_i * columns[i] == target exactly.

    Columns and target are mappings word -> Scalar.  Returns None if the
    target lies outside the span of the columns, and also if the columns
    are linearly dependent.
    """
    # Column i carries a tag key that is never a pivot, so the residue of
    # the target holds -x_i at tag i and nothing else when it is solvable.
    tags = [object() for _ in columns]
    tag_set = set(tags)
    tagged = ({**col, tag: ONE} for col, tag in zip(columns, tags))
    rows = _echelon(tagged, lambda vec: next((k for k in vec if k not in tag_set), None))
    if len(rows) < len(columns):
        return None  # dependent columns: caller passed a degenerate basis
    residue = _reduce(target, rows)
    if any(k not in tag_set for k in residue):
        return None
    return [-residue.get(tag, ZERO) for tag in tags]


def lorenz_reduce(x: CoeffExpr, n: int) -> CoeffExpr:
    """Reduce an expression linear in the jets of ``A`` modulo the
    divergence constraint sum_i derive(A[i], i) == 0 and all its jets.

    Eliminates against the constraint generators, each pivoting on its
    largest jet; the result is a canonical representative (zero iff
    x lies in the span).
    """
    if not x.commutative:
        raise ValueError("the gauge reduction is defined in commutative mode")
    max_order = 0
    split: dict[tuple, dict[Word, Scalar]] = {}
    for word, coeff in x:
        consts = tuple(s for s in word if s.name in CONSTANT_NAMES)
        rest = tuple(s for s in word if s.name not in CONSTANT_NAMES)
        if len(rest) != 1 or rest[0].name != "A":
            raise ValueError("the gauge reduction applies to expressions linear "
                             "in the jets of 'A' (constant weights aside)")
        max_order = max(max_order, len(rest[0].derivs))
        accumulate(split.setdefault(consts, {}), rest, coeff)
    if max_order == 0:
        return x

    # Generator beta holds the jets A[i]_(beta+i), so no two generators
    # share a jet: each one is already a row of a fully reduced echelon.
    rows: dict[Word, dict] = {}
    for size in range(max_order):
        for beta in combinations_with_replacement(range(1, n + 1), size):
            row = {(JetSymbol("A", i, beta + (i,)),): ONE for i in range(1, n + 1)}
            rows[max(row)] = row
    return CoeffExpr([(c, consts + w) for consts, group in split.items()
                      for w, c in _reduce(group, rows).items()], True)


# -- reference shapes for the abelian field equation -----------------------------------


def _laplacian(x: CoeffExpr, n: int) -> CoeffExpr:
    return total(CoeffExpr.zero(x.commutative),
                 (x.derive(q).derive(q) for q in range(1, n + 1)))


def divergence_of_strength(conn: Connection) -> dict[int, CoeffExpr]:
    """G_p = sum_m derive(F_mp, m)."""
    F = field_strength(conn)
    indices = range(1, conn.n + 1)
    zero = CoeffExpr.zero(conn.commutative)
    return {p: total(zero, (F[(m, p)].derive(m) for m in indices)) for p in indices}


def reference_field_equation(conn: Connection, k: int) -> CoeffExpr:
    """The quoted fourth-order field equation for a commuting connection.

    term1 - term2 + (3 mu / 4) term3 with
    term1 = sum_{m,i} derive^3 F_mk, term2 = sum_{i,r} derive_i derive_r
    derive_k F_ir (identically zero by antisymmetry), term3 = sum_i derive_i F_ik.
    """
    if not conn.commutative:
        raise ValueError("the reference field equation is abelian")
    F = field_strength(conn)
    indices = range(1, conn.n + 1)
    zero = CoeffExpr.zero(True)
    pairs = list(product(indices, repeat=2))
    term1 = total(zero, (F[(m, k)].derive(i).derive(i).derive(m) for m, i in pairs))
    term2 = total(zero, (F[(i, r)].derive(i).derive(r).derive(k) for i, r in pairs))
    term3 = total(zero, (F[(i, k)].derive(i) for i in indices))
    mu34 = _weight(None).scale(scalar(Fraction(3, 4)))
    return term1 - term2 + mu34 * term3


def biharmonic_reference(conn: Connection, k: int) -> CoeffExpr:
    """Lap(Lap(A_k)) + (3 mu / 4) Lap(A_k) for the same connection symbols."""
    ak = conn.coefficients[k]
    n = conn.n
    lap = _laplacian(ak, n)
    laplap = _laplacian(lap, n)
    mu34 = _weight(None).scale(scalar(Fraction(3, 4)))
    return laplap + mu34 * lap


# -- structured reports ------------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianReport:
    """Exact quadratic-form constants of the derived Lagrangian.

    L = c1 * sum (derive_i F_mk)^2 + c2 * sum (derive_i F_mk)(derive_k F_mi)
        + c3 * mu * sum F_ik^2   (sums over all ordered index tuples).

    The two derivative shapes are not independent once the field strength
    is substituted: the cross sum equals exactly half the square sum (a
    Bianchi-type differential identity, recorded in ``shapes_degenerate``;
    where it fails, the report has zero constants and ``exact`` false).
    Representations (c1, c2) therefore form a one-parameter family; the
    reported pair is the unique member with ratio c1/c2 == -2, the ratio
    the c3-normalized shape is quoted with.  ``reference`` holds the
    commonly quoted constants, which differ by an overall factor.
    """

    n: int
    c1: Scalar
    c2: Scalar
    c3: Scalar
    exact: bool
    shapes_degenerate: bool
    reference: ClassVar[tuple[Fraction, ...]] = (Fraction(4, 3), Fraction(-2, 3), Fraction(4))

    @property
    def ratio(self) -> Scalar:
        return self.c1 / self.c2


def lagrangian_report(n: int) -> LagrangianReport:
    """Fit the derived Lagrangian to its quadratic normal shape, exactly."""
    conn = abelian_connection(n)
    L3, L21 = lagrangian_sectors(conn)
    F = field_strength(conn)
    indices = range(1, n + 1)
    zero = CoeffExpr.zero(True)
    SF = total(zero, (F[ik] * F[ik] for ik in product(indices, repeat=2)))
    triples = list(product(indices, repeat=3))
    # dF[(m, k, i)] = derive(F_mk, i), each computed once.
    dF = {(m, k, i): F[(m, k)].derive(i) for m, k, i in triples}
    B = total(zero, (dF[(m, k, i)] * dF[(m, k, i)] for i, k, m in triples))
    X = total(zero, (dF[(m, k, i)] * dF[(m, i, k)] for i, k, m in triples))
    half = scalar(Fraction(1, 2))
    degenerate = (X - B.scale(half)).is_zero()
    failed = LagrangianReport(n, ZERO, ZERO, ZERO, exact=False,
                              shapes_degenerate=degenerate)
    if not degenerate:
        return failed
    # L3 = s * B on the joint span; the ratio -2 normalization picks
    # c1 = -2 c2 with c1 + c2/2 = s, i.e. (c1, c2) = (4s/3, -2s/3).
    sol_b = solve_linear([B.terms], L3.terms)
    if sol_b is None:
        return failed
    (s,) = sol_b
    c1 = s * scalar(Fraction(4, 3))
    c2 = -(s * scalar(Fraction(2, 3)))
    sol21 = solve_linear([SF.terms], L21.terms)
    if sol21 is None:
        return failed
    (c3,) = sol21
    exact = (
        (B.scale(c1) + X.scale(c2) - L3).is_zero()
        and (SF.scale(c3) - L21).is_zero()
    )
    return LagrangianReport(n, c1, c2, c3, exact, degenerate)


@dataclass(frozen=True)
class FieldEquationReport:
    """Decomposition of the derived variation over the field-equation shapes.

    EL_p = alpha * Lap(G_p) + gamma * mu * G_p with G_p the divergence of the
    field strength (the middle mixed-divergence shape vanishes identically,
    exactly as it does in the quoted equation).  ``reference`` holds the
    quoted constants (1, -1, 3/4) for comparison.
    """

    n: int
    alpha: Scalar
    gamma: Scalar
    exact: bool
    reference: ClassVar[tuple[Fraction, ...]] = (Fraction(1), Fraction(-1), Fraction(3, 4))


def field_equation_report(n: int) -> FieldEquationReport:
    """Fit the derived variation to alpha * Lap(G_p) + gamma * mu * G_p, exactly,
    with the formal weight mu."""
    conn = abelian_connection(n)
    EL = euler_lagrange_abelian(conn)
    G = divergence_of_strength(conn)
    mu = _weight(None)
    shapes = {p: (_laplacian(G[p], n), mu * G[p]) for p in range(1, n + 1)}
    target: dict = {}
    col_a: dict = {}
    col_b: dict = {}
    for p, (lap, mug) in shapes.items():
        for w, c in EL[p]:
            target[(p, w)] = c
        for w, c in lap:
            col_a[(p, w)] = c
        for w, c in mug:
            col_b[(p, w)] = c
    sol = solve_linear([col_a, col_b], target)
    if sol is None:
        return FieldEquationReport(n, ZERO, ZERO, exact=False)
    alpha, gamma = sol
    residual_zero = all((EL[p] - lap.scale(alpha) - mug.scale(gamma)).is_zero()
                        for p, (lap, mug) in shapes.items())
    return FieldEquationReport(n, alpha, gamma, residual_zero)
