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
from typing import Iterable, Mapping, Sequence

from .coeffs import CoeffExpr, JetSymbol, Word
from .forms import ComponentTable, Form, components
from .gauge import Connection, curvature, field_strength
from .lincomb import LinComb, accumulate
from .scalar import J, ONE, Scalar, ZERO, scalar

MU = JetSymbol("mu")


@dataclass(frozen=True)
class PairingConfig:
    """Weight of the ddx-dx sector and the base names treated as real."""

    mu: Scalar | None = None  # None = the formal positive symbol mu
    real: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.mu is not None and self.mu.is_zero():
            raise ValueError("the sector weight mu must be nonzero")

    def mu_expr(self, commutative: bool) -> CoeffExpr:
        if self.mu is None:
            return CoeffExpr.from_symbol(MU, commutative)
        return CoeffExpr.from_scalar(self.mu, commutative)


# -- conjugate-side forms ---------------------------------------------------------

_MIRROR = {"dx": "delx", "ddx": "del2x"}
_MIRROR_BACK = {v: k for k, v in _MIRROR.items()}


def _mirrored(word: tuple, real: frozenset[str], mirror: dict[str, str]) -> tuple:
    """Reverse a word, conjugate its symbols and rename its generators."""
    return tuple(("c", payload.conjugated(real)) if kind == "c" else (mirror[kind], payload)
                 for kind, payload in reversed(word))


def _normalize_conj_word(word: tuple, coeff: Scalar) -> tuple[Scalar, tuple]:
    """Order mixed generator pairs delx-first: del2x[k] delx[i] -> j delx[i] del2x[k]."""
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for p in range(len(letters) - 1):
            if letters[p][0] == "del2x" and letters[p + 1][0] == "delx":
                letters[p], letters[p + 1] = letters[p + 1], letters[p]
                coeff = coeff * J
                changed = True
                break
    return coeff, tuple(letters)


class ConjForm(LinComb):
    """The order-reversed, conjugated image of a degree-3 form.

    Words run over delx[i] / del2x[k] generators with conjugated
    coefficient symbols interleaved in reversed order.  ``real`` is part
    of the value: it decides how ``conjugate_back`` reads the symbols.
    """

    __slots__ = ("n", "commutative", "real")

    def __init__(
        self,
        n: int,
        terms: Iterable[tuple[Scalar, tuple]] = (),
        commutative: bool = False,
        real: frozenset[str] = frozenset(),
    ) -> None:
        self.n = n
        self.commutative = commutative
        self.real = frozenset(real)
        acc: dict[tuple, Scalar] = {}
        for coeff, word in terms:
            coeff, word = _normalize_conj_word(word, coeff)
            accumulate(acc, word, coeff)
        self.terms = acc

    def conjugate_back(self) -> Form:
        """Invert the reversal/conjugation, returning the original form."""
        items = [(c.conjugate(), _mirrored(w, self.real, _MIRROR_BACK))
                 for w, c in self.terms.items()]
        return Form(self.n, items, self.commutative)

    def __str__(self) -> str:
        from .render import render_conj_form

        return render_conj_form(self)


def conjugate_form(x: Form, real: frozenset[str] = frozenset()) -> ConjForm:
    """Reverse words, conjugate scalars and coefficients, mirror the generators."""
    _, degree = x.grade_and_degree()
    if x.terms and degree != 3:
        raise ValueError("only degree-3 forms have a conjugate-side image")
    items = [(c.conjugate(), _mirrored(w, real, _MIRROR)) for w, c in x.terms.items()]
    return ConjForm(x.n, items, x.commutative, real)


# -- the pairing -------------------------------------------------------------------


def scalar_product(w: Form, phi: Form, cfg: PairingConfig) -> CoeffExpr:
    """Contract two degree-3 forms over their component tables."""
    if w.n != phi.n or w.commutative != phi.commutative:
        raise ValueError("pairing requires forms of equal dimension and mode")
    cw, cp = components(w), components(phi)
    commutative = w.commutative
    acc3 = CoeffExpr.zero(commutative)
    for key in cw.T3:
        if key in cp.T3:
            acc3 = acc3 + cw.T3[key].conjugate(cfg.real) * cp.T3[key]
    acc21 = CoeffExpr.zero(commutative)
    for key in cw.T21:
        if key in cp.T21:
            acc21 = acc21 + cw.T21[key].conjugate(cfg.real) * cp.T21[key]
    return acc3 + cfg.mu_expr(commutative) * acc21


# -- quadratic action for commuting connections -------------------------------------


def _real_names(conn: Connection) -> frozenset[str]:
    names: set[str] = set()
    for expr in conn.coefficients.values():
        for word, _ in expr:
            names.update(sym.name for sym in word)
    return frozenset(names)


def lagrangian_density(conn: Connection, cfg: PairingConfig) -> CoeffExpr:
    """<Omega | Omega> for a commuting connection, as a jet polynomial."""
    if not conn.commutative:
        raise ValueError("the quadratic Lagrangian is defined for commuting "
                         "connections")
    omega = curvature(conn)
    cfg_real = PairingConfig(cfg.mu, cfg.real | _real_names(conn))
    return scalar_product(omega, omega, cfg_real)


def lagrangian_sectors(conn: Connection, cfg: PairingConfig) -> tuple[CoeffExpr, CoeffExpr]:
    """The two orthogonal sectors (dx-triple part, ddx-dx part) of <Omega|Omega>.

    The second sector is returned WITHOUT its mu weight.
    """
    if not conn.commutative:
        raise ValueError("the quadratic Lagrangian is defined for commuting "
                         "connections")
    comps = components(curvature(conn))
    real = cfg.real | _real_names(conn)
    acc3 = CoeffExpr.zero(True)
    for key, expr in comps.T3.items():
        acc3 = acc3 + expr.conjugate(real) * expr
    acc21 = CoeffExpr.zero(True)
    for key, expr in comps.T21.items():
        acc21 = acc21 + expr.conjugate(real) * expr
    return acc3, acc21


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
    out: dict[int, CoeffExpr] = {}
    for p in range(1, n + 1):
        alphas: set[tuple[int, ...]] = set()
        for word, _ in L:
            for sym in word:
                if sym.name == base and sym.index == p:
                    alphas.add(sym.derivs)
        acc = CoeffExpr.zero(True)
        for alpha in alphas:
            target = JetSymbol(base, p, alpha)
            partial_items = []
            for word, coeff in L:
                for pos, sym in enumerate(word):
                    if sym == target:
                        partial_items.append((coeff, word[:pos] + word[pos + 1 :]))
            term = CoeffExpr(partial_items, True)
            for q in alpha:
                term = term.derive(q)
            if len(alpha) % 2 == 1:
                term = term.scale(-ONE)
            acc = acc + term
        out[p] = acc
    return out


def euler_lagrange_abelian(conn: Connection, cfg: PairingConfig) -> dict[int, CoeffExpr]:
    """Variation of the derived quadratic Lagrangian, one expression per index."""
    base_names = {
        sym.name
        for expr in conn.coefficients.values()
        for word, _ in expr
        for sym in word
    }
    if len(base_names) != 1:
        raise ValueError("the variation needs a connection built from a single "
                         "symbol family")
    (base,) = base_names
    L = lagrangian_density(conn, cfg)
    return variational_derivative(L, conn.n, base)


# -- exact linear algebra over the jet span -------------------------------------------


def solve_linear(
    columns: Sequence[Mapping], target: Mapping
) -> list[Scalar] | None:
    """Solve sum_i x_i * columns[i] == target exactly; None if inconsistent.

    Columns and target are mappings word -> Scalar.  Requires the columns
    to be linearly independent.
    """
    keys: list = sorted(
        {k for col in columns for k in col} | set(target),
        key=repr,
    )
    rows = [
        [col.get(key, ZERO) for col in columns] + [target.get(key, ZERO)]
        for key in keys
    ]
    ncols = len(columns)
    pivot_row = 0
    pivots: list[int] = []
    for col in range(ncols):
        sel = next(
            (r for r in range(pivot_row, len(rows)) if not rows[r][col].is_zero()),
            None,
        )
        if sel is None:
            return None  # dependent columns: caller passed a degenerate basis
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [e * inv for e in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [
                    e - factor * rows[pivot_row][c2] for c2, e in enumerate(rows[r])
                ]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, len(rows)):
        if not rows[r][ncols].is_zero():
            return None
    solution = [ZERO] * ncols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][ncols]
    return solution


def lorenz_reduce(x: CoeffExpr, n: int, base: str = "A") -> CoeffExpr:
    """Reduce an expression linear in the jets of ``base`` modulo the
    divergence constraint sum_i derive(base[i], i) == 0 and all its jets.

    Uses exact Gaussian elimination against the constraint generators; the
    result is a canonical representative (zero iff x lies in the span).
    """
    if not x.commutative:
        raise ValueError("the gauge reduction is defined in commutative mode")
    from .coeffs import CONSTANT_NAMES

    max_order = 0
    split: dict[tuple, dict[Word, Scalar]] = {}
    for word, coeff in x:
        consts = tuple(s for s in word if s.name in CONSTANT_NAMES)
        rest = tuple(s for s in word if s.name not in CONSTANT_NAMES)
        if len(rest) != 1 or rest[0].name != base:
            raise ValueError("the gauge reduction applies to expressions linear "
                             f"in the jets of {base!r} (constant weights aside)")
        max_order = max(max_order, len(rest[0].derivs))
        group = split.setdefault(consts, {})
        group[rest] = group.get(rest, ZERO) + coeff
    if max_order == 0:
        return x

    def multisets(size: int) -> list[tuple[int, ...]]:
        if size == 0:
            return [()]
        out = []
        def rec(prefix: tuple[int, ...], start: int, left: int) -> None:
            if left == 0:
                out.append(prefix)
                return
            for v in range(start, n + 1):
                rec(prefix + (v,), v, left - 1)
        rec((), 1, size)
        return out

    generators: list[dict[Word, Scalar]] = []
    for size in range(max_order):
        for beta in multisets(size):
            gen: dict[Word, Scalar] = {}
            for i in range(1, n + 1):
                word = (JetSymbol(base, i, beta + (i,)),)
                gen[word] = gen.get(word, ZERO) + ONE
            generators.append(gen)

    def leading(vec: dict[Word, Scalar]):
        return max(vec, key=lambda w: w[0].sort_key())

    echelon: list[tuple[Word, dict[Word, Scalar]]] = []
    for gen in generators:
        vec = dict(gen)
        for lead, basis_vec in echelon:
            if lead in vec:
                factor = vec[lead]
                for w, c in basis_vec.items():
                    nv = vec.get(w, ZERO) - factor * c
                    if nv.is_zero():
                        vec.pop(w, None)
                    else:
                        vec[w] = nv
        if not vec:
            continue
        lead = leading(vec)
        inv = vec[lead].inverse()
        vec = {w: c * inv for w, c in vec.items()}
        echelon.append((lead, vec))
    echelon.sort(key=lambda item: item[0][0].sort_key(), reverse=True)

    out: dict[Word, Scalar] = {}
    for consts, group in split.items():
        residue = dict(group)
        for lead, basis_vec in echelon:
            if lead in residue:
                factor = residue[lead]
                for w, c in basis_vec.items():
                    nv = residue.get(w, ZERO) - factor * c
                    if nv.is_zero():
                        residue.pop(w, None)
                    else:
                        residue[w] = nv
        for w, c in residue.items():
            full = tuple(sorted(consts + w, key=lambda s: s.sort_key()))
            out[full] = out.get(full, ZERO) + c
    return CoeffExpr(out, True)


# -- reference shapes for the abelian field equation -----------------------------------


def _laplacian(x: CoeffExpr, n: int) -> CoeffExpr:
    acc = CoeffExpr.zero(x.commutative)
    for q in range(1, n + 1):
        acc = acc + x.derive(q).derive(q)
    return acc


def divergence_of_strength(conn: Connection) -> dict[int, CoeffExpr]:
    """G_p = sum_m derive(F_mp, m)."""
    F = field_strength(conn)
    out = {}
    for p in range(1, conn.n + 1):
        acc = CoeffExpr.zero(conn.commutative)
        for m in range(1, conn.n + 1):
            acc = acc + F[(m, p)].derive(m)
        out[p] = acc
    return out


def reference_field_equation(conn: Connection, cfg: PairingConfig, k: int) -> CoeffExpr:
    """The quoted fourth-order field equation for a commuting connection.

    term1 - term2 + (3 mu / 4) term3 with
    term1 = sum_{m,i} derive^3 F_mk, term2 = sum_{i,r} derive_i derive_r
    derive_k F_ir (identically zero by antisymmetry), term3 = sum_i derive_i F_ik.
    """
    if not conn.commutative:
        raise ValueError("the reference field equation is abelian")
    F = field_strength(conn)
    n = conn.n
    term1 = CoeffExpr.zero(True)
    for m in range(1, n + 1):
        for i in range(1, n + 1):
            term1 = term1 + F[(m, k)].derive(i).derive(i).derive(m)
    term2 = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        for r in range(1, n + 1):
            term2 = term2 + F[(i, r)].derive(i).derive(r).derive(k)
    term3 = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        term3 = term3 + F[(i, k)].derive(i)
    mu34 = cfg.mu_expr(True).scale(scalar(Fraction(3, 4)))
    return term1 - term2 + mu34 * term3


def biharmonic_reference(conn: Connection, cfg: PairingConfig, k: int) -> CoeffExpr:
    """Lap(Lap(A_k)) + (3 mu / 4) Lap(A_k) for the same connection symbols."""
    ak = conn.a(k)
    n = conn.n
    lap = _laplacian(ak, n)
    laplap = _laplacian(lap, n)
    mu34 = cfg.mu_expr(True).scale(scalar(Fraction(3, 4)))
    return laplap + mu34 * lap


# -- structured reports ------------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianReport:
    """Exact quadratic-form constants of the derived Lagrangian.

    L = c1 * sum (derive_i F_mk)^2 + c2 * sum (derive_i F_mk)(derive_k F_mi)
        + c3 * mu * sum F_ik^2   (sums over all ordered index tuples).

    The two derivative shapes are not independent once the field strength
    is substituted: the cross sum equals exactly half the square sum (a
    Bianchi-type differential identity, recorded in ``shapes_degenerate``).
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
    reference: tuple[Fraction, Fraction, Fraction] = (
        Fraction(4, 3),
        Fraction(-2, 3),
        Fraction(4),
    )

    @property
    def ratio(self) -> Scalar:
        return self.c1 / self.c2


def lagrangian_report(n: int, cfg: PairingConfig | None = None) -> LagrangianReport:
    """Fit the derived Lagrangian to its quadratic normal shape, exactly."""
    cfg = cfg or PairingConfig()
    from .gauge import abelian_connection

    conn = abelian_connection(n)
    L3, L21 = lagrangian_sectors(conn, cfg)
    F = field_strength(conn)
    B = CoeffExpr.zero(True)
    X = CoeffExpr.zero(True)
    SF = CoeffExpr.zero(True)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            SF = SF + F[(i, k)] * F[(i, k)]
            for m in range(1, n + 1):
                dif = F[(m, k)].derive(i)
                dkf = F[(m, i)].derive(k)
                B = B + dif * dif
                X = X + dif * dkf
    half = scalar(Fraction(1, 2))
    degenerate = (X - B.scale(half)).is_zero()
    failed = LagrangianReport(n, ZERO, ZERO, ZERO, exact=False,
                              shapes_degenerate=degenerate)
    if degenerate:
        # L3 = s * B on the joint span; the ratio -2 normalization picks
        # c1 = -2 c2 with c1 + c2/2 = s, i.e. (c1, c2) = (4s/3, -2s/3).
        sol_b = solve_linear([B.terms], L3.terms)
        if sol_b is None:
            return failed
        (s,) = sol_b
        c1 = s * scalar(Fraction(4, 3))
        c2 = -(s * scalar(Fraction(2, 3)))
    else:
        sol = solve_linear([B.terms, X.terms], L3.terms)
        if sol is None:
            return failed
        c1, c2 = sol
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
    reference: tuple[Fraction, Fraction, Fraction] = (
        Fraction(1),
        Fraction(-1),
        Fraction(3, 4),
    )


def field_equation_report(n: int, cfg: PairingConfig | None = None) -> FieldEquationReport:
    """Fit the derived variation to alpha * Lap(G_p) + gamma * mu * G_p, exactly."""
    cfg = cfg or PairingConfig()
    from .gauge import abelian_connection

    conn = abelian_connection(n)
    EL = euler_lagrange_abelian(conn, cfg)
    G = divergence_of_strength(conn)
    mu = cfg.mu_expr(True)
    target: dict = {}
    col_a: dict = {}
    col_b: dict = {}
    for p in range(1, n + 1):
        for w, c in EL[p]:
            target[(p, w)] = c
        for w, c in _laplacian(G[p], n):
            col_a[(p, w)] = c
        for w, c in (mu * G[p]):
            col_b[(p, w)] = c
    sol = solve_linear([col_a, col_b], target)
    if sol is None:
        return FieldEquationReport(n, ZERO, ZERO, exact=False)
    alpha, gamma = sol
    residual_zero = True
    for p in range(1, n + 1):
        resid = EL[p] - _laplacian(G[p], n).scale(alpha) - (mu * G[p]).scale(gamma)
        if not resid.is_zero():
            residual_zero = False
    return FieldEquationReport(n, alpha, gamma, residual_zero)
