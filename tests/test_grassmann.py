"""Ternary Grassmann algebra: basis counts, vanishing rules, cyclic phases;
the product laws are in ``test_laws.py``."""

from __future__ import annotations

import itertools

from z3forms import (
    GrassElement,
    bar_theta,
    enumerate_basis,
    theta,
    theta_only_count,
)
from z3forms.grassmann import _normalize_letters, word_grade
from z3forms.scalar import J, J2, ONE, jpow

THETA_ONLY = {1: 2, 2: 8, 3: 20, 4: 40, 5: 70}


def word(N, *letters) -> GrassElement:
    return GrassElement.word(N, letters)


def all_letters(N: int):
    return [theta(i) for i in range(1, N + 1)] + [
        bar_theta(i) for i in range(1, N + 1)
    ]


def test_generator_counts_match_closed_form():
    for N, expected in THETA_ONLY.items():
        assert theta_only_count(N) == expected
        assert theta_only_count(N) == N + N**2 + (N**3 - N) // 3


def test_enumerated_basis_agrees_with_counts():
    for N in range(1, 5):
        basis = enumerate_basis(N)
        words = [w for w, _ in basis]
        assert len(set(words)) == len(words)
        theta_only = [
            w for w in words if w and all(kind == "th" for kind, _ in w)
        ]
        assert len(theta_only) == theta_only_count(N)
        # unit + singles + pairs + conjugate-count triples, exact closed form
        assert len(words) == 1 + 2 * N + 3 * N * N + 2 * (N**3 - N) // 3


def test_basis_is_closed_under_normalization():
    # Exhaustive over every raw word of 0-4 letters for N = 1..3: each
    # normalizes to zero or to a basis word, and each basis word, listed
    # once with its grade, is its own canonical form.
    for N in (1, 2, 3):
        basis = enumerate_basis(N)
        words = dict(basis)
        assert len(words) == len(basis)
        for w, grade in basis:
            assert _normalize_letters(w, N) == (ONE, w)
            assert grade == word_grade(w)
        for length in range(5):
            for raw in itertools.product(all_letters(N), repeat=length):
                got = _normalize_letters(raw, N)
                assert got is None or got[1] in words


def test_generator_cubes_vanish():
    for N in (1, 2, 3):
        for a in range(1, N + 1):
            assert word(N, theta(a), theta(a), theta(a)).is_zero()
            assert word(N, bar_theta(a), bar_theta(a), bar_theta(a)).is_zero()


def test_length_four_words_vanish_exhaustive():
    N = 2
    letters = all_letters(N)
    for combo in itertools.product(letters, repeat=4):
        assert word(N, *combo).is_zero()


def test_mixed_triples_vanish_exhaustive():
    N = 3
    letters = all_letters(N)
    for combo in itertools.product(letters, repeat=3):
        kinds = {letter[0] for letter in combo}
        if kinds == {"th", "bth"}:
            assert word(N, *combo).is_zero()


def test_ternary_cyclic_relation():
    N = 3
    letters = all_letters(N)
    for combo in itertools.product(letters, repeat=3):
        el = word(N, *combo)
        rotated = word(N, combo[1], combo[2], combo[0])
        if {letter[0] for letter in combo} == {"th"}:
            # pure generator triple: w == j * rot(w)
            assert el == rotated.scale(J)
        elif {letter[0] for letter in combo} == {"bth"}:
            # conjugate triple: w == j^2 * rot(w)
            assert el == rotated.scale(J2)


def test_binary_products_are_independent():
    N = 2
    a = word(N, theta(1), theta(2))
    b = word(N, theta(2), theta(1))
    assert not a.is_zero() and not b.is_zero()
    assert a != b
    assert not (a - b).is_zero()
    assert not (a + b).is_zero()


def test_mixed_binary_order_phase():
    N = 3
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            lhs = word(N, bar_theta(b), theta(a))
            rhs = word(N, theta(a), bar_theta(b)).scale(J2)
            assert lhs == rhs


def test_grades():
    N = 3
    assert word(N, theta(1)).grade() == 1
    assert word(N, bar_theta(1)).grade() == 2
    assert word(N, theta(1), theta(2)).grade() == 2
    assert word(N, bar_theta(1), bar_theta(2)).grade() == 1
    assert word(N, theta(1), bar_theta(2)).grade() == 0
    assert GrassElement.unit(N).grade() == 0
    mixed = word(N, theta(1)) + word(N, theta(1), theta(2))
    assert mixed.grade() == "mixed"
    assert GrassElement.zero(N).grade() == 0


def test_scaling_phases_consistent():
    N = 3
    w = word(N, theta(1), theta(2), theta(3))
    assert w.scale(jpow(3)) == w
    assert w.scale(J).scale(J).scale(J) == w
