"""The package's public names: every exported name resolves, none twice."""

from __future__ import annotations

import z3forms


def test_every_exported_name_resolves():
    missing = [name for name in z3forms.__all__ if not hasattr(z3forms, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(z3forms.__all__) == len(set(z3forms.__all__))
