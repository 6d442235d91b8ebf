from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from skewgentle import (
    double_cover,
    one_orbifold_disc,
    two_hole_torus_surface,
    two_marked_disc,
    two_orbifold_cylinder,
    two_orbifold_disc,
)


@pytest.fixture(scope="session")
def cylinders():
    return {v: two_orbifold_cylinder(v) for v in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def disc():
    return two_marked_disc()


@pytest.fixture(scope="session")
def disc_x4():
    return one_orbifold_disc(4)


@pytest.fixture(scope="session")
def disc_xx():
    return two_orbifold_disc()


@pytest.fixture(scope="session")
def torus_with_involution():
    return two_hole_torus_surface()


@pytest.fixture(scope="session")
def cylinder_covers(cylinders):
    return {v: double_cover(s) for v, s in cylinders.items()}


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` records every call of ``module.name``
    made through any package module that binds it; returns the list of
    argument tuples, which keeps the arguments alive."""

    def count(module: str, name: str) -> list:
        original = getattr(sys.modules[module], name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            package = modname.partition(".")[0]
            if package == "skewgentle" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count
