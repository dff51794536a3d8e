"""Shared fixtures: a small wired world for protocol unit tests.

The ``World`` helper itself lives in :mod:`repro.testing` so test modules
can import it directly (``from repro.testing import World``) without
relying on pytest's conftest path magic.
"""

from __future__ import annotations

import random

import pytest

from repro.testing import World

__all__ = ["World"]


@pytest.fixture
def world() -> World:
    return World()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
