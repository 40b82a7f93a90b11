"""Shared fixtures: the expensive expansions are computed once per session."""

from __future__ import annotations

import pytest

import borwein.qpoly as qpoly
from borwein import ProductSpec, dp_signed_counts, expand_borwein


@pytest.fixture(autouse=True)
def no_held_products():
    """Every test starts and ends with no product held for chaining."""
    qpoly._held.clear()
    yield
    qpoly._held.clear()


@pytest.fixture
def fresh_expansions(monkeypatch) -> list[ProductSpec]:
    """Collects the spec of every product expanded from 1, not chained."""
    fresh: list[ProductSpec] = []
    expand_passes = qpoly._expand_passes

    def spy(spec, passes, base, keep):
        if base == (1,):
            fresh.append(spec)
        return expand_passes(spec, passes, base, keep)

    monkeypatch.setattr(qpoly, "_expand_passes", spy)
    return fresh


@pytest.fixture(scope="session")
def series_upto_100():
    """BorweinSeries for n = 0..100, each expanded from scratch, indexed by n."""
    series = []
    for n in range(101):
        qpoly._held.clear()
        series.append(expand_borwein(n))
    return series


@pytest.fixture(scope="session")
def dp_tables_upto_30():
    """Signed subset-sum DP tables for n = 0..30, indexed by n."""
    return [dp_signed_counts(n) for n in range(31)]
