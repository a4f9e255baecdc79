"""Shared fixtures: standard test potentials and a cached structure
factory so the heavier band tables are built once per session."""

from __future__ import annotations

from functools import lru_cache

import pytest

from nanoband.masses import MassTable, effective_masses
from nanoband.potential import PotentialSpec, make_potential
from nanoband.spectrum import BandStructure, MagneticConfig, band_structure


@lru_cache(maxsize=None)
def cached_structure(q: PotentialSpec, cfg: MagneticConfig,
                     n_max: int) -> BandStructure:
    return band_structure(q, cfg, n_max)


@lru_cache(maxsize=None)
def cached_masses(q: PotentialSpec, cfg: MagneticConfig,
                  n_max: int) -> MassTable:
    return effective_masses(cached_structure(q, cfg, n_max))


@pytest.fixture(scope="session")
def structure_factory():
    return cached_structure


@pytest.fixture(scope="session")
def mass_factory():
    return cached_masses


@pytest.fixture(scope="session")
def zero_q() -> PotentialSpec:
    return make_potential("zero")


@pytest.fixture(scope="session")
def two_step() -> PotentialSpec:
    return make_potential("two-step")


@pytest.fixture(scope="session")
def three_step() -> PotentialSpec:
    return make_potential("three-step")


@pytest.fixture(scope="session")
def two_step_mean_one(two_step) -> PotentialSpec:
    """Two-step potential shifted so its mean is exactly 1."""
    return two_step.shifted(1.0)
