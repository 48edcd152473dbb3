"""Shared fixtures: the default lattice and the section-V filter constants."""

import numpy as np
import pytest

import potsim


@pytest.fixture(scope="session")
def lattice():
    """Critical-density 12x12 lattice over the default 200 kHz channel."""
    return potsim.LatticeConfig.for_bandwidth(200e3, 12, 12)


@pytest.fixture(scope="session")
def gaussian_02():
    return potsim.make_gaussian(0.2)


@pytest.fixture(scope="session")
def gaussian_iso():
    return potsim.make_gaussian(1.0)


@pytest.fixture(scope="session")
def rrc_02():
    return potsim.make_rrc(0.2)


@pytest.fixture(scope="session")
def iota_02():
    return potsim.make_iota(0.2)


@pytest.fixture(scope="session")
def cross_gaussian(gaussian_02, lattice):
    return potsim.CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fo_columns():
    """``fo_columns(cross, full, qdiff)``: the block of FO difference qdiff in
    a ``convolved_full`` result; column n holds subcarrier offset n - n0."""
    def columns(cross, full, qdiff):
        q = cross.fo_quantum
        return full[:, np.arange(cross.lattice.num_subcarriers) * q + qdiff + q - 1]
    return columns
