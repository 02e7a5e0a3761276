"""Tests for the Monte-Carlo photon transport."""

import numpy as np
import pytest

from repro.physics.transport import (
    FATE_ABSORBED,
    FATE_ESCAPED,
    FATE_NO_INTERACTION,
    transport_photons,
)


def _vertical_batch(geometry, rng, n=5000, energy=0.5):
    half = geometry.half_size * 0.9
    origins = np.stack(
        [
            rng.uniform(-half, half, n),
            rng.uniform(-half, half, n),
            np.full(n, 1.0),
        ],
        axis=1,
    )
    directions = np.tile([0.0, 0.0, -1.0], (n, 1))
    energies = np.full(n, energy)
    return origins, directions, energies


class TestTransportBasics:
    def test_missing_photons_never_interact(self, geometry):
        rng = np.random.default_rng(0)
        origins = np.array([[200.0, 0.0, 1.0]])
        directions = np.array([[0.0, 0.0, -1.0]])
        res = transport_photons(geometry, origins, directions, np.array([1.0]), rng)
        assert res.num_hits == 0
        assert res.fate[0] == FATE_NO_INTERACTION
        assert res.escaped_energy[0] == pytest.approx(1.0)

    def test_hits_inside_scintillator(self, geometry):
        rng = np.random.default_rng(1)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert res.num_hits > 0
        assert np.all(geometry.contains(res.positions))

    def test_energy_conservation_absorbed(self, geometry):
        rng = np.random.default_rng(2)
        origins, dirs, energies = _vertical_batch(geometry, rng)
        res = transport_photons(geometry, origins, dirs, energies, rng)
        sums = np.zeros(len(energies))
        np.add.at(sums, res.photon_index, res.energies)
        absorbed = res.fate == FATE_ABSORBED
        assert np.allclose(sums[absorbed], energies[absorbed])

    def test_energy_conservation_escaped(self, geometry):
        rng = np.random.default_rng(3)
        origins, dirs, energies = _vertical_batch(geometry, rng)
        res = transport_photons(geometry, origins, dirs, energies, rng)
        sums = np.zeros(len(energies))
        np.add.at(sums, res.photon_index, res.energies)
        escaped = res.fate == FATE_ESCAPED
        assert np.any(escaped)
        assert np.allclose(
            sums[escaped] + res.escaped_energy[escaped], energies[escaped]
        )

    def test_deposits_positive(self, geometry):
        rng = np.random.default_rng(4)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert np.all(res.energies > 0)

    def test_order_counts_consecutive(self, geometry):
        rng = np.random.default_rng(5)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        multi = np.nonzero(res.num_interactions >= 2)[0][:50]
        for p in multi:
            hits = res.hits_of(int(p))
            assert np.array_equal(
                res.order[hits], np.arange(res.num_interactions[p])
            )

    def test_deterministic_same_seed(self, geometry):
        o, d, e = _vertical_batch(geometry, np.random.default_rng(6), n=500)
        r1 = transport_photons(geometry, o, d, e, np.random.default_rng(7))
        r2 = transport_photons(geometry, o, d, e, np.random.default_rng(7))
        assert np.array_equal(r1.positions, r2.positions)
        assert np.array_equal(r1.fate, r2.fate)


class TestTransportPhysics:
    def test_interaction_fraction_reasonable(self, geometry):
        """~6 cm CsI at 0.5 MeV: interaction prob = 1 - exp(-mu * 6)."""
        from repro.constants import CSI
        from repro.physics.crosssections import total_mu

        rng = np.random.default_rng(8)
        o, d, e = _vertical_batch(geometry, rng, n=20000, energy=0.5)
        res = transport_photons(geometry, o, d, e, rng)
        frac = (res.num_interactions > 0).mean()
        path = geometry.num_layers * geometry.layers[0].thickness
        expected = 1.0 - np.exp(-total_mu(0.5, CSI) * path)
        assert frac == pytest.approx(expected, abs=0.02)

    def test_multi_compton_events_exist(self, geometry):
        rng = np.random.default_rng(9)
        res = transport_photons(geometry, *_vertical_batch(geometry, rng), rng=rng)
        assert (res.num_interactions >= 2).sum() > 50

    def test_low_energy_mostly_single_hit(self, geometry):
        """Photoelectric dominates at 60 keV: single-hit absorption."""
        rng = np.random.default_rng(10)
        o, d, e = _vertical_batch(geometry, rng, n=5000, energy=0.06)
        res = transport_photons(geometry, o, d, e, rng)
        interacting = res.num_interactions[res.num_interactions > 0]
        assert (interacting == 1).mean() > 0.8

    def test_max_generations_respected(self, geometry):
        rng = np.random.default_rng(11)
        o, d, e = _vertical_batch(geometry, rng, n=2000, energy=5.0)
        res = transport_photons(geometry, o, d, e, rng, max_generations=3)
        assert res.num_interactions.max() <= 3


class TestTransportValidation:
    def test_rejects_zero_direction(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((1, 3)),
                np.zeros((1, 3)),
                np.array([1.0]),
                np.random.default_rng(0),
            )

    def test_rejects_nonpositive_energy(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((1, 3)),
                np.array([[0.0, 0.0, -1.0]]),
                np.array([0.0]),
                np.random.default_rng(0),
            )

    def test_rejects_length_mismatch(self, geometry):
        with pytest.raises(ValueError):
            transport_photons(
                geometry,
                np.zeros((2, 3)),
                np.array([[0.0, 0.0, -1.0]]),
                np.array([1.0, 1.0]),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["origin", "direction", "energy"])
    def test_rejects_non_finite_input(self, geometry, field, bad):
        # A NaN energy used to come back as an absorbed hit at
        # [nan, nan, nan] with edep = nan (``nan <= 0`` is False).
        origins = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        directions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
        energies = np.array([1.0, 0.5])
        if field == "origin":
            origins[1, 0] = bad
        elif field == "direction":
            directions[1, 1] = bad
        else:
            energies[1] = bad
        with pytest.raises(ValueError, match="finite"):
            transport_photons(
                geometry, origins, directions, energies, np.random.default_rng(0)
            )

    def test_rejects_vectors_that_are_not_3d(self, geometry):
        with pytest.raises(ValueError, match="shape"):
            transport_photons(
                geometry,
                np.zeros((2, 3)),
                np.array([[0.0, -1.0], [0.0, -1.0]]),
                np.array([1.0, 1.0]),
                np.random.default_rng(0),
            )
