"""Scalar reductions and distributions."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_density
from zenolattice import (
    Basis,
    BasisError,
    DensityMatrix,
    GaussianPacketSpec,
    build_gaussian_packet,
    build_position_eigenstate,
    circular_distance,
    circular_mean,
    circular_variance,
    density_from_pure,
    density_to_momentum,
    evolve_density,
    expected_momentum,
    load_scenario,
    make_regions,
    momentum_distribution,
    momentum_variance,
    negative_momentum_fraction,
    position_distribution,
    purity,
    region_masses,
    run_schedule,
    signed_momentum_values,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestDistributions:
    def test_position_delta(self):
        rho = density_from_pure(build_position_eigenstate(5, 32))
        dist = position_distribution(rho)
        assert dist[5] == 1.0 and dist.sum() == 1.0

    def test_position_maximally_mixed(self):
        rho = DensityMatrix(np.eye(32) / 32, Basis.POSITION)
        np.testing.assert_allclose(position_distribution(rho), 1 / 32)

    @pytest.mark.parametrize("imag", [1e-9, np.nan], ids=["large", "nan"])
    def test_position_refuses_an_imaginary_diagonal(self, imag):
        """A diagonal entry whose imaginary part is above 1e-12, or NaN, is
        refused, as Snapshots.position_distribution refuses it."""
        entries = np.eye(32, dtype=complex) / 32
        entries[3, 3] += 1j * imag
        with pytest.raises(ValueError, match="imaginary parts"):
            position_distribution(DensityMatrix(entries, Basis.POSITION))

    def test_position_requires_position_basis(self):
        rho = DensityMatrix(np.eye(32) / 32, Basis.MOMENTUM)
        with pytest.raises(BasisError):
            position_distribution(rho)

    def test_momentum_projector(self):
        entries = np.zeros((32, 32), dtype=complex)
        entries[7, 7] = 1.0
        dist = momentum_distribution(DensityMatrix(entries, Basis.MOMENTUM))
        assert dist[7] == 1.0

    def test_momentum_of_position_eigenstate_is_uniform(self):
        rho = density_from_pure(build_position_eigenstate(21, 256))
        np.testing.assert_allclose(momentum_distribution(rho), 1 / 256, atol=1e-14)

    def test_momentum_invariant_under_evolution(self):
        rho = density_to_momentum(make_random_density(32, np.random.default_rng(0)))
        before = momentum_distribution(rho)
        after = momentum_distribution(evolve_density(rho, 0.8))
        np.testing.assert_array_equal(before, after)


class TestSignedIndex:
    def test_positive_branch(self):
        assert signed_momentum_values(256)[31] == 31

    def test_negative_branch(self):
        assert signed_momentum_values(256)[225] == -31

    def test_boundary_is_positive(self):
        assert signed_momentum_values(256)[128] == 128

    @given(st.sampled_from([8, 32, 256]), st.data())
    def test_vector_matches_scalar(self, n, data):
        """Each entry is the scalar rule, +k up to N/2 and k - N beyond."""
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert signed_momentum_values(n)[k] == (k if k <= n // 2 else k - n)

    @given(st.sampled_from([8, 32, 256]))
    def test_signed_values_are_a_permutation_of_the_physical_range(self, n):
        signed = signed_momentum_values(n)
        assert set(signed.tolist()) == set(range(-(n // 2) + 1, n // 2 + 1))


class TestReductions:
    def test_momentum_projector_moments(self):
        entries = np.zeros((256, 256), dtype=complex)
        entries[31, 31] = 1.0
        dist = momentum_distribution(DensityMatrix(entries, Basis.MOMENTUM))
        assert expected_momentum(dist) == 31.0
        assert momentum_variance(dist) == 0.0

    def test_maximally_mixed_negative_fraction(self):
        dist = momentum_distribution(DensityMatrix(np.eye(256) / 256, Basis.POSITION))
        assert negative_momentum_fraction(dist) == pytest.approx(127 / 256, abs=1e-12)

    def test_expected_momentum_constant_under_free_evolution(self):
        rho = density_to_momentum(
            density_from_pure(build_gaussian_packet(GaussianPacketSpec(8, 8.0, 31), 256))
        )
        before = expected_momentum(momentum_distribution(rho))
        after = expected_momentum(momentum_distribution(evolve_density(rho, 0.4)))
        assert abs(after - before) < 1e-12

    @given(st.sampled_from([8, 32, 256]), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_moments_match_plain_summation(self, n, seed):
        """The three moments of a random p(k) against sums over its entries
        in plain Python, with the signed index +k up to N/2 and k - N beyond,
        at 1e-12 of each one's scale: N for the mean, N^2 for the variance."""
        dist = np.random.default_rng(seed).random(n)
        dist /= dist.sum()
        pairs = [(k if k <= n // 2 else k - n, p) for k, p in enumerate(dist.tolist())]
        mean = sum(q * p for q, p in pairs)
        variance = sum((q - mean) ** 2 * p for q, p in pairs)
        negative = sum(p for q, p in pairs if q < 0)
        assert abs(expected_momentum(dist) - mean) <= 1e-12 * n
        assert abs(momentum_variance(dist) - variance) <= 1e-12 * n**2
        assert abs(negative_momentum_fraction(dist) - negative) <= 1e-12

    @pytest.mark.parametrize("name", ["free_packet", "pointer_stationary", "pvm_eigenstate",
                                      "pvm_packet"])
    def test_run_records_the_moments_of_its_momentum_distribution(self, name):
        """Every record of a shipped scenario holds these functions of its
        own p(k), bit for bit."""
        for rec in run_schedule(load_scenario(SCENARIOS / f"{name}.ini")):
            assert rec.expected_momentum_signed == expected_momentum(rec.momentum_dist)
            assert rec.momentum_variance == momentum_variance(rec.momentum_dist)
            assert rec.negative_momentum_fraction == negative_momentum_fraction(rec.momentum_dist)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_purity_bounds(self, seed):
        rho = make_random_density(32, np.random.default_rng(seed))
        assert 1 / 32 - 1e-12 <= purity(rho) <= 1 + 1e-12

    def test_purity_of_maximally_mixed(self):
        rho = DensityMatrix(np.eye(64) / 64, Basis.POSITION)
        assert purity(rho) == pytest.approx(1 / 64, abs=1e-14)


class TestRegionMass:
    def test_masses_sum_to_one(self):
        rho = make_random_density(256, np.random.default_rng(1))
        part = make_regions(256, 6)
        masses = region_masses(position_distribution(rho), part)
        assert masses.size == 7
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_region_mass(self):
        rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(20, 2.0, 0), 256))
        masses = region_masses(position_distribution(rho), make_regions(256, 6))
        assert masses[0] == pytest.approx(1.0, abs=1e-10)
        assert masses[3] == pytest.approx(0.0, abs=1e-10)

    def test_bad_region_id(self):
        with pytest.raises(ValueError, match="region id 4"):
            make_regions(64, 4).region_range(4)


class TestCircularStatistics:
    def test_mean_of_narrow_packet(self):
        state = build_gaussian_packet(GaussianPacketSpec(100, 4.0, 0), 256)
        dist = np.abs(state.amplitudes) ** 2
        assert circular_mean(dist) == pytest.approx(100.0, abs=1e-9)

    def test_mean_respects_the_seam(self):
        state = build_gaussian_packet(GaussianPacketSpec(2, 4.0, 0), 256)
        dist = np.abs(state.amplitudes) ** 2
        assert circular_distance(circular_mean(dist), 2.0, 256) < 1e-9

    def test_variance_of_delta_is_zero(self):
        dist = np.zeros(64)
        dist[10] = 1.0
        assert circular_variance(dist) == pytest.approx(0.0, abs=1e-18)

    def test_variance_matches_plain_variance_away_from_seam(self):
        state = build_gaussian_packet(GaussianPacketSpec(128, 8.0, 0), 256)
        dist = np.abs(state.amplitudes) ** 2
        n = np.arange(256)
        plain = float(np.sum(dist * (n - np.sum(dist * n)) ** 2))
        assert circular_variance(dist) == pytest.approx(plain, rel=1e-9)

    def test_circular_distance(self):
        assert circular_distance(255.0, 1.0, 256) == 2.0
        assert circular_distance(1.0, 255.0, 256) == 2.0
        assert circular_distance(10.0, 10.0, 256) == 0.0
