"""Lattice core: dispersion, density basis changes, exact evolution, dense oracle."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_density
from zenolattice import (
    Basis,
    BasisError,
    DampingKernel,
    DensityMatrix,
    LatticeConfig,
    ObservableRecord,
    StateVector,
    build_position_eigenstate,
    dense_oracle_evolve,
    density_to_momentum,
    density_to_position,
    dispersion_table,
    evolve_density,
    purity,
)

sizes = st.sampled_from([8, 16, 32, 64, 128, 256])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestLatticeConfig:
    def test_accepts_powers_of_two(self):
        assert LatticeConfig(256).n_sites == 256
        assert LatticeConfig(8).display_time_factor == 1000.0

    @pytest.mark.parametrize("bad", [0, 4, 6, 100, 257, -8])
    def test_rejects_non_powers_of_two(self, bad):
        with pytest.raises(ValueError):
            LatticeConfig(bad)

    def test_rejects_bad_display_factor(self):
        with pytest.raises(ValueError):
            LatticeConfig(256, display_time_factor=0.0)

    def test_time_conversions_round_trip(self):
        lat = LatticeConfig(256)
        assert lat.to_natural_time(180.0) == pytest.approx(0.18)
        assert lat.to_display_time(lat.to_natural_time(37.5)) == pytest.approx(37.5)


class TestDispersion:
    def test_zero_momentum(self):
        assert dispersion_table(256)[0] == 0.0

    def test_low_index_branch(self):
        assert dispersion_table(256)[3] == 4.5

    def test_high_index_branch(self):
        assert dispersion_table(256)[255] == 0.5

    @given(sizes, st.data())
    def test_symmetric_under_index_reflection(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        assert dispersion_table(n)[k] == dispersion_table(n)[n - k]

    @given(sizes)
    def test_table_matches_scalar(self, n):
        """Each entry is the scalar formula k**2/2 up to N/2, (N-k)**2/2
        beyond, in plain Python."""
        table = dispersion_table(n)
        assert all(table[k] == (k * k if k <= n // 2 else (n - k) ** 2) / 2 for k in range(n))
        assert table.min() >= 0.0


class TestDensityTransforms:
    def test_site_projector_becomes_flat_modulus(self):
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 1.0
        out = density_to_momentum(DensityMatrix(rho, Basis.POSITION))
        np.testing.assert_allclose(np.abs(out.entries), 1 / 16, atol=1e-14)

    def test_maximally_mixed_is_invariant(self):
        rho = DensityMatrix(np.eye(32) / 32, Basis.POSITION)
        out = density_to_momentum(rho)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_trace_and_purity_preserved(self, seed):
        rho = make_random_density(32, np.random.default_rng(seed))
        out = density_to_momentum(rho)
        assert abs(np.trace(out.entries) - np.trace(rho.entries)) < 1e-12
        assert abs(purity(out) - purity(rho)) < 1e-12
        back = density_to_position(out)
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-12

    def test_wrong_basis_raises(self):
        rho = DensityMatrix(np.eye(8) / 8, Basis.MOMENTUM)
        with pytest.raises(BasisError):
            density_to_momentum(rho)
        with pytest.raises(BasisError):
            density_to_position(DensityMatrix(np.eye(8) / 8, Basis.POSITION))


class TestEvolveDensity:
    def test_zero_time_is_identity(self):
        rho = density_to_momentum(make_random_density(16, np.random.default_rng(1)))
        out = evolve_density(rho, 0.0)
        np.testing.assert_array_equal(out.entries, rho.entries)

    def test_momentum_projector_is_stationary(self):
        rho = np.zeros((16, 16), dtype=complex)
        rho[5, 5] = 1.0
        out = evolve_density(DensityMatrix(rho, Basis.MOMENTUM), 0.73)
        np.testing.assert_array_equal(out.entries, rho)

    def test_diagonal_exactly_invariant(self):
        rho = density_to_momentum(make_random_density(32, np.random.default_rng(2)))
        out = evolve_density(rho, 0.37)
        np.testing.assert_array_equal(
            np.diagonal(out.entries), np.diagonal(rho.entries)
        )

    @given(seeds, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, seed, t):
        rho = density_to_momentum(make_random_density(16, np.random.default_rng(seed)))
        split = evolve_density(evolve_density(rho, t), 0.4)
        joined = evolve_density(rho, t + 0.4)
        assert np.max(np.abs(split.entries - joined.entries)) < 1e-12

    def test_matches_dense_oracle_small_lattice(self):
        rng = np.random.default_rng(42)
        rho = make_random_density(8, rng, rank=1)
        via_fft = density_to_position(evolve_density(density_to_momentum(rho), 0.37))
        via_oracle = dense_oracle_evolve(rho, 0.37)
        assert np.max(np.abs(via_fft.entries - via_oracle.entries)) < 1e-10

    def test_wrong_basis_raises(self):
        with pytest.raises(BasisError):
            evolve_density(DensityMatrix(np.eye(8) / 8, Basis.POSITION), 0.1)


class TestDenseOracle:
    def test_zero_time_is_identity(self):
        rho = make_random_density(16, np.random.default_rng(3))
        out = dense_oracle_evolve(rho, 0.0)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_momentum_diagonal_state_is_stationary(self):
        # a state diagonal in momentum commutes with the Hamiltonian
        diag = np.zeros((16, 16), dtype=complex)
        diag[3, 3] = 0.5
        diag[7, 7] = 0.5
        rho = density_to_position(DensityMatrix(diag, Basis.MOMENTUM))
        out = dense_oracle_evolve(rho, 0.8)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_agrees_with_fft_path_at_n16(self):
        rng = np.random.default_rng(4)
        rho = make_random_density(16, rng)
        t = 0.61
        via_fft = density_to_position(evolve_density(density_to_momentum(rho), t))
        assert np.max(np.abs(dense_oracle_evolve(rho, t).entries - via_fft.entries)) < 1e-10

    def test_refuses_large_lattices(self):
        rho = DensityMatrix(np.eye(128) / 128, Basis.POSITION)
        with pytest.raises(ValueError, match="refusing"):
            dense_oracle_evolve(rho, 0.1)


def test_unitarity_over_thousand_steps():
    """Trace and purity drift stay tiny through long alternating sequences."""
    rng = np.random.default_rng(5)
    rho = make_random_density(64, rng)
    start_purity = purity(rho)
    for _ in range(1000):
        rho = density_to_position(evolve_density(density_to_momentum(rho), 1e-3))
    assert abs(np.trace(rho.entries) - 1.0) < 1e-12
    assert abs(purity(rho) - start_purity) < 1e-10


def test_positive_momentum_packet_moves_to_increasing_sites():
    from zenolattice import GaussianPacketSpec, build_gaussian_packet, density_from_pure
    from zenolattice.observables import circular_mean, position_distribution

    rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(8, 4.0, 7), 64))
    means = []
    for t in (0.0, 0.02, 0.04, 0.06):
        evolved = density_to_position(evolve_density(density_to_momentum(rho), t))
        means.append(circular_mean(position_distribution(evolved)))
    steps = [(b - a) % 64 for a, b in zip(means, means[1:])]
    assert all(0 < step < 32 for step in steps)


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.ones(8, dtype=complex))


def test_state_vector_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.full(8, np.nan))


def test_state_vector_amplitudes_are_a_read_only_copy():
    """The normalization check holds for the state's life: its amplitudes
    can be neither written nor replaced after it, and the caller's array
    stays writable."""
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[0] = 1.0
    state = StateVector(amplitudes)
    amplitudes[0] = 2.0
    assert state.amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 2.0
    with pytest.raises(FrozenInstanceError):
        state.amplitudes = amplitudes


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_position_eigenstate(1, 8),
        lambda: DensityMatrix(np.eye(8) / 8, Basis.POSITION),
        lambda: DampingKernel(np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5])),
        lambda: ObservableRecord(0.0, 0.0, np.full(8, 0.125), np.full(8, 0.125), 1.0, 0.0, 0.0,
                                 np.empty(0), 0.0),
    ],
    ids=["state", "density", "kernel", "record"],
)
def test_array_holders_compare_and_hash_by_identity(build):
    """Objects that hold an ndarray compare by identity: == between two
    built alike answers False instead of raising numpy's ambiguous truth
    value, and each hashes, so it can key a dict or sit in a set."""
    a, b = build(), build()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
    assert {a: 1}[a] == 1


def test_density_matrix_validate():
    good = DensityMatrix(np.eye(8) / 8, Basis.POSITION)
    assert good.min_eigenvalue() == pytest.approx(1 / 8)
