"""Initial-state builders and their momentum content."""

import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolattice import (
    Basis,
    GaussianPacketSpec,
    PositionEigenstateSpec,
    StateVector,
    build_gaussian_packet,
    build_initial_state,
    build_position_eigenstate,
    density_from_pure,
    purity,
    signed_momentum_values,
)


def reference_momentum_distribution(amplitudes: np.ndarray) -> np.ndarray:
    """Momentum distribution by explicit DFT summation (no FFT), used as an
    independent oracle for the builders."""
    n = amplitudes.size
    grid = np.arange(n)
    forward = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    return np.abs(forward @ amplitudes) ** 2


class TestGaussianPacket:
    def test_moving_packet_peaks_at_its_centre(self):
        state = build_gaussian_packet(GaussianPacketSpec(8, 8.0, 31), 256)
        dist = np.abs(state.amplitudes) ** 2
        assert np.argmax(dist) == 8
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stationary_packet_is_real_and_symmetric(self):
        state = build_gaussian_packet(GaussianPacketSpec(128, 8.0, 0), 256)
        amp = state.amplitudes
        assert np.max(np.abs(amp.imag)) == 0.0
        assert np.all(amp.real >= 0.0)
        np.testing.assert_allclose(amp[129:], amp[1:128][::-1], atol=1e-15)

    def test_expected_momentum_matches_reference_summation(self):
        state = build_gaussian_packet(GaussianPacketSpec(8, 8.0, 31), 256)
        dist = reference_momentum_distribution(state.amplitudes)
        signed = signed_momentum_values(256)
        mean = float(signed @ dist)
        assert abs(mean - 31.0) < 0.5
        from zenolattice import expected_momentum, momentum_distribution

        rho = density_from_pure(state)
        assert expected_momentum(momentum_distribution(rho)) == pytest.approx(mean, abs=1e-9)

    def test_momentum_peak_lands_on_signed_index(self):
        state = build_gaussian_packet(GaussianPacketSpec(50, 6.0, -13), 256)
        dist = reference_momentum_distribution(state.amplitudes)
        assert np.argmax(dist) == 256 - 13

    @given(st.integers(min_value=1, max_value=31))
    @settings(max_examples=15, deadline=None)
    def test_opposite_momenta_mirror_the_distribution(self, k0):
        plus = build_gaussian_packet(GaussianPacketSpec(40, 8.0, k0), 256)
        minus = build_gaussian_packet(GaussianPacketSpec(40, 8.0, -k0), 256)
        p = reference_momentum_distribution(plus.amplitudes)
        m = reference_momentum_distribution(minus.amplitudes)
        mirrored = np.concatenate(([m[0]], m[1:][::-1]))
        np.testing.assert_allclose(p, mirrored, atol=1e-12)

    def test_wider_packets_concentrate_in_momentum(self):
        # momentum width is N/(2*pi*w), so the +-3 window around k0 tightens
        # as w grows; reference values from the explicit DFT summation
        windows = {}
        for w in (8.0, 16.0, 32.0):
            state = build_gaussian_packet(GaussianPacketSpec(128, w, 31), 256)
            dist = reference_momentum_distribution(state.amplitudes)
            windows[w] = dist[31 - 3 : 31 + 4].sum()
        assert windows[8.0] == pytest.approx(0.508756, abs=1e-5)
        assert windows[8.0] < windows[16.0] < windows[32.0]
        assert windows[32.0] > 0.99

    def test_rejects_invalid_specs(self):
        with pytest.raises(ValueError):
            GaussianPacketSpec(8, 0.0, 31)
        with pytest.raises(ValueError):
            build_gaussian_packet(GaussianPacketSpec(-1, 8.0, 0), 256)
        with pytest.raises(ValueError):
            build_gaussian_packet(GaussianPacketSpec(8, 8.0, 129), 256)
        with pytest.raises(ValueError):
            build_gaussian_packet(GaussianPacketSpec(8, 8.0, -128), 256)

    @pytest.mark.parametrize("width", [1e-300, 1e200, math.inf])
    def test_rejects_a_width_whose_square_leaves_the_floats(self, width):
        """The envelope divides by width^2, so a width whose square is 0 is
        refused, not built into a state of NaNs, and so is one whose square
        overflows, not squared into an OverflowError or an envelope of 1 at
        every site. A width of 1e150 still builds."""
        with pytest.raises(ValueError, match="width must be positive, with a finite square above 0"):
            GaussianPacketSpec(8, width, 31)
        assert GaussianPacketSpec(8, 1e150, 31).width == 1e150

    def test_sub_site_width_leaves_only_the_centre(self):
        """A width far below one site sends every other site's envelope to
        exactly 0, with no overflow warning on the way."""
        state = build_gaussian_packet(GaussianPacketSpec(8, 1e-160, 0), 64)
        expected = np.zeros(64, dtype=complex)
        expected[8] = 1.0
        np.testing.assert_array_equal(state.amplitudes, expected)


class TestPositionEigenstate:
    def test_delta_distribution(self):
        state = build_position_eigenstate(21, 256)
        dist = np.abs(state.amplitudes) ** 2
        assert dist[21] == 1.0
        assert dist.sum() == 1.0

    def test_momentum_distribution_is_uniform(self):
        state = build_position_eigenstate(21, 256)
        dist = reference_momentum_distribution(state.amplitudes)
        np.testing.assert_allclose(dist, 1 / 256, atol=1e-14)

    def test_projector_is_pure(self):
        rho = density_from_pure(build_position_eigenstate(21, 256))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range_site(self):
        with pytest.raises(ValueError):
            build_position_eigenstate(256, 256)


class TestDensityFromPure:
    def test_unit_trace(self):
        state = build_gaussian_packet(GaussianPacketSpec(8, 8.0, 31), 64)
        rho = density_from_pure(state)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert rho.basis is Basis.POSITION

    def test_delta_state_single_entry(self):
        rho = density_from_pure(build_position_eigenstate(3, 8))
        expected = np.zeros((8, 8), dtype=complex)
        expected[3, 3] = 1.0
        np.testing.assert_array_equal(rho.entries, expected)

    def test_two_site_superposition_block(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = amp[1] = 1 / np.sqrt(2)
        rho = density_from_pure(StateVector(amp))
        np.testing.assert_allclose(rho.entries[:2, :2], 0.5, atol=1e-15)

    def test_rejects_tampered_amplitudes(self):
        state = build_position_eigenstate(0, 8)
        with pytest.raises(FrozenInstanceError):
            state.amplitudes = state.amplitudes * 2.0
        assert np.trace(density_from_pure(state).entries).real == pytest.approx(1.0, abs=1e-12)


def test_dispatch_by_spec_type():
    packet = build_initial_state(GaussianPacketSpec(8, 8.0, 31), 256)
    assert np.argmax(np.abs(packet.amplitudes)) == 8
    default_site = build_initial_state(PositionEigenstateSpec(), 256)
    assert np.argmax(np.abs(default_site.amplitudes)) == 128
    explicit = build_initial_state(PositionEigenstateSpec(site=21), 256)
    assert np.argmax(np.abs(explicit.amplitudes)) == 21
    with pytest.raises(TypeError):
        build_initial_state(object(), 256)
