"""Measurement channels: region pinching and damping kernels."""

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
    DistanceConvention,
    GaussianPacketSpec,
    KernelNotPositiveError,
    PointerSpec,
    RegionPartition,
    StateVector,
    build_gaussian_packet,
    build_position_eigenstate,
    density_from_pure,
    expected_momentum,
    kernel_channel,
    make_regions,
    momentum_distribution,
    pointer_kernel,
    purity,
    pvm_channel,
    signed_momentum_values,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestMakeRegions:
    def test_six_regions_with_leftover(self):
        part = make_regions(256, 6)
        assert part.boundaries == (0, 42, 84, 126, 168, 210, 252)
        assert part.n_regions == 7
        assert part.region_range(6) == (252, 256)

    def test_single_region(self):
        part = make_regions(256, 1)
        assert part.boundaries == (0,)
        assert part.region_range(0) == (0, 256)

    def test_exact_division(self):
        part = make_regions(8, 4)
        assert part.boundaries == (0, 2, 4, 6)
        assert part.n_regions == 4

    @pytest.mark.parametrize("bad", [0, -1, 257])
    def test_rejects_out_of_range_counts(self, bad):
        with pytest.raises(ValueError):
            make_regions(256, bad)

    @given(st.sampled_from([8, 16, 64, 256]), st.data())
    def test_regions_cover_all_sites(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        part = make_regions(n, m)
        sizes = [part.region_range(r)[1] - part.region_range(r)[0] for r in range(part.n_regions)]
        assert sum(sizes) == n
        assert all(s >= 1 for s in sizes)
        assert sizes[0] == n // m

    def test_region_lookup(self):
        part = make_regions(256, 6)
        assert part.region_containing(0) == 0
        assert part.region_containing(41) == 0
        assert part.region_containing(42) == 1
        assert part.region_containing(255) == 6

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            RegionPartition((1, 4), 8)
        with pytest.raises(ValueError):
            RegionPartition((0, 4, 4), 8)
        with pytest.raises(ValueError):
            RegionPartition((0, 9), 8)


class TestPvmChannel:
    def test_packet_inside_one_region_unchanged(self):
        part = make_regions(256, 6)
        rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(20, 2.0, 0), 256))
        out = pvm_channel(rho, part)
        # support is confined to region [0, 42); pinching is a no-op there
        kept = np.abs(rho.entries[:42, :42] - out.entries[:42, :42]).max()
        assert kept == 0.0
        assert purity(out) == pytest.approx(1.0, abs=1e-12)

    def test_cross_region_superposition_loses_coherence(self):
        n = 256
        amp = np.zeros(n, dtype=complex)
        amp[10] = amp[100] = 1 / np.sqrt(2)
        rho = density_from_pure(StateVector(amp))
        out = pvm_channel(rho, make_regions(n, 6))
        assert out.entries[10, 100] == 0.0
        assert out.entries[10, 10] == pytest.approx(0.5)
        assert out.entries[100, 100] == pytest.approx(0.5)
        assert purity(out) == pytest.approx(0.5, abs=1e-12)

    def test_idempotent_exactly(self):
        rho = make_random_density(64, np.random.default_rng(0))
        part = make_regions(64, 6)
        once = pvm_channel(rho, part)
        twice = pvm_channel(once, part)
        np.testing.assert_array_equal(once.entries, twice.entries)

    def test_trace_exact(self):
        rho = make_random_density(64, np.random.default_rng(1))
        out = pvm_channel(rho, make_regions(64, 5))
        assert np.trace(out.entries) == np.trace(rho.entries)

    def test_refinement_pinches_at_least_as_hard(self):
        # the 12-region partition refines the 6-region one on 256 sites
        rho = make_random_density(256, np.random.default_rng(2))
        coarse = purity(pvm_channel(rho, make_regions(256, 6)))
        fine = purity(pvm_channel(rho, make_regions(256, 12)))
        assert fine <= coarse + 1e-12

    def test_wrong_basis_raises(self):
        rho = DensityMatrix(np.eye(64) / 64, Basis.MOMENTUM)
        with pytest.raises(BasisError):
            pvm_channel(rho, make_regions(64, 4))


class TestPointerKernel:
    def test_diagonal_value_is_one(self):
        kernel = pointer_kernel(PointerSpec(0.2), 256)
        assert kernel.values[0] == 1.0

    def test_direct_substitution_at_separation_five(self):
        kernel = pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), 256)
        assert kernel.values[5] == pytest.approx(np.exp(-0.25), rel=1e-12)

    def test_sharp_limit_kills_all_off_diagonals(self):
        kernel = pointer_kernel(PointerSpec(12.0), 256)
        assert kernel.values[1:].max() < 1e-15

    @pytest.mark.parametrize("convention", list(DistanceConvention))
    @pytest.mark.parametrize("alpha", [1e154, 1e200, np.finfo(float).max])
    def test_any_finite_alpha_gives_the_per_site_limit(self, alpha, convention):
        # The suite turns numpy's overflow RuntimeWarning into an error.
        kernel = pointer_kernel(PointerSpec(alpha, convention), 16)
        np.testing.assert_array_equal(kernel.values, np.eye(16)[0])

    def test_minimal_image_is_symmetric(self):
        kernel = pointer_kernel(PointerSpec(0.3), 64)
        np.testing.assert_allclose(kernel.values[1:], kernel.values[1:][::-1])

    def test_wide_pointer_on_small_ring_is_rejected(self):
        # the minimal-image kink leaves genuinely negative DFT components
        with pytest.raises(KernelNotPositiveError):
            pointer_kernel(PointerSpec(0.2), 64)

    def test_same_width_is_fine_under_linear_convention(self):
        pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), 64)

    @pytest.mark.parametrize("convention", list(DistanceConvention))
    def test_single_site_is_refused_by_the_kernel(self, convention):
        with pytest.raises(ValueError, match="one entry per site"):
            pointer_kernel(PointerSpec(0.2, convention), 1)


class TestDampingKernel:
    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="exactly 1"):
            DampingKernel(np.array([0.9, 0.5, 0.2, 0.5]))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            DampingKernel(np.array([1.0, 1.5, 0.1, 1.5]))

    @pytest.mark.parametrize("convention", list(DistanceConvention))
    def test_rejects_nan_values(self, convention):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            DampingKernel(np.array([1.0, np.nan, 0.1, np.nan]), convention)

    def test_rejects_asymmetric_minimal_image(self):
        with pytest.raises(ValueError, match="values\\[N-d\\]"):
            DampingKernel(np.array([1.0, 0.9, 0.5, 0.1]))

    def test_rejects_indefinite_kernel(self):
        with pytest.raises(KernelNotPositiveError):
            DampingKernel(np.array([1.0, 0.9, 0.1, 0.9]))

    def test_values_are_a_read_only_copy(self):
        """The PSD and [0, 1] checks hold for the kernel's life: its values
        cannot be written after them, and the caller's array stays writable."""
        with pytest.raises(ValueError, match="read-only"):
            pointer_kernel(PointerSpec(0.2), 256).values[1] = 5.0
        given = np.array([1.0, 0.5, 0.25, 0.5])
        kernel = DampingKernel(given)
        given[1] = 0.75
        assert kernel.values[1] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            kernel.values[1] = 0.75

    def test_linear_convention_toeplitz(self):
        kernel = DampingKernel(
            np.array([1.0, 0.5, 0.25, 0.125]), DistanceConvention.LINEAR
        )
        matrix = kernel.schur_matrix()
        assert matrix[0, 3] == 0.125
        assert matrix[2, 3] == 0.5
        np.testing.assert_array_equal(matrix, matrix.T)


class TestKernelChannel:
    def test_all_ones_kernel_is_identity(self):
        rho = make_random_density(32, np.random.default_rng(3))
        out = kernel_channel(rho, DampingKernel(np.ones(32)))
        np.testing.assert_array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("convention", list(DistanceConvention))
    def test_kernel_keeps_no_matrix_after_a_channel(self, convention):
        """The N x N damping matrix belongs to the call that builds it: a
        kernel holds no 2-D array after kernel_channel, only its values."""
        rho = make_random_density(16, np.random.default_rng(4))
        kernel = pointer_kernel(PointerSpec(1.0, convention), 16)
        kernel_channel(rho, kernel)
        held = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
        assert [a.ndim for a in held] == [1]

    def test_gaussian_kernels_compose(self):
        rho = make_random_density(64, np.random.default_rng(4))
        a1, a2 = 0.5, 0.6
        k1 = pointer_kernel(PointerSpec(a1), 64)
        k2 = pointer_kernel(PointerSpec(a2), 64)
        combined = pointer_kernel(PointerSpec(np.sqrt(a1**2 + a2**2)), 64)
        two_step = kernel_channel(kernel_channel(rho, k1), k2)
        one_step = kernel_channel(rho, combined)
        assert np.max(np.abs(two_step.entries - one_step.entries)) < 1e-12

    def test_diagonal_density_unchanged(self):
        diag = DensityMatrix(np.diag(np.full(64, 1 / 64)).astype(complex), Basis.POSITION)
        out = kernel_channel(diag, pointer_kernel(PointerSpec(0.5), 64))
        np.testing.assert_array_equal(out.entries, diag.entries)

    def test_trace_exact(self):
        rho = make_random_density(64, np.random.default_rng(5))
        out = kernel_channel(rho, pointer_kernel(PointerSpec(0.5), 64))
        np.testing.assert_array_equal(np.diagonal(out.entries), np.diagonal(rho.entries))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_purity_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        rho = make_random_density(64, rng)
        for out in (
            pvm_channel(rho, make_regions(64, 6)),
            kernel_channel(rho, pointer_kernel(PointerSpec(0.5), 64)),
        ):
            assert purity(out) <= purity(rho) + 1e-12

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_psd_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rho = make_random_density(64, rng)
        floor = rho.min_eigenvalue() - 1e-10
        assert pvm_channel(rho, make_regions(64, 6)).min_eigenvalue() >= floor
        assert kernel_channel(rho, pointer_kernel(PointerSpec(0.5), 64)).min_eigenvalue() >= floor

    def test_wrong_basis_raises(self):
        rho = DensityMatrix(np.eye(64) / 64, Basis.MOMENTUM)
        with pytest.raises(BasisError):
            kernel_channel(rho, pointer_kernel(PointerSpec(0.5), 64))


def test_sharp_pointer_matches_single_site_pvm():
    rho = make_random_density(64, np.random.default_rng(6))
    sharp = kernel_channel(rho, pointer_kernel(PointerSpec(12.0), 64))
    singleton = pvm_channel(rho, make_regions(64, 64))
    assert np.max(np.abs(sharp.entries - singleton.entries)) < 1e-15


def test_momentum_dist_after_kernel_is_circular_convolution():
    """The kernel acts on the momentum distribution as convolution with the
    kernel's DFT (real, symmetric, unit sum); computed here by direct
    summation as an independent cross-check."""
    n = 256
    rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(128, 8.0, 31), n))
    kernel = pointer_kernel(PointerSpec(0.2), n)
    before = momentum_distribution(rho)
    after = momentum_distribution(kernel_channel(rho, kernel))
    weights = np.array(
        [sum(kernel.values[d] * np.cos(2 * np.pi * q * d / n) for d in range(n)) / n for q in range(n)]
    )
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > -1e-12)
    convolved = np.array([np.dot(weights, before[(k - np.arange(n)) % n]) for k in range(n)])
    assert np.max(np.abs(after - convolved)) < 1e-12


def test_pointer_conserves_expected_momentum_away_from_wrap():
    n = 256
    rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(128, 8.0, 31), n))
    dist = momentum_distribution(rho)
    signed = signed_momentum_values(n)
    wrap_weight = float(dist[np.abs(signed) >= n // 2 - n // 8].sum())
    assert wrap_weight < 1e-8
    before = expected_momentum(dist)
    after = expected_momentum(
        momentum_distribution(kernel_channel(rho, pointer_kernel(PointerSpec(0.2), n)))
    )
    assert abs(after - before) < 1e-6 * abs(before)


def test_eigenstate_momentum_left_uniform_by_kernel():
    rho = density_from_pure(build_position_eigenstate(21, 64))
    out = kernel_channel(rho, pointer_kernel(PointerSpec(0.5), 64))
    np.testing.assert_allclose(momentum_distribution(out), 1 / 64, atol=1e-14)
