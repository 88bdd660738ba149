"""Cutoff profile, dyadic blocks, shell norms, and the lemma ratio checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nspbox import lp
from nspbox.lp import (
    ANNULUS_SUPPORT,
    PLATEAU_EDGES,
    bernstein_ratio,
    besov_norm,
    composition_check,
    dyadic_block,
    dyadic_spectrum,
    hybrid_norm,
    product_convolution_ratio,
    product_estimate_ratio,
    shell_filters,
    shell_range,
)
from nspbox.spectral import Grid, l2_norm, random_field

from conftest import constant, wave


class TestProfile:
    def test_plateau_values(self):
        r = np.array([0.0, 0.3, 0.75, 1.0, 4.0 / 3.0, 2.0, 10.0])
        psi = lp.psi(r)
        assert np.all(psi[r <= 0.75] == 1.0)
        assert np.all(psi[r >= 4.0 / 3.0] == 0.0)
        assert np.all((0.0 <= psi) & (psi <= 1.0))

    def test_psi_monotone_on_transition(self):
        r = np.linspace(*PLATEAU_EDGES, 500)
        psi = lp.psi(r)
        assert np.all(np.diff(psi) <= 1e-15)

    def test_psi_stays_in_unit_interval_on_transition(self):
        # the fixed-node ramp quotient rounds above 1 near the top of the band
        r = np.linspace(*PLATEAU_EDGES, 100001)
        psi = lp.psi(r)
        assert np.all((0.0 <= psi) & (psi <= 1.0))
        # lattice radii |xi| 2^-k where an unclamped ramp gives -2.2e-16 and -4.4e-16
        lattice = lp.psi(np.array([np.sqrt(113.0) / 8.0, np.sqrt(450.0) / 16.0]))
        assert np.all((0.0 <= lattice) & (lattice <= 1.0))

    def test_annulus_support(self):
        r = np.linspace(0.0, 4.0, 1000)
        phi = lp.phi(r)
        lo, hi = ANNULUS_SUPPORT
        outside = (r < lo) | (r > hi)
        assert np.all(phi[outside] == 0.0)
        assert np.all((0.0 <= phi) & (phi <= 1.0))
        assert np.all(phi[(r > 4.0 / 3.0) & (r < 1.5)] == 1.0)

    def test_partition_of_unity_log_sample(self):
        r = np.logspace(-2, 2, 400)
        total = np.zeros_like(r)
        for k in range(-9, 10):
            total += lp.phi(r * 2.0**-k)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_psi_against_independent_quadrature(self):
        # adaptive quadrature of the bump, independent of the fixed-node recipe
        def bump(x):
            return np.exp(-1.0 / (x * (1.0 - x))) if 0.0 < x < 1.0 else 0.0

        lo, hi = PLATEAU_EDGES
        norm, _ = quad(bump, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
        for r in (0.8, 1.0, 1.2, 1.3):
            tau = (r - lo) / (hi - lo)
            partial, _ = quad(bump, 0.0, tau, epsabs=1e-15, epsrel=1e-13)
            expected = 1.0 - partial / norm
            assert lp.psi(np.asarray(r)) == pytest.approx(expected, abs=1e-10)


class TestBlocks:
    def test_shell_range_covers_lattice(self, grid32):
        k_min, k_max = shell_range(grid32)
        assert 2.0**k_min * (8.0 / 3.0) >= grid32.xi_min
        assert 2.0**k_max * 0.75 <= grid32.xi_max
        # the next shell outward on either side misses the lattice entirely
        assert 2.0 ** (k_min - 1) * (8.0 / 3.0) < grid32.xi_min
        assert 2.0 ** (k_max + 1) * 0.75 > grid32.xi_max

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3", "grid32"])
    def test_shell_masks_in_unit_interval(self, grid_name, request):
        masks = shell_filters(request.getfixturevalue(grid_name)).masks
        assert np.all((0.0 <= masks) & (masks <= 1.0))

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3", "grid32"])
    def test_gathered_masks_equal_profile_on_lattice(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        filters = shell_filters(grid)
        for k in filters.ks:
            assert np.array_equal(filters.mask(k), lp.phi(grid.lam * 2.0**-k))

    def test_single_mode_block_value(self, grid3):
        f = wave(grid3, (1, 0, 0))
        out = dyadic_block(f, 0)
        expected = float(lp.phi(np.asarray(1.0)))
        assert np.max(np.abs(out.coef - expected * f.coef)) < 1e-15

    def test_constant_blocks_vanish(self, grid3):
        f = constant(grid3, 2.0)
        for k in shell_filters(grid3).ks:
            assert l2_norm(dyadic_block(f, k)) == 0.0

    def test_reconstruction_drops_mean(self, grid3):
        rng = np.random.default_rng(11)
        f = constant(grid3, 0.7) + random_field(grid3, 1, rng)
        total = sum(dyadic_block(f, k).coef for k in shell_filters(grid3).ks)
        target = f.coef.copy()
        target[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(total - target)) < 1e-10 * np.max(np.abs(target))

    def test_far_shells_do_not_overlap(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(12))
        ks = list(shell_filters(grid3).ks)
        for k in ks:
            for j in ks:
                if abs(j - k) >= 2:
                    assert l2_norm(dyadic_block(dyadic_block(f, k), j)) < 1e-12

    def test_out_of_range_shell_is_zero(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(13))
        assert l2_norm(dyadic_block(f, 40)) == 0.0
        assert l2_norm(dyadic_block(f, -40)) == 0.0

    def test_spectrum_almost_orthogonality(self, grid3):
        filters = shell_filters(grid3)
        nz = (grid3.lam > 0) & ~grid3.nyquist_mask
        sq_sum = (filters.masks**2).sum(axis=0)
        c_lo = float(np.min(sq_sum[nz]))
        c_hi = float(np.max(sq_sum[nz]))
        assert 0.5 - 1e-12 <= c_lo <= c_hi <= 1.0 + 1e-12
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = random_field(grid3, 1, rng)
            total = float(np.sum(dyadic_spectrum(f) ** 2))
            base = l2_norm(f) ** 2
            assert c_lo * base - 1e-12 <= total <= c_hi * base + 1e-12


class TestBesovNorm:
    def test_zero_field(self, grid3):
        from nspbox.spectral import SpectralField

        assert besov_norm(SpectralField.zeros(grid3), 1.0) == 0.0

    def test_single_mode_closed_form(self, grid3):
        # |xi| = 2 sits in at most two shells; sum the weighted profile values
        amp = 3.0
        f = wave(grid3, (2, 0, 0), amp=amp)
        s = 0.75
        mode_norm = amp / np.sqrt(2.0)
        expected = sum(
            2.0 ** (k * s) * float(lp.phi(np.asarray(2.0 * 2.0**-k))) * mode_norm
            for k in shell_filters(grid3).ks
        )
        assert besov_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_scaling(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(15))
        assert besov_norm(2.0 * f, 0.5) == pytest.approx(2.0 * besov_norm(f, 0.5), rel=1e-14)

    def test_zero_only_for_constants(self, grid3):
        assert besov_norm(constant(grid3, 5.0), 1.0) == 0.0
        f = random_field(grid3, 1, np.random.default_rng(16))
        assert besov_norm(f, 1.0) > 0.0

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), s=st.floats(-2.0, 2.0))
    def test_triangle_inequality(self, seed, s):
        grid = Grid(dim=2, size=16)
        rng = np.random.default_rng(seed)
        f, g = random_field(grid, 1, rng), random_field(grid, 1, rng)
        lhs = besov_norm(f + g, s)
        rhs = besov_norm(f, s) + besov_norm(g, s)
        assert lhs <= rhs + 1e-10 * max(rhs, 1.0)

    def test_vector_field_components_in_quadrature(self, grid3):
        # duplicating a scalar into two components scales the norm by sqrt(2)
        f = random_field(grid3, 1, np.random.default_rng(17))
        from nspbox.spectral import SpectralField

        doubled = SpectralField(grid3, np.concatenate([f.coef, f.coef]))
        assert besov_norm(doubled, 0.5) == pytest.approx(np.sqrt(2.0) * besov_norm(f, 0.5), rel=1e-12)


class TestHybridNorm:
    def test_equal_indices_match_besov_exactly(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(18))
        for s in (-1.0, 0.0, 1.5):
            assert hybrid_norm(f, (s, s)) == besov_norm(f, s)

    def test_high_frequency_field_ignores_low_index(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(19), xi_lo=8.0 / 3.0)
        vals = {s: hybrid_norm(f, (s, 1.0)) for s in (-3.0, 0.0, 5.0)}
        assert len(set(vals.values())) == 1

    def test_embedding_monotonicity_constant_one(self, grid3):
        rng = np.random.default_rng(20)
        for _ in range(10):
            f = random_field(grid3, 1, rng)
            s1, s2, t1, t2 = -0.5, 1.0, 2.0, 0.0
            assert hybrid_norm(f, (s2, t2)) <= hybrid_norm(f, (s1, t1)) * (1.0 + 1e-12)

    def test_index_validation(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(21))
        for bad in ((np.nan, 1.0), (0.5, np.inf), (-np.inf, 1.0)):
            with pytest.raises(ValueError, match="non-finite"):
                hybrid_norm(f, bad)
        # an index is any (s, t) pair: numpy scalars and lists read the same weights
        assert hybrid_norm(f, [np.float64(0.5), np.float64(1.5)]) == hybrid_norm(f, (0.5, 1.5))

    def test_norm_axioms_on_random_triples(self, grid3):
        rng = np.random.default_rng(27)
        idx = (-0.5, 1.5)
        for _ in range(10):
            f, g = random_field(grid3, 1, rng), random_field(grid3, 1, rng)
            lhs = hybrid_norm(f + g, idx)
            rhs = hybrid_norm(f, idx) + hybrid_norm(g, idx)
            assert lhs <= rhs + 1e-10 * max(rhs, 1.0)
            assert hybrid_norm(-1.5 * f, idx) == pytest.approx(1.5 * hybrid_norm(f, idx), rel=1e-12)


class TestBernstein:
    def test_unit_mode(self, grid3):
        assert bernstein_ratio(wave(grid3, (1, 0, 0)), 0) == pytest.approx(1.0, rel=1e-12)

    def test_double_mode(self, grid3):
        r = bernstein_ratio(wave(grid3, (2, 0, 0)), 1)
        assert r == pytest.approx(2.0, rel=1e-12)
        assert 1.5 <= r <= 16.0 / 3.0

    def test_bounds_on_random_fields(self, grid3):
        rng = np.random.default_rng(22)
        for _ in range(20):
            f = random_field(grid3, 1, rng)
            for k in shell_filters(grid3).ks:
                try:
                    ratio = bernstein_ratio(f, k)
                except ValueError:
                    continue
                assert 0.75 * 2.0**k <= ratio <= (8.0 / 3.0) * 2.0**k

    def test_zero_shell_rejected(self, grid3):
        with pytest.raises(ValueError, match="zero"):
            bernstein_ratio(wave(grid3, (1, 0, 0)), 5)


class TestProductRatio:
    def test_constant_factor_gives_ratio_one(self, grid3):
        f = random_field(grid3, 1, np.random.default_rng(23), xi_hi=4.0)
        ratio = product_estimate_ratio(f, constant(grid3, 1.0), (0.5, 1.5))
        assert ratio == pytest.approx(1.0, rel=1e-10)

    def test_single_mode_square_closed_form(self, grid3):
        # cos^2 x = 1/2 + cos(2x)/2: compare against the direct norm of that field
        f = wave(grid3, (1, 0, 0))
        idx = (0.5, 1.0)
        expected_num = hybrid_norm(constant(grid3, 0.5) + wave(grid3, (2, 0, 0), amp=0.5), idx)
        expected = expected_num / (2.0 * hybrid_norm(f, idx))
        assert product_estimate_ratio(f, f, idx) == pytest.approx(expected, rel=1e-12)

    def test_zero_field_rejected(self, grid3):
        from nspbox.spectral import SpectralField

        z = SpectralField.zeros(grid3)
        with pytest.raises(ValueError, match="denominator"):
            product_estimate_ratio(z, z, (0.5, 1.0))

    def test_ensemble_is_uniformly_bounded(self, grid3):
        from frozen import FROZEN

        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(50):
            f = random_field(grid3, 1, rng, xi_hi=grid3.xi_max / 3.0)
            g = random_field(grid3, 1, rng, xi_hi=grid3.xi_max / 3.0)
            worst = max(worst, product_estimate_ratio(f, g, (0.5, 1.5)))
        assert worst <= FROZEN["product_ratio_max"]


class TestTwoIndexProduct:
    def test_ratio_finite_on_random_pair(self, grid3):
        rng = np.random.default_rng(25)
        f = random_field(grid3, 1, rng, xi_hi=grid3.xi_max / 3.0)
        g = random_field(grid3, 1, rng, xi_hi=grid3.xi_max / 3.0)
        r = product_convolution_ratio(f, g, (1.0, 1.0), (1.0, 1.0))
        assert np.isfinite(r) and r > 0.0

    def test_inadmissible_indices_rejected(self, grid3):
        f = wave(grid3, (1, 0, 0))
        with pytest.raises(ValueError, match="admissible"):
            product_convolution_ratio(f, f, (-2.0, -2.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="admissible"):
            product_convolution_ratio(f, f, (5.0, 5.0), (1.0, 1.0))


class TestComposition:
    def test_linearization_limit(self, grid3):
        rho_bar = 1.0
        errors = []
        for eps in (1e-3, 1e-4):
            f = wave(grid3, (1, 0, 0), amp=eps)
            ratio = composition_check(f, 0.5, rho_bar)
            errors.append(abs(ratio - 1.0 / rho_bar))
        assert errors[0] <= 5e-3
        assert errors[1] <= errors[0] / 5.0

    def test_pole_rejected(self, grid3):
        f = wave(grid3, (1, 0, 0), amp=2.0)
        with pytest.raises(ValueError, match="pole"):
            composition_check(f, 0.5, rho_bar=1.0)

    def test_zero_field_rejected(self, grid3):
        from nspbox.spectral import SpectralField

        with pytest.raises(ValueError, match="zero"):
            composition_check(SpectralField.zeros(grid3), 0.5, rho_bar=1.0)

    def test_ensemble_is_bounded(self, grid3):
        from frozen import FROZEN

        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(50):
            f = random_field(grid3, 1, rng, xi_hi=grid3.xi_max / 3.0)
            peak = np.max(np.abs(f.to_physical()))
            f = f * (0.45 / peak)  # cap well below the rho_bar = 1 pole
            worst = max(worst, composition_check(f, 1.5, rho_bar=1.0))
        assert worst <= FROZEN["composition_ratio_max"]
