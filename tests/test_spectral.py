"""Transforms, multiplier operators, Poisson solve, and the Helmholtz split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nspbox.spectral import (
    BandTransform,
    Grid,
    SpectralField,
    apply_lambda,
    div_curl,
    helmholtz_decompose,
    helmholtz_recompose,
    l2_norm,
    random_field,
    transform_to_physical,
    transform_to_spectral,
)

from nspbox import model
from nspbox.model import FluidParams

from analysis import curl, divergence, gradient, inner, meshed_lattice, poisson_solve
from conftest import antisym_divergence, constant, dealias_mask, hermitian_defect, wave
from test_model import bits


def keep_mask(grid: Grid) -> np.ndarray:
    """Float mask that keeps everything except Nyquist planes."""
    return np.where(grid.nyquist_mask, 0.0, 1.0)


def hermitian_symmetrize(f: SpectralField) -> SpectralField:
    """Average the last-axis zero plane with its conjugate mirror."""
    from nspbox.spectral import _symmetrize_zero_plane

    return SpectralField(f.grid, _symmetrize_zero_plane(f.grid, f.coef.copy()))


def random_field_oracle(grid: Grid, ncomp: int, rng, xi_lo=0.0, xi_hi=None, spectrum=None) -> np.ndarray:
    """`random_field`'s coefficients derived from its own broadcast 1-D frequencies and a per-axis Nyquist test."""
    if xi_hi is None:
        xi_hi = grid.xi_max
    size, half = grid.size, grid.size // 2 + 1
    freq = 2.0 * np.pi / grid.length * np.fft.fftfreq(size, d=1.0 / size)
    axes = [x.reshape((-1,) + (1,) * (grid.dim - 1 - i)) for i, x in enumerate([freq] * (grid.dim - 1) + [freq[:half]])]
    lam = np.sqrt(sum(x * x for x in axes))
    band = (lam > xi_lo) & (lam <= xi_hi)
    for x in axes:
        band &= x != freq[size // 2]
    band[(0,) * grid.dim] = False
    shape = (ncomp,) + grid.shape
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lead = tuple(range(1, grid.dim))
    mirror = np.roll(np.flip(coef[..., -np.arange(half) % size], axis=lead), shift=1, axis=lead)
    coef = coef[..., :half] * band
    mirror *= band
    if spectrum is not None:
        coef *= spectrum(lam)
        mirror *= spectrum(lam)
    return 0.5 * (coef + np.conj(mirror))


BAND_GRIDS = {f"{dim}d-M{size}": Grid(dim=dim, size=size) for dim in (2, 3) for size in (8, 16, 32, 64)}
BAND_GRIDS["4d-M8"] = Grid(dim=4, size=8)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(dim=3, size=12)
        with pytest.raises(ValueError):
            Grid(dim=3, size=4)
        with pytest.raises(ValueError, match="at least 2"):
            Grid(dim=1, size=16)
        with pytest.raises(ValueError):
            Grid(dim=3, size=16, length=-1.0)

    def test_lattice_symmetry_without_nyquist(self, grid3):
        # on the last-axis zero plane, every surviving wavenumber has its negative
        keep = keep_mask(grid3)[..., 0] > 0
        for xi in grid3.wavenumbers:
            plane = np.broadcast_to(xi, grid3.spectral_shape)[..., 0]
            flipped = np.roll(np.flip(plane, axis=(0, 1)), 1, axis=(0, 1))
            assert np.array_equal(plane[keep], -flipped[keep])

    @pytest.mark.parametrize("length", [2.0 * np.pi, 3.0], ids=["2pi", "3"])
    @pytest.mark.parametrize("size", [8, 16, 32])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_lattice_tables_equal_the_meshed_oracle(self, dim, size, length):
        # the open wavenumber axes broadcast to the tables a meshed lattice gives, bit for bit
        grid = Grid(dim, size, length)
        params = FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=dim)
        want = meshed_lattice(grid, params)
        assert all(x.ndim == dim and x.size == grid.spectral_shape[i] for i, x in enumerate(grid.wavenumbers))
        mult = model._rhs_multipliers(grid, params)
        got = {
            "lam_sq": grid.lam_sq,
            "lam": grid.lam,
            "radii": grid.radii,
            "radial_index": grid.radial_index,
            "nyquist_mask": grid.nyquist_mask,
            "ixi": np.stack(np.broadcast_arrays(*grid.ixi)),
            "riesz": grid.riesz,
            "visc_grad": np.stack([mult.visc_grad(k, out=np.empty(grid.spectral_shape)) for k in range(dim)]),
            "band_ixi": np.stack(np.broadcast_arrays(*mult.ixi_m)),
        }
        for name, table in want.items():
            assert got[name].shape == table.shape, name
            assert got[name].dtype == table.dtype, name
            assert bits(got[name]) == bits(table), name

    def test_half_lattice_layout(self, grid3):
        assert grid3.spectral_shape == (16, 16, 9)
        assert grid3.lam.shape == dealias_mask(grid3).shape == grid3.spectral_shape
        assert list(grid3.hermitian_weight) == [1.0] + [2.0] * 7 + [1.0]

    def test_xi_extremes(self, grid3):
        assert grid3.xi_min == pytest.approx(1.0)
        assert grid3.xi_max == pytest.approx(np.sqrt(3) * 7.0)


class TestTransforms:
    def test_round_trip_is_identity(self, grid3):
        rng = np.random.default_rng(0)
        f = random_field(grid3, 1, rng)
        back = transform_to_spectral(grid3, transform_to_physical(f))
        assert np.max(np.abs(back.coef - f.coef)) < 1e-12

    def test_parseval(self, grid3):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = random_field(grid3, 1, rng)
            phys = transform_to_physical(f)
            phys_norm = np.sqrt(np.mean(phys**2))
            assert abs(phys_norm - l2_norm(f)) < 1e-10 * phys_norm

    def test_impulse_has_flat_spectrum(self, grid3):
        values = np.zeros(grid3.shape)
        values[0, 0, 0] = 1.0
        f = transform_to_spectral(grid3, values)
        flat = 1.0 / grid3.size**3
        on = ~grid3.nyquist_mask
        assert np.allclose(f.coef[0][on], flat, atol=1e-15)
        assert np.all(f.coef[0][grid3.nyquist_mask] == 0)

    def test_random_field_is_hermitian_and_nyquist_free(self, grid3):
        f = random_field(grid3, 3, np.random.default_rng(2))
        assert hermitian_defect(f) < 1e-12
        assert np.all(f.coef[:, grid3.nyquist_mask] == 0)
        phys = transform_to_physical(f)
        assert phys.dtype == np.float64

    @pytest.mark.parametrize(
        "band", [{}, {"xi_lo": 1.5, "xi_hi": 5.0}, {"spectrum": lambda lam: np.exp(-lam)},
                 {"xi_lo": 2.0, "spectrum": lambda lam: 1.0 / (1.0 + lam**2)}],
        ids=["plain", "band", "spectrum", "band-spectrum"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("grid", [Grid(2, 16), Grid(3, 16), Grid(3, 8, 3.0)], ids=["2d", "3d", "3d-L3"])
    def test_random_field_equals_its_full_lattice_derivation(self, grid, seed, band):
        got = random_field(grid, grid.dim, np.random.default_rng(seed), **band)
        want = random_field_oracle(grid, grid.dim, np.random.default_rng(seed), **band)
        assert bits(got.coef) == bits(want)

    def test_shape_mismatch_rejected(self, grid3):
        with pytest.raises(ValueError):
            transform_to_spectral(grid3, np.zeros((8, 8, 8)))

    @pytest.mark.parametrize("grid_name", list(BAND_GRIDS))
    def test_inverse_matches_complex_transform(self, grid_name):
        grid = BAND_GRIDS[grid_name]
        f = random_field(grid, 3, np.random.default_rng(4))
        axes = tuple(range(1, grid.dim + 1))
        expected = np.fft.ifftn(_full_lattice(f) * grid.size**grid.dim, axes=axes).real
        out = transform_to_physical(f)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("grid_name", list(BAND_GRIDS))
    def test_forward_matches_complex_transform_and_is_hermitian(self, grid_name):
        grid = BAND_GRIDS[grid_name]
        values = np.random.default_rng(5).standard_normal((3,) + grid.shape)
        axes = tuple(range(1, grid.dim + 1))
        full = np.fft.fftn(values, axes=axes) / grid.size**grid.dim
        expected = full[..., : grid.size // 2 + 1] * keep_mask(grid)
        f = transform_to_spectral(grid, values)
        assert np.max(np.abs(f.coef - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert hermitian_defect(f) == 0.0


def _full_lattice(f: SpectralField) -> np.ndarray:
    """The full-lattice coefficients: the stored half plus the conjugate mirror of the rest."""
    grid = f.grid
    axes = tuple(range(1, grid.dim + 1))
    full = np.zeros((f.ncomp,) + grid.shape, dtype=np.complex128)
    full[..., : grid.size // 2 + 1] = f.coef
    mirror = np.conj(np.roll(np.flip(full, axis=axes), 1, axis=axes))
    upper = slice(grid.size // 2 + 1, None)
    full[..., upper] = mirror[..., upper]
    return full


class TestApplyLambda:
    def test_unit_mode_any_power_unchanged(self, grid3):
        f = wave(grid3, (1, 0, 0))
        out = apply_lambda(f, 2.0)
        assert np.max(np.abs(out.coef - f.coef)) < 1e-15

    def test_constant_maps_to_zero_for_negative_power(self, grid3):
        f = constant(grid3, 1.0)
        out = apply_lambda(f, -1.0)
        assert l2_norm(out) == 0.0

    def test_cos_two_x_first_power(self, grid3):
        # |xi| = 2 on both conjugate modes
        f = wave(grid3, (2, 0, 0))
        out = apply_lambda(f, 1.0)
        expected = wave(grid3, (2, 0, 0), amp=2.0)
        assert np.max(np.abs(out.coef - expected.coef)) < 1e-14

    def test_zero_power_keeps_mean(self, grid3):
        f = constant(grid3, 3.0)
        assert np.max(np.abs(apply_lambda(f, 0.0).coef - f.coef)) == 0.0

    @pytest.mark.parametrize("s", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    def test_round_trip_on_mean_free_fields(self, grid3, s):
        rng = np.random.default_rng(int(10 * abs(s)) + 3)
        for _ in range(10):
            f = random_field(grid3, 1, rng)
            back = apply_lambda(apply_lambda(f, s), -s)
            assert np.max(np.abs(back.coef - f.coef)) < 1e-10 * np.max(np.abs(f.coef))

    def test_non_finite_exponent_rejected(self, grid3):
        f = wave(grid3, (1, 0, 0))
        with pytest.raises(ValueError):
            apply_lambda(f, np.nan)
        with pytest.raises(ValueError):
            apply_lambda(f, np.inf)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(s=st.floats(min_value=-2.5, max_value=2.5), seed=st.integers(0, 2**16))
    def test_homogeneity_property(self, s, seed):
        grid = Grid(dim=2, size=16)
        f = random_field(grid, 1, np.random.default_rng(seed))
        assert l2_norm(apply_lambda(2.0 * f, s)) == pytest.approx(
            2.0 * l2_norm(apply_lambda(f, s)), rel=1e-12
        )


class TestPoisson:
    def test_cos_mode(self, grid3):
        phi = poisson_solve(wave(grid3, (1, 0, 0)))
        expected = wave(grid3, (1, 0, 0), amp=-1.0)
        assert np.max(np.abs(phi.coef - expected.coef)) < 1e-14

    def test_zero_source(self, grid3):
        phi = poisson_solve(SpectralField.zeros(grid3))
        assert l2_norm(phi) == 0.0

    def test_two_mode_source(self, grid3):
        theta = wave(grid3, (1, 0, 0)) + wave(grid3, (0, 2, 0))
        phi = poisson_solve(theta)
        expected = wave(grid3, (1, 0, 0), amp=-1.0) + wave(grid3, (0, 2, 0), amp=-0.25)
        assert np.max(np.abs(phi.coef - expected.coef)) < 1e-14

    def test_residual_on_random_source(self, grid3):
        theta = random_field(grid3, 1, np.random.default_rng(4))
        phi = poisson_solve(theta)
        residual = SpectralField(grid3, -grid3.lam_sq * phi.coef) - theta
        assert l2_norm(residual) < 1e-10 * l2_norm(theta)

    def test_mean_rejected(self, grid3):
        theta = constant(grid3, 1.0) + wave(grid3, (1, 0, 0))
        with pytest.raises(ValueError, match="charge"):
            poisson_solve(theta)

    def test_output_mean_free_and_parity_preserved(self, grid3):
        phi = poisson_solve(wave(grid3, (3, 1, 0)))
        assert np.max(np.abs(phi.zero_mode())) == 0.0
        vals = transform_to_physical(phi)[0]
        flipped = np.roll(vals[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
        assert np.max(np.abs(vals - flipped)) < 1e-12  # even source -> even solution

        odd = poisson_solve(wave(grid3, (2, 0, 1), kind="sin"))
        vals = transform_to_physical(odd)[0]
        flipped = np.roll(vals[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
        assert np.max(np.abs(vals + flipped)) < 1e-12


class TestHelmholtz:
    def test_gradient_field_has_no_rotational_part(self, grid3):
        g = random_field(grid3, 1, np.random.default_rng(5))
        c, I = helmholtz_decompose(gradient(g))
        assert l2_norm(I) < 1e-12 * max(l2_norm(c), 1e-30)
        expected_c = -1.0 * apply_lambda(g, 1.0)
        assert np.max(np.abs(c.coef - expected_c.coef)) < 1e-10 * np.max(np.abs(expected_c.coef))

    def test_divergence_free_2d_field_has_no_compressible_part(self, grid2):
        psi = random_field(grid2, 1, np.random.default_rng(6))
        xi = grid2.wavenumbers
        u = SpectralField(grid2, np.stack([-1j * xi[1] * psi.coef[0], 1j * xi[0] * psi.coef[0]]))
        c, I = helmholtz_decompose(u)
        assert l2_norm(c) < 1e-12 * l2_norm(u)
        back = helmholtz_recompose(c, I)
        assert np.max(np.abs(back.coef - u.coef)) < 1e-10 * np.max(np.abs(u.coef))

    def test_shear_mode_3d(self, grid3):
        u = SpectralField.zeros(grid3, 3)
        shear = wave(grid3, (0, 1, 0), kind="sin")  # u = (sin x2, 0, 0)
        u = SpectralField(grid3, np.concatenate([shear.coef, np.zeros((2,) + grid3.spectral_shape)]))
        c, I = helmholtz_decompose(u)
        assert l2_norm(c) < 1e-13
        back = helmholtz_recompose(c, I)
        assert np.max(np.abs(back.coef - u.coef)) < 1e-10

    def test_round_trip_random(self, grid3):
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = random_field(grid3, 3, rng)
            back = helmholtz_recompose(*helmholtz_decompose(u))
            assert np.max(np.abs(back.coef - u.coef)) < 1e-10 * np.max(np.abs(u.coef))

    def test_zero_pair_recomposes_to_zero(self, grid3):
        assert l2_norm(helmholtz_recompose(SpectralField.zeros(grid3), SpectralField.zeros(grid3, 3))) == 0.0

    def test_part_orthogonality(self, grid3):
        u = random_field(grid3, 3, np.random.default_rng(8))
        c, I = helmholtz_decompose(u)
        grad_part = helmholtz_recompose(c, SpectralField.zeros(grid3, 3))
        sol_part = helmholtz_recompose(SpectralField.zeros(grid3), I)
        ip = abs(inner(grad_part, sol_part))
        assert ip < 1e-10 * l2_norm(grad_part) * l2_norm(sol_part)

    def test_div_div_antisymmetric_vanishes(self, grid3):
        u = random_field(grid3, 3, np.random.default_rng(9))
        _, I = helmholtz_decompose(u)
        dd = divergence(antisym_divergence(I))
        assert l2_norm(dd) < 1e-12 * max(l2_norm(I), 1e-30)

    def test_single_mode_potential_gives_curl_free_velocity(self, grid3):
        c = wave(grid3, (2, 1, 0))
        u = helmholtz_recompose(c, SpectralField.zeros(grid3, 3))
        assert l2_norm(curl(u)) < 1e-12 * l2_norm(u)

    def test_mean_velocity_rejected(self, grid3):
        u = random_field(grid3, 3, np.random.default_rng(10))
        coef = u.coef.copy()
        coef[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean-free"):
            helmholtz_decompose(SpectralField(grid3, coef))


DIV_CURL_GRIDS = {f"{dim}d-M{size}": Grid(dim=dim, size=size) for dim in (2, 3) for size in (8, 16, 32)}
DIV_CURL_GRIDS["4d-M8"] = Grid(dim=4, size=8)


@pytest.mark.parametrize("grid_name", sorted(DIV_CURL_GRIDS))
def test_div_curl_matches_divergence_and_curl(grid_name):
    # the solver's one div/curl against the test-side operators: exact with d_j, 1e-14 with Lambda^-1 d_j
    grid = DIV_CURL_GRIDS[grid_name]
    v = random_field(grid, grid.dim, np.random.default_rng(11))
    div, rot = divergence(v), curl(v)
    assert np.array_equal(div_curl(grid.ixi, v.coef), np.concatenate([div.coef, rot.coef]))
    lifted = np.concatenate([apply_lambda(div, -1.0).coef, apply_lambda(rot, -1.0).coef])
    assert np.max(np.abs(div_curl(grid.riesz, v.coef) - lifted)) <= 1e-14 * np.max(np.abs(lifted))


HALF_GRIDS = {"grid2": Grid(dim=2, size=16), "grid3": Grid(dim=3, size=16), "grid4": Grid(dim=4, size=8)}
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)


@pytest.mark.parametrize("grid_name", sorted(HALF_GRIDS))
class TestHalfLatticeProperties:
    """Invariants of half-lattice storage on random fields."""

    @PROPERTY
    @given(seed=st.integers(0, 2**16), ncomp=st.integers(1, 3))
    def test_norm_and_inner_match_physical_means(self, grid_name, seed, ncomp):
        grid = HALF_GRIDS[grid_name]
        rng = np.random.default_rng(seed)
        f, g = random_field(grid, ncomp, rng), random_field(grid, ncomp, rng)
        fp, gp = f.to_physical(), g.to_physical()
        mean_sq = np.sum(np.mean(fp**2, axis=tuple(range(1, grid.dim + 1))))
        assert abs(l2_norm(f) ** 2 - mean_sq) <= 1e-13 * mean_sq
        mean_fg = np.sum(np.mean(fp * gp, axis=tuple(range(1, grid.dim + 1))))
        assert abs(inner(f, g) - mean_fg) <= 1e-13 * l2_norm(f) * l2_norm(g)

    @PROPERTY
    @given(seed=st.integers(0, 2**16))
    def test_forward_transform_is_exactly_hermitian(self, grid_name, seed):
        grid = HALF_GRIDS[grid_name]
        values = np.random.default_rng(seed).standard_normal((2,) + grid.shape)
        assert hermitian_defect(transform_to_spectral(grid, values)) == 0.0

    @PROPERTY
    @given(seed=st.integers(0, 2**16))
    def test_symmetrize_repairs_the_zero_plane(self, grid_name, seed):
        grid = HALF_GRIDS[grid_name]
        rng = np.random.default_rng(seed)
        f = random_field(grid, 2, rng)
        coef = f.coef.copy()
        coef[..., 0] += rng.standard_normal(coef[..., 0].shape)
        broken = SpectralField(grid, coef)
        assert hermitian_defect(broken) > 0.0
        fixed = hermitian_symmetrize(broken)
        assert hermitian_defect(fixed) == 0.0
        assert np.array_equal(fixed.coef[..., 1:], broken.coef[..., 1:])

    @PROPERTY
    @given(seed=st.integers(0, 2**16))
    def test_helmholtz_round_trip(self, grid_name, seed):
        grid = HALF_GRIDS[grid_name]
        u = random_field(grid, grid.dim, np.random.default_rng(seed))
        back = helmholtz_recompose(*helmholtz_decompose(u))
        assert np.max(np.abs(back.coef - u.coef)) <= 1e-13 * np.max(np.abs(u.coef))

    @PROPERTY
    @given(seed=st.integers(0, 2**16), n=st.floats(min_value=1.01, max_value=16.0))
    def test_projection_is_idempotent(self, grid_name, seed, n):
        from nspbox.stepper import FriedrichsProjector

        grid = HALF_GRIDS[grid_name]
        project = FriedrichsProjector(grid, n)
        once = project(random_field(grid, 2, np.random.default_rng(seed)))
        assert np.array_equal(project(once).coef, once.coef)

    @PROPERTY
    @given(seed=st.integers(0, 2**16), ncomp=st.integers(1, 3))
    def test_shell_spectrum_equals_block_norms(self, grid_name, seed, ncomp):
        from nspbox.lp import dyadic_block, dyadic_spectrum, shell_filters

        grid = HALF_GRIDS[grid_name]
        f = random_field(grid, ncomp, np.random.default_rng(seed))
        for k, norm in zip(shell_filters(grid).ks, dyadic_spectrum(f)):
            assert abs(norm - l2_norm(dyadic_block(f, int(k)))) <= 1e-13 * l2_norm(f)


# both widths in use: the two-thirds-rule band (m = size // 3) and the full half lattice (m = size // 2)
BAND_CASES = {name: (grid, grid.size // 3) for name, grid in BAND_GRIDS.items()} | {
    f"{name}-full": (grid, grid.size // 2) for name, grid in BAND_GRIDS.items()
}


def band_index(grid: Grid, m: int) -> tuple:
    """Index of the band of half-width m in a (ncomp, *spectral_shape) array: 0..m and -n..-1 per lead axis."""
    n = min(m, grid.size - m - 1)
    lead = np.r_[0 : m + 1, grid.size - n : grid.size]
    return (slice(None),) + np.ix_(*[lead] * (grid.dim - 1), np.arange(m + 1))


@pytest.mark.parametrize("case", list(BAND_CASES))
class TestBandTransform:
    """The band transforms are the full ones restricted to their band, bit for bit."""

    @staticmethod
    def make(case, ncomp=7):
        grid, m = BAND_CASES[case]
        return grid, BandTransform(grid, ncomp, m), band_index(grid, m)

    def test_band_layout(self, case):
        # the two-thirds band is the one `Grid.to_band` gathers; the widest band is the half lattice
        grid, work, index = self.make(case)
        coef = np.arange(np.prod(grid.spectral_shape)).reshape((1,) + grid.spectral_shape)
        gathered = {grid.size // 3: grid.to_band(coef), grid.size // 2: coef}[work.m]
        assert np.array_equal(coef[index], gathered)
        assert work.shape == gathered.shape[1:] and work.inverse_input(3).shape == (3,) + work.shape

    @PROPERTY
    @given(seed=st.integers(0, 2**16), ncomp=st.integers(1, 7))
    def test_inverse_equals_full_transform_of_band_limited_field(self, case, seed, ncomp):
        grid, work, index = self.make(case)
        coef = random_field(grid, ncomp, np.random.default_rng(seed)).coef
        limited = np.zeros_like(coef)
        limited[index] = coef[index]
        full = transform_to_physical(SpectralField(grid, limited))
        assert work.to_physical(coef[index]).tobytes() == full.tobytes()

    @PROPERTY
    @given(seed=st.integers(0, 2**16), ncomp=st.integers(1, 7))
    def test_forward_equals_full_transform_on_the_band(self, case, seed, ncomp):
        # the full transform zeroes the Nyquist planes, which only the full width holds
        grid, work, index = self.make(case)
        values = np.random.default_rng(seed).standard_normal((ncomp,) + grid.shape)
        band = work.to_spectral(values)
        nyquist = np.broadcast_to(grid.nyquist_mask, (ncomp,) + grid.spectral_shape)[index]
        assert np.where(nyquist, 0.0, band).tobytes() == transform_to_spectral(grid, values).coef[index].tobytes()
        scattered = np.zeros((ncomp,) + grid.spectral_shape, dtype=np.complex128)
        scattered[index] = band
        assert hermitian_defect(SpectralField(grid, scattered)) == 0.0

    def test_buffers_are_reused_across_calls_and_sizes(self, case):
        # one workspace serves both directions and every batch size up to its own
        grid, work, index = self.make(case)
        rng = np.random.default_rng(7)
        for ncomp in (7, 2, 5, 1):
            values = rng.standard_normal((ncomp,) + grid.shape)
            band = random_field(grid, ncomp, rng).coef[index]
            alone = self.make(case, ncomp)[1]
            assert work.to_spectral(values).tobytes() == alone.to_spectral(values).tobytes()
            assert work.to_physical(band).tobytes() == alone.to_physical(band).tobytes()

    def test_filling_the_input_in_place_matches_a_fresh_array(self, case):
        # after a forward has left its output in the buffer, as in a step
        grid, work, index = self.make(case)
        rng = np.random.default_rng(8)
        band = random_field(grid, 5, rng).coef[index]
        fresh = work.to_physical(band)
        work.to_spectral(rng.standard_normal((7,) + grid.shape))
        view = work.inverse_input(5)
        view[...] = band
        assert work.to_physical(view).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("size", [8, 16, 32, 64])
def test_band_is_the_dealias_support(dim, size):
    # the two-thirds rule: every integer |k_i| <= size/3 (so no Nyquist plane), on the half lattice
    grid = Grid(dim=dim, size=size)
    k = np.abs(np.fft.fftfreq(size, 1.0 / size))
    mesh = np.meshgrid(*[k] * (dim - 1), k[: size // 2 + 1], indexing="ij")
    kept = np.logical_and.reduce([k_i <= size / 3 for k_i in mesh])
    assert np.array_equal(dealias_mask(grid), np.where(kept, 1.0, 0.0))
    assert np.array_equal(grid.to_band(np.where(kept, 1.0, 0.0)), np.ones(grid.band_shape))
    coef = np.ones((2,) + grid.spectral_shape, dtype=np.complex128)
    grid.add_band(coef, np.ones((2,) + grid.band_shape))  # adds on the band, leaves the rest
    assert np.array_equal(coef, np.broadcast_to(1.0 + kept, coef.shape))
    assert np.prod(grid.band_shape) == np.count_nonzero(kept)
