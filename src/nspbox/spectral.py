"""Periodic-grid Fourier fields and the multiplier operators built on them.

Everything lives on the torus [0, L)^dim with an FFT-layout integer lattice
scaled by 2*pi/L.  Coefficients use the Fourier-series normalization
(coef = fftn(values) / M^dim), so a single mode ``a*cos(x1)`` carries
coefficient a/2 at each conjugate lattice point and the L2 norm below is the
volume-normalized one: ``l2_norm(f)**2 == mean(|f|^2)`` by Parseval.

Half-lattice storage: every field is the spectrum of a real field, so only
the ``rfftn`` half of the lattice is stored, shape
``Grid.spectral_shape == (M,)*(dim-1) + (M//2+1,)``: the last axis keeps the
wavenumbers 0..M/2 and every other xi is the conjugate mirror of a stored
one.  The transforms are ``numpy.fft`` passes on that layout, written once
in `BandTransform`: ``rfft`` along the last axis, then c2c ``fft`` over the
other spatial axes in ascending order, in place (``out=``); the inverse
runs the ``ifft`` passes in the same order, then ``irfft``.
`transform_to_physical` and `transform_to_spectral` are its widest band,
the whole half lattice, on a fresh instance.  Hermitian
symmetry coef(-xi) == conj(coef(xi)) then holds by construction except on
the last-axis zero plane, the one stored plane that holds both xi and -xi;
the forward transform symmetrizes it.  Sums over the full lattice become
weighted sums over the half: ``Grid.hermitian_weight`` counts each stored
mode once on the last-axis zero (and Nyquist) plane and twice on the
interior planes, which carry their unstored mirrors.  `l2_norm` and
`Grid.radial_sum` use it; pointwise multipliers need no weight.

Radial table: Littlewood-Paley cutoffs, shell energy forms, the linear
propagators and the form bounds depend on |xi| alone, so they are evaluated
once per distinct |xi| (``Grid.radii``, 464 values for the 17,408 stored
modes of a 3D M=32 grid) and gathered with ``Grid.radial_index``;
``Grid.radial_sum`` reduces a per-mode array onto the same radii.

Dealiased band: the two-thirds rule keeps |k_i| <= size/3 on every axis,
the box ``Grid.band_shape`` (2m+1 lead wavenumbers [0..m, -m..-1], 0..m
last, m = size // 3).  `Grid.to_band` gathers a half-lattice array onto it
and `Grid.add_band` adds a band array into one.  `BandTransform` at that
m maps it to and from physical space with the passes of the full
transforms, less the all-zero ones, in one buffer it owns.

Div and curl: `div_curl` forms the rows sum_j s_j v_j and s_j v_i - s_i v_j
(i < j) of a stack v for a symbol stack s: div v and curl v with `Grid.ixi`,
Lambda^-1 div v and Lambda^-1 curl v with `Grid.riesz`.

Zero-mode convention: fractional powers of the Laplacian and every inverse
operator (Lambda^-1 gradients/divergences) annihilate the zero mode.
Nyquist planes are zeroed on construction, so every multiplier acts on the
data-carrying, exactly Hermitian lattice only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy >= 2 loads fft and random on first use; load them with the package, not inside a driver
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "Grid",
    "SpectralField",
    "antisym_pairs",
    "apply_lambda",
    "div_curl",
    "helmholtz_decompose",
    "helmholtz_recompose",
    "transform_to_physical",
    "transform_to_spectral",
    "l2_norm",
    "linf_norm",
    "BandTransform",
    "random_field",
    "MEAN_FREE_RTOL",
]

# Relative tolerance on the zero mode for operators that require mean-free input.
MEAN_FREE_RTOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with its wavenumber lattice.

    Parameters
    ----------
    dim : 2 or 3.  Three is the physically meaningful case; two is a cheap
        testing mode.
    size : points per axis, a power of two >= 8.
    length : box edge, default 2*pi so the lattice is the integer one.
    """

    dim: int
    size: int
    length: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {self.dim}")
        if self.size < 8 or self.size & (self.size - 1):
            raise ValueError(f"grid size must be a power of two >= 8, got {self.size}")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"box length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        """Physical grid shape."""
        return (self.size,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Half-lattice shape of the stored coefficients: the last axis keeps 0..size/2."""
        return (self.size,) * (self.dim - 1) + (self.size // 2 + 1,)

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @cached_property
    def _freq1d(self) -> np.ndarray:
        # integer FFT frequencies scaled to physical wavenumbers
        return 2.0 * np.pi / self.length * np.fft.fftfreq(self.size, d=1.0 / self.size)

    def _mesh(self, per_axis: np.ndarray) -> list[np.ndarray]:
        """A full-lattice 1-D axis array meshed over the half lattice, one array per axis."""
        axes = [per_axis] * (self.dim - 1) + [per_axis[: self.size // 2 + 1]]
        return np.meshgrid(*axes, indexing="ij")

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Meshed wavenumber arrays xi_i, one per axis, each of shape `spectral_shape`."""
        return tuple(self._mesh(self._freq1d))

    @cached_property
    def lam_sq(self) -> np.ndarray:
        return sum(x * x for x in self.wavenumbers)

    @cached_property
    def lam(self) -> np.ndarray:
        """|xi| on the half lattice."""
        return np.sqrt(self.lam_sq)

    @cached_property
    def radii_sq(self) -> np.ndarray:
        """Distinct |xi|^2 on the half lattice, ascending: ``radii_sq[radial_index] == lam_sq``."""
        flat = np.sort(self.lam_sq, axis=None)  # np.unique would import numpy.ma on first use
        return flat[np.r_[True, flat[1:] != flat[:-1]]]

    @cached_property
    def radial_index(self) -> np.ndarray:
        """Position of each stored mode's |xi| in `radii`, shape `spectral_shape`."""
        return np.searchsorted(self.radii_sq, self.lam_sq)

    @cached_property
    def radii(self) -> np.ndarray:
        """Distinct |xi| on the half lattice, ascending: ``radii[radial_index] == lam``."""
        return np.sqrt(self.radii_sq)

    def radial_sum(self, values: np.ndarray) -> np.ndarray:
        """Full-lattice sum of a per-mode array over each distinct |xi|, one entry per `radii`.

        The stored modes are weighted by `hermitian_weight`, so a sum of
        ``|coef|^2`` over the result is a squared L2 norm.
        """
        weighted = 2.0 * values  # == hermitian_weight * values, without a slow short-axis broadcast
        weighted[..., 0], weighted[..., -1] = values[..., 0], values[..., -1]
        return np.bincount(self.radial_index.ravel(), weights=weighted.ravel(), minlength=self.radii_sq.size)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True where any axis sits on the (zeroed-by-convention) Nyquist plane."""
        return np.logical_or.reduce(self._mesh(np.arange(self.size) == self.size // 2))

    @cached_property
    def _nyquist_planes(self) -> tuple[tuple, ...]:
        """Index of each axis's Nyquist plane in a (ncomp, *spectral_shape) array."""
        return tuple((slice(None),) * (1 + axis) + (self.size // 2,) for axis in range(self.dim))

    @property
    def band_shape(self) -> tuple[int, ...]:
        """The two-thirds-rule band, m = size // 3: 2m+1 wavenumbers [0..m, -m..-1] per lead axis, 0..m last."""
        m = self.size // 3
        return (2 * m + 1,) * (self.dim - 1) + (m + 1,)

    @cached_property
    def _band_flat(self) -> np.ndarray:
        m = self.size // 3
        lead = np.r_[0 : m + 1, self.size - m : self.size]
        return np.ravel_multi_index(np.ix_(*[lead] * (self.dim - 1), np.arange(m + 1)), self.spectral_shape)

    def to_band(self, coef: np.ndarray) -> np.ndarray:
        """Gather a (..., *spectral_shape) array onto the band, shape (..., *band_shape)."""
        return coef.reshape(coef.shape[: coef.ndim - self.dim] + (-1,))[..., self._band_flat]

    def add_band(self, coef: np.ndarray, band: np.ndarray) -> None:
        """Add (ncomp, *band_shape) coefficients into a C-contiguous (ncomp, *spectral_shape) array, in place.

        One unbuffered `np.add.at` a row, which gathers and scatters no temporary.
        """
        flat = self._band_flat.ravel()
        for row, add in zip(coef.reshape(len(coef), -1), band):
            np.add.at(row, flat, add.ravel())

    @property
    def ixi(self) -> np.ndarray:
        """Symbols 1j xi_j of d_j, one row per axis; built on each access, so the grid does not hold it."""
        return 1j * np.stack(self.wavenumbers)

    @cached_property
    def riesz(self) -> np.ndarray:
        """Symbols 1j xi_j / |xi| of Lambda^-1 d_j, one row per axis; zero at the zero mode."""
        inv_lam = np.zeros_like(self.lam)
        np.divide(1.0, self.lam, out=inv_lam, where=self.lam > 0)
        return self.ixi * inv_lam

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Full-lattice multiplicity of each stored mode, along the last axis.

        1 on the zero and Nyquist planes, which are their own mirror images,
        and 2 on the interior planes, which also stand for their unstored
        conjugates.  Broadcasts against any (..., size//2 + 1) array.
        """
        weight = np.full(self.size // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        return weight

    @cached_property
    def xi_max(self) -> float:
        """Largest |xi| on the data-carrying (non-Nyquist) lattice."""
        return float(np.max(self.lam[~self.nyquist_mask]))

    @property
    def xi_min(self) -> float:
        """Smallest nonzero |xi|."""
        return 2.0 * np.pi / self.length

    def coordinates(self) -> tuple[np.ndarray, ...]:
        x1d = np.arange(self.size) * self.spacing
        return tuple(np.meshgrid(*([x1d] * self.dim), indexing="ij"))


def antisym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j, carried by an antisymmetric-matrix field."""
    return tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


@dataclass
class SpectralField:
    """Half-lattice Fourier coefficients of a real field, shape (ncomp, *grid.spectral_shape).

    Scalars have ncomp == 1; velocity fields ncomp == dim; antisymmetric
    matrix fields ncomp == dim*(dim-1)/2 in `antisym_pairs` order.
    Instances are treated as immutable: operators return fresh fields.  A
    field may share `coef` with the array it was built from; it is copied
    only when its Nyquist planes need zeroing.
    """

    grid: Grid
    coef: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coef, dtype=np.complex128)
        if coef.ndim == self.grid.dim:
            coef = coef[None]
        if coef.shape[1:] != self.grid.spectral_shape:
            raise ValueError(
                f"coefficient shape {coef.shape} does not match half lattice {self.grid.spectral_shape}"
            )
        planes = self.grid._nyquist_planes
        if any(coef[plane].any() for plane in planes):
            coef = coef.copy()
            for plane in planes:
                coef[plane] = 0.0
        self.coef = coef

    @property
    def ncomp(self) -> int:
        return self.coef.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.ncomp == 1

    @classmethod
    def nyquist_free(cls, grid: Grid, coef: np.ndarray) -> "SpectralField":
        """A field on `coef` without the constructor's shape check and Nyquist scan.

        `coef` must be a complex (ncomp, *spectral_shape) array whose Nyquist
        planes are zero; it is neither scanned nor copied.
        """
        f = cls.__new__(cls)
        f.grid, f.coef = grid, coef
        return f

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((ncomp,) + grid.spectral_shape, dtype=np.complex128))

    def to_physical(self) -> np.ndarray:
        return transform_to_physical(self)

    def zero_mode(self) -> np.ndarray:
        return self.coef[(slice(None),) + (0,) * self.grid.dim]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coef.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coef - other.coef)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coef * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef)


# ---------------------------------------------------------------------------
# transforms and norms


def _lead_axes(grid: Grid) -> tuple[int, ...]:
    """Spatial axes of the last-axis zero plane ``coef[..., 0]``."""
    return tuple(range(1, grid.dim))


def transform_to_spectral(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward real-to-complex transform of one or more real component arrays.

    The widest `BandTransform`, so the result is exactly Hermitian; its
    Nyquist planes are zeroed here, so the field need not copy.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == grid.dim:
        values = values[None]
    if values.shape[1:] != grid.shape:
        raise ValueError(f"physical shape {values.shape} does not match grid {grid.shape}")
    coef = BandTransform(grid, len(values), grid.size // 2).to_spectral(values)
    for nyquist in grid._nyquist_planes:
        coef[nyquist] = 0.0
    return SpectralField(grid, coef)


def transform_to_physical(f: SpectralField) -> np.ndarray:
    """Inverse real-to-complex transform, the widest `BandTransform`; real (ncomp, *grid.shape) arrays."""
    return BandTransform(f.grid, f.ncomp, f.grid.size // 2).to_physical(f.coef)


def l2_norm(f: SpectralField) -> float:
    """Volume-normalized L2 norm, sqrt(mean |f|^2) over all components."""
    return float(np.sqrt(np.sum(f.grid.hermitian_weight * np.abs(f.coef) ** 2)))


def linf_norm(f: SpectralField) -> float:
    return float(np.max(np.abs(f.to_physical())))


def _negate_indices(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Map the lattice value at k to -k mod size along each of `axes`."""
    return np.roll(np.flip(arr, axis=axes), shift=1, axis=axes)


def _symmetrize_zero_plane(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """Average the last-axis zero plane of `coef` with its conjugate mirror, in place."""
    plane = coef[..., 0]
    coef[..., 0] = 0.5 * (plane + np.conj(_negate_indices(plane, _lead_axes(grid))))
    return coef


class BandTransform:
    """Transforms between a band of the half lattice and physical space.

    The band of half-width m keeps the wavenumbers 0..m and -n..-1, n =
    min(m, size - m - 1), on each lead axis and 0..m on the last, shape
    `shape`: m = size // 3 is the two-thirds-rule band (`Grid.band_shape`),
    m = size // 2 the half lattice (`Grid.spectral_shape`) of the full
    transforms.  The inverse puts the band in the low corner of its buffer
    and per lead axis moves the rows -n..-1 into place, zeroes the gap and
    runs an in-place c2c pass, then `irfft`s the last axis, which zero-pads
    the columns past m; the forward runs `rfft`, then per lead axis a c2c
    pass and the reverse move.  On the half lattice the moves are
    self-assignments and the gap is empty, which numpy skips.  These are the
    passes of the full transforms in their order, less all-zero or discarded
    columns, so on band-limited data the results are the full ones on the
    band, bitwise (1/size^dim as 1/size a pass is exact for a power-of-two
    size).  The passes run in place (``out=``) in one buffer of up to
    `ncomp` half-lattice components that the transform owns, so a step does
    not refault fresh pages for them: the inverse reads its band's m + 1
    last-axis columns, overwriting them as far as it reads them, and the
    forward writes its ``rfft`` output there.  The results are fresh arrays,
    except that `to_physical` writes into the caller's `out` when given one.
    The row moves go one component at a time: numpy buffers a move whose
    source and target bounds overlap, so a whole-box move would copy it.
    """

    def __init__(self, grid: Grid, ncomp: int, m: int):
        self.grid, self.m, self._n = grid, m, min(m, grid.size - m - 1)
        self.shape = (m + 1 + self._n,) * (grid.dim - 1) + (m + 1,)
        self._spec = np.empty((ncomp,) + grid.spectral_shape, dtype=np.complex128)
        half_shape = (ncomp,) + grid.spectral_shape[:-1] + (m + 1,)
        self._half = self._spec.reshape(-1)[: np.prod(half_shape)].reshape(half_shape)

    def _corner(self, coef: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
        """The view coef[:, :lead[0], ..., :lead[-1], :m + 1]."""
        return coef[(slice(None),) + tuple(slice(n) for n in lead) + (slice(self.m + 1),)]

    def inverse_input(self, ncomp: int) -> np.ndarray:
        """The (ncomp, *shape) view `to_physical` reads: fill it in place and pass it back; either transform overwrites it."""
        return self._corner(self._half[:ncomp], self.shape[:-1])

    def to_physical(self, band: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(ncomp, *shape) coefficients to real (ncomp, *grid.shape) values, written into `out` if given."""
        size, m, n = self.grid.size, self.m, self._n
        half = self._half[: len(band)]
        self._corner(half, self.shape[:-1])[...] = band
        for a in range(1, self.grid.dim):
            box, pre = self._corner(half, (size,) * a + self.shape[a:-1]), (slice(None),) * (a - 1)
            for row in box:  # a component at a time, so numpy does not buffer the move
                row[pre + (slice(size - n, None),)] = row[pre + (slice(m + 1, m + 1 + n),)]
                row[pre + (slice(m + 1, size - n),)] = 0.0
            np.fft.ifft(box, axis=a, norm="forward", out=box)
        return np.fft.irfft(half, n=size, axis=-1, norm="forward", out=out)

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Real (ncomp, *grid.shape) values to (ncomp, *shape) coefficients, exactly Hermitian."""
        dim, size, m, n = self.grid.dim, self.grid.size, self.m, self._n
        coef = np.fft.rfft(values, axis=-1, norm="forward", out=self._spec[: len(values)])
        for a in range(1, dim):
            box, pre = self._corner(coef, self.shape[: a - 1] + (size,) * (dim - a)), (slice(None),) * (a - 1)
            np.fft.fft(box, axis=a, norm="forward", out=box)
            for row in box:  # as in `to_physical`, a row at a time
                row[pre + (slice(m + 1, m + 1 + n),)] = row[pre + (slice(size - n, None),)]
        return _symmetrize_zero_plane(self.grid, self._corner(coef, self.shape[:-1]).copy())


# ---------------------------------------------------------------------------
# Fourier multipliers


def apply_lambda(f: SpectralField, s: float) -> SpectralField:
    """|xi|^s multiplier; the zero mode is annihilated whenever s != 0."""
    if not np.isfinite(s):
        raise ValueError(f"non-finite exponent {s}")
    if s == 0:
        return f.copy()
    lam = f.grid.lam
    if s < 0:
        mult = np.zeros_like(lam)
        np.divide(1.0, lam**-s, out=mult, where=lam > 0)
    else:
        mult = lam**s
    return SpectralField(f.grid, f.coef * mult)


def div_curl(symbol: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows sum_j s_j v_j, then s_j v_i - s_i v_j for each (i, j) of `antisym_pairs`.

    `symbol` and `v` are (N, ...) stacks, one row per axis, that broadcast
    row by row.  With `Grid.ixi` the rows are div v and curl v, (curl v)_ij
    = d_j v_i - d_i v_j; with `Grid.riesz` they are Lambda^-1 div v and
    Lambda^-1 curl v.
    """
    pairs = antisym_pairs(len(symbol))
    shape = np.broadcast_shapes(symbol.shape[1:], v.shape[1:])
    out = np.empty((1 + len(pairs),) + shape, dtype=np.complex128)
    np.multiply(symbol[0], v[0], out=out[0])
    for j in range(1, len(symbol)):
        out[0] += symbol[j] * v[j]
    for row, (i, j) in zip(out[1:], pairs):
        np.multiply(symbol[j], v[i], out=row)
        row -= symbol[i] * v[j]
    return out


def _require_mean_free(f: SpectralField, what: str) -> None:
    scale = l2_norm(f)
    mean = float(np.max(np.abs(f.zero_mode())))
    if mean > MEAN_FREE_RTOL * scale:
        raise ValueError(f"{what} must be mean-free (zero mode {mean:.3e} vs norm {scale:.3e})")


def helmholtz_decompose(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Split a mean-free velocity into its gradient and solenoidal parts (c, I) = Lambda^-1 (div u, curl u)."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise ValueError("Helmholtz decomposition expects a velocity field")
    _require_mean_free(u, "velocity")
    parts = apply_lambda(SpectralField(grid, div_curl(grid.ixi, u.coef)), -1.0).coef
    return SpectralField(grid, parts[:1]), SpectralField(grid, parts[1:])


def helmholtz_recompose(c: SpectralField, I: SpectralField) -> SpectralField:
    """u = -Lambda^-1 grad c - Lambda^-1 div I, each term one `Grid.riesz` multiply."""
    grid = c.grid
    riesz, I = grid.riesz, I.coef
    u = riesz * c.coef[0]
    for comp, (i, j) in enumerate(antisym_pairs(grid.dim)):
        u[i] += riesz[j] * I[comp]
        u[j] -= riesz[i] * I[comp]
    return SpectralField(grid, np.negative(u, out=u))


# ---------------------------------------------------------------------------
# random fields (deterministic given the generator state)


def random_field(
    grid: Grid,
    ncomp: int,
    rng: np.random.Generator,
    xi_lo: float = 0.0,
    xi_hi: float | None = None,
    spectrum=None,
) -> SpectralField:
    """Seeded Hermitian random field supported on xi_lo < |xi| <= xi_hi.

    `spectrum`, if given, is a callable of |xi| multiplying the flat random
    coefficients.  The zero mode is always empty.  The draws cover the full
    lattice and are then folded onto the half lattice, so a seed gives the
    same field as with full-lattice storage.
    """
    if xi_hi is None:
        xi_hi = grid.xi_max
    size, half = grid.size, grid.size // 2 + 1
    # |xi| on the stored half from broadcast 1-D frequencies; band and spectrum are even in xi
    freqs = [grid._freq1d] * (grid.dim - 1) + [grid._freq1d[:half]]
    axes = [x.reshape((-1,) + (1,) * (grid.dim - 1 - i)) for i, x in enumerate(freqs)]
    lam = np.sqrt(sum(x * x for x in axes))
    band = (lam > xi_lo) & (lam <= xi_hi)
    for x in axes:  # no Nyquist plane
        band &= x != grid._freq1d[size // 2]
    band[(0,) * grid.dim] = False
    if not band.any():
        raise ValueError(f"band ({xi_lo}, {xi_hi}] is empty on this grid")
    shape = (ncomp,) + grid.shape
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the Hermitian part of the full draw on the stored half: coef(xi) and coef(-xi), each masked
    mirror = _negate_indices(coef[..., -np.arange(half) % size], _lead_axes(grid))
    coef = coef[..., :half] * band
    mirror *= band
    if spectrum is not None:
        weight = spectrum(lam)
        coef *= weight
        mirror *= weight
    return SpectralField(grid, 0.5 * (coef + np.conj(mirror)))
