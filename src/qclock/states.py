"""Clock states, Hamiltonians, and unitary time evolution.

A clock is a pair (rho, H) on one finite-dimensional Hilbert space, with
hbar = 1 so times are measured in inverse-energy units.  All values are
immutable after construction and every operation is a pure function, so
shared instances are safe to use concurrently.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, DomainError, ValidationError

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


def _as_complex_square(entries, what: str) -> np.ndarray:
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"{what} must be a square matrix, got shape {mat.shape}")
    return mat


_DEVIATION_BLOCK_ENTRIES = 8192  # 128 KiB of complex entries


def _hermitian_deviation(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-abs entry of a square M - M†, and M† as a fresh array laid out like M.

    The adjoint is copied into M's layout, so the subtraction reads both
    operands in order (against the strided view ``M.conj().T`` it is ~9x
    slower at 256 x 256).  The difference is taken in blocks of whole rows
    with at most ``_DEVIATION_BLOCK_ENTRIES`` entries, so no temporary as
    large as a big M is made; fresh pages for such temporaries cost more than
    the arithmetic.  A NaN or infinite entry makes the deviation NaN or
    infinite (``np.maximum`` keeps a NaN).
    """
    rows = max(1, _DEVIATION_BLOCK_ENTRIES // len(mat))
    adjoint = np.conjugate(mat.T, out=np.empty_like(mat))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        maxima = [
            np.abs(mat[start : start + rows] - adjoint[start : start + rows]).max()
            for start in range(0, len(mat), rows)
        ]
    return float(functools.reduce(np.maximum, maxima)), adjoint


def _hermitize(entries, what: str) -> np.ndarray:
    """Symmetrize (M + M†)/2, rejecting matrices that are not Hermitian to float noise.

    The deviation also rejects non-finite matrices.  The result is written
    into the adjoint's buffer.
    """
    mat = _as_complex_square(entries, what)
    dev, out = _hermitian_deviation(mat)
    if not dev <= HERMITIAN_TOL:
        reason = (
            f"is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e}"
            if np.isfinite(dev)
            else "has non-finite entries"
        )
        raise ValidationError(f"{what} {reason}", detail={"deviation": dev})
    out += mat
    out /= 2
    out.setflags(write=False)
    return out


def _split_at_gaps(sorted_values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Index groups of ascending values, split wherever consecutive values differ by more than gap."""
    cuts = (np.flatnonzero(np.diff(sorted_values) > gap) + 1).tolist()
    bounds = [0, *cuts, len(sorted_values)]
    return [np.arange(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix: a clock's statistical state."""

    def __init__(self, entries):
        self.entries = _hermitize(entries, "density matrix")
        self.dim = self.entries.shape[0]
        eigs = np.linalg.eigvalsh(self.entries)
        if eigs[0] < -PSD_TOL:
            raise ValidationError(
                f"density matrix is not positive semidefinite: min eigenvalue {eigs[0]:.3e}",
                detail={"min_eigenvalue": float(eigs[0])},
            )
        tr = self.entries.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix trace {tr!r} differs from 1 by more than {TRACE_TOL:.1e}",
                detail={"trace": float(tr)},
            )

    def purity(self) -> float:
        """tr(rho^2); equals 1 for pure states."""
        return float(np.real(np.trace(self.entries @ self.entries)))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Hamiltonian:
    """Hermitian generator of clock evolution with a cached spectral decomposition.

    Eigenvalues are stored ascending with the eigenvectors in ``eigh``'s
    order.  ``eigh`` is deterministic for a given matrix, so repeated
    constructions yield identical decompositions; inside a degenerate
    eigenspace the basis is whichever one ``eigh`` returns.
    """

    def __init__(self, entries):
        self.entries = _hermitize(entries, "hamiltonian")
        self.dim = self.entries.shape[0]
        self._keep_decomposition(*np.linalg.eigh(self.entries))

    @classmethod
    def _from_decomposition(cls, entries, eigenvalues, eigenvectors) -> Hamiltonian:
        """A Hamiltonian whose decomposition the caller already knows, so no ``eigh`` runs.

        ``entries`` are still checked and symmetrized; the caller vouches that
        the eigenvalues ascend and the eigenvectors are an orthonormal basis
        of matching eigenvectors.
        """
        h = cls.__new__(cls)
        h.entries = _hermitize(entries, "hamiltonian")
        h.dim = h.entries.shape[0]
        h._keep_decomposition(eigenvalues, eigenvectors)
        return h

    def _keep_decomposition(self, eigenvalues, eigenvectors):
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors

    def propagator(self, t: float) -> np.ndarray:
        """Unitary exp(-iHt) from the cached decomposition."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def __repr__(self):
        return f"Hamiltonian(dim={self.dim})"


class ClockSystem:
    """A state paired with the Hamiltonian that evolves it."""

    def __init__(self, state: DensityMatrix, hamiltonian: Hamiltonian):
        if state.dim != hamiltonian.dim:
            raise DimensionMismatchError(
                f"state dim {state.dim} != hamiltonian dim {hamiltonian.dim}"
            )
        self.state = state
        self.hamiltonian = hamiltonian
        self.dim = state.dim

    def __repr__(self):
        return f"ClockSystem(dim={self.dim})"


class EnergyMoments(NamedTuple):
    mean: float
    second_moment: float
    std_dev: float


def evolve(clock: ClockSystem, t: float) -> DensityMatrix:
    """Conjugate the clock state by exp(-iHt)."""
    if not np.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    u = clock.hamiltonian.propagator(t)
    return DensityMatrix(u @ clock.state.entries @ u.conj().T)


def energy_moments(clock: ClockSystem) -> EnergyMoments:
    """Mean energy, second moment, and energy spread of the clock state."""
    rho = clock.state.entries
    h = clock.hamiltonian.entries
    mean = float(np.real(np.trace(rho @ h)))
    second = float(np.real(np.trace(rho @ h @ h)))
    std = float(np.sqrt(max(0.0, second - mean * mean)))
    return EnergyMoments(mean, second, std)


def gaussian_energy_pure_state(h: Hamiltonian, mean: float, sigma: float) -> DensityMatrix:
    """Pure state whose energy distribution is Gaussian over the spectrum of ``h``.

    Amplitudes are c_k ~ exp(-(E_k - mean)^2 / (4 sigma^2)) over the eigenbasis,
    so the probabilities |c_k|^2 form a Gaussian with standard deviation
    ``sigma``.  The realized spread on a discrete spectrum differs from
    ``sigma``; read it off with :func:`energy_moments`.
    """
    if not (sigma > 0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    exponents = -((h.eigenvalues - mean) ** 2) / (4.0 * sigma * sigma)
    amps = np.exp(exponents - exponents.max())  # shift before exp to avoid underflow of all terms
    amps /= np.linalg.norm(amps)
    psi = h.eigenvectors @ amps.astype(complex)
    return DensityMatrix(np.outer(psi, psi.conj()))


def ladder_hamiltonian(n: int, quantum: float) -> Hamiltonian:
    """Equally spaced spectrum diag(quantum, 2*quantum, ..., n*quantum).

    The matrix is diagonal, so its decomposition is read off with no ``eigh``:
    the levels in stable ascending order and the matching unit vectors, which
    is what ``eigh`` returns for it (reversed when ``quantum`` is negative).
    """
    if n < 1:
        raise DomainError(f"need at least one level, got {n}")
    levels = np.arange(1, n + 1) * float(quantum)
    order = np.argsort(levels, kind="stable")
    vectors = np.eye(n, dtype=complex)[:, order]
    return Hamiltonian._from_decomposition(np.diag(levels), levels[order], vectors)


def equal_superposition_clock(n: int, quantum: float) -> ClockSystem:
    """Clock in the flat superposition of ``n`` ladder levels with spacing ``quantum``."""
    if n < 1:
        raise DomainError(f"need at least one level, got {n}")
    if not (quantum > 0):
        raise DomainError(f"energy quantum must be positive, got {quantum!r}")
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    return ClockSystem(DensityMatrix(np.outer(psi, psi.conj())), ladder_hamiltonian(n, quantum))


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Seeded Wishart-style random state G G† / tr(G G†) with G a dim-by-rank Gaussian."""
    if not (1 <= rank <= dim):
        raise DomainError(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def random_hamiltonian(dim: int, seed, scale: float = 1.0) -> Hamiltonian:
    """Seeded GUE-style Hamiltonian (A + A†)/2 from a complex Gaussian A."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(scale * (a + a.conj().T) / 2)
