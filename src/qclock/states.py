"""Clock states, Hamiltonians, and unitary time evolution.

A clock is a pair (rho, H) on one finite-dimensional Hilbert space, with
hbar = 1 so times are measured in inverse-energy units.  Both matrices keep
the spectral decomposition that validated them.  All values are immutable
after construction and every operation is a pure function, so shared
instances are safe to use concurrently.
"""
from __future__ import annotations

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


def _hermitian_deviation(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-abs entry of M - M† over one matrix or a stack (..., d, d), and M† laid out like M.

    The adjoint is copied into M's layout, so the subtraction reads both
    operands in order.  A NaN or infinite entry makes the deviation NaN or
    infinite.
    """
    adjoint = np.conjugate(mat.swapaxes(-1, -2), out=np.empty_like(mat))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        return float(np.abs(mat - adjoint).max()), adjoint


def _hermitize_rows(mats: np.ndarray, what: str) -> np.ndarray:
    """Symmetrize (M + M†)/2 one complex matrix or each of a stack (..., d, d), rejecting
    matrices that are not Hermitian to float noise.

    The deviation also rejects non-finite matrices; the first rejected one
    names the error.  The result is written into the adjoint's buffer.
    """
    dev, out = _hermitian_deviation(mats)
    if not dev <= HERMITIAN_TOL:  # NaN fails too
        for mat in mats.reshape(-1, *mats.shape[-2:]):
            dev = _hermitian_deviation(mat)[0]
            if not dev <= HERMITIAN_TOL:
                break
        reason = (
            f"is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e}"
            if np.isfinite(dev)
            else "has non-finite entries"
        )
        raise ValidationError(f"{what} {reason}", detail={"deviation": dev})
    out += mats
    out /= 2
    out.setflags(write=False)
    return out


def _hermitize(entries, what: str) -> np.ndarray:
    """:func:`_hermitize_rows` of one square matrix, checked for shape and cast to complex."""
    return _hermitize_rows(_as_complex_square(entries, what), what)


def _density_checks(entries: np.ndarray, eigenvalues: np.ndarray):
    """PSD and trace checks of one symmetrized state or a stack (..., d, d), with ascending
    eigenvalues (..., d).

    The first state of the stack that fails raises, with the PSD check first.
    """
    lows = eigenvalues[..., :1].ravel().tolist()
    traces = entries.trace(axis1=-2, axis2=-1).real.ravel().tolist()
    for low, tr in zip(lows, traces):
        if low < -PSD_TOL:
            raise ValidationError(
                f"density matrix is not positive semidefinite: min eigenvalue {low:.3e}",
                detail={"min_eigenvalue": low},
            )
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix trace {tr!r} differs from 1 by more than {TRACE_TOL:.1e}",
                detail={"trace": tr},
            )


def _density_rows(mats: np.ndarray) -> tuple:
    """A stack (B, d, d) of states checked as a ``DensityMatrix`` is, symmetrized, with its ``eigh``."""
    sym = _hermitize_rows(mats, "density matrix")
    w, v = np.linalg.eigh(sym)
    _density_checks(sym, w)
    return sym, w, v


def _gap_labels(sorted_values: np.ndarray, gap: float) -> np.ndarray:
    """One integer label per ascending value: 0 for the first, one more after each gap.

    A new label starts wherever consecutive values differ by more than ``gap``,
    so the labels ascend and each labels a run of consecutive values.  The
    group sizes are ``np.bincount(labels)``.
    """
    labels = np.zeros(len(sorted_values), dtype=np.intp)
    np.cumsum(np.diff(sorted_values) > gap, out=labels[1:])
    return labels


class _Spectral:
    """Hermitian matrix with the spectral decomposition ``eigh`` gave it once.

    Eigenvalues are stored ascending with the eigenvectors in ``eigh``'s
    order.  ``eigh`` is deterministic for a given matrix, so repeated
    constructions yield identical decompositions; inside a degenerate
    eigenspace the basis is whichever one ``eigh`` returns.
    """

    def __init__(self, entries):
        entries = _hermitize(entries, self._what)
        self._keep(entries, *np.linalg.eigh(entries))

    @classmethod
    def _from_decomposition(cls, entries, eigenvalues, eigenvectors):
        """An instance whose decomposition the caller already knows, so no ``eigh`` runs.

        ``entries`` are still checked and symmetrized, and the type's checks run on the
        given eigenvalues; the caller vouches that they ascend with orthonormal eigenvectors.
        """
        obj = cls.__new__(cls)
        obj._keep(_hermitize(entries, cls._what), eigenvalues, eigenvectors)
        return obj

    def _keep(self, entries, eigenvalues, eigenvectors):
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        self.entries, self.dim = entries, entries.shape[0]
        self.eigenvalues, self.eigenvectors = eigenvalues, eigenvectors

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(_Spectral):
    """Hermitian, positive-semidefinite, unit-trace matrix: a clock's statistical state."""

    _what = "density matrix"

    def _keep(self, entries, eigenvalues, eigenvectors):
        super()._keep(entries, eigenvalues, eigenvectors)
        _density_checks(entries, eigenvalues)

    def purity(self) -> float:
        """tr(rho^2); equals 1 for pure states."""
        return float(np.real(np.trace(self.entries @ self.entries)))


class Hamiltonian(_Spectral):
    """Hermitian generator of clock evolution."""

    _what = "hamiltonian"

    def propagator(self, t: float) -> np.ndarray:
        """Unitary exp(-iHt) from the kept decomposition."""
        return _propagators(self, t)


def _propagators(h: Hamiltonian, times) -> np.ndarray:
    """exp(-iHt) at a time, or at each of the times (T,) as a stack (T, d, d), from the kept
    decomposition."""
    phases = np.exp(-1j * h.eigenvalues * np.asarray(times)[..., None])
    return (h.eigenvectors * phases[..., None, :]) @ h.eigenvectors.conj().T


class ClockSystem:
    """A state paired with the Hamiltonian that evolves it."""

    def __init__(self, state: DensityMatrix, hamiltonian: Hamiltonian):
        arguments = {"state": (state, DensityMatrix), "hamiltonian": (hamiltonian, Hamiltonian)}
        for name, (value, kind) in arguments.items():
            if not isinstance(value, kind):
                raise ValidationError(
                    f"ClockSystem {name} must be a {kind.__name__}, got {type(value).__name__}"
                )
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
    """Conjugate the clock state by exp(-iHt); the spectrum is kept and the eigenvectors rotated."""
    if not np.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    u, rho = clock.hamiltonian.propagator(t), clock.state
    return DensityMatrix._from_decomposition(
        u @ rho.entries @ u.conj().T, rho.eigenvalues, u @ rho.eigenvectors
    )


def _evolve_rows(clock: ClockSystem, times: np.ndarray) -> np.ndarray:
    """:func:`evolve` of the clock at each of the times (T,): the symmetrized states (T, d, d).

    Each state is checked as ``evolve`` checks it, and no eigenvectors are formed.
    """
    finite = np.isfinite(times)
    if not finite.all():
        raise DomainError(f"time must be finite, got {times[~finite][0].item()!r}")
    u, rho = _propagators(clock.hamiltonian, times), clock.state
    entries = _hermitize_rows(u @ rho.entries @ u.conj().swapaxes(-1, -2), "density matrix")
    _density_checks(entries, np.broadcast_to(rho.eigenvalues, (len(times), rho.dim)))
    return entries


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
    return ClockSystem(_equal_superposition(n), ladder_hamiltonian(n, quantum))


def _equal_superposition(n: int) -> DensityMatrix:
    """The flat superposition of ``n`` levels, the state of :func:`equal_superposition_clock`."""
    psi = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    return DensityMatrix(np.outer(psi, psi.conj()))


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Seeded Wishart-style random state G G† / tr(G G†) with G a dim-by-rank Gaussian."""
    if not (1 <= rank <= dim):
        raise DomainError(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def random_hamiltonian(dim: int, seed) -> Hamiltonian:
    """Seeded GUE-style Hamiltonian (A + A†)/2 from a complex Gaussian A."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian((a + a.conj().T) / 2)
