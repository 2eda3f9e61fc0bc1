"""Fisher timing information of quantum clocks and classical signal families.

The quantum quantity is F = tr(rho_dot Gamma^{-1} rho_dot) with
rho_dot = i[H, rho] and Gamma the symmetrized product a -> (rho a + a rho)/2;
Gamma is inverted on its support only, which makes F well defined for
rank-deficient states.  Equivalently,

    F = sup_A (tr(rho_dot A))^2 / tr(rho A^2)   over Hermitian A,

and the supremum is attained at the symmetric logarithmic derivative L, so no
observable read off the clock yields more timing information than F.

Two constants fix the numerical conventions: eigenvalue pairs with
p_k + p_l <= ``SLD_CUTOFF`` form the kernel of the pseudo-inverse, and timing
information at or below ``F_FLOOR`` counts as zero, that is as unbounded time
uncertainty.  Neither can be overridden, so every check of the same state
reports the same F.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SupportError, ValidationError
from .states import TRACE_TOL, ClockSystem

SLD_CUTOFF = 1e-12
F_FLOOR = 1e-12
PROB_FLOOR = 1e-300
MOVED_MASS_TOL = 1e-12


def _rho_dot(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """i[H, rho] of each pair of a stack (..., d, d)."""
    hr = h @ rho
    return 1j * (hr - hr.conj().swapaxes(-1, -2))


def rho_dot(clock: ClockSystem) -> np.ndarray:
    """Generator of the clock orbit, i[H, rho]; Hermitian and traceless."""
    return _rho_dot(clock.hamiltonian.entries, clock.state.entries)


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative L, the Fisher information tr(rho_dot L),
    and the number of eigenvalue pairs below the pseudo-inverse cutoff."""

    sld: np.ndarray
    fisher_info: float
    kernel_dim: int


def _fisher_rows(h, rho, p, v) -> tuple:
    """Fisher timing information of each clock of a stack, from its state's ``eigh``.

    ``h`` and ``rho`` are stacks (B, d, d) of Hamiltonians and states, ``p``
    (B, d) and ``v`` (B, d, d) the states' eigenvalues and eigenvectors.
    Returns F (B,) with the terms it is summed from: rho_dot in the
    eigenbases, the pair sums p_k + p_l and the mask of kept pairs.  No SLD
    matrix is formed.
    """
    r_eig = v.conj().swapaxes(-1, -2) @ _rho_dot(h, rho) @ v
    denom = p[:, :, None] + p[:, None, :]
    keep = denom > SLD_CUTOFF
    terms = np.divide(2.0 * np.abs(r_eig) ** 2, denom, out=np.zeros(denom.shape), where=keep)
    return terms.reshape(len(terms), -1).sum(axis=1), r_eig, denom, keep


def qfi(clock: ClockSystem) -> SldResult:
    """Quantum Fisher timing information via the SLD pseudo-inverse formula.

    In the eigenbasis of rho with eigenvalues p_k the SLD has entries
    L_kl = 2 rho_dot_kl / (p_k + p_l) wherever p_k + p_l > ``SLD_CUTOFF``
    (zero elsewhere), and F = sum 2 |rho_dot_kl|^2 / (p_k + p_l) over the kept
    pairs.  F is :func:`_fisher_rows` of this one clock.
    """
    state = clock.state
    v = state.eigenvectors
    fisher, r_eig, denom, keep = _fisher_rows(
        clock.hamiltonian.entries[None], state.entries[None], state.eigenvalues[None], v[None]
    )
    l_eig = np.divide(2.0 * r_eig[0], denom[0], out=np.zeros_like(r_eig[0]), where=keep[0])
    sld = v @ l_eig @ v.conj().T
    sld = (sld + sld.conj().T) / 2
    return SldResult(sld=sld, fisher_info=float(fisher[0]), kernel_dim=int(np.count_nonzero(~keep)))


class ClassicalSignalFamily:
    """Discrete probability distributions over fixed sample points, indexed by time.

    ``density_at(t)`` must return a nonnegative vector over ``sample_points``
    summing to one; each returned vector is validated.
    """

    def __init__(self, sample_points: Sequence[float], density_at: Callable[[float], np.ndarray]):
        pts = np.asarray(sample_points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("sample_points must be a 1-d vector with at least 2 points")
        if np.any(np.diff(pts) <= 0):
            raise ValidationError("sample_points must be strictly increasing")
        self.sample_points = pts
        self._density_at = density_at

    def density_at(self, t: float) -> np.ndarray:
        p = np.asarray(self._density_at(t), dtype=float)
        if p.shape != self.sample_points.shape:
            raise ValidationError(
                f"density has {p.shape} values for {self.sample_points.shape} sample points"
            )
        if not (p.min() >= 0):
            raise ValidationError(f"negative or NaN probability {p.min():.3e} at t={t!r}")
        total = p.sum()
        if not (abs(total - 1.0) <= TRACE_TOL):
            raise ValidationError(f"probabilities sum to {total!r} at t={t!r}")
        return p


def gaussian_delay_family(
    delay_std: float,
    grid_min: float,
    grid_max: float,
    points: int,
    center: float = 0.0,
) -> ClassicalSignalFamily:
    """Pulse with a well-defined shape but Gaussian-delayed arrival time.

    The observable is the arrival time; given true time t it is distributed
    as a Gaussian centered at center + t with standard deviation ``delay_std``,
    so the timing information is 1/delay_std^2: the moving Gaussian at unit
    velocity.
    """
    if not (delay_std > 0):
        raise DomainError(f"delay_std must be positive, got {delay_std!r}")
    return moving_gaussian_family(1.0, delay_std, grid_min, grid_max, points, center)


def moving_gaussian_family(
    velocity: float,
    position_std: float,
    grid_min: float,
    grid_max: float,
    points: int,
    center: float = 0.0,
) -> ClassicalSignalFamily:
    """Signal moving at constant velocity with Gaussian position uncertainty.

    The observable is position; timing information is velocity^2/position_std^2.
    """
    if not (position_std > 0):
        raise DomainError(f"position_std must be positive, got {position_std!r}")
    if not (grid_max > grid_min) or points < 2:
        raise DomainError("grid needs max > min and at least 2 points")
    x = np.linspace(grid_min, grid_max, int(points))

    def density(t: float) -> np.ndarray:
        z = np.exp(-0.5 * ((x - center - velocity * t) / position_std) ** 2)
        return z / z.sum()

    return ClassicalSignalFamily(x, density)


def classical_fisher(family: ClassicalSignalFamily, t: float, dt: float = 1e-4) -> float:
    """Classical Fisher information of the family at time t by central differences.

    Points where the probability at t is numerically zero are excluded; if the
    shifted distributions put more than a negligible mass on those points the
    derivative is unreliable and a :class:`SupportError` is raised.
    """
    if not (dt > 0):
        raise DomainError(f"dt must be positive, got {dt!r}")
    p0 = family.density_at(t)
    pp = family.density_at(t + dt)
    pm = family.density_at(t - dt)
    support = p0 > PROB_FLOOR
    moved = float(pp[~support].sum() + pm[~support].sum())
    if moved > MOVED_MASS_TOL:
        raise SupportError(
            f"probability mass {moved:.3e} moved onto zero-probability points; reduce dt",
            detail={"moved_mass": moved, "dt": dt},
        )
    deriv = (pp[support] - pm[support]) / (2.0 * dt)
    return float(np.sum(deriv * deriv / p0[support]))


def time_uncertainty(fisher_info: float) -> float:
    """Best achievable standard deviation 1/sqrt(F) for estimating the time.

    Information at or below ``F_FLOOR`` gives unbounded uncertainty (inf);
    negative or NaN information is not a Fisher information and raises.
    """
    if not (fisher_info >= 0):
        raise DomainError(f"Fisher information must be nonnegative, got {fisher_info!r}")
    return math.inf if fisher_info <= F_FLOOR else 1.0 / math.sqrt(fisher_info)
