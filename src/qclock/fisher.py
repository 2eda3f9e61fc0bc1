"""Fisher timing information of quantum clocks and classical signal families.

The quantum quantity is F = tr(rho_dot Gamma^{-1} rho_dot) with
rho_dot = i[H, rho] and Gamma the symmetrized product a -> (rho a + a rho)/2;
Gamma is inverted on its support only, which makes F well defined for
rank-deficient states.  A variational characterization,

    F = sup_A (tr(rho_dot A))^2 / tr(rho A^2)   over Hermitian A,

is implemented as an independent cross-check: the supremum is attained at the
symmetric logarithmic derivative, which the search always includes as one
restart.

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
from .states import ClockSystem

SLD_CUTOFF = 1e-12
F_FLOOR = 1e-12
PROB_FLOOR = 1e-300
MOVED_MASS_TOL = 1e-12


def rho_dot(clock: ClockSystem) -> np.ndarray:
    """Generator of the clock orbit, i[H, rho]; Hermitian and traceless."""
    hr = clock.hamiltonian.entries @ clock.state.entries
    return 1j * (hr - hr.conj().T)


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative L, the Fisher information tr(rho_dot L),
    and the number of eigenvalue pairs below the pseudo-inverse cutoff."""

    sld: np.ndarray
    fisher_info: float
    kernel_dim: int


def qfi(clock: ClockSystem) -> SldResult:
    """Quantum Fisher timing information via the SLD pseudo-inverse formula.

    In the eigenbasis of rho with eigenvalues p_k the SLD has entries
    L_kl = 2 rho_dot_kl / (p_k + p_l) wherever p_k + p_l > ``SLD_CUTOFF``
    (zero elsewhere), and F = sum 2 |rho_dot_kl|^2 / (p_k + p_l) over the kept
    pairs.
    """
    rdot = rho_dot(clock)
    p, v = np.linalg.eigh(clock.state.entries)
    r_eig = v.conj().T @ rdot @ v
    denom = p[:, None] + p[None, :]
    keep = denom > SLD_CUTOFF
    l_eig = np.zeros_like(r_eig)
    l_eig[keep] = 2.0 * r_eig[keep] / denom[keep]
    fisher = float(np.sum(2.0 * np.abs(r_eig[keep]) ** 2 / denom[keep]))
    sld = v @ l_eig @ v.conj().T
    sld = (sld + sld.conj().T) / 2
    return SldResult(sld=sld, fisher_info=fisher, kernel_dim=int(np.count_nonzero(~keep)))


@dataclass(frozen=True)
class VariationalResult:
    value: float
    argmax: np.ndarray


def _rayleigh(rdot: np.ndarray, rho: np.ndarray, a: np.ndarray) -> float | None:
    num = float(np.real(np.trace(rdot @ a)))
    den = float(np.real(np.trace(rho @ a @ a)))
    if den <= 1e-14 * max(1.0, float(np.abs(a).max()) ** 2):
        return None
    return num * num / den


def variational_qfi(
    clock: ClockSystem,
    restarts: int = 8,
    iterations: int = 150,
    seed=0,
) -> VariationalResult:
    """Maximize (tr(rho_dot A))^2 / tr(rho A^2) over Hermitian A.

    Seeded random restarts plus backtracking gradient ascent; the closed-form
    SLD is always included as one restart, so the best value certifies the
    pseudo-inverse computation rather than depending on search luck.
    Candidates with vanishing denominator are discarded.
    """
    dim = clock.dim
    rho = clock.state.entries
    rdot = rho_dot(clock)
    rng = np.random.default_rng(seed)

    candidates = [qfi(clock).sld]
    for _ in range(max(0, restarts)):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        candidates.append((g + g.conj().T) / 2)

    best_value = 0.0
    best_arg = np.zeros((dim, dim), dtype=complex)
    scale = max(1.0, float(np.abs(rdot).max()))
    for a in candidates:
        value = _rayleigh(rdot, rho, a)
        if value is None:
            continue
        step = 0.1 / scale
        for _ in range(max(0, iterations)):
            num = float(np.real(np.trace(rdot @ a)))
            den = float(np.real(np.trace(rho @ a @ a)))
            if den <= 0.0:
                break
            grad = (2.0 * num / den) * rdot - (num * num / (den * den)) * (rho @ a + a @ rho)
            trial = a + step * grad
            trial_value = _rayleigh(rdot, rho, trial)
            if trial_value is not None and trial_value > value:
                a, value = trial, trial_value
                step *= 1.2
            else:
                step *= 0.5
                if step < 1e-12 / scale:
                    break
        if value > best_value:
            best_value = value
            best_arg = a / np.sqrt(max(float(np.real(np.trace(rho @ a @ a))), 1e-300))
    return VariationalResult(value=best_value, argmax=best_arg)


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
        if p.min() < 0:
            raise ValidationError(f"negative probability {p.min():.3e} at t={t!r}")
        total = p.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {total!r} at t={t!r}")
        return p


def _grid(grid_min: float, grid_max: float, points: int) -> np.ndarray:
    if not (grid_max > grid_min) or points < 2:
        raise DomainError("grid needs max > min and at least 2 points")
    return np.linspace(grid_min, grid_max, int(points))


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
    so the timing information is 1/delay_std^2.
    """
    if not (delay_std > 0):
        raise DomainError(f"delay_std must be positive, got {delay_std!r}")
    x = _grid(grid_min, grid_max, points)

    def density(t: float) -> np.ndarray:
        z = np.exp(-0.5 * ((x - center - t) / delay_std) ** 2)
        return z / z.sum()

    return ClassicalSignalFamily(x, density)


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
    x = _grid(grid_min, grid_max, points)

    def density(t: float) -> np.ndarray:
        z = np.exp(-0.5 * ((x - center - velocity * t) / position_std) ** 2)
        return z / z.sum()

    return ClassicalSignalFamily(x, density)


def tabulated_family(
    sample_points: Sequence[float],
    t_values: Sequence[float],
    table: Sequence[Sequence[float]],
    match_tol: float = 1e-9,
) -> ClassicalSignalFamily:
    """Family given by explicit probability vectors on a grid of times.

    ``density_at(t)`` looks up the tabulated time nearest to ``t`` and requires
    it to match within ``match_tol``.
    """
    ts = np.asarray(t_values, dtype=float)
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != ts.size:
        raise ValidationError("table must have one probability row per tabulated time")

    def density(t: float) -> np.ndarray:
        k = int(np.argmin(np.abs(ts - t)))
        if abs(ts[k] - t) > match_tol:
            raise DomainError(f"time {t!r} is not tabulated (nearest {ts[k]!r})")
        return rows[k]

    return ClassicalSignalFamily(sample_points, density)


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
