#!/usr/bin/env python3
"""Fisher timing information, quantum and classical.

The timing information F of a clock bounds how well the elapsed time can be
read off: the best estimation error is dt = 1/sqrt(F).  For quantum clocks F
comes from the symmetric logarithmic derivative L, the observable that reveals
the most timing information: no observable A makes the Rayleigh quotient
tr(rho_dot A)^2 / tr(rho A^2) larger than F, and A = L attains it.  For pure
states F equals four
times the energy variance, which ties the quality of a clock directly to its
energy spread.
"""
import numpy as np

from qclock import (
    ClockSystem,
    classical_fisher,
    energy_moments,
    gaussian_delay_family,
    gaussian_energy_pure_state,
    moving_gaussian_family,
    qfi,
    random_density,
    random_hamiltonian,
    rho_dot,
    time_uncertainty,
)

# --- a pure clock: F = 4 (dE)^2 -----------------------------------------------
h = random_hamiltonian(10, seed=1)
state = gaussian_energy_pure_state(h, mean=0.0, sigma=1.2)
clock = ClockSystem(state, h)
spread = energy_moments(clock).std_dev
result = qfi(clock)
print("pure Gaussian-energy clock on 10 dims:")
print(f"  F            = {result.fisher_info:.10f}")
print(f"  4 (dE)^2     = {4 * spread**2:.10f}")
print(f"  dt = 1/sqrt(F) = {time_uncertainty(result.fisher_info):.6f} = 1/(2 dE)")

# --- a mixed clock: the SLD is the best observable ------------------------------
rng = np.random.default_rng(3)
mixed = ClockSystem(random_density(4, 2, rng), random_hamiltonian(4, rng))
closed_form = qfi(mixed)
rho, rdot = mixed.state.entries, rho_dot(mixed)


def rayleigh(a):
    """Timing information tr(rho_dot A)^2 / tr(rho A^2) seen by the observable A."""
    return np.trace(rdot @ a).real ** 2 / np.trace(rho @ a @ a).real


best = 0.0
for _ in range(1000):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    best = max(best, rayleigh((g + g.conj().T) / 2))
print("\nmixed rank-2 clock on 4 dims:")
print(f"  F (SLD pseudo-inverse)          = {closed_form.fisher_info:.10f}")
print(f"  Rayleigh quotient at A = L      = {rayleigh(closed_form.sld):.10f}")
print(f"  best of 1000 random observables = {best:.10f}")
print(f"  kernel pairs below cutoff       = {closed_form.kernel_dim}")

# the SLD really solves (rho L + L rho)/2 = rho_dot on the support
residual = 0.5 * (rho @ closed_form.sld + closed_form.sld @ rho) - rdot
print(f"  Lyapunov residual (raw)         = {np.abs(residual).max():.2e}")

# --- classical signals ----------------------------------------------------------
delay = gaussian_delay_family(delay_std=0.5, grid_min=-5, grid_max=5, points=2001)
f_delay = classical_fisher(delay, t=0.0)
print("\nclassical pulse with Gaussian arrival-time jitter (std 0.5):")
print(f"  F = {f_delay:.6f}   (analytic 1/0.5^2 = 4)")

moving = moving_gaussian_family(velocity=2.0, position_std=1.0, grid_min=-8, grid_max=8, points=2001)
f_moving = classical_fisher(moving, t=0.0)
print("moving classical signal (v = 2, position spread 1):")
print(f"  F = {f_moving:.6f}   (analytic v^2/dx^2 = 4)")
