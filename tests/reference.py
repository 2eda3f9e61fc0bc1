"""Test-only reference values for the SLD timing information.

Nothing here imports ``qclock.fisher``: the generator i[H, rho] is formed
inline and the SLD comes from a least-squares solve of the vectorised
Lyapunov equation instead of the eigenbasis pseudo-inverse, so agreement with
``qfi`` is a check by an independent route.
"""
import numpy as np


def _generator(clock):
    h, rho = clock.hamiltonian.entries, clock.state.entries
    return 1j * (h @ rho - rho @ h)


def lyapunov_fisher(clock):
    """F = tr(rho_dot L) with L the least-squares solution of rho L + L rho = 2 rho_dot.

    Row-major vectorisation turns the equation into
    (rho (x) I + I (x) rho^T) vec(L) = 2 vec(rho_dot); the minimum-norm solution
    is zero on the kernel of rho, as the pseudo-inverse is.
    """
    rho = clock.state.entries
    rdot = _generator(clock)
    eye = np.eye(rho.shape[0])
    system = np.kron(rho, eye) + np.kron(eye, rho.T)
    vec_l = np.linalg.lstsq(system, 2.0 * rdot.reshape(-1), rcond=None)[0]
    return float(np.trace(rdot @ vec_l.reshape(rho.shape)).real)


def rayleigh(clock, a):
    """Timing information tr(rho_dot A)^2 / tr(rho A^2) seen by the observable A."""
    num = np.trace(_generator(clock) @ a).real
    den = np.trace(clock.state.entries @ a @ a).real
    return num * num / den


def random_observable(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2
