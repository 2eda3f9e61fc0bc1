"""Test-only reference implementations.

Nothing here imports ``qclock.fisher``: the generator i[H, rho] is formed
inline and the SLD comes from a least-squares solve of the vectorised
Lyapunov equation instead of the eigenbasis pseudo-inverse, so agreement with
``qfi`` is a check by an independent route.

``stdlib_dumps`` writes a document with the standard library's encoder; its
bytes define the frozen JSON layout that ``qclock.fileio.dumps`` writes in
one pass.

``append_state_channel`` and ``depolarizing_channel`` build Choi-only
channels straight from their Kronecker-product Choi matrices, as fixtures for
the bound checks and the Choi-form covariance path.
"""
import json
import math

import numpy as np

from qclock import QuantumChannel


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


def json_safe(value):
    """Recursively replace non-finite floats by "nan", "inf" or "-inf" so documents stay standard JSON."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def stdlib_dumps(doc) -> str:
    """The expression that defines the frozen layout; the oracle for fileio.dumps."""
    return json.dumps(json_safe(doc), indent=2) + "\n"


def append_state_channel(sigma, dim_in):
    """Channel rho -> rho (x) sigma from ``dim_in`` to ``dim_in * sigma.dim``, Choi form only."""
    omega = np.eye(dim_in, dtype=complex).reshape(-1)  # sum_i e_i (x) e_i
    choi = np.kron(np.outer(omega, omega), sigma.entries)
    return QuantumChannel(dim_in, dim_in * sigma.dim, choi)


def depolarizing_channel(dim_in, dim_out=None):
    """Channel mapping every state to the maximally mixed state I/dim_out, Choi form only."""
    dim_out = dim_in if dim_out is None else dim_out
    choi = np.kron(np.eye(dim_in, dtype=complex), np.eye(dim_out, dtype=complex) / dim_out)
    return QuantumChannel(dim_in, dim_out, choi)


def flat_apply_to_matrix(kraus, x):
    """sum_m K_m X K_m† as two flat products over the rows (a, m) of the operators K_m[a, :]."""
    dim_out, dim_in = kraus.shape[1:]
    rows = kraus.transpose(1, 0, 2).reshape(-1, dim_in)
    kx = (rows @ x).reshape(dim_out, -1)
    return kx @ rows.reshape(dim_out, -1).conj().T


def flat_kraus_marginal(kraus):
    """sum_m K_m† K_m as one product of the operators stacked as a (r*dout, din) matrix."""
    stacked = kraus.reshape(-1, kraus.shape[2])
    return stacked.conj().T @ stacked
