"""Independent output checks for the benchmark, in plain NumPy.

Nothing here calls qclock: every check recomputes what it needs from the
inputs the benchmark generated, so a defect in the library cannot vouch for
itself.  Each check returns a list of problems; an empty list means the
output is correct.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

ROW_TOL = 1e-8          # F1, F2 <= F_in + ROW_TOL; covariance residual <= ROW_TOL
F_IN_RTOL = 1e-9        # equal-superposition F_in against (n^2 - 1)/3, scaled
QFI_RTOL = 1e-8         # library QFI against the plain-NumPy recomputation
CPTP_TOL = 1e-9
FREQ_GAP = 1e-6         # test spectra are integer ladders, so mismatches are 0 or >= 1
COMMUTE_TOL = 1e-8
F_FLOOR = 1e-12
FROZEN_CSV_PREFIX = (
    "sample_id", "seed", "dim_in", "dim_out1", "dim_out2", "f_in", "f1", "f2",
    "e2", "lhs", "rhs", "margin", "satisfied", "covariance_residual",
)


def num(value) -> float:
    """Float from a JSON/CSV cell; the wire formats spell infinities as 'inf'."""
    return float(value)


def _recip(f: float) -> float:
    return math.inf if f <= F_FLOOR else 1.0 / f


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def copy_rows(rows, n: int, quantum: float, equal_superposition: bool) -> list[str]:
    """Copy-bound sweep rows: bound holds, monotone marginals, F_in as the theory says."""
    problems = []
    for row in rows:
        tag = f"row {row.get('sample_id')}@{row.get('energy_scale')}"
        f_in, f1, f2, e2 = (num(row[k]) for k in ("f_in", "f1", "f2", "e2"))
        scale = num(row["energy_scale"]) * quantum
        if equal_superposition:
            expected = scale * scale * (n * n - 1) / 3.0
            if abs(f_in - expected) > F_IN_RTOL * expected:
                problems.append(f"{tag}: f_in {f_in!r} != {expected!r}")
        elif not 0.0 < f_in <= scale * scale * (n - 1) ** 2 * (1 + F_IN_RTOL):
            problems.append(f"{tag}: f_in {f_in!r} outside (0, (n-1)^2]")
        if row["satisfied"] not in (True, "true"):
            problems.append(f"{tag}: not satisfied")
        if not num(row["covariance_residual"]) <= ROW_TOL:
            problems.append(f"{tag}: covariance residual {row['covariance_residual']}")
        if not (f1 <= f_in + ROW_TOL and f2 <= f_in + ROW_TOL):
            problems.append(f"{tag}: marginal information exceeds input")
        if not e2 > 0.0:
            problems.append(f"{tag}: <E^2> = {e2!r}")
        lhs = _recip(f1) + _recip(f2)
        rhs = 2.0 * _recip(f_in) + 2.0 * _recip(e2)
        if not (_close(lhs, num(row["lhs"]), 1e-9) and _close(rhs, num(row["rhs"]), 1e-9)):
            problems.append(f"{tag}: lhs/rhs disagree with the reported F values")
        if not (math.isinf(lhs) or lhs - rhs >= -ROW_TOL):
            problems.append(f"{tag}: recomputed bound violated ({lhs!r} < {rhs!r})")
    return problems


def monotonicity_rows(rows, n: int) -> list[str]:
    """Monotonicity sweep rows on ladder spectra with quantum 1."""
    problems = []
    for row in rows:
        tag = f"row {row.get('sample_id')}"
        f_in, f_out = num(row["f_in"]), num(row["f1"])
        if not 0.0 < f_in <= (n - 1) ** 2 * (1 + F_IN_RTOL):
            problems.append(f"{tag}: f_in {f_in!r} outside (0, (n-1)^2]")
        if row["satisfied"] not in (True, "true") or not f_out <= f_in + ROW_TOL:
            problems.append(f"{tag}: monotonicity violated ({f_out!r} > {f_in!r})")
        if not num(row["covariance_residual"]) <= ROW_TOL:
            problems.append(f"{tag}: covariance residual {row['covariance_residual']}")
        if not _close(num(row["margin"]), f_in - f_out, 1e-9):
            problems.append(f"{tag}: margin disagrees with F values")
    return problems


def csv_rows(text: str) -> tuple[list[str], list[dict]]:
    """Parse a sweep CSV; checks the frozen column prefix and the summary row."""
    records = list(csv.reader(io.StringIO(text)))
    if not records or tuple(records[0][: len(FROZEN_CSV_PREFIX)]) != FROZEN_CSV_PREFIX:
        return ["csv column prefix differs from the frozen one"], []
    rows = [dict(zip(records[0], rec)) for rec in records[1:]]
    if not rows or rows[-1]["sample_id"] != "summary":
        return ["csv has no summary row"], []
    summary, rows = rows[-1], rows[:-1]
    problems = []
    if rows and num(summary["margin"]) != min(num(r["margin"]) for r in rows):
        problems.append("csv summary margin is not the minimum margin")
    return problems, rows


def qfi(rho: np.ndarray, h: np.ndarray) -> float:
    """SLD Fisher information sum 2 (p_k - p_l)^2 |H_kl|^2 / (p_k + p_l)."""
    p, v = np.linalg.eigh(rho)
    h_eig = v.conj().T @ h @ v
    denom = p[:, None] + p[None, :]
    keep = denom > F_FLOOR
    diff = (p[:, None] - p[None, :]) ** 2
    return float(np.sum(2.0 * diff[keep] * np.abs(h_eig[keep]) ** 2 / denom[keep]))


def fisher(reported: float, rho: np.ndarray, h: np.ndarray, what: str) -> list[str]:
    expected = qfi(rho, h)
    if not _close(reported, expected, QFI_RTOL):
        return [f"{what}: F {reported!r} != recomputed {expected!r}"]
    return []


def apply_choi(choi: np.ndarray, din: int, dout: int, x: np.ndarray) -> np.ndarray:
    """G(X)[a, b] = sum_ij choi[(i, a), (j, b)] X[i, j] (the frozen Choi layout)."""
    return np.einsum("iajb,ij->ab", choi.reshape(din, dout, din, dout), x)


def cptp_violations(choi: np.ndarray, din: int, dout: int) -> tuple[float, float]:
    cp = float(max(0.0, -np.linalg.eigvalsh(choi)[0]))
    marginal = np.einsum("iaja->ij", choi.reshape(din, dout, din, dout))
    return cp, float(np.abs(marginal - np.eye(din)).max())


def twirled_choi(choi: np.ndarray, h_in: np.ndarray, h_out: np.ndarray, raw=None) -> list[str]:
    """The twirl output is CPTP and has no entries between mismatched Bohr frequencies.

    Given the ``raw`` input channel, the output must also keep every
    frequency-matched entry of it unchanged.
    """
    din, dout = h_in.shape[0], h_out.shape[0]
    problems = []
    if np.abs(choi - choi.conj().T).max() > CPTP_TOL:
        problems.append("choi is not Hermitian")
    cp, tp = cptp_violations((choi + choi.conj().T) / 2, din, dout)
    if cp > CPTP_TOL or tp > CPTP_TOL:
        problems.append(f"choi is not CPTP (cp {cp:.3e}, tp {tp:.3e})")
    e_in, v_in = np.linalg.eigh(h_in)
    e_out, v_out = np.linalg.eigh(h_out)
    w = np.kron(v_in.conj(), v_out)
    c_eig = w.conj().T @ choi @ w
    nu = (e_out[None, :] - e_in[:, None]).reshape(-1)
    mismatched = np.abs(nu[:, None] - nu[None, :]) > FREQ_GAP
    leak = float(np.abs(c_eig[mismatched]).max()) if mismatched.any() else 0.0
    if leak > CPTP_TOL:
        problems.append(f"choi couples mismatched frequencies (max {leak:.3e})")
    if raw is not None:
        kept = np.abs((c_eig - w.conj().T @ raw @ w)[~mismatched]).max()
        if kept > CPTP_TOL:
            problems.append(f"choi differs from the input on matched frequencies (max {kept:.3e})")
    return problems


def density(x: np.ndarray, what: str) -> list[str]:
    problems = []
    if np.abs(x - x.conj().T).max() > 1e-12:
        problems.append(f"{what} is not Hermitian")
    if abs(np.trace(x).real - 1.0) > 1e-10:
        problems.append(f"{what} trace differs from 1")
    if np.linalg.eigvalsh((x + x.conj().T) / 2)[0] < -1e-10:
        problems.append(f"{what} is not positive semidefinite")
    return problems


def witness(projector, rho_a: np.ndarray, rho_b: np.ndarray, truth: bool, verdict: bool) -> list[str]:
    """Verdict matches the planted truth; a witness commutes with both states."""
    if bool(verdict) != truth:
        return [f"verdict {verdict} but planted truth is {truth}"]
    if not truth:
        return [] if projector is None else ["indistinguishable pair came with a witness"]
    p = np.asarray(projector)
    problems = []
    if np.abs(p @ p - p).max() > COMMUTE_TOL or np.abs(p - p.conj().T).max() > COMMUTE_TOL:
        problems.append("witness is not an orthogonal projector")
    for name, rho in (("a", rho_a), ("b", rho_b)):
        if np.abs(p @ rho - rho @ p).max() > COMMUTE_TOL:
            problems.append(f"witness does not commute with state {name}")
    if abs(np.trace(p @ (rho_a - rho_b)).real) <= 1e-9:
        problems.append("witness does not separate the states")
    return problems


def block_traces(report_traces: np.ndarray, expected: np.ndarray, conserved: bool) -> list[str]:
    """Block weights at every sampled time equal the planted (time-independent) weights."""
    traces = np.asarray(report_traces)
    if traces.shape[1:] != expected.shape:
        return [f"block traces have shape {traces.shape}, expected (*, {expected.size})"]
    problems = []
    if np.abs(traces - expected[None, :]).max() > 1e-9:
        problems.append("block traces differ from the planted weights")
    if not conserved:
        problems.append("conserved block traces reported as not conserved")
    return problems


def against_reference(fields: dict, reference: dict, tol: float = 1e-8) -> list[str]:
    """Compare only the named fields stored in ``reference``; extra fields are ignored."""
    problems = []
    for key, want in reference.items():
        if key not in fields:
            problems.append(f"reference field {key!r} missing")
            continue
        got = fields[key]
        if isinstance(want, bool) or isinstance(got, bool):
            ok = bool(got) == bool(want)
        else:
            ok = _close(float(got), float(want), tol)
        if not ok:
            problems.append(f"field {key!r} = {got!r}, reference {want!r}")
    return problems
