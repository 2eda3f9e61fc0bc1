"""Numerical checks of the copy bound and of clock-quality monotonicity.

A covariant process that turns one clock signal into two outgoing signals
obeys

    1/F_1 + 1/F_2  >=  2/F + 2/<E^2>,

where F is the input timing information, F_1 and F_2 the marginal timing
information of the outputs, and <E^2> the second moment of the total output
energy (ground level shifted to zero; the zero of energy is a convention and
is recorded with every report).  Equivalently, in estimation-error form,
(dt_1)^2 + (dt_2)^2 >= 2 dt^2 + 2/<E^2>.  Covariant processing also can never
increase timing information: F_out <= F_in.

Both inequalities concern processes that run without an external clock, that
is CPTP channels covariant for the input and output Hamiltonians.  Both checks
pass through one gate that rejects every other map, and both verdicts come
from one margin with one tolerance.

These modules do not prove anything; they try to falsify the inequalities on
seeded Monte-Carlo ensembles of twirled random channels and report margins.
The sweeps put ladder spectra on the input and on every output, so the
signals share Bohr frequencies and the twirl keeps coherence.  Generic
spectra share none: the twirl would leave F_1 = F_2 = 0 on every row and the
bound would hold vacuously, so sweeps reject them.  Every column of a sweep
row scales exactly with an energy scale lambda (F and <E^2> as lambda^2,
reciprocals and margins as 1/lambda^2), which makes ``energy_scales`` a units
check.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    COVARIANCE_TOL,
    QuantumChannel,
    apply_channel,
    covariant_twirl,
    is_covariant,
    partial_trace,
    random_channel,
    validate_cptp,
)
from .errors import ConfigError, DimensionMismatchError, PreconditionError
from .fisher import F_FLOOR, qfi, time_uncertainty
from .states import (
    ClockSystem,
    Hamiltonian,
    equal_superposition_clock,
    ladder_hamiltonian,
    random_density,
)

MARGIN_TOL = 1e-8


def _reciprocal(value: float) -> float:
    return math.inf if value <= F_FLOOR else 1.0 / value


def _margin(lhs: float, rhs: float):
    if math.isinf(lhs):
        return math.inf, True
    if math.isinf(rhs):
        return -math.inf, False
    margin = lhs - rhs
    return margin, margin >= -MARGIN_TOL


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices as one broadcast product: the same
    products, without the ~12 us of Python work ``np.kron`` spends per call."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def total_hamiltonian(h1: Hamiltonian, h2: Hamiltonian) -> Hamiltonian:
    """Non-interacting sum H1 (x) 1 + 1 (x) H2 on the joint output space.

    Its decomposition comes from the factors' with no ``eigh``: the
    eigenvalues are the sums E1[a] + E2[b] in stable ascending order, and the
    eigenvectors are the columns of kron(U1, U2) in the same order.
    """
    entries = _kron(h1.entries, np.eye(h2.dim)) + _kron(np.eye(h1.dim), h2.entries)
    sums = (h1.eigenvalues[:, None] + h2.eigenvalues[None, :]).reshape(-1)
    order = np.argsort(sums, kind="stable")
    vectors = _kron(h1.eigenvectors, h2.eigenvectors)[:, order]
    return Hamiltonian._from_decomposition(entries, sums[order], vectors)


@dataclass(frozen=True)
class CopyBoundReport:
    f_in: float
    f1: float
    f2: float
    e2: float
    e2_unshifted: float
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    covariance_residual: float


def _require_covariant_process(
    clock: ClockSystem, channel: QuantumChannel, h_out: Hamiltonian
) -> float:
    """Admit only CPTP channels covariant for (clock's H, h_out); return the covariance residual.

    Non-covariant processing can legitimately increase timing information,
    so such channels are rejected with guidance to project them first.
    """
    if channel.dim_in != clock.dim or channel.dim_out != h_out.dim:
        raise DimensionMismatchError(
            f"channel {channel.dim_in}->{channel.dim_out} does not map clock dim "
            f"{clock.dim} to output dim {h_out.dim}"
        )
    cptp = validate_cptp(channel)
    if not cptp.ok:
        raise PreconditionError(
            "channel is not CPTP "
            f"(cp violation {cptp.cp_violation:.3e}, tp violation {cptp.tp_violation:.3e})"
        )
    cov = is_covariant(channel, clock.hamiltonian, h_out)
    if not cov.is_covariant:
        raise PreconditionError(
            f"channel is not covariant (residual {cov.residual:.3e} "
            f"> {COVARIANCE_TOL:.1e}); apply covariant_twirl first"
        )
    return cov.residual


def copy_bound_check(
    clock: ClockSystem,
    broadcast: QuantumChannel,
    h1: Hamiltonian,
    h2: Hamiltonian,
) -> CopyBoundReport:
    """Evaluate the copy bound for one clock and one two-output broadcast channel.

    The broadcast must be CPTP and covariant for (H, H1 (x) 1 + 1 (x) H2);
    other maps raise PreconditionError (project them with covariant_twirl
    first).  Reciprocals of timing informations at or below ``F_FLOOR`` are
    reported as infinite.
    """
    return _copy_bound(clock, broadcast, h1, h2, total_hamiltonian(h1, h2))


def _copy_bound(
    clock: ClockSystem,
    broadcast: QuantumChannel,
    h1: Hamiltonian,
    h2: Hamiltonian,
    h_total: Hamiltonian,
) -> CopyBoundReport:
    """:func:`copy_bound_check` for a caller that already holds ``total_hamiltonian(h1, h2)``."""
    residual = _require_covariant_process(clock, broadcast, h_total)

    rho_out = apply_channel(broadcast, clock.state)
    marginal1 = partial_trace(rho_out, (h1.dim, h2.dim), keep=1)
    marginal2 = partial_trace(rho_out, (h1.dim, h2.dim), keep=2)

    f_in = qfi(clock).fisher_info
    f1 = qfi(ClockSystem(marginal1, h1)).fisher_info
    f2 = qfi(ClockSystem(marginal2, h2)).fisher_info

    ground = float(h1.eigenvalues[0] + h2.eigenvalues[0])
    shifted = h_total.entries - ground * np.eye(h_total.dim)
    e2 = float(np.real(np.trace(rho_out.entries @ shifted @ shifted)))
    e2_unshifted = float(np.real(np.trace(rho_out.entries @ h_total.entries @ h_total.entries)))

    lhs = _reciprocal(f1) + _reciprocal(f2)
    rhs = 2.0 * _reciprocal(f_in) + 2.0 * _reciprocal(e2)
    margin, satisfied = _margin(lhs, rhs)
    return CopyBoundReport(
        f_in=f_in,
        f1=f1,
        f2=f2,
        e2=e2,
        e2_unshifted=e2_unshifted,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        satisfied=satisfied,
        covariance_residual=residual,
    )


@dataclass(frozen=True)
class UncertaintyReport:
    dt_in: float
    dt1: float
    dt2: float
    lhs: float
    rhs: float
    satisfied: bool


def time_uncertainty_check(report: CopyBoundReport) -> UncertaintyReport:
    """Restate a copy-bound report as the squared-uncertainty inequality.

    dt = 1/sqrt(F) per signal; vanishing information is reported as unbounded
    uncertainty.  Since dt^2 = 1/F, the inequality's two sides and verdict are
    the copy bound's own, and are taken from the report.
    """
    return UncertaintyReport(
        dt_in=time_uncertainty(report.f_in),
        dt1=time_uncertainty(report.f1),
        dt2=time_uncertainty(report.f2),
        lhs=report.lhs,
        rhs=report.rhs,
        satisfied=report.satisfied,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    f_in: float
    f_out: float
    covariance_residual: float
    holds: bool

    @property
    def margin(self) -> float:
        """f_in - f_out, the slack that ``holds`` is judged on."""
        return _margin(self.f_in, self.f_out)[0]


def monotonicity_check(
    clock: ClockSystem,
    channel: QuantumChannel,
    h_out: Hamiltonian,
) -> MonotonicityReport:
    """Check that a covariant channel does not increase timing information.

    The channel must be CPTP and covariant for (H, h_out); other maps raise
    PreconditionError, since they can legitimately increase F (that is
    precisely what the covariance condition rules out).
    """
    residual = _require_covariant_process(clock, channel, h_out)
    f_in = qfi(clock).fisher_info
    out_state = apply_channel(channel, clock.state)
    f_out = qfi(ClockSystem(out_state, h_out)).fisher_info
    return MonotonicityReport(
        f_in=f_in,
        f_out=f_out,
        covariance_residual=residual,
        holds=_margin(f_in, f_out)[1],
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "sample_id",
    "seed",
    "dim_in",
    "dim_out1",
    "dim_out2",
    "f_in",
    "f1",
    "f2",
    "e2",
    "lhs",
    "rhs",
    "margin",
    "satisfied",
    "covariance_residual",
)
EXTRA_COLUMNS = ("kraus_rank", "energy_scale", "clock")


@dataclass(frozen=True)
class SweepResult:
    experiment: str
    seed: int
    rows: list
    summary: dict


_REQUIRED = object()
# kind -> (accepted types, range check, description); bool is never a number
_KINDS = {
    int: (int, lambda v: v >= 1, "an integer >= 1"),
    float: ((int, float), lambda v: 0 < v <= sys.float_info.max, "a finite number > 0"),
    str: (str, lambda v: True, "a string"),
    list: ((list, tuple), lambda v: len(v) > 0, "a non-empty list"),
}


def _checked(field: str, value, kind, choices=None):
    """Check one sweep-config value's type, range and choices; ``float`` values come back as float."""
    types, in_range, description = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) or not in_range(value):
        raise ConfigError(f"sweep config field '{field}' must be {description}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"sweep config field '{field}' must be one of {choices}, got {value!r}")
    return float(value) if kind is float else value


def _field(config: dict, field: str, kind, default=_REQUIRED, choices=None):
    """Read and check one sweep-config field; a missing field takes ``default``, if it has one."""
    if field in config:
        return _checked(field, config[field], kind, choices)
    if default is _REQUIRED:
        raise ConfigError(f"sweep config is missing required field '{field}'")
    return default


def _row(report, **columns) -> dict:
    """One sweep row in frozen column order.

    The report's fields fill the columns of the same name, ``columns`` fill
    the rest, and a column the experiment has no value for stays None.
    """
    row = dict.fromkeys(CSV_COLUMNS + EXTRA_COLUMNS)
    row.update((k, v) for k, v in asdict(report).items() if k in row)
    row.update(columns)
    return row


def _copy_bound_sample(config: dict, base_seed: int, index: int) -> list:
    dim_in = config["dim_in"]
    d1 = config["dim_out1"]
    d2 = config["dim_out2"]
    kraus_rank = config["kraus_rank"]
    quantum = config["energy_quantum"]
    sub_seed = base_seed + index
    rng = np.random.default_rng(sub_seed)

    if config["clock"] == "equal_superposition":
        state = equal_superposition_clock(dim_in, quantum).state
    else:
        state = random_density(dim_in, 1 + index % dim_in, rng)
    raw = random_channel(dim_in, d1 * d2, kraus_rank, rng)

    shared = {"sample_id": index, "seed": sub_seed, "dim_in": dim_in, "kraus_rank": kraus_rank}
    rows = []
    for lam in config["energy_scales"]:
        clock = ClockSystem(state, ladder_hamiltonian(dim_in, quantum * lam))
        h1 = ladder_hamiltonian(d1, quantum * lam)
        h2 = ladder_hamiltonian(d2, quantum * lam)
        h_total = total_hamiltonian(h1, h2)
        broadcast = covariant_twirl(raw, clock.hamiltonian, h_total)
        report = _copy_bound(clock, broadcast, h1, h2, h_total)
        rows.append(
            _row(report, **shared, dim_out1=d1, dim_out2=d2, energy_scale=lam, clock=config["clock"])
        )
    return rows


def _monotonicity_sample(config: dict, base_seed: int, index: int) -> list:
    dim = config["dim"]
    dim_out = config["dim_out"]
    kraus_rank = config["kraus_rank"]
    sub_seed = base_seed + index
    rng = np.random.default_rng(sub_seed)

    h_in = ladder_hamiltonian(dim, 1.0)
    h_out = ladder_hamiltonian(dim_out, 1.0)
    clock = ClockSystem(random_density(dim, 1 + index % dim, rng), h_in)
    channel = covariant_twirl(random_channel(dim, dim_out, kraus_rank, rng), h_in, h_out)
    report = monotonicity_check(clock, channel, h_out)
    return [
        _row(
            report,
            sample_id=index,
            seed=sub_seed,
            dim_in=dim,
            kraus_rank=kraus_rank,
            dim_out1=dim_out,
            f1=report.f_out,
            lhs=report.f_in,
            rhs=report.f_out,
            margin=report.margin,
            satisfied=report.holds,
            clock="random",
        )
    ]


def _normalize_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("sweep config must be a JSON object")
    experiment = _field(config, "experiment", str, choices=("copy_bound", "monotonicity"))
    out = {"experiment": experiment}
    out["samples"] = _field(config, "samples", int)
    hamiltonians = config.get("hamiltonians", "ladder")
    if hamiltonians != "ladder":
        raise ConfigError(
            f"sweep config field 'hamiltonians' must be 'ladder', got {hamiltonians!r}: generic "
            "spectra share no Bohr frequencies, so the covariant twirl removes every coherence "
            "and each row would have F1 = F2 = 0"
        )
    if experiment == "copy_bound":
        out["dim_in"] = _field(config, "dim_in", int)
        out["dim_out1"] = _field(config, "dim_out1", int)
        out["dim_out2"] = _field(config, "dim_out2", int)
        out["kraus_rank"] = _field(config, "kraus_rank", int, 2)
        out["clock"] = _field(
            config, "clock", str, "equal_superposition", choices=("equal_superposition", "random")
        )
        out["energy_quantum"] = _field(config, "energy_quantum", float, 1.0)
        scales = _field(config, "energy_scales", list, [1.0])
        out["energy_scales"] = [_checked("energy_scales", s, float) for s in scales]
    else:
        out["dim"] = _field(config, "dim", int)
        out["dim_out"] = _field(config, "dim_out", int, out["dim"])
        out["kraus_rank"] = _field(config, "kraus_rank", int, 2)
    return out


def sweep(config: dict, seed=None) -> SweepResult:
    """Run a seeded Monte-Carlo sweep of copy-bound or monotonicity checks.

    Samples run in index order, and sample k derives its own sub-seed as
    seed + k, so a row depends only on its sub-seed and the config.  The seed
    comes only from the ``seed`` argument; a ``seed`` field in the config is
    not read.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"sweep needs an integer seed argument (--seed), got {seed!r}")
    cfg = _normalize_config(config)
    samples = cfg["samples"]
    sample_fn = _copy_bound_sample if cfg["experiment"] == "copy_bound" else _monotonicity_sample
    rows = [row for index in range(samples) for row in sample_fn(cfg, seed, index)]

    margins = [row["margin"] for row in rows]
    summary = {
        "experiment": cfg["experiment"],
        "samples": samples,
        "rows": len(rows),
        "min_margin": min(margins),
        "all_satisfied": all(row["satisfied"] for row in rows),
    }
    return SweepResult(experiment=cfg["experiment"], seed=seed, rows=rows, summary=summary)
