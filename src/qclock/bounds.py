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

A sweep draws its samples in index order, each from ``default_rng(seed +
k)``, and evaluates its rows in stacks: the twirl, the gate, the output
states' checks, the Fisher informations, <E^2> and the margin run over a
leading row axis, in a row kernel per experiment that the single checks run
on one row, and one loop draws, twirls and assembles the rows of both.  A
ladder twirl is the same at every energy scale, so each stack of samples is
twirled once and its class form (see ``channels``) serves the rows of every
scale, sample by sample.  The gate and the output
states are computed on the class form, so no masked operator and no Choi
matrix is formed.  A stack holds at most ``_STACK_ROWS`` rows, and its
kernels gather at most ``_STACK_BYTES`` of operator entries, so no more
rows' work is held at once.  Each row is treated on its own, so its bits do
not depend on the stack it is in.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    COVARIANCE_TOL,
    CPTP_TOL,
    QuantumChannel,
    _apply_rows,
    _channel_ops,
    _covariance_rows,
    _cptp_rows,
    _partial_trace_matrix,
    _twirled_ops,
    random_channel,
)
from .errors import ConfigError, DimensionMismatchError, PreconditionError
from .fisher import F_FLOOR, _fisher_rows, time_uncertainty
from .states import (
    ClockSystem,
    Hamiltonian,
    _density_rows,
    _equal_superposition,
    ladder_hamiltonian,
    random_density,
)

MARGIN_TOL = 1e-8
# the most rows, and the most bytes of gathered operator entries, that a sweep holds as one
# stack: a stack saves per-call overhead on small rows, while rows of ~1 MB run fastest one at
# a time
_STACK_ROWS = 16
_STACK_BYTES = 2**20


def _reciprocal(values: np.ndarray) -> np.ndarray:
    """1/F of each value; infinite at or below ``F_FLOOR``."""
    return np.divide(1.0, values, out=np.full(values.shape, math.inf), where=~(values <= F_FLOOR))


def _margin(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Slack lhs - rhs of each row and its verdict against ``MARGIN_TOL``.

    An infinite lhs gives +inf and holds; otherwise an infinite rhs gives
    -inf and fails.
    """
    margin = np.subtract(lhs, rhs, out=np.full(lhs.shape, math.inf), where=~np.isinf(lhs))
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


def _check_process_dims(clock: ClockSystem, channel: QuantumChannel, h_out: Hamiltonian):
    if channel.dim_in != clock.dim or channel.dim_out != h_out.dim:
        raise DimensionMismatchError(
            f"channel {channel.dim_in}->{channel.dim_out} does not map clock dim "
            f"{clock.dim} to output dim {h_out.dim}"
        )


def _require_covariant_rows(ops: np.ndarray, h_in: np.ndarray, h_out: np.ndarray) -> np.ndarray:
    """Admit only CPTP channels covariant for (h_in, h_out); return each row's covariance residual.

    ``ops`` is a stack of channels as ``channels._apply_rows`` takes it.
    Non-covariant processing can legitimately increase timing information,
    so the first row that fails raises, with guidance to project it first.
    """
    cp, tp, _ = _cptp_rows(ops, h_in.shape[-1], h_out.shape[-1])
    residual = _covariance_rows(ops, h_in, h_out)
    cptp = (cp <= CPTP_TOL) & (tp <= CPTP_TOL)
    failed = ~(cptp & (residual <= COVARIANCE_TOL))
    if failed.any():
        b = failed.argmax()
        if not cptp[b]:
            raise PreconditionError(
                f"channel is not CPTP (cp violation {cp[b]:.3e}, tp violation {tp[b]:.3e})"
            )
        raise PreconditionError(
            f"channel is not covariant (residual {residual[b]:.3e} "
            f"> {COVARIANCE_TOL:.1e}); apply covariant_twirl first"
        )
    return residual


def _copy_bound_rows(states, ops, h_in, h_total, h1, h2, ground) -> tuple:
    """``CopyBoundReport`` columns of a stack of rows.

    ``states`` holds the clock states' entries, eigenvalues and eigenvectors
    as stacks, ``ops`` the broadcasts, the h's are Hamiltonian entries and
    ``ground`` the least total energy, all with a leading row axis.
    """
    rho, p, v = states
    residual = _require_covariant_rows(ops, h_in, h_total)
    out = _density_rows(_apply_rows(ops, rho))[0]
    d1, d2 = h1.shape[-1], h2.shape[-1]
    f_in = _fisher_rows(h_in, rho, p, v)[0]
    f1 = _fisher_rows(h1, *_density_rows(_partial_trace_matrix(out, d1, d2, keep=1)))[0]
    f2 = _fisher_rows(h2, *_density_rows(_partial_trace_matrix(out, d1, d2, keep=2)))[0]

    shifted = h_total - ground[:, None, None] * np.eye(h_total.shape[-1])
    e2 = np.real(np.trace(out @ shifted @ shifted, axis1=-2, axis2=-1))
    e2_unshifted = np.real(np.trace(out @ h_total @ h_total, axis1=-2, axis2=-1))

    r1, r2, r_in, r_e2 = _reciprocal(np.stack([f1, f2, f_in, e2]))
    lhs = r1 + r2
    rhs = 2.0 * r_in + 2.0 * r_e2
    margin, satisfied = _margin(lhs, rhs)
    return f_in, f1, f2, e2, e2_unshifted, lhs, rhs, margin, satisfied, residual


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
    reported as infinite.  The report is :func:`_copy_bound_rows` of a stack
    of one row.
    """
    h_total = total_hamiltonian(h1, h2)
    _check_process_dims(clock, broadcast, h_total)
    hs = (h.entries[None] for h in (clock.hamiltonian, h_total, h1, h2))
    ground = h_total.eigenvalues[:1]
    columns = _copy_bound_rows(_stacked([clock.state]), _channel_ops(broadcast), *hs, ground)
    return CopyBoundReport(*(column[0].item() for column in columns))


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
        return _margin(np.array(self.f_in), np.array(self.f_out))[0].item()


def _monotonicity_rows(states, ops, h_in, h_out) -> tuple:
    """f_in, f_out, covariance residual, verdict and margin of a stack of rows.

    The arguments are as for :func:`_copy_bound_rows`.
    """
    rho, p, v = states
    residual = _require_covariant_rows(ops, h_in, h_out)
    f_in = _fisher_rows(h_in, rho, p, v)[0]
    f_out = _fisher_rows(h_out, *_density_rows(_apply_rows(ops, rho)))[0]
    margin, holds = _margin(f_in, f_out)
    return f_in, f_out, residual, holds, margin


def monotonicity_check(
    clock: ClockSystem,
    channel: QuantumChannel,
    h_out: Hamiltonian,
) -> MonotonicityReport:
    """Check that a covariant channel does not increase timing information.

    The channel must be CPTP and covariant for (H, h_out); other maps raise
    PreconditionError, since they can legitimately increase F (that is
    precisely what the covariance condition rules out).  The report is
    :func:`_monotonicity_rows` of a stack of one row.
    """
    _check_process_dims(clock, channel, h_out)
    hs = (clock.hamiltonian.entries[None], h_out.entries[None])
    columns = _monotonicity_rows(_stacked([clock.state]), _channel_ops(channel), *hs)
    return MonotonicityReport(*(column[0].item() for column in columns[:4]))


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


def _rows(n: int, **columns) -> list:
    """n sweep rows in frozen column order.

    A list gives each row its own value, any other value is shared by all
    rows, and a column the experiment has no value for stays None.
    """
    names = CSV_COLUMNS + EXTRA_COLUMNS
    cells = [columns.get(name) for name in names]
    cells = [cell if isinstance(cell, list) else [cell] * n for cell in cells]
    return [dict(zip(names, row)) for row in zip(*cells)]


def _draws(seed: int, ks: range, dim: int, dim_out: int, kraus_rank: int, state=None) -> tuple:
    """Clock states and raw channels of samples ks, each from ``default_rng(seed + k)``.

    The state is drawn before the channel; a given ``state`` serves every
    sample and draws nothing.  The channels come as one stack, as
    ``channels._apply_rows`` takes them.
    """
    states, raws = [], []
    for k in ks:
        rng = np.random.default_rng(seed + k)
        states.append(random_density(dim, 1 + k % dim, rng) if state is None else state)
        raws.append(random_channel(dim, dim_out, kraus_rank, rng).kraus)
    return states, np.stack(raws)


def _stacked(states: list) -> tuple:
    """Entries, eigenvalues and eigenvectors of a list of states, each as one stack."""
    names = ("entries", "eigenvalues", "eigenvectors")
    return tuple(np.stack([getattr(st, name) for st in states]) for name in names)


def _rows_per_stack(row_entries: int) -> int:
    """Rows a stack holds when the kernels gather ``row_entries`` complex entries per row: at
    most ``_STACK_ROWS``, and at most ``_STACK_BYTES`` of them.

    The sweeps pass ``rank * dim_in * dim_out**2``: a row gathers ``rank`` entries for each
    within-class pair of its class form (see ``channels``), and a ladder class holds at most
    one entry per output level, so each of the ``dim_in * dim_out`` entries has at most
    ``dim_out`` partners.
    """
    return max(1, min(_STACK_ROWS, _STACK_BYTES // (16 * row_entries)))


def _sweep_rows(cfg: dict, seed: int, levels: list, kernel, cells: dict, **shared) -> list:
    """Rows of either experiment, in stacks that ``kernel`` evaluates at every level.

    ``levels`` holds (energy scale, h_in, h_out, *rest) per scale: the gate's
    Hamiltonians, the first pair also the twirl's, then the kernel's further
    arguments.  ``cells`` maps row cells to kernel column indices, and
    ``shared`` gives cells common to all rows.
    """
    h_in, h_out = levels[0][1:3]
    args = [(level[1].entries, level[2].entries, *level[3:]) for level in levels]
    clock = cfg.get("clock", "random")  # a monotonicity sweep draws a random clock per sample
    state = _equal_superposition(h_in.dim) if clock == "equal_superposition" else None
    cap = _rows_per_stack(cfg["kraus_rank"] * h_in.dim * h_out.dim**2)
    per_stack = max(1, cap // len(levels))
    rows = []
    for start in range(0, cfg["samples"], per_stack):
        ks = range(start, min(cfg["samples"], start + per_stack))
        states, raws = _draws(seed, ks, h_in.dim, h_out.dim, cfg["kraus_rank"], state)
        # a ladder twirl has the same frequency classes, so the same operators, at every scale
        twirled = _twirled_ops(raws, h_in, h_out)
        per_batch = max(1, cap // len(ks))  # scales whose rows are held at once
        for first in range(0, len(levels), per_batch):
            batch = range(first, min(len(levels), first + per_batch))
            # sample-major rows: a stack of several samples holds all their scales in one batch
            ops = twirled if len(batch) == 1 else twirled.repeat(len(batch))
            hs = (np.stack([args[s][j] for s in batch] * len(ks)) for j in range(len(args[0])))
            columns = kernel(_stacked([st for st in states for _ in batch]), ops, *hs)
            samples = [k for k in ks for _ in batch]
            rows += _rows(
                len(samples),
                **{cell: columns[j].tolist() for cell, j in cells.items()},
                **shared,
                sample_id=samples,
                seed=[seed + k for k in samples],
                dim_in=h_in.dim,
                kraus_rank=cfg["kraus_rank"],
                energy_scale=[levels[s][0] for s in batch] * len(ks),
                clock=clock,
            )
    return rows


def _copy_bound_sweep(cfg: dict, seed: int) -> list:
    d1, d2 = cfg["dim_out1"], cfg["dim_out2"]
    levels = []
    for lam in cfg["energy_scales"]:
        quantum = cfg["energy_quantum"] * lam
        h1 = ladder_hamiltonian(d1, quantum)
        h2 = h1 if d2 == d1 else ladder_hamiltonian(d2, quantum)
        h_in, h_total = ladder_hamiltonian(cfg["dim_in"], quantum), total_hamiltonian(h1, h2)
        levels.append((lam, h_in, h_total, h1.entries, h2.entries, h_total.eigenvalues[0]))
    cells = {name: j for j, name in enumerate(CopyBoundReport.__dataclass_fields__)}
    return _sweep_rows(cfg, seed, levels, _copy_bound_rows, cells, dim_out1=d1, dim_out2=d2)


def _monotonicity_sweep(cfg: dict, seed: int) -> list:
    h_in, h_out = ladder_hamiltonian(cfg["dim"], 1.0), ladder_hamiltonian(cfg["dim_out"], 1.0)
    # f_in, f_out, residual, holds, margin; lhs and rhs repeat f_in and f_out
    cells = dict(f_in=0, f1=1, lhs=0, rhs=1, covariance_residual=2, satisfied=3, margin=4)
    levels = [(None, h_in, h_out)]
    return _sweep_rows(cfg, seed, levels, _monotonicity_rows, cells, dim_out1=h_out.dim)


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
        dim_in, dim_out = out["dim_in"], out["dim_out1"] * out["dim_out2"]
    else:
        dim_in = out["dim"] = _field(config, "dim", int)
        dim_out = out["dim_out"] = _field(config, "dim_out", int, out["dim"])
        out["kraus_rank"] = _field(config, "kraus_rank", int, 2)
    if out["kraus_rank"] * dim_out < dim_in:  # no isometry from dim_in into dim_out (x) C^rank
        raise ConfigError(
            f"sweep config field 'kraus_rank' must be at least {-(-dim_in // dim_out)} for a "
            f"{dim_in} -> {dim_out} channel (kraus_rank * dim_out >= dim_in), got {out['kraus_rank']}"
        )
    return out


def sweep(config: dict, seed=None) -> SweepResult:
    """Run a seeded Monte-Carlo sweep of copy-bound or monotonicity checks.

    Samples are drawn in index order, and sample k derives its own sub-seed
    as seed + k; a random clock also takes its rank, 1 + k mod dim, from k.
    Rows are evaluated in stacks (see the module docstring), and a row does
    not depend on the stack it is in.  The seed comes only from the ``seed``
    argument; a ``seed`` field in the config is not read.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"sweep needs a non-negative integer seed argument (--seed), got {seed!r}")
    cfg = _normalize_config(config)
    samples = cfg["samples"]
    run = _copy_bound_sweep if cfg["experiment"] == "copy_bound" else _monotonicity_sweep
    rows = run(cfg, seed)

    margins = [row["margin"] for row in rows]
    summary = {
        "experiment": cfg["experiment"],
        "samples": samples,
        "rows": len(rows),
        "trivial_rows": margins.count(math.inf),
        "min_margin": min(margins),
        "all_satisfied": all(row["satisfied"] for row in rows),
    }
    return SweepResult(experiment=cfg["experiment"], seed=seed, rows=rows, summary=summary)
