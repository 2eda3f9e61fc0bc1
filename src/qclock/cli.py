"""Command-line front end: every operation on files, seeded and reproducible.

Results go to stdout (or --output) as a single JSON document; sweeps can also
emit CSV.  stderr carries diagnostics only.  Exit codes: 0 success, 2
validation/precondition failures (with a machine-readable error object on
stdout), 1 internal errors, 64 usage errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import traceback

import numpy as np

from . import bounds, channels, distinguish, fileio, fisher, states
from .errors import ClockError, ConfigError, ValidationError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qclock", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--output", help="write the result document to this path")
        p.set_defaults(handler=handler)
        return p

    p = add("qfi", _cmd_qfi, "quantum Fisher timing information of a clock")
    p.add_argument("--clock", required=True)

    p = add("evolve", _cmd_evolve, "conjugate the clock state by exp(-iHt)")
    p.add_argument("--clock", required=True)
    p.add_argument("--time", type=float, required=True)

    p = add("moments", _cmd_moments, "energy mean, second moment, and spread of a clock")
    p.add_argument("--clock", required=True)

    p = add("make-state", _cmd_make_state, "construct named clock states")
    p.add_argument(
        "--kind",
        required=True,
        choices=["gaussian", "equal-superposition", "random-density", "random-hamiltonian"],
    )
    p.add_argument("--hamiltonian", help="hamiltonian file (gaussian kind)")
    p.add_argument("--mean", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--quantum", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--seed", type=int)

    p = add("check-channel", _cmd_check_channel, "CPTP (and optionally covariance) validation")
    p.add_argument("--channel", required=True)
    p.add_argument("--hamiltonian-in")
    p.add_argument("--hamiltonian-out")

    p = add("twirl", _cmd_twirl, "project a channel onto the covariant ones")
    p.add_argument("--channel", required=True)
    p.add_argument("--hamiltonian-in", required=True)
    p.add_argument("--hamiltonian-out", required=True)

    p = add("apply", _cmd_apply, "apply a channel to a state")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True)

    p = add("decompose", _cmd_decompose, "common invariant subspaces and block traces of two states")
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=distinguish.DEFAULT_DISTINGUISH_TOL)

    p = add("broadcastable", _cmd_broadcastable, "pairwise commutativity of a state family")
    p.add_argument("--states", nargs="+", required=True)
    p.add_argument("--tol", type=float, default=distinguish.DEFAULT_COMMUTE_TOL)

    p = add("orthogonal-times", _cmd_orthogonal_times, "mutually orthogonal times of the equal-superposition clock")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--quantum", type=float, required=True)

    p = add("copy-bound", _cmd_copy_bound, "copy bound for one clock and one broadcast channel")
    p.add_argument("--clock", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--hamiltonian-one", required=True)
    p.add_argument("--hamiltonian-two", required=True)

    p = add("monotonicity", _cmd_monotonicity, "clock-quality monotonicity under a covariant channel")
    p.add_argument("--clock", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--hamiltonian-out", required=True)

    p = add("sweep", _cmd_sweep, "seeded Monte-Carlo sweep of copy-bound or monotonicity checks")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"])

    return parser


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"file {path} is not valid JSON: {exc}")


def _clock(path: str) -> states.ClockSystem:
    return fileio.clock_from_json(_read_json(path))


def _cmd_qfi(args) -> dict:
    result = fisher.qfi(_clock(args.clock))
    return {
        "fisher_info": result.fisher_info,
        "kernel_dim": result.kernel_dim,
        "sld": fileio.matrix_to_json(result.sld),
    }


def _cmd_evolve(args) -> dict:
    return fileio.matrix_to_json(states.evolve(_clock(args.clock), args.time).entries)


def _cmd_moments(args) -> dict:
    return states.energy_moments(_clock(args.clock))._asdict()


def _need(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"make-state --kind {args.kind} requires --{name}")


def _cmd_make_state(args) -> dict:
    if args.kind == "gaussian":
        _need(args, ["hamiltonian", "mean", "sigma"])
        ham = fileio.hamiltonian_from_json(_read_json(args.hamiltonian))
        state = states.gaussian_energy_pure_state(ham, args.mean, args.sigma)
        clock = states.ClockSystem(state, ham)
        doc = fileio.clock_to_json(clock)
        doc["realized_std_dev"] = states.energy_moments(clock).std_dev
        return doc
    if args.kind == "equal-superposition":
        _need(args, ["levels", "quantum"])
        return fileio.clock_to_json(states.equal_superposition_clock(args.levels, args.quantum))
    if args.kind == "random-density":
        _need(args, ["dim", "rank", "seed"])
        return {"state": fileio.matrix_to_json(states.random_density(args.dim, args.rank, args.seed).entries)}
    _need(args, ["dim", "seed"])
    return {
        "hamiltonian": fileio.matrix_to_json(states.random_hamiltonian(args.dim, args.seed).entries)
    }


def _cmd_check_channel(args) -> dict:
    channel = fileio.channel_from_json(_read_json(args.channel))
    report = channels.validate_cptp(channel)
    doc = {
        "cp_violation": report.cp_violation,
        "tp_violation": report.tp_violation,
        "ok": report.ok,
    }
    if (args.hamiltonian_in is None) != (args.hamiltonian_out is None):
        raise ConfigError("--hamiltonian-in and --hamiltonian-out must be given together")
    if args.hamiltonian_in is not None:
        cov = channels.is_covariant(
            channel,
            fileio.hamiltonian_from_json(_read_json(args.hamiltonian_in)),
            fileio.hamiltonian_from_json(_read_json(args.hamiltonian_out)),
        )
        doc["covariance"] = {"residual": cov.residual, "is_covariant": cov.is_covariant}
    return doc


def _cmd_twirl(args) -> dict:
    twirled = channels.covariant_twirl(
        fileio.channel_from_json(_read_json(args.channel)),
        fileio.hamiltonian_from_json(_read_json(args.hamiltonian_in)),
        fileio.hamiltonian_from_json(_read_json(args.hamiltonian_out)),
    )
    return fileio.channel_to_json(twirled)


def _cmd_apply(args) -> dict:
    out = channels.apply_channel(
        fileio.channel_from_json(_read_json(args.channel)),
        fileio.density_from_json(_read_json(args.state)),
    )
    return fileio.matrix_to_json(out.entries)


def _cmd_decompose(args) -> dict:
    rho_a = fileio.density_from_json(_read_json(args.state_a))
    rho_b = fileio.density_from_json(_read_json(args.state_b))
    report = distinguish.common_invariant_decomposition(rho_a, rho_b, tol=args.tol, seed=args.seed)
    doc = {
        "subspaces": [fileio.matrix_to_json(s) for s in report.subspaces],
        "traces_a": list(report.traces_a),
        "traces_b": list(report.traces_b),
        "distinguishable": report.distinguishable,
        "witness_index": report.witness_index,
        "witness_projector": None,
    }
    if report.distinguishable:
        doc["witness_projector"] = fileio.matrix_to_json(report.witness_projector())
    return doc


def _cmd_broadcastable(args) -> dict:
    family = [fileio.density_from_json(_read_json(path)) for path in args.states]
    worst = distinguish.max_commutator(family)
    return {"commuting": worst <= args.tol, "max_commutator": worst}


def _cmd_orthogonal_times(args) -> dict:
    times = distinguish.orthogonal_times(args.levels, args.quantum)
    clock = states.equal_superposition_clock(args.levels, args.quantum)
    amps = np.exp(
        -1j * np.outer(times, clock.hamiltonian.eigenvalues)
    ) / np.sqrt(args.levels)
    gram = np.abs(amps.conj() @ amps.T)
    np.fill_diagonal(gram, 0.0)
    return {"times": list(times), "max_overlap": float(gram.max())}


def _copy_bound_doc(report: bounds.CopyBoundReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["uncertainty"] = dataclasses.asdict(bounds.time_uncertainty_check(report))
    return doc


def _cmd_copy_bound(args) -> dict:
    report = bounds.copy_bound_check(
        _clock(args.clock),
        fileio.channel_from_json(_read_json(args.channel)),
        fileio.hamiltonian_from_json(_read_json(args.hamiltonian_one)),
        fileio.hamiltonian_from_json(_read_json(args.hamiltonian_two)),
    )
    return _copy_bound_doc(report)


def _cmd_monotonicity(args) -> dict:
    report = bounds.monotonicity_check(
        _clock(args.clock),
        fileio.channel_from_json(_read_json(args.channel)),
        fileio.hamiltonian_from_json(_read_json(args.hamiltonian_out)),
    )
    return dataclasses.asdict(report)


def _cmd_sweep(args):
    result = bounds.sweep(_read_json(args.config), seed=args.seed)
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.output and args.output.endswith(".csv") else "json"
    if fmt == "csv":
        return fileio.sweep_to_csv(result)
    return fileio.sweep_to_json(result)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        doc = args.handler(args)
    except ClockError as exc:
        error_doc = {"code": exc.code, "message": exc.message, "detail": exc.detail}
        sys.stdout.write(fileio.dumps(error_doc))
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc(file=sys.stderr)
        sys.stdout.write(
            fileio.dumps({"code": "internal-error", "message": str(exc), "detail": {}})
        )
        return 1
    _emit(doc if isinstance(doc, str) else fileio.dumps(doc), args.output)
    return 0


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
