"""The three benchmark workloads.

A workload is built from a seed; ``call(k)`` returns the k-th top-level call
of its fixed, seeded request stream.  Kinds repeat in a fixed cycle, so the
mix is the same in every run and the latency percentiles fall inside one
kind's band rather than on the edge between two (see README.md).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import verify


@dataclass
class Outcome:
    problems: list
    rows: list = field(default_factory=list)  # checked sweep rows
    verdicts: int = 0  # checked distinguishability verdicts
    fields: dict = field(default_factory=dict)  # named fields for the stored reference
    bytes_in: int = 0
    bytes_out: int = 0


@dataclass
class Call:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _cycle(weights: dict) -> tuple:
    """Interleave kinds by weight into one fixed cycle."""
    slots = [(i / w, kind) for kind, w in weights.items() for i in range(w)]
    return tuple(kind for _, kind in sorted(slots))


def _row_fields(rows, keys) -> dict:
    return {f"{i}.{key}": verify.num(row[key]) for i, row in enumerate(rows) for key in keys}


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, d: int, floor: float = 0.0) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T + floor * d * np.eye(d)
    return hermitian(rho / np.trace(rho).real)


def hermitian(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2


class Workload:
    cycle: tuple = ()
    row_kinds: frozenset = frozenset()

    @property
    def trace_calls(self) -> int:
        """Calls in one pass of the traced script: one whole cycle."""
        return len(self.cycle)

    def call(self, k: int) -> Call:
        raise NotImplementedError

    def warmup(self) -> list:
        """Indices of the first call of each kind."""
        return sorted({kind: k for k, kind in reversed(list(enumerate(self.cycle)))}.values())


# ---------------------------------------------------------------------------
# sweep_d16: library copy-bound sweeps at (16, 4, 4)
# ---------------------------------------------------------------------------

class SweepD16(Workload):
    """One-sample copy-bound sweeps at dims (16, 4, 4), each on its own seed."""

    cycle = ("sweep",)
    row_kinds = frozenset(cycle)
    trace_calls = 4
    CONFIG = {
        "experiment": "copy_bound", "samples": 1, "dim_in": 16, "dim_out1": 4,
        "dim_out2": 4, "kraus_rank": 2, "clock": "equal_superposition",
        "hamiltonians": "ladder", "energy_quantum": 1.0, "energy_scales": [1.0],
    }

    def __init__(self, qc, seed: int, workdir: str):
        self.qc = qc
        self.base = 100_000 * seed

    def inputs(self):
        return [self.CONFIG, self.base]

    def call(self, k: int) -> Call:
        config = dict(self.CONFIG)
        return Call("sweep", lambda: self.qc.bounds.sweep(config, seed=self.base + k), self._check)

    def _check(self, result) -> Outcome:
        rows = list(result.rows)
        problems = verify.copy_rows(rows, 16, 1.0, equal_superposition=True)
        if len(rows) != 1:
            problems.append(f"expected 1 row, got {len(rows)}")
        return Outcome(problems, rows=rows, fields=_row_fields(rows, ("f_in", "f1", "f2", "e2", "margin")))


# ---------------------------------------------------------------------------
# cli_small: in-process CLI requests on small files
# ---------------------------------------------------------------------------

def _matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _ladder(n: int) -> np.ndarray:
    return np.diag(np.arange(1.0, n + 1.0)).astype(complex)


class CliSmall(Workload):
    """A fixed mix of ``qclock.cli.run`` requests, each writing to ``--output``."""

    VARIANTS = 3
    cycle = _cycle({
        "qfi": 3, "apply": 2, "sweep_4": 2, "sweep_8": 2, "sweep_mono": 2,
        "check_channel": 2, "copy_bound": 2, "twirl": 4,
    })
    row_kinds = frozenset({"sweep_4", "sweep_8", "sweep_mono"})
    SWEEPS = {
        "sweep_4": ({"experiment": "copy_bound", "samples": 2, "dim_in": 4, "dim_out1": 2,
                     "dim_out2": 2, "kraus_rank": 2, "clock": "random",
                     "hamiltonians": "ladder", "energy_scales": [0.5, 1, 2]}, "csv"),
        "sweep_8": ({"experiment": "copy_bound", "samples": 1, "dim_in": 8, "dim_out1": 3,
                     "dim_out2": 3, "kraus_rank": 2, "hamiltonians": "ladder"}, "json"),
        "sweep_mono": ({"experiment": "monotonicity", "samples": 2, "dim": 8, "dim_out": 8,
                        "kraus_rank": 2, "hamiltonians": "ladder"}, "json"),
    }

    def __init__(self, qc, seed: int, workdir: str):
        self.qc = qc
        self.base = 100_000 * seed
        self.dir = workdir
        self.sink = io.StringIO()
        rng = np.random.default_rng([seed, 2])
        self.h_in = _ladder(8)
        self.h_out = np.diag([a + b for a in range(1, 4) for b in range(1, 4)]).astype(complex)
        files = {"h_in": _matrix_doc(self.h_in), "h_out": _matrix_doc(self.h_out),
                 "h3": _matrix_doc(_ladder(3))}
        for name, (config, _) in self.SWEEPS.items():
            files[f"cfg_{name}"] = config
        self.states, self.clocks, self.raw, self.twirled = [], [], [], []
        ch = qc.channels
        for v in range(self.VARIANTS):
            rank = 2 + v
            g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            clock = hermitian(g @ g.conj().T)
            clock /= np.trace(clock).real
            state = random_state(rng, 8)
            raw = ch.random_channel(8, 9, 2, int(rng.integers(2**31)))
            twirled = ch.covariant_twirl(raw, qc.Hamiltonian(self.h_in), qc.Hamiltonian(self.h_out))
            self.clocks.append(clock)
            self.states.append(state)
            self.raw.append(raw.choi)
            self.twirled.append(twirled.choi)
            files[f"clock{v}"] = {"state": _matrix_doc(clock), "hamiltonian": _matrix_doc(self.h_in)}
            files[f"state{v}"] = _matrix_doc(state)
            files[f"raw{v}"] = qc.fileio.channel_to_json(raw)
            files[f"twirled{v}"] = qc.fileio.channel_to_json(twirled)
        self.paths = {}
        for name, doc in files.items():
            path = os.path.join(self.dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(qc.fileio.dumps(doc))
            self.paths[name] = path
        self.size = {name: os.path.getsize(p) for name, p in self.paths.items()}

    def inputs(self):
        out = {}
        for name, path in sorted(self.paths.items()):
            with open(path, encoding="utf-8") as handle:
                out[name] = handle.read()
        return out

    def _request(self, kind: str, k: int, v: int):
        """(argv, input file names, output path) of one request."""
        if kind in self.SWEEPS:
            fmt = self.SWEEPS[kind][1]
            out = os.path.join(self.dir, f"out_{kind}.{fmt}")
            argv = ["sweep", "--config", self.paths[f"cfg_{kind}"], "--seed", str(self.base + 10 * k),
                    "--format", fmt]
            return argv, [f"cfg_{kind}"], out
        out = os.path.join(self.dir, f"out_{kind}.json")
        p = self.paths
        if kind == "qfi":
            return ["qfi", "--clock", p[f"clock{v}"]], [f"clock{v}"], out
        if kind == "twirl":
            names = [f"raw{v}", "h_in", "h_out"]
            return ["twirl", "--channel", p[names[0]], "--hamiltonian-in", p["h_in"],
                    "--hamiltonian-out", p["h_out"]], names, out
        if kind == "check_channel":
            names = [f"twirled{v}", "h_in", "h_out"]
            return ["check-channel", "--channel", p[names[0]], "--hamiltonian-in", p["h_in"],
                    "--hamiltonian-out", p["h_out"]], names, out
        if kind == "copy_bound":
            names = [f"clock{v}", f"twirled{v}", "h3", "h3"]
            return ["copy-bound", "--clock", p[names[0]], "--channel", p[names[1]],
                    "--hamiltonian-one", p["h3"], "--hamiltonian-two", p["h3"]], names, out
        names = [f"twirled{v}", f"state{v}"]
        return ["apply", "--channel", p[names[0]], "--state", p[names[1]]], names, out

    def call(self, k: int) -> Call:
        kind = self.cycle[k % len(self.cycle)]
        v = (k // len(self.cycle)) % self.VARIANTS
        argv, names, out = self._request(kind, k, v)
        argv = argv + ["--output", out]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)  # so that a request which writes nothing cannot pass on an old file

        def run():
            with contextlib.redirect_stdout(self.sink):
                try:
                    return self.qc.cli.run(argv)
                except SystemExit as exc:
                    return exc.code

        def check(code) -> Outcome:
            if code != 0:
                return Outcome([f"{kind}: exit code {code}: {self.sink.getvalue()[-300:]}"])
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
            outcome = self._check(kind, v, text)
            outcome.bytes_in = sum(self.size[n] for n in names)
            outcome.bytes_out = os.path.getsize(out)
            return outcome

        return Call(kind, run, check)

    def _check(self, kind: str, v: int, text: str) -> Outcome:
        if kind == "sweep_4":
            problems, rows = verify.csv_rows(text)
            problems += verify.copy_rows(rows, 4, 1.0, equal_superposition=False)
            expected = 6
        elif kind in ("sweep_8", "sweep_mono"):
            rows = json.loads(text)["rows"]
            if kind == "sweep_8":
                problems, expected = verify.copy_rows(rows, 8, 1.0, equal_superposition=True), 1
            else:
                problems, expected = verify.monotonicity_rows(rows, 8), 2
        else:
            return self._check_doc(kind, v, json.loads(text))
        if len(rows) != expected:
            problems.append(f"{kind}: expected {expected} rows, got {len(rows)}")
        return Outcome(problems, rows=rows, fields=_row_fields(rows, ("f_in", "f1", "margin")))

    def _check_doc(self, kind: str, v: int, doc: dict) -> Outcome:
        def matrix(d):
            return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)

        if kind == "qfi":
            f = doc["fisher_info"]
            return Outcome(verify.fisher(f, self.clocks[v], self.h_in, "qfi"), fields={"fisher_info": f})
        if kind == "twirl":
            choi = matrix(doc["choi"])
            problems = verify.twirled_choi(choi, self.h_in, self.h_out, raw=self.raw[v])
            return Outcome(problems, fields={"abs_sum": float(np.abs(choi).sum())})
        if kind == "check_channel":
            cp, _ = verify.cptp_violations(self.twirled[v], 8, 9)
            cov = doc["covariance"]
            problems = []
            if not (doc["ok"] and cov["is_covariant"] and cov["residual"] <= verify.ROW_TOL):
                problems.append(f"check-channel rejects a twirled channel: {doc}")
            if abs(doc["cp_violation"] - cp) > verify.CPTP_TOL:
                problems.append("check-channel cp_violation disagrees with the recomputation")
            return Outcome(problems, fields={"ok": doc["ok"], "is_covariant": cov["is_covariant"]})
        if kind == "copy_bound":
            rho_out = verify.apply_choi(self.twirled[v], 8, 9, self.clocks[v])
            row = dict(doc, energy_scale=1.0, sample_id=kind)
            problems = verify.copy_rows([row], 8, 1.0, equal_superposition=False)
            problems += verify.fisher(doc["f_in"], self.clocks[v], self.h_in, "copy-bound f_in")
            rho4 = rho_out.reshape(3, 3, 3, 3)
            problems += verify.fisher(doc["f1"], np.einsum("ikjk->ij", rho4), _ladder(3), "copy-bound f1")
            problems += verify.fisher(doc["f2"], np.einsum("kikj->ij", rho4), _ladder(3), "copy-bound f2")
            return Outcome(problems, fields={k: doc[k] for k in ("f_in", "f1", "f2", "e2", "margin")})
        out = matrix(doc)
        expected = verify.apply_choi(self.twirled[v], 8, 9, self.states[v])
        problems = verify.density(out, "apply output")
        if np.abs(out - expected).max() > 1e-10:
            problems.append("apply output differs from the recomputed channel action")
        return Outcome(problems, fields={"purity": float(np.trace(out @ out).real)})


# ---------------------------------------------------------------------------
# decompose: planted common block structure
# ---------------------------------------------------------------------------

class Decompose(Workload):
    """Disturbance-free distinguishability of pairs with a planted block structure."""

    DIMS = (8, 12, 16)
    PAIRS = 4  # per dimension; odd-numbered pairs have unequal block weights
    cycle = _cycle({
        "commuting": 2, "block_traces": 2, "nd_8": 2, "cid_8": 2,
        "nd_12": 2, "cid_12": 2, "nd_16": 4, "cid_16": 4,
    })
    row_kinds = frozenset(k for k in cycle if k[:3] in ("nd_", "cid"))

    def __init__(self, qc, seed: int, workdir: str):
        self.qc = qc
        rng = np.random.default_rng([seed, 3])
        self.pairs = {d: [self._planted_pair(rng, d, bool(p % 2)) for p in range(self.PAIRS)]
                      for d in self.DIMS}
        self.clocks = [self._degenerate_clock(rng, 12) for _ in range(self.PAIRS)]
        self.families = [self._family(rng, 12, bool(p % 2)) for p in range(self.PAIRS)]

    def _planted_pair(self, rng, d: int, differ: bool):
        """Two states sharing exactly the invariant blocks of a random partition of d."""
        nb = int(rng.integers(2, 4))
        cuts = np.sort(rng.choice(np.arange(2, d - 1, 2), size=nb - 1, replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [d]]))
        w = rng.permutation(np.arange(1.0, nb + 1) + 0.5 * rng.random(nb))
        w_a = w / w.sum()
        w_b = np.roll(w_a, 1) if differ else w_a
        u = random_unitary(rng, d)

        def state(weights):
            m = np.zeros((d, d), dtype=complex)
            start = 0
            for size, weight in zip(sizes, weights):
                m[start:start + size, start:start + size] = weight * random_state(rng, size, 0.1)
                start += size
            return hermitian(u @ m @ u.conj().T)

        a, b = state(w_a), state(w_b)
        return a, b, self.qc.DensityMatrix(a), self.qc.DensityMatrix(b), differ, nb

    def _degenerate_clock(self, rng, d: int):
        """Clock whose Hamiltonian has integer levels with multiplicities."""
        levels = np.sort(rng.integers(0, 5, size=d)).astype(float)
        u = random_unitary(rng, d)
        rho = random_state(rng, d)
        weights = np.array([np.trace(u[:, levels == e].conj().T @ rho @ u[:, levels == e]).real
                            for e in np.unique(levels)])
        h = hermitian(u @ np.diag(levels) @ u.conj().T)
        clock = self.qc.ClockSystem(self.qc.DensityMatrix(rho), self.qc.Hamiltonian(h))
        return clock, weights, rng.uniform(0.0, 10.0, size=6)

    def _family(self, rng, d: int, spoiled: bool):
        u = random_unitary(rng, d)
        mats = [hermitian(u @ np.diag(p) @ u.conj().T) for p in rng.dirichlet(np.ones(d), size=4)]
        if spoiled:
            mats[-1] = random_state(rng, d)
        return [self.qc.DensityMatrix(m) for m in mats], not spoiled

    def inputs(self):
        return ([(a, b) for d in self.DIMS for a, b, *_ in self.pairs[d]],
                [(c[0].state.entries, c[0].hamiltonian.entries, c[2]) for c in self.clocks],
                [[s.entries for s in fam] for fam, _ in self.families])

    def call(self, k: int) -> Call:
        kind = self.cycle[k % len(self.cycle)]
        v = (k // len(self.cycle)) % self.PAIRS
        dist = self.qc.distinguish
        if kind == "commuting":
            family, truth = self.families[v]

            def check_commuting(verdict):
                problems = [] if verdict == truth else [f"pairwise_commuting {verdict}, truth {truth}"]
                return Outcome(problems, fields={"commuting": verdict})

            return Call(kind, lambda: dist.pairwise_commuting(family), check_commuting)
        if kind == "block_traces":
            clock, weights, times = self.clocks[v]

            def check_blocks(report):
                problems = verify.block_traces(report.block_traces, weights, report.conserved)
                return Outcome(problems, fields={"conserved": report.conserved})

            return Call(kind, lambda: dist.conserved_block_traces(clock, times), check_blocks)
        name, d = kind.split("_")
        a, b, rho_a, rho_b, truth, nb = self.pairs[int(d)][v]
        if name == "nd":
            def check_nd(result):
                verdict, projector = result
                problems = verify.witness(projector, a, b, truth, verdict)
                return Outcome(problems, verdicts=1, fields={"distinguishable": verdict})

            return Call(kind, lambda: dist.nondisturbing_distinguishable(rho_a, rho_b, seed=k), check_nd)

        def check_cid(report):
            projector = None
            if report.distinguishable:
                cols = report.subspaces[report.witness_index]
                projector = cols @ cols.conj().T
            problems = verify.witness(projector, a, b, truth, report.distinguishable)
            if len(report.subspaces) != nb:
                problems.append(f"{len(report.subspaces)} invariant subspaces, planted {nb}")
            gaps = sorted(np.abs(np.asarray(report.traces_a) - np.asarray(report.traces_b)))
            return Outcome(problems, verdicts=1,
                           fields={"distinguishable": report.distinguishable, "max_gap": gaps[-1]})

        return Call(kind, lambda: dist.common_invariant_decomposition(rho_a, rho_b, seed=k), check_cid)


WORKLOADS = {"sweep_d16": SweepD16, "cli_small": CliSmall, "decompose": Decompose}
