#!/usr/bin/env python3
"""Covariant channels: the processes that need no external clock.

A channel G is covariant for Hamiltonians (H_in, H_out) when
G([H_in, .]) = [H_out, G(.)]: running it earlier or later makes no
difference, so it can be implemented without consulting another clock.  In
the Hamiltonian eigenbases covariance pins the Choi matrix to matched Bohr
frequencies, and projecting onto those entries (a twirl, equal to the time
average of the conjugated channel) turns any CPTP map into a covariant one.
"""
import numpy as np

from qclock import (
    ClockSystem,
    apply_channel,
    covariant_twirl,
    evolve,
    is_covariant,
    kraus_operators,
    random_channel,
    random_density,
    random_hamiltonian,
    validate_cptp,
)

h_in = random_hamiltonian(3, seed=15)
h_out = random_hamiltonian(3, seed=16)
raw = random_channel(3, 3, 2, seed=15)

before = is_covariant(raw, h_in, h_out)
print("random CPTP channel on 3 dims:")
print(f"  CPTP: {validate_cptp(raw).ok},  covariance residual = {before.residual:.3f}")

# rounding-level defects are shown as checks against a threshold, not as digits
ROUNDING = 1e-12

twirled = covariant_twirl(raw, h_in, h_out)
after = is_covariant(twirled, h_in, h_out)
report = validate_cptp(twirled)
print("after the covariant twirl:")
print(f"  covariance residual <= {ROUNDING:.0e}: {after.residual <= ROUNDING}")
print(f"  CPTP: {report.ok},  tp violation <= {ROUNDING:.0e}: {report.tp_violation <= ROUNDING}")
print(f"  kraus rank: {len(kraus_operators(raw))} -> {len(kraus_operators(twirled))}")

again = covariant_twirl(twirled, h_in, h_out)
defect = np.abs(again.choi - twirled.choi).max()
print(f"  twirl idempotence defect <= {ROUNDING:.0e}: {defect <= ROUNDING}")

# --- the commuting diagram: evolve-then-process equals process-then-evolve -------
clock = ClockSystem(random_density(3, 2, seed=15), h_in)
worst = 0.0
for t in np.linspace(-3, 3, 20):
    first = apply_channel(twirled, evolve(clock, t)).entries
    second = evolve(ClockSystem(apply_channel(twirled, clock.state), h_out), t).entries
    worst = max(worst, float(np.abs(first - second).max()))
print(f"\ncommuting-diagram defect over 20 times <= {ROUNDING:.0e}: {worst <= ROUNDING}")
print("evolving the input and then processing equals processing and letting the")
print("output evolve: the twirled channel carries no clock of its own.")
