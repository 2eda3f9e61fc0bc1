#!/usr/bin/env python3
"""The quantum bound on copying timing information.

Feeding a clock signal with timing information F into a covariant device
that emits two signals with informations F1 and F2 costs something:

    1/F1 + 1/F2 >= 2/F + 2/<E^2>,

with <E^2> the second moment of the total output energy (ground level at 0).
Low-energy signals therefore cannot be copied without losing localization in
time, while the penalty term fades as the energy scale grows.  This script
checks the bound on seeded Monte-Carlo ensembles of twirled random broadcast
channels and prints the energy-scale trend.
"""
import math

from qclock import (
    ClockSystem,
    apply_channel,
    copy_bound_check,
    covariant_twirl,
    equal_superposition_clock,
    fileio,
    ladder_hamiltonian,
    partial_trace,
    qfi,
    random_channel,
    sweep,
    time_uncertainty_check,
    total_hamiltonian,
)

# --- one broadcast, in detail ---------------------------------------------------
clock = equal_superposition_clock(4, 1.0)
h1 = ladder_hamiltonian(2, 1.0)
h2 = ladder_hamiltonian(2, 1.0)
broadcast = covariant_twirl(
    random_channel(4, 4, 2, seed=0), clock.hamiltonian, total_hamiltonian(h1, h2)
)
report = copy_bound_check(clock, broadcast, h1, h2)
unc = time_uncertainty_check(report)
print("one twirled random broadcast on the 4-level equal-superposition clock:")
print(f"  F_in = {report.f_in:.4f},  F1 = {report.f1:.4f},  F2 = {report.f2:.4f}")
print(f"  <E^2> = {report.e2:.4f} (ground-shifted; unshifted {report.e2_unshifted:.4f})")
print(f"  1/F1 + 1/F2 = {report.lhs:.4f}  >=  2/F + 2/<E^2> = {report.rhs:.4f}")
print(f"  margin = {report.margin:.4f}, satisfied = {report.satisfied}")
print(f"  dt_in = {unc.dt_in:.4f}, dt1 = {unc.dt1:.4f}, dt2 = {unc.dt2:.4f}")
# each outgoing signal is a marginal of the joint output state
joint = apply_channel(broadcast, clock.state)
first = ClockSystem(partial_trace(joint, (h1.dim, h2.dim), keep=1), h1)
print(f"  F1 recomputed from the first marginal = {qfi(first).fisher_info:.4f}")

# --- Monte Carlo ------------------------------------------------------------------
cfg = {
    "experiment": "copy_bound",
    "samples": 50,
    "dim_in": 4,
    "dim_out1": 2,
    "dim_out2": 2,
    "kraus_rank": 2,
}
result = sweep(cfg, seed=601)
finite = [r["margin"] for r in result.rows if math.isfinite(r["margin"])]
print(f"\n50-sample sweep: all satisfied = {result.summary['all_satisfied']}, "
      f"min margin = {result.summary['min_margin']:.4f}")
print(f"  informative (finite-margin) samples: {len(finite)}, "
      f"worst finite margin = {min(finite):.4f}")

# --- the energy-scale trend --------------------------------------------------------
scaled = sweep(dict(cfg, samples=1, energy_scales=[1.0, 2.0, 4.0, 8.0]), seed=603)
print("\nscaling all Hamiltonians by lambda (same channel shape):")
print("  lambda   F_in        <E^2>       rhs")
for row in scaled.rows:
    print(f"  {row['energy_scale']:>6}   {row['f_in']:<10.4f}  {row['e2']:<10.4f}  {row['rhs']:.6f}")
print("the right-hand side falls as 1/lambda^2: with enough energy the copy")
print("penalty disappears, which is why low-power clock signals are the hard case.")

# --- monotonicity: processing never improves a clock --------------------------------
mono = sweep({"experiment": "monotonicity", "samples": 30, "dim": 3, "dim_out": 3}, seed=11)
print(f"\nmonotonicity sweep (30 twirled channels on random clocks): "
      f"all satisfied = {mono.summary['all_satisfied']}, min margin = {mono.summary['min_margin']:.3e}")

csv_text = fileio.sweep_to_csv(result)
print(f"\nCSV export: {len(csv_text.splitlines())} lines, header:")
print("  " + csv_text.splitlines()[0])
