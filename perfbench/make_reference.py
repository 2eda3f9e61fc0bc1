"""Regenerate reference.json: named output fields of the first calls of each
workload at the default seed, against which later runs on that seed compare.

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json

import run


def main() -> None:
    reference = {}
    run.WORKDIR.mkdir(exist_ok=True)
    for name, workload_cls in sorted(run.WORKLOADS.items()):
        runner = run.Runner(workload_cls(run.import_qclock(), run.DEFAULT_SEED, str(run.WORKDIR)), None)
        fields = []
        for k in range(runner.wl.trace_calls):
            fields.append(runner.execute(k)[3].fields)
        if runner.problems:
            raise SystemExit(f"{name}: outputs fail verification: {runner.problems[:5]}")
        reference[name] = fields
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
