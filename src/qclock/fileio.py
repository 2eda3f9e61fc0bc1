"""JSON and CSV wire formats.

Matrices travel as ``{"dim": rows, "re": [[...]], "im": [[...]]}`` with
row-major real and imaginary parts at full round-trip precision (rectangular
matrices, e.g. subspace bases, use the same keys with ``dim`` equal to the
row count) whose entries are JSON numbers, not strings or booleans.  A clock
file is ``{"state": <matrix>, "hamiltonian": <matrix>}`` and a channel file
``{"dim_in":, "dim_out":, "choi": <matrix>}``.

JSON documents are kept strictly standard: non-finite floats are serialized
as the strings "inf", "-inf", "nan".  Their byte layout is frozen as the one
``json.dumps(doc, indent=2)`` writes: two-space indent, one item per line,
``": "`` after keys, ASCII-escaped strings, each finite float as its
``repr``, ``[]``/``{}`` for empty containers, and a trailing newline;
``dumps`` reproduces it in one pass.  CSV cells use ``repr`` of the float, so
infinities appear as ``inf``.
"""
from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .bounds import CSV_COLUMNS, EXTRA_COLUMNS, SweepResult
from .errors import ValidationError
from .states import ClockSystem, DensityMatrix, Hamiltonian
from .channels import QuantumChannel


def matrix_to_json(matrix: np.ndarray) -> dict:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of shape {mat.shape}")
    return {"dim": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _dimension(doc: dict, key: str) -> int:
    """``doc[key]`` when it is a JSON integer and not a boolean; the constructors check its range."""
    if type(doc[key]) is not int:
        raise ValidationError(f"'{key}' must be an integer, got {doc[key]!r}")
    return doc[key]


def matrix_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict) or not {"dim", "re", "im"} <= set(doc):
        raise ValidationError("matrix document must have keys 'dim', 're', 'im'")
    try:
        re, im = np.asarray(doc["re"], dtype=float), np.asarray(doc["im"], dtype=float)
        entry_types = set(map(type, itertools.chain(*doc["re"], *doc["im"])))
    except (TypeError, ValueError) as exc:  # ragged rows or entries that are not numbers
        raise ValidationError(f"'re' and 'im' must be matrices of numbers: {exc}")
    if not entry_types <= {int, float}:  # NumPy reads "0.5" as 0.5, "nan" as NaN and true as 1.0
        names = ", ".join(sorted(t.__name__ for t in entry_types - {int, float}))
        raise ValidationError(f"'re' and 'im' must be matrices of numbers, not {names}")
    if re.ndim != 2 or re.shape != im.shape:
        raise ValidationError(f"'re' and 'im' must be equal-shape matrices, got {re.shape} vs {im.shape}")
    if re.shape[0] != _dimension(doc, "dim"):
        raise ValidationError(f"'dim' is {doc['dim']} but 're' has {re.shape[0]} rows")
    mat = np.empty(re.shape, dtype=complex)  # re + 1j * im would turn -0.0 into 0.0
    mat.real, mat.imag = re, im
    return mat


def density_from_json(doc) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(doc))


def hamiltonian_from_json(doc) -> Hamiltonian:
    return Hamiltonian(matrix_from_json(doc))


def clock_to_json(clock: ClockSystem) -> dict:
    return {
        "state": matrix_to_json(clock.state.entries),
        "hamiltonian": matrix_to_json(clock.hamiltonian.entries),
    }


def clock_from_json(doc) -> ClockSystem:
    if not isinstance(doc, dict) or not {"state", "hamiltonian"} <= set(doc):
        raise ValidationError("clock document must have keys 'state' and 'hamiltonian'")
    return ClockSystem(density_from_json(doc["state"]), hamiltonian_from_json(doc["hamiltonian"]))


def channel_to_json(channel: QuantumChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "choi": matrix_to_json(channel.choi),
    }


def channel_from_json(doc) -> QuantumChannel:
    if not isinstance(doc, dict) or not {"dim_in", "dim_out", "choi"} <= set(doc):
        raise ValidationError("channel document must have keys 'dim_in', 'dim_out', 'choi'")
    dims = _dimension(doc, "dim_in"), _dimension(doc, "dim_out")
    return QuantumChannel(*dims, matrix_from_json(doc["choi"]))


def _encode_scalar(value) -> str:
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return '"nan"' if math.isnan(value) else ('"inf"' if value > 0 else '"-inf"')
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (np.floating, np.integer)):
        item = value.item()
        if type(item) is float or type(item) is int:
            return _encode_scalar(item)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _encode(value, indent: str) -> str:
    """``value`` in the frozen layout, where ``indent`` is a newline plus the
    enclosing container's indent."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        separator = "," + inner
        try:
            # A row of finite floats: ``json`` writes each with float.__repr__,
            # and only nan/inf put an "n" in the text.
            body = separator.join(map(float.__repr__, value))
            if "n" in body:
                raise TypeError
        except TypeError:
            body = separator.join([_encode(item, inner) for item in value])
        return "[" + inner + body + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        parts = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(encode_basestring_ascii(key) + ": " + _encode(item, inner))
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    return _encode_scalar(value)


def dumps(doc) -> str:
    """The frozen layout of every JSON document, in one pass.

    Documents are built from str-keyed dicts, lists, tuples, str, int, float,
    bool, None and NumPy float/int scalars, and come out byte for byte as
    ``json.dumps(doc, indent=2)`` plus a newline would write them once their
    non-finite floats are replaced by strings.  There is no other path: any
    other value, or a dict key that is not a str, raises ``TypeError``."""
    return _encode(doc, "\n") + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_to_csv(result: SweepResult) -> str:
    """Render sweep rows with the frozen column prefix, generator parameters
    appended, and a final summary row carrying the minimum margin."""
    columns = CSV_COLUMNS + EXTRA_COLUMNS
    lines = [",".join(columns)]
    for row in result.rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    summary_row = dict.fromkeys(columns)
    summary_row["sample_id"] = "summary"
    summary_row["seed"] = result.seed
    summary_row["margin"] = result.summary["min_margin"]
    summary_row["satisfied"] = result.summary["all_satisfied"]
    lines.append(",".join(_csv_cell(summary_row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> dict:
    return {
        "experiment": result.experiment,
        "seed": result.seed,
        "rows": result.rows,
        "summary": result.summary,
    }
