"""Strict JSON readers for ensemble and channel description files.

Two document shapes are understood.  An ensemble file lists weighted
Bloch vectors::

    {"states": [{"q": 0.25, "bloch": [0.0, 0.0, 1.0]}, ...]}

A channel file gives either an explicit affine pair or a named
constructor::

    {"D": [[...], [...], [...]], "t": [0.0, 0.0, 0.0]}
    {"kind": "depolarizing", "eta": 0.2}
    {"kind": "unitary", "axis": [0.0, 0.0, 1.0], "angle": 0.7}

Unknown keys are rejected everywhere so that typos fail loudly instead
of silently falling back to defaults.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .channels import QubitChannel, depolarizing_channel, unitary_channel
from .ensembles import Ensemble, make_ensemble
from .errors import FormatError

BUNDLED_ENSEMBLES = ("one_basis", "bb84", "three_mubs", "sic", "unequal3")


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FormatError(f"{where}: missing keys {sorted(missing)}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number, got {value!r}")
    # json reads NaN, Infinity and 1e400; compared exactly, a huge int fails too
    if not abs(value) <= sys.float_info.max:
        raise FormatError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _as_vector(value, length: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise FormatError(f"{where}: expected a list of {length} numbers")
    return np.array([_as_float(v, where) for v in value])


def parse_ensemble(obj) -> Ensemble:
    """Build an :class:`Ensemble` from a decoded ensemble document."""
    _check_keys(obj, {"states"}, {"states"}, "ensemble")
    entries = obj["states"]
    if not isinstance(entries, list):
        raise FormatError("ensemble: 'states' must be a list")
    pairs = []
    for pos, entry in enumerate(entries):
        where = f"states[{pos}]"
        _check_keys(entry, {"q", "bloch"}, {"q", "bloch"}, where)
        pairs.append(
            (_as_float(entry["q"], f"{where}.q"), _as_vector(entry["bloch"], 3, f"{where}.bloch"))
        )
    return make_ensemble(pairs)


def parse_channel(obj) -> QubitChannel:
    """Build a :class:`QubitChannel` from a decoded channel document."""
    if isinstance(obj, dict) and "kind" in obj:
        kind = obj["kind"]
        if kind == "depolarizing":
            _check_keys(obj, {"kind", "eta"}, {"kind", "eta"}, "channel")
            return depolarizing_channel(_as_float(obj["eta"], "channel.eta"))
        if kind == "unitary":
            _check_keys(obj, {"kind", "axis", "angle"}, {"kind", "axis", "angle"}, "channel")
            axis = _as_vector(obj["axis"], 3, "channel.axis")
            return unitary_channel(axis, _as_float(obj["angle"], "channel.angle"))
        raise FormatError(f"channel: unknown kind {kind!r}")
    _check_keys(obj, {"D", "t"}, {"D"}, "channel")
    rows = obj["D"]
    if not isinstance(rows, list) or len(rows) != 3:
        raise FormatError("channel: 'D' must be a 3x3 matrix")
    matrix = np.vstack([_as_vector(row, 3, f"channel.D[{pos}]") for pos, row in enumerate(rows)])
    shift = np.zeros(3)
    if "t" in obj:
        shift = _as_vector(obj["t"], 3, "channel.t")
    return QubitChannel(matrix, shift)


def _load_json(path: str | Path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def load_ensemble(path: str | Path) -> Ensemble:
    """Read an ensemble file from disk."""
    return parse_ensemble(_load_json(path))


def load_channel(path: str | Path) -> QubitChannel:
    """Read a channel file from disk."""
    return parse_channel(_load_json(path))


def bundled_ensemble(name: str) -> Ensemble:
    """Load one of the ensembles shipped with the package."""
    if name not in BUNDLED_ENSEMBLES:
        raise FormatError(f"no bundled ensemble named {name!r}; choose from {BUNDLED_ENSEMBLES}")
    text = resources.files("ompkit").joinpath(f"data/{name}.json").read_text(encoding="utf-8")
    return parse_ensemble(json.loads(text))
