"""Strict JSON parsing of ensemble and channel documents."""

import json

import numpy as np
import pytest

from ompkit.errors import FormatError
from ompkit.fileio import (
    BUNDLED_ENSEMBLES,
    bundled_ensemble,
    load_channel,
    load_ensemble,
    parse_channel,
    parse_ensemble,
)


def test_parse_ensemble_valid():
    ens = parse_ensemble(
        {
            "states": [
                {"q": 0.5, "bloch": [0, 0, 1]},
                {"q": 0.5, "bloch": [0, 0, -1]},
            ]
        }
    )
    assert ens.n == 2
    assert np.allclose(ens.priors, 0.5)
    assert np.allclose(ens.blochs[0], [0, 0, 1])


@pytest.mark.parametrize(
    "doc",
    [
        {"states": [{"q": 0.5, "bloch": [0, 0, 1]}], "extra": 1},
        {"states": [{"q": 0.5, "bloch": [0, 0, 1], "name": "z"}]},
        {"states": [{"bloch": [0, 0, 1]}]},
        {"states": [{"q": 0.5}]},
        {"states": {"q": 0.5}},
        {"states": [{"q": True, "bloch": [0, 0, 1]}]},
        {"states": [{"q": "0.5", "bloch": [0, 0, 1]}]},
        {"states": [{"q": 0.5, "bloch": [0, 0]}]},
        {"states": [{"q": 0.5, "bloch": [0, 0, "1"]}]},
        {"wrong": []},
        [],
        {"states": [{"q": float("nan"), "bloch": [0, 0, 1]}]},
        {"states": [{"q": 0.5, "bloch": [0, float("-inf"), 0]}]},
        {"states": [{"q": 10**400, "bloch": [0, 0, 1]}]},
    ],
)
def test_parse_ensemble_rejects(doc):
    with pytest.raises(FormatError):
        parse_ensemble(doc)


def test_parse_channel_variants():
    ch = parse_channel({"kind": "depolarizing", "eta": 0.2})
    assert np.allclose(ch.matrix, 0.8 * np.eye(3))
    ch = parse_channel({"kind": "unitary", "axis": [0, 0, 1], "angle": 0.0})
    assert np.allclose(ch.matrix, np.eye(3))
    ch = parse_channel({"D": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert np.allclose(ch.shift, 0.0)
    ch = parse_channel({"D": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "t": [0, 0, 0.1]})
    assert np.allclose(ch.shift, [0, 0, 0.1])


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "squeeze", "eta": 0.1},
        {"kind": "depolarizing"},
        {"kind": "depolarizing", "eta": 0.1, "t": [0, 0, 0]},
        {"kind": "unitary", "axis": [0, 0], "angle": 0.1},
        {"kind": "unitary", "axis": [0, 0, 1]},
        {"D": [[1, 0, 0], [0, 1, 0]]},
        {"D": [[1, 0], [0, 1], [0, 0]]},
        {"D": "identity"},
        {"t": [0, 0, 0]},
        {"D": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "shift": [0, 0, 0]},
        {"D": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, float("nan"), 0]},
        {"kind": "depolarizing", "eta": float("inf")},
    ],
)
def test_parse_channel_rejects(doc):
    with pytest.raises(FormatError):
        parse_channel(doc)


def test_load_round_trip(tmp_path):
    epath = tmp_path / "ens.json"
    epath.write_text(
        json.dumps({"states": [{"q": 1 / 3, "bloch": [0, 0, 1]}] * 3})
    )
    assert load_ensemble(epath).n == 3
    cpath = tmp_path / "ch.json"
    cpath.write_text(json.dumps({"kind": "depolarizing", "eta": 0.5}))
    assert np.allclose(load_channel(cpath).matrix, 0.5 * np.eye(3))


def test_load_errors(tmp_path):
    with pytest.raises(FormatError):
        load_ensemble(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_channel(bad)


def test_bundled_ensembles():
    for name in BUNDLED_ENSEMBLES:
        ens = bundled_ensemble(name)
        assert ens.n >= 2
        assert np.isclose(ens.priors.sum(), 1.0)
    with pytest.raises(FormatError):
        bundled_ensemble("nonesuch")
