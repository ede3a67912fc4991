"""The JSON report writer against ``json.dumps(indent=2, allow_nan=False)``.

``clfgame.cli._json_chunks`` writes plot data by hand and leaves the rest
to json: it walks plain dicts with str keys, writes a list of finite
floats in one join and a list of flat records from columns encoded once
per distinct object, and hands every other value to a ``json.JSONEncoder``
and re-indents its text.  Every report must still come out as the bytes of
``json.dumps(report, indent=2, allow_nan=False) + "\\n"``, and a NaN or an
infinity anywhere must raise json's own ValueError.  The random reports
mix the shapes the fast paths take with the ones they must leave alone:
records in another key order or with a key missing, columns of mixed
types, ``-0.0`` beside ``0.0``, bools beside ints, numpy floats, dict
subclasses, and non-ASCII and control characters in keys and values.
"""

import collections
import json
import math

import numpy as np
import pytest

from clfgame import cli

from test_config_cli import GOOD_CONFIG, write_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

# one object per value, so drawn columns share objects as a region map's do
FLOAT_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e16, 2.0**70, 0.1, -1 / 3, 1e-7, 1e22, 0.5]
TEXT_POOL = ["", "modèle", "\x00\n\t\x1f\x7f", '"quoted" \\ /', "%s %% %(k)s", "😀", " "]

floats = st.one_of(
    st.sampled_from(FLOAT_POOL),
    st.floats(allow_nan=False, allow_infinity=False),
)
texts = st.one_of(st.sampled_from(TEXT_POOL), st.text(max_size=6))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(2**70),
    floats,
    floats.map(np.float64),
    texts,
)
keys = st.one_of(texts, st.integers(), floats, st.booleans(), st.none())
zeros = st.sampled_from([0.0, -0.0, 1.5])
float_lists = st.lists(st.one_of(floats, zeros), max_size=12)


@st.composite
def records(draw):
    """Flat dicts over one key tuple; now and then one reordered or missing a key."""
    names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    kinds = {name: draw(st.sampled_from([floats, texts, zeros, scalars])) for name in names}
    rows = [
        {name: draw(kind) for name, kind in kinds.items()}
        for _ in range(draw(st.integers(1, 8)))
    ]
    odd = draw(st.integers(0, 3 * len(rows) - 1))
    if odd < len(rows):
        rows[odd] = dict(draw(st.permutations(list(rows[odd].items()))))
    elif odd < 2 * len(rows):
        del rows[odd - len(rows)][draw(st.sampled_from(names))]
    return rows


reports = st.recursive(
    st.one_of(scalars, float_lists, records()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(collections.OrderedDict),
    ),
    max_leaves=40,
)


def written(obj) -> str:
    return "".join(cli._json_chunks(obj))


def expected(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@SETTINGS
@hypothesis.given(report=reports)
def test_writer_matches_json_dumps(report):
    assert written(report) == expected(report)


@st.composite
def reports_with_a_non_finite_float(draw):
    """A report with NaN or an infinity put into one of its lists or dicts."""
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
    report = draw(st.one_of(float_lists, records(), st.dictionaries(keys, reports, max_size=4)))
    node = report
    while True:
        children = [v for v in (node.values() if isinstance(node, dict) else node)
                    if isinstance(v, (list, dict))]
        if not children or draw(st.booleans()):
            break
        node = draw(st.sampled_from(children))
    if isinstance(node, dict):
        # an existing key keeps a record's shape, so the NaN sits in a column
        node[draw(st.sampled_from(list(node)) if node else keys)] = bad
    else:
        node.insert(draw(st.integers(0, len(node))), bad)
    return report


@SETTINGS
@hypothesis.given(report=reports_with_a_non_finite_float())
def test_non_finite_floats_raise_json_error(report):
    with pytest.raises(ValueError) as from_json:
        expected(report)
    with pytest.raises(ValueError) as from_writer:
        written(report)
    assert str(from_writer.value) == str(from_json.value)
    assert "not JSON compliant" in str(from_writer.value)


@pytest.mark.parametrize(
    "report",
    [
        {"x": object()},
        [1.0, np.int64(3)],
        [{"a": 1.0}, {"a": np.bool_(True)}],
        {(1, 2): 0.0},
        {"cells": [{"x": {1, 2}}]},
    ],
)
def test_other_types_raise_json_error(report):
    with pytest.raises(TypeError) as from_json:
        expected(report)
    with pytest.raises(TypeError) as from_writer:
        written(report)
    assert str(from_writer.value) == str(from_json.value)


NON_ASCII_CONFIG = {
    **GOOD_CONFIG,
    "models": [{"name": "modèle", "acc": 0.952}, {"name": "entraîné\t😀", "acc": 0.873}],
}


@pytest.mark.parametrize(
    "command",
    [
        ("ccr-curve", "--grid", "31"),
        ("region-map", "--map", "adv", "--grid", "31"),
        ("region-map", "--map", "def", "--grid", "31"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsysbinary, command, fmt):
    path = write_config(tmp_path, NON_ASCII_CONFIG)
    out_path = tmp_path / f"report.{fmt}"
    argv = [command[0], "--spec", path, *command[1:], "--format", fmt]
    assert cli.main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out_path.read_bytes() == stdout
    text = stdout.decode()
    if fmt == "json":
        assert text == expected(json.loads(text))
        assert '"mod\\u00e8le' in text  # a ccr key or a point's name
    elif command[0] == "ccr-curve":
        assert text.startswith("rho,modèle,")
