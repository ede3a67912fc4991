"""The report writer against ``json.dumps`` and ``csv.writer``.

``clfgame.cli._json_chunks`` writes plot data by hand and leaves the rest
to json.  It walks plain dicts with str keys that hold plot data, writes a
long list of finite floats, ints or strs in one join, and writes a column
table (``cli._Table``: per column, its distinct values and one index per
record) one join per record over columns that encode each distinct value
once.
Every other value, lists of records included, goes to a
``json.JSONEncoder``, one call per value, and is re-indented.  Every report
must still come out as the bytes of ``json.dumps(report, indent=2,
allow_nan=False) + "\\n"``, with a table read as the records it stands for,
and a NaN or an infinity must raise json's own ValueError: anywhere in a
plain report, and in a table's distinct values whether or not a record
points at it.  A table written as CSV must give the bytes ``csv.writer``
gives its records.  Each report is written twice, with every list long
enough to go by column and with the default length, so the column paths
are drawn on small reports too.  The random reports mix the shapes the
column paths take with the ones they must leave alone: records, some in
another key order or with a key missing, lists of mixed types, ``-0.0``
beside ``0.0``, bools beside ints, numpy floats, dict subclasses, and
non-ASCII and control characters in keys and values.
"""

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import math
from unittest import mock

import numpy as np
import pytest

import reference_game as ref
from clfgame import cli
from clfgame.config import bundled_config_path, load_spec

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
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(collections.OrderedDict),
    ),
    max_leaves=40,
)


# every list long enough to go by column, and the writer's own length
COLUMN_MINS = (1, cli._COLUMN_MIN)


def written(obj, column_min) -> str:
    with mock.patch.object(cli, "_COLUMN_MIN", column_min):
        return "".join(cli._json_chunks(obj))


def expected(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@SETTINGS
@hypothesis.given(report=reports)
def test_writer_matches_json_dumps(report):
    for column_min in COLUMN_MINS:
        assert written(report, column_min) == expected(report)


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
    for column_min in COLUMN_MINS:
        with pytest.raises(ValueError) as from_writer:
            written(report, column_min)
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
    for column_min in COLUMN_MINS:
        with pytest.raises(TypeError) as from_writer:
            written(report, column_min)
        assert str(from_writer.value) == str(from_json.value)


def int_list(length: int) -> list[int]:
    """Ints of both signs, some beyond 2**64, of the given length."""
    rng = np.random.default_rng(length)
    values = [int(v) for v in rng.integers(-(2**40), 2**40, size=length)]
    for at, big in zip(range(0, length, 7), [2**64, -(2**64) - 1, 3**90, -(10**30), 0, -1]):
        values[at] = big
    return values


@pytest.mark.parametrize("length", [31, 32, 5000])
def test_int_lists_match_json_dumps(length):
    values = int_list(length)
    assert cli._texts(values) is not None
    for report in (values, {"per_trial": {"model_played": values, "n": length}}):
        assert written(report, cli._COLUMN_MIN) == expected(report)


@pytest.mark.parametrize("odd", [True, 1.0], ids=["bool", "float"])
def test_int_lists_with_another_type_stay_with_json(odd):
    values = int_list(40)
    values[20] = odd
    assert cli._texts(values) is None
    for report in (values, {"model_played": values}):
        assert written(report, cli._COLUMN_MIN) == expected(report)


def test_simulate_report_matches_json_dumps(capsys):
    argv = ["simulate", "--spec", str(bundled_config_path("shafahi_free")), "--s-probs",
            "0.1,0.2,0.3,0.25,0.15", "--r-probs", "0.6,0.4", "--trials", "48", "--seed", "19"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    model_played = report["per_trial"]["model_played"]
    assert len(model_played) == 48 and cli._texts(model_played) is not None
    assert out == expected(report)


# distinct values as a table holds them: one object per pool entry, so an
# entry drawn twice is one object shared by two places, as a region map's
# grid values are
pool_values = st.one_of(
    st.sampled_from(FLOAT_POOL + TEXT_POOL),
    floats,
    texts,
    scalars,
    st.lists(st.one_of(floats, texts), max_size=2),
)


@st.composite
def tables(draw, min_columns=1):
    """A column table: distinct values per column, some repeated and some unused."""
    keys = tuple(draw(st.lists(texts, min_size=min_columns, max_size=4, unique=True)))
    n_records = draw(st.integers(1, 8))
    values, index = [], []
    for _ in keys:
        pool = draw(st.lists(pool_values, min_size=1, max_size=5))
        values.append(pool)
        index.append(draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=n_records, max_size=n_records)))
    return cli._Table(keys, values, index)


def records_of(table) -> list[dict]:
    return [
        dict(zip(table.keys, map(list.__getitem__, table.values, picks)))
        for picks in zip(*table.index)
    ]


def materialised(obj):
    """obj with each table replaced by the list of records it stands for."""
    if isinstance(obj, cli._Table):
        return records_of(obj)
    if type(obj) is dict:
        return {key: materialised(value) for key, value in obj.items()}
    return obj


@st.composite
def reports_with_a_table(draw, table):
    """table at the top of a report or under str keys, with items before and after it."""
    report = draw(table)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(texts)
        before = draw(st.dictionaries(texts.filter(lambda k: k != key), reports, max_size=2))
        after = draw(st.dictionaries(texts.filter(lambda k: k != key), reports, max_size=2))
        report = {**before, key: report, **after}
    return report


@SETTINGS
@hypothesis.given(report=reports_with_a_table(tables()))
def test_tables_are_written_as_their_records(report):
    for column_min in COLUMN_MINS:
        assert written(report, column_min) == expected(materialised(report))


@SETTINGS
@hypothesis.given(table=tables(min_columns=2))
def test_tables_are_written_as_csv_of_their_records(table):
    # csv quotes a row of one empty field, so CSV tables have two columns or more
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.keys)
    writer.writerows(record.values() for record in records_of(table))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit({}, argparse.Namespace(format="csv", out=None), csv_table=table)
    assert out.getvalue() == buf.getvalue()


@st.composite
def tables_with_a_non_finite_value(draw):
    """A table with NaN or an infinity among one column's distinct values,
    which a record points at or which no record points at."""
    table = draw(tables())
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]))
    column = draw(st.integers(0, len(table.keys) - 1))
    pool = table.values[column]
    at = draw(st.integers(0, len(pool)))
    pool.insert(at, bad)
    index = table.index[column]
    index[:] = [i + (i >= at) for i in index]
    if draw(st.booleans()):
        index[draw(st.integers(0, len(index) - 1))] = at
    return table


@SETTINGS
@hypothesis.given(table=tables_with_a_non_finite_value())
def test_non_finite_values_in_a_table_raise_json_error_used_or_not(table):
    # the error json raises for the first bad value, column by column
    first_bad = next(
        v for pool in table.values for v in pool
        if isinstance(v, float) and not math.isfinite(v)
    )
    with pytest.raises(ValueError) as from_json:
        expected(first_bad)
    for column_min in COLUMN_MINS:
        with pytest.raises(ValueError) as from_writer:
            written({"cells": table}, column_min)
        assert str(from_writer.value) == str(from_json.value)
        assert "not JSON compliant" in str(from_writer.value)


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


# overrides under which each map reaches all four of its labels at grid 301
REGION_MAPS_301 = [
    ("madry_wide", "adv", ["--mu-adv=0.3"], {"mu": 0.3}),
    ("shafahi_free", "adv", [], {}),
    ("madry_wide", "def", ["--delta-mu-def=0.02", "--r-max=0.5"], {"d_mu": 0.02, "r_max": 0.5}),
    ("shafahi_free", "def", ["--delta-mu-def=0.05", "--r-max=0.4"], {"d_mu": 0.05, "r_max": 0.4}),
]


@functools.lru_cache(maxsize=1)
def reference_region_map(config, map_kind, overrides):
    spec = load_spec(bundled_config_path(config))
    return ref.build_region_map(spec, map_kind, 301, **dict(overrides))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "config, map_kind, flags, overrides",
    REGION_MAPS_301,
    ids=[f"{config}-{map_kind}" for config, map_kind, *_ in REGION_MAPS_301],
)
def test_region_map_301_bytes_match_the_per_cell_reference(capsys, config, map_kind, flags,
                                                           overrides, fmt):
    want = reference_region_map(config, map_kind, tuple(overrides.items()))
    assert len({label for *_, label in want.cells}) == 4
    argv = ["region-map", "--spec", str(bundled_config_path(config)), "--map", map_kind,
            "--grid", "301", "--format", fmt, *flags]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        report = {
            "command": "region_map",
            "map": want.map_kind,
            "x_axis": want.x_axis,
            "y_axis": want.y_axis,
            "params": want.params,
            "grid": 301,
            "cells": [{"x": x, "y": y, "case_label": label} for x, y, label in want.cells],
            "points": [
                {"name": name, "x": x, "y": y, "case_label": label}
                for name, x, y, label in want.points
            ],
        }
        assert out == expected(report)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "y", "case_label"])
        writer.writerows(want.cells)
        assert out == buf.getvalue()
