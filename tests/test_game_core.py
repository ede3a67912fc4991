"""The array game core against the per-entry reference.

``ccr_table`` and ``epps_tables`` replace scalar CCR and EPPS functions
called once per matrix entry, and ``build_region_map`` labels whole
grids with numpy instead of one Python call per cell.  Pure payoffs,
payoff matrices and region maps must match ``reference_game``
bit for bit; mixed payoffs, now bilinear reads of the tables, within
1e-12 relative.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import reference_game as ref
from clfgame.analytic import ADV_CASE_LABELS, DEF_CASE_LABELS, build_region_map
from clfgame.config import bundled_config_path, load_spec
from clfgame.core import Strategy, ccr, ccr_mixed
from clfgame.payoff import (
    epps_adv,
    epps_adv_pure,
    epps_def,
    epps_def_pure,
    payoff_matrices,
    utility_adv,
    utility_def,
)

from conftest import general_spec, make_spec, random_strategy

SHAPES = [(1, 2), (2, 2), (1, 4), (3, 3), (4, 2), (2, 4), (4, 4)]
VARIANTS = ("uniform_budget", "budget_16ths", "zero_budget", "no_investment", "large_n")


def family_spec(rng, shape, variant):
    spec = general_spec(rng, *shape, r_max_16ths=variant == "budget_16ths")
    econ = spec.economics
    if variant == "zero_budget":
        econ = dataclasses.replace(econ, r_max=0.0)
    elif variant == "no_investment":
        # -i_adv + 0.0 is 0.0 while the no-attack column must hold -0.0
        econ = dataclasses.replace(econ, i_adv=0.0, i_def=0.0)
    elif variant == "large_n":
        econ = dataclasses.replace(econ, n=10**12 + 7)
    return dataclasses.replace(spec, economics=econ)


def family_specs(rng, per_cell=4):
    for shape in SHAPES:
        for variant in VARIANTS:
            for _ in range(per_cell):
                yield family_spec(rng, shape, variant)


def test_payoff_matrices_are_bit_identical(rng):
    for spec in family_specs(rng):
        got, want = payoff_matrices(spec), ref.payoff_matrices(spec)
        assert got.u_adv.tobytes() == want.u_adv.tobytes()
        assert got.u_def.tobytes() == want.u_def.tobytes()


def test_pure_payoffs_and_ccr_are_bit_identical(rng):
    for spec in family_specs(rng, per_cell=2):
        rhos = (0.0, spec.economics.r_max, 0.5 * spec.economics.r_max)
        for i in range(spec.n_models):
            for j in range(spec.n_attacks):
                got = np.float64(epps_def_pure(spec, i, j))
                assert got.tobytes() == np.float64(ref.epps_def_pure(spec, i, j)).tobytes()
                for rho in rhos:
                    assert ccr(spec, i, j, rho) == ref.ccr(spec, i, j, rho)
                if j != spec.no_attack_index:
                    got = np.float64(epps_adv_pure(spec, i, j))
                    assert got.tobytes() == np.float64(ref.epps_adv_pure(spec, i, j)).tobytes()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda spec: epps_adv_pure(spec, 0, 1), ValueError),  # no-attack
        (lambda spec: epps_adv_pure(spec, 0, 2), IndexError),
        (lambda spec: epps_adv_pure(spec, 2, 0), IndexError),
        (lambda spec: epps_def_pure(spec, 0, 2), IndexError),
        (lambda spec: epps_def_pure(spec, 0, -1), IndexError),
        (lambda spec: epps_def_pure(spec, -1, 0), IndexError),
        (lambda spec: ccr(spec, 0, -1, 0.5), IndexError),
    ],
)
def test_pure_reads_keep_their_index_checks(call, error):
    spec = make_spec([0.9, 0.8], [[0.1], [0.2]])
    with pytest.raises(error):
        call(spec)


def test_mixed_payoffs_match_the_per_entry_formulas(rng):
    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    for spec in family_specs(rng, per_cell=2):
        for _ in range(3):
            s = random_strategy(rng, spec.n_models)
            r = random_strategy(rng, spec.n_attacks)
            close(epps_adv(spec, s).values, ref.epps_adv(spec, s).values)
            close(epps_def(spec, r).values, ref.epps_def(spec, r).values)
            close(utility_adv(spec, s, r), ref.utility_adv(spec, s, r))
            close(utility_def(spec, s, r), ref.utility_def(spec, s, r))
            for i in range(spec.n_models):
                assert ccr_mixed(spec, i, r) == ref.ccr_mixed(spec, i, r)
        idle = Strategy.pure(spec.no_attack_index, spec.n_attacks)
        assert epps_adv(spec, s).values[spec.no_attack_index] == 0.0
        assert utility_adv(spec, s, idle) == -spec.economics.i_adv


def _bundled(name):
    return load_spec(bundled_config_path(name))


REGION_CASES = [
    ("madry_wide", "adv", {}),
    ("madry_wide", "adv", {"mu": 0.5}),
    ("madry_wide", "adv", {"mu": 0.2}),
    ("shafahi_free", "adv", {}),
    ("shafahi_free", "adv", {"mu": 0.5}),
    ("madry_wide", "def", {}),
    ("madry_wide", "def", {"d_mu": 0.0}),
    ("madry_wide", "def", {"d_mu": 0.0, "r_max": 0.25}),
    ("madry_wide", "def", {"d_mu": 0.0, "r_max": 1.0}),
    ("madry_wide", "def", {"d_mu": 0.02, "r_max": 0.5}),
    ("shafahi_free", "def", {"d_mu": 0.0}),
    ("shafahi_free", "def", {"d_mu": 0.0, "r_max": 0.25}),
    ("shafahi_free", "def", {"d_mu": -0.1, "r_max": 1.0}),
    ("shafahi_free", "def", {"d_mu": 0.1, "r_max": 0.0}),
]


@pytest.mark.parametrize(
    "map_kind, overrides, key",
    [("def", {"mu": 0.5}, "mu_adv"), ("adv", {"d_mu": 0.0}, "delta_mu_def"),
     ("adv", {"r_max": 0.5}, "r_max")],
)
def test_region_map_refuses_an_override_its_map_does_not_read(map_kind, overrides, key):
    with pytest.raises(ValueError, match=f"^{key} does not apply to the {map_kind} map$"):
        build_region_map(_bundled("madry_wide"), map_kind, grid=3, **overrides)


@pytest.mark.parametrize("config, map_kind, overrides", REGION_CASES)
def test_region_maps_match_the_per_cell_labels(config, map_kind, overrides):
    spec = _bundled(config)
    got = build_region_map(spec, map_kind, 41, **overrides)
    want = ref.build_region_map(spec, map_kind, 41, **overrides)
    assert (got.map_kind, got.x_axis, got.y_axis) == (want.map_kind, want.x_axis, want.y_axis)
    assert got.params == want.params
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()
    # the cells that the codes stand for, row by row over x as the reference
    # lists them; repr tells -0.0 from 0.0 and catches a numpy scalar
    cells = [
        (x, y, got.labels[code])
        for (x, y), code in zip(
            itertools.product(got.xs.tolist(), got.ys.tolist()), got.codes.ravel().tolist()
        )
    ]
    assert got.codes.shape == (41, 41)
    assert [tuple(map(repr, c)) for c in cells] == [tuple(map(repr, c)) for c in want.cells]
    assert [tuple(map(repr, p)) for p in got.points] == [tuple(map(repr, p)) for p in want.points]
    # every cell holds one of the four label objects, not a copy of its own
    labels = ADV_CASE_LABELS if map_kind == "adv" else DEF_CASE_LABELS
    assert got.labels is labels
    assert {id(lbl) for *_, lbl in cells} <= {id(lbl) for lbl in labels}
