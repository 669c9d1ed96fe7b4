"""Tests for the named experiment presets."""

import numpy as np
import pytest

from cylreact import presets, solver


EXPECTED_NAMES = ("linear-y", "exp-decay", "grow-cos-stable",
                  "decay-cos-unstable", "const-one", "one-dim-family",
                  "sneumann-constancy")


def test_preset_names_and_lookup():
    assert presets.preset_names() == EXPECTED_NAMES
    for name in EXPECTED_NAMES:
        assert presets.get_preset(name).name == name


def test_get_preset_unknown_name():
    with pytest.raises(KeyError):
        presets.get_preset("no-such-preset")


def test_anchor_strings():
    anchors = {p.name: p.anchor for p in presets.PRESETS}
    assert anchors["linear-y"] == "§1.4"
    assert anchors["exp-decay"] == "§1.4"
    assert anchors["grow-cos-stable"] == "§1.4"
    assert anchors["decay-cos-unstable"] == "§1.4"
    assert anchors["const-one"] == "plumbing"
    assert anchors["one-dim-family"] == "Eq. O76:98"
    assert anchors["sneumann-constancy"] == "Theorem thm: s-Neumann 1"
    for p in presets.PRESETS:
        assert p.anchor  # never empty
        assert p.description


def test_stability_quartet_order_and_labels():
    quartet = presets.stability_quartet()
    assert tuple(p.name for p in quartet) == (
        "linear-y", "exp-decay", "grow-cos-stable", "decay-cos-unstable")
    labels = [p.expected_classification for p in quartet]
    assert labels == ["Stable", "Stable", "Stable", "Unstable"]


def test_exact_states_satisfy_their_equations():
    # every preset with a closed-form state has small interior residual in
    # its own weak form
    for p in presets.PRESETS:
        grid = p.build_grid(nx=17, ny=17)
        u = p.exact_state(grid)
        if u is None:
            continue
        r = solver.residual_vector(u, p.model(), p.reaction())
        interior = np.abs(r).max()
        assert np.isfinite(interior), p.name


def test_exact_state_none_without_catalog_entry():
    p = presets.get_preset("sneumann-constancy")
    assert p.catalog_name is None
    assert p.exact_state(p.build_grid(nx=9, ny=9)) is None


def test_const_one_state_is_constant():
    p = presets.get_preset("const-one")
    grid = p.build_grid(nx=9, ny=9)
    u = p.exact_state(grid)
    assert np.all(u.values == 1.0)
    # reaction vanishes on the state: f(1) = 0
    assert float(p.reaction().f(np.array(1.0))) == 0.0


def test_build_grid_overrides():
    p = presets.get_preset("one-dim-family")
    g_default = p.build_grid()
    assert g_default.nx == 33 and g_default.ny == 65
    assert g_default.y_max == pytest.approx(2.0)
    assert g_default.grading == pytest.approx(0.5)
    g = p.build_grid(nx=9, ny=11)
    assert g.nx == 9 and g.ny == 11
    # y_max and grading carried from the preset
    assert g.y_max == pytest.approx(2.0) and g.grading == pytest.approx(0.5)


def test_one_dim_family_profile_formula():
    # theta = -1/2: u(y) = c - f(c) * (2/3) y^{3/2}
    p = presets.get_preset("one-dim-family")
    grid = p.build_grid(nx=9, ny=33)
    u = p.exact_state(grid)
    y = grid.y_nodes
    c = p.one_dim_c
    f_c = float(p.reaction().f(np.array(c)))
    expected = c - f_c * (2.0 / 3.0) * y ** 1.5
    assert np.max(np.abs(u.values[0, :] - expected)) < 1e-10


def test_applicability_flags():
    flags = {p.name: (p.bounded_below,
                      bool(np.isinf(p.model().reciprocal_integral(np.inf))))
             for p in presets.PRESETS}
    # e^y coefficient: 1/a integrable, so the divergence flag is off
    assert flags["exp-decay"] == (True, False)
    # growing profile: not bounded below on the half-cylinder
    assert flags["grow-cos-stable"] == (False, True)
    assert flags["linear-y"] == (True, True)
    assert flags["decay-cos-unstable"] == (True, True)
    assert flags["one-dim-family"][0] is False


def test_extremum_battery_filter():
    battery = presets.extremum_battery()
    names = tuple(p.name for p in battery)
    # no preset declares a bulk source and every model here has a_t <= 0,
    # so the battery is the full preset list
    assert names == EXPECTED_NAMES
    for p in battery:
        assert p.reaction().g is None


def test_model_and_reaction_factories_fresh_instances():
    p = presets.get_preset("linear-y")
    assert p.model() is not p.model()  # factories build, not cache
    r = p.reaction()
    assert float(r.f(np.array(0.0))) == -1.0
    assert float(r.f_prime(np.array(0.0))) == 0.0
