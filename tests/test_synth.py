"""Synthetic systems: array set-up against a per-hour reference."""

import math

import numpy as np
import pytest

from h2grid.grid import DISPATCHABLE, SOLAR, WIND
from h2grid.synth import SyntheticSpec, _profiles, generate_synthetic_system


def loop_profiles(rng, hours):
    """The wind and solar shapes, the wind's steps drawn one hour at a
    time."""
    wind = np.empty(hours)
    level = rng.uniform(0.3, 0.7)
    for t in range(hours):
        level = np.clip(level + rng.normal(0.0, 0.08), 0.02, 1.0)
        wind[t] = level
    solar = np.clip(np.sin((np.arange(hours) % 24 - 6.0) / 12.0 * math.pi),
                    0.0, None)
    return wind, solar * rng.uniform(0.6, 1.0, size=hours)


def loop_year(spec):
    """Demand, wind and solar profiles and dispatchable costs of
    ``generate_synthetic_system(spec)``, filled one node at a time from
    profiles drawn one hour at a time."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_nodes
    n_north = n // 2
    for i in range(n):
        rng.uniform(0, 200)
        rng.uniform(0, 120) if i < n_north else rng.uniform(280, 400)
    n_lines = 0
    for i in list(range(1, n_north)) + list(range(n_north + 1, n)):
        rng.integers(0 if i < n_north else n_north, i)
        rng.uniform(0.5, 1.5)
        n_lines += 1
    rng.uniform(0.5, 1.5)
    n_lines += 1
    while n_lines < spec.n_lines:
        if int(rng.integers(0, n)) != int(rng.integers(0, n)):
            rng.uniform(0.5, 1.5)
            n_lines += 1

    demand_total = spec.mean_demand_mw * (n - n_north)
    shape = 0.85 + 0.15 * np.sin(
        (np.arange(spec.hours) % 24 - 9.0) / 24.0 * 2.0 * math.pi)
    south = rng.uniform(0.5, 1.5, size=n - n_north)
    south /= south.sum()
    north = rng.uniform(0.5, 1.5, size=n_north)
    north /= north.sum()
    demand = np.zeros((spec.hours, n))
    for j, w in enumerate(north):
        demand[:, j] = 0.15 * demand_total * w * shape
    for j, w in enumerate(south):
        demand[:, n_north + j] = 0.85 * demand_total * w * shape

    wind, solar = loop_profiles(rng, spec.hours)
    renewable = spec.renewable_share * demand.sum()
    wind = wind * (renewable * 2.0 / 3.0 / max(wind.sum(), 1e-9) / n_north)
    solar = solar * (renewable / 3.0 / max(solar.sum(), 1e-9) / (n - n_north))
    costs = np.sort(rng.uniform(55.0, 95.0, size=n - n_north))
    return demand, wind, solar, costs


@pytest.mark.parametrize("hours", [1, 24, 8760])
@pytest.mark.parametrize("seed", [1, 7, 60, 20240])
def test_profiles_match_hourly_draws(seed, hours):
    rng, reference = (np.random.default_rng(seed) for _ in range(2))
    got, want = _profiles(rng, hours), loop_profiles(reference, hours)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert rng.random() == reference.random()  # the same draws were taken


@pytest.mark.parametrize("hours", [1, 24, 8760])
@pytest.mark.parametrize("seed, n_nodes, n_lines", [
    (1, 2, 1), (7, 10, 13), (60, 60, 84), (20240, 7, 12)])
def test_year_matches_hourly_loop(seed, n_nodes, n_lines, hours):
    spec = SyntheticSpec(seed=seed, n_nodes=n_nodes, n_lines=n_lines,
                         hours=hours)
    system = generate_synthetic_system(spec)
    demand, wind, solar, costs = loop_year(spec)
    assert system.demand.tobytes() == demand.tobytes()
    profiles = {WIND: wind, SOLAR: solar}
    for g in system.generators:
        if g.kind in profiles:
            assert g.profile.tobytes() == profiles[g.kind].tobytes()
    south = [g.marginal_cost for g in system.generators
             if g.kind == DISPATCHABLE][1:]
    assert south == costs.tolist()  # the draws after the profiles agree


def test_each_kind_shares_one_read_only_profile():
    system = generate_synthetic_system(SyntheticSpec(
        seed=3, n_nodes=12, n_lines=16, hours=48))
    for kind in (WIND, SOLAR):
        profiles = [g.profile for g in system.generators if g.kind == kind]
        assert len(profiles) == 6
        assert all(p is profiles[0] for p in profiles)
        with pytest.raises(ValueError, match="read-only"):
            profiles[0][0] = 1.0
