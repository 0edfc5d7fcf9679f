"""Bit-identity of the reused planning window and of the inversion fast path.

:class:`~repro.nhpp.intensity.PlanningWindow` hands the planners a shifted
forecast that is rebuilt only when the bins ``shift`` samples change, and
``inverse_cumulative`` inverts masses in ``(0, total_mass]`` without its
masks.  Both are performance paths: every value they produce must equal
the plain computation bit for bit.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.nhpp.intensity import PiecewiseConstantIntensity, PlanningWindow

BIN = 60.0


def _forecasts() -> dict[str, PiecewiseConstantIntensity]:
    rng = np.random.default_rng(11)
    profile = rng.gamma(2.0, 0.3, size=118)
    profile[[2, 3, 40]] = 0.0  # empty bins inside the window
    return {
        "periodic": PiecewiseConstantIntensity(profile, BIN, extrapolation="periodic"),
        "hold": PiecewiseConstantIntensity(profile[:7], BIN, extrapolation="hold"),
        "hold-1-bin": PiecewiseConstantIntensity(np.array([0.37]), BIN, extrapolation="hold"),
        "hold-long": PiecewiseConstantIntensity(
            rng.gamma(2.0, 0.3, size=2_000), BIN, extrapolation="hold"
        ),
        "zero": PiecewiseConstantIntensity(profile[:9], BIN, extrapolation="zero"),
    }


FORECASTS = _forecasts()

#: The planner's two horizons for 10 s rounds: the window and window + slack.
HORIZONS = (10.0, 10.0 + 13.0 + 5.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _value_shift(
    forecast: PiecewiseConstantIntensity, offset: float
) -> PiecewiseConstantIntensity:
    """``shift`` written directly on ``value``: the profile sampled at bin midpoints."""
    horizon = forecast.duration
    extrapolation = forecast.extrapolation
    if offset >= horizon:
        if extrapolation == "hold":
            tail = forecast.values[-1:]
            return PiecewiseConstantIntensity(tail, forecast.bin_seconds, extrapolation="hold")
        if extrapolation == "zero":
            return PiecewiseConstantIntensity(
                np.array([0.0]), forecast.bin_seconds, extrapolation="zero"
            )
        offset = float(np.mod(offset, horizon))
    times = offset + np.arange(forecast.n_bins) * forecast.bin_seconds + 0.5 * forecast.bin_seconds
    values = np.asarray(forecast.value(times), dtype=float)
    return PiecewiseConstantIntensity(values, forecast.bin_seconds, extrapolation=extrapolation)


def _assert_matches_fresh_shift(
    forecast: PiecewiseConstantIntensity, memo: PlanningWindow, now: float
) -> None:
    window, masses = memo.at(now)
    for fresh in (forecast.shift(now), _value_shift(forecast, now)):
        assert window.extrapolation == fresh.extrapolation
        assert window.bin_seconds == fresh.bin_seconds
        assert _same_bits(window.values, fresh.values)
        assert _same_bits(window._cum_edges, fresh._cum_edges)
        expected = tuple(float(fresh.cumulative(horizon)) for horizon in memo.horizons)
        assert _same_bits(np.array(masses), np.array(expected))


def _offsets(forecast: PiecewiseConstantIntensity) -> list[float]:
    """Bin starts, bin midpoints, exactly ``duration`` and beyond it."""
    duration = forecast.duration
    starts = [k * BIN for k in range(min(forecast.n_bins, 12))]
    middles = [(k + 0.5) * BIN for k in range(min(forecast.n_bins, 12))]
    beyond = [duration + 0.5 * BIN, duration + 7.0, 2.0 * duration, 3.5 * duration + 1.0]
    return starts + middles + [duration - BIN, duration] + beyond


@pytest.mark.parametrize("name", list(FORECASTS))
class TestWindowReuse:
    def test_each_offset_from_a_cold_memo(self, name):
        forecast = FORECASTS[name]
        for now in _offsets(forecast):
            _assert_matches_fresh_shift(forecast, PlanningWindow(forecast, HORIZONS), now)

    @pytest.mark.parametrize("interval", [10.0, 7.0, 60.0])
    def test_reused_across_rounds(self, name, interval):
        forecast = FORECASTS[name]
        memo = PlanningWindow(forecast, HORIZONS)
        end = min(forecast.duration, 200 * BIN) * 1.5 + 3 * BIN
        for now in np.arange(0.0, end, interval):
            _assert_matches_fresh_shift(forecast, memo, float(now))

    def test_same_bins_reuse_the_window(self, name):
        forecast = FORECASTS[name]
        memo = PlanningWindow(forecast, HORIZONS)
        first, _ = memo.at(10.0)
        again, _ = memo.at(20.0)
        assert again is first
        assert memo.at(10.0 + forecast.duration + BIN)[0] is not first


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FORECASTS)),
    offsets=st.lists(
        st.floats(min_value=0.0, max_value=400_000.0, allow_nan=False), min_size=1, max_size=8
    ),
)
def test_window_matches_fresh_shift_for_any_offsets(name, offsets):
    forecast = FORECASTS[name]
    memo = PlanningWindow(forecast, HORIZONS)
    for now in sorted(offsets):
        _assert_matches_fresh_shift(forecast, memo, now)


def test_negative_offset_raises_like_shift():
    memo = PlanningWindow(FORECASTS["periodic"])
    with pytest.raises(ValidationError):
        memo.at(-1.0)
    with pytest.raises(ValidationError):
        FORECASTS["periodic"].shift(-1.0)


def _retained_bytes(memo: PlanningWindow) -> int:
    """Bytes reachable from the memo's state, the forecast it reads excluded."""
    seen = {id(memo.forecast)}
    stack: list = [vars(memo)]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += obj.nbytes if isinstance(obj, np.ndarray) else sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


@pytest.mark.parametrize("name", ["periodic", "hold-long"])
def test_reuse_state_stays_bounded_over_many_rounds(name):
    """10^4 rounds of 7 s on 60 s bins never line up with the bins."""
    forecast = FORECASTS[name]
    memo = PlanningWindow(forecast, HORIZONS)
    sizes = []
    for index, now in enumerate(np.arange(10_000) * 7.0):
        memo.at(float(now))
        if index % 97 == 0:
            sizes.append(_retained_bytes(memo))
    # The state after the first round (one window) is all it ever holds.
    assert max(sizes) == sizes[0]
    assert set(vars(memo)) == {"forecast", "horizons", "_key", "_window", "_masses"}
    _assert_matches_fresh_shift(forecast, memo, 10_000 * 7.0)


# ------------------------------------------------- inverse_cumulative fast path


def _masked_inverse(intensity: PiecewiseConstantIntensity, mass):
    """The general (masked) inversion path, copied here as the oracle."""
    m_arr = np.atleast_1d(np.asarray(mass, dtype=float))
    if np.any(m_arr < 0):
        raise ValidationError("mass must be non-negative")
    out = np.empty_like(m_arr)
    total = intensity.total_mass
    edges, values, width = intensity._cum_edges, intensity.values, intensity.bin_seconds

    def within_window(masses):
        inner = np.zeros_like(masses)
        positive = masses > 0
        if not np.any(positive):
            return inner
        m = masses[positive]
        edge_index = np.clip(np.searchsorted(edges, m, side="left"), 1, intensity.n_bins)
        bin_index = edge_index - 1
        rates = values[bin_index]
        within = (m - edges[bin_index]) / np.maximum(rates, 1e-300)
        inner[positive] = bin_index * width + np.minimum(within, width)
        return inner

    inside = m_arr <= total
    if np.any(inside):
        out[inside] = within_window(m_arr[inside])
    beyond = ~inside
    if np.any(beyond):
        mb = m_arr[beyond]
        if intensity.extrapolation == "zero":
            raise ValidationError("beyond a zero-extrapolated intensity")
        finite_max = np.finfo(float).max
        if intensity.extrapolation == "hold":
            with np.errstate(over="ignore"):
                tail = (mb - total) / values[-1]
            out[beyond] = intensity.duration + np.minimum(tail, finite_max)
        else:
            extra = mb - total
            with np.errstate(over="ignore"):
                cycles = np.minimum(np.floor(extra / total), finite_max)
            remainder = np.clip(extra - cycles * total, 0.0, total)
            with np.errstate(over="ignore"):
                base = intensity.duration * (1.0 + cycles)
            out[beyond] = np.minimum(base, finite_max) + within_window(remainder)
    return out if np.ndim(mass) else float(out[0])


def _assert_same_inverse(intensity, mass):
    got = intensity.inverse_cumulative(mass)
    expected = _masked_inverse(intensity, mass)
    if np.ndim(mass):
        assert _same_bits(got, expected)
    else:
        assert isinstance(got, float)
        assert _same_bits(np.array(got), np.array(expected))


@pytest.mark.parametrize("name", list(FORECASTS))
class TestInverseFastPath:
    def test_masses_inside_the_window(self, name):
        intensity = FORECASTS[name]
        rng = np.random.default_rng(3)
        total = intensity.total_mass
        masses = np.cumsum(rng.exponential(1.0, size=(50, 30)), axis=1).reshape(-1)
        inside = masses[masses <= total]
        if inside.size:
            _assert_same_inverse(intensity, inside)
        _assert_same_inverse(intensity, np.array([total]))
        _assert_same_inverse(intensity, total)
        _assert_same_inverse(intensity, intensity._cum_edges[1:])

    def test_exactly_zero(self, name):
        intensity = FORECASTS[name]
        _assert_same_inverse(intensity, 0.0)
        _assert_same_inverse(intensity, np.array([0.0, 0.5 * intensity.total_mass]))
        assert intensity.inverse_cumulative(0.0) == 0.0

    def test_above_total_mass(self, name):
        intensity = FORECASTS[name]
        total = intensity.total_mass
        masses = np.array([0.25 * total, total, total * 1.5, total * 7.25 + 0.5])
        if intensity.extrapolation == "zero":
            with pytest.raises(ValidationError):
                intensity.inverse_cumulative(masses)
            with pytest.raises(ValidationError):
                intensity.inverse_cumulative(np.nextafter(total, np.inf))
        else:
            _assert_same_inverse(intensity, masses)
            _assert_same_inverse(intensity, float(masses[-1]))

    def test_negative_masses_raise(self, name):
        intensity = FORECASTS[name]
        for mass in (-1e-12, np.array([0.5, -0.1]), np.array([-2.0, np.nan])):
            with pytest.raises(ValidationError):
                intensity.inverse_cumulative(mass)

    def test_empty_input(self, name):
        _assert_same_inverse(FORECASTS[name], np.array([]))


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FORECASTS)),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False), min_size=1, max_size=40
    ),
)
def test_inverse_matches_masked_path(name, fractions):
    intensity = FORECASTS[name]
    masses = np.array(fractions) * intensity.total_mass
    if intensity.extrapolation == "zero" and np.any(masses > intensity.total_mass):
        with pytest.raises(ValidationError):
            intensity.inverse_cumulative(masses)
        return
    _assert_same_inverse(intensity, masses)


# ------------------------------------------- bounded inversion and shift grid


def _full_search_inverse(intensity: PiecewiseConstantIntensity, m: np.ndarray) -> np.ndarray:
    """Positive masses inverted by a search over every cumulative edge."""
    edges, values, width = intensity._cum_edges, intensity.values, intensity.bin_seconds
    edge_index = np.clip(np.searchsorted(edges, m, side="left"), 1, intensity.n_bins)
    bin_index = edge_index - 1
    within = (m - edges[bin_index]) / np.maximum(values[bin_index], 1e-300)
    return bin_index * width + np.minimum(within, width)


def _assert_bounded_equals_full(intensity: PiecewiseConstantIntensity, masses) -> None:
    masses = np.asarray(masses, dtype=float)
    assert masses.min() > 0 and masses.max() <= intensity.total_mass
    assert _same_bits(intensity.inverse_cumulative(masses), _full_search_inverse(intensity, masses))


@pytest.mark.parametrize("name", list(FORECASTS))
class TestBoundedInversion:
    """The search over the edges the largest mass reaches equals the full search."""

    def test_masses_exactly_on_edges(self, name):
        intensity = FORECASTS[name]
        edges = intensity._cum_edges[1:]
        _assert_bounded_equals_full(intensity, edges)
        for reach in range(len(edges)):
            # The largest mass sits exactly on an edge; the rest lie below it.
            top = edges[reach]
            _assert_bounded_equals_full(intensity, np.array([top, top * 0.5, top * 0.999]))

    def test_every_mass_in_the_first_bin(self, name):
        intensity = FORECASTS[name]
        first_edge = intensity._cum_edges[1]
        masses = first_edge * np.linspace(1e-6, 1.0, 50)
        _assert_bounded_equals_full(intensity, masses)
        assert np.all(intensity.inverse_cumulative(masses) <= intensity.bin_seconds)



def test_one_bin_window():
    # A one-bin forecast, and the one-bin tail a hold forecast becomes past its window.
    hold = FORECASTS["hold"]
    for window in (FORECASTS["hold-1-bin"], hold.shift(hold.duration + 0.5 * BIN)):
        assert window.n_bins == 1
        _assert_bounded_equals_full(window, window.total_mass * np.linspace(0.01, 1.0, 30))


def test_reach_boundary_at_zero_rate_bins():
    # Bins 2 and 3 of the periodic profile are empty: edges 2, 3 and 4 are
    # equal, and a mass on them inverts at the end of bin 1.
    intensity = FORECASTS["periodic"]
    edges = intensity._cum_edges
    assert edges[2] == edges[3] == edges[4]
    on_flat = edges[3]
    just_past = np.nextafter(on_flat, np.inf)
    for masses in (
        [on_flat],
        [on_flat, 0.5 * on_flat],
        [just_past, on_flat, 0.25 * on_flat],
        [edges[5], just_past, on_flat],
    ):
        _assert_bounded_equals_full(intensity, masses)
    assert intensity.inverse_cumulative(on_flat) == 2 * BIN
    assert intensity.inverse_cumulative(just_past) >= 4 * BIN


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FORECASTS)),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    edges=st.lists(st.integers(min_value=1, max_value=2_000), max_size=5),
)
def test_bounded_inversion_matches_full_search(name, fractions, edges):
    intensity = FORECASTS[name]
    cum_edges = intensity._cum_edges
    masses = np.array(fractions) * intensity.total_mass
    on_edges = cum_edges[[e % intensity.n_bins + 1 for e in edges]]
    masses = np.concatenate([masses, on_edges])
    masses = masses[masses > 0]
    if masses.size:
        _assert_bounded_equals_full(intensity, masses)


def _uncached_shift_bins(forecast: PiecewiseConstantIntensity, offset: float):
    """``_shift_bins`` with its grid built from ``np.arange`` on every call."""
    horizon = forecast.duration
    if offset >= horizon:
        if forecast.extrapolation != "periodic":
            return None
        offset = float(np.mod(offset, horizon))
    n_bins = forecast.n_bins
    times = offset + np.arange(n_bins) * forecast.bin_seconds + 0.5 * forecast.bin_seconds
    if forecast.extrapolation == "periodic":
        times = np.mod(times, horizon)
    bins = np.minimum((times / forecast.bin_seconds).astype(int), n_bins - 1)
    if forecast.extrapolation == "zero":
        bins[times >= horizon] = n_bins
    return bins


def _wrap_offsets(forecast: PiecewiseConstantIntensity) -> list[float]:
    """Non-integer offsets and offsets one ulp either side of the wrap."""
    duration = forecast.duration
    near = [duration, 2.0 * duration, duration - 0.5 * BIN, duration - BIN]
    ulps = [float(np.nextafter(x, side)) for x in near for side in (-np.inf, np.inf)]
    offsets = [0.1, 12.345, 29.999999, 30.000001, 59.999, 1e-9, duration - 1e-9] + near + ulps
    return [offset for offset in offsets if offset >= 0.0]


@pytest.mark.parametrize("name", list(FORECASTS))
def test_cached_shift_grid_matches_value_shift(name):
    forecast = FORECASTS[name]
    for now in _wrap_offsets(forecast):
        expected = _uncached_shift_bins(forecast, now)
        bins = forecast._shift_bins(now)
        if expected is None:
            assert bins is None
        else:
            assert _same_bits(bins, expected)
        _assert_matches_fresh_shift(forecast, PlanningWindow(forecast, HORIZONS), now)


def test_negative_now_is_reported_as_now():
    memo = PlanningWindow(FORECASTS["periodic"])
    with pytest.raises(ValidationError, match=r"^now must be"):
        memo.at(-0.5)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FORECASTS)),
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    on_edge=st.integers(min_value=0, max_value=2_000) | st.none(),
)
def test_scalar_cumulative_matches_array_path(name, fraction, on_edge):
    intensity = FORECASTS[name]
    if on_edge is None:
        t = fraction * intensity.duration
    else:
        t = (on_edge % (intensity.n_bins + 1)) * intensity.bin_seconds
    for scalar in (t, np.float64(t)):
        got = intensity.cumulative(scalar)
        assert isinstance(got, float)
        assert _same_bits(np.array([got]), intensity.cumulative(np.array([t])))
