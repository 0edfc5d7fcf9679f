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
