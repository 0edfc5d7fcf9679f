"""Tests for the workload-scenario subsystem (primitives, registry, library)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError, WorkloadError
from repro.traces import generate_alibaba_like_trace, generate_google_like_trace
from repro.workloads import (
    DEFAULT_REGISTRY,
    Constant,
    FlashCrowd,
    GammaNoise,
    ParetoBursts,
    Pulse,
    Ramp,
    RegimeSwitching,
    Scenario,
    ScenarioRegistry,
    SeasonalBump,
    Sinusoid,
    WeeklyProfile,
    as_primitive,
    get_scenario,
    list_scenarios,
    scenario_names,
)

_DAY = 86_400.0
_HOUR = 3_600.0


@pytest.fixture
def times() -> np.ndarray:
    return (np.arange(200) + 0.5) * 60.0


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


class TestPrimitiveAlgebra:
    def test_sum_of_constants(self, times, rng):
        combined = Constant(2.0) + Constant(3.0)
        np.testing.assert_allclose(combined.sample(times, rng), 5.0)

    def test_scalar_addition_and_subtraction(self, times, rng):
        values = (1.0 + Constant(2.0) - 0.5).sample(times, rng)
        np.testing.assert_allclose(values, 2.5)

    def test_scalar_multiplication_commutes(self, times, rng):
        left = (2.0 * Constant(3.0)).sample(times, rng)
        right = (Constant(3.0) * 2.0).sample(times, rng)
        np.testing.assert_allclose(left, 6.0)
        np.testing.assert_allclose(left, right)

    def test_modulation_is_pointwise_product(self, times, rng):
        product = Constant(2.0) * Pulse(0.0, 3600.0, 4.0)
        values = product.sample(times, rng)
        inside = times < 3600.0
        np.testing.assert_allclose(values[inside], 8.0)
        np.testing.assert_allclose(values[~inside], 0.0)

    def test_negation_and_clip(self, times, rng):
        negative = -Constant(1.0)
        np.testing.assert_allclose(negative.sample(times, rng), -1.0)
        clipped = negative.clip(lower=0.0)
        np.testing.assert_allclose(clipped.sample(times, rng), 0.0)

    def test_clip_upper_bound(self, times, rng):
        values = Constant(10.0).clip(lower=0.0, upper=2.0).sample(times, rng)
        np.testing.assert_allclose(values, 2.0)

    def test_as_primitive_rejects_garbage(self):
        with pytest.raises(ValidationError):
            as_primitive("not-a-primitive")

    def test_compile_clips_negative_values(self, rng):
        intensity = (Constant(1.0) - Constant(5.0)).compile(3600.0, 60.0)
        assert float(intensity.values.min()) == 0.0

    def test_compile_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            Constant(1.0).compile(0.0, 60.0)


class TestPrimitiveShapes:
    def test_seasonal_bump_peaks_mid_period(self, rng):
        bump = SeasonalBump(_DAY, 2.0, sharpness=8.0, base=0.1)
        times = np.linspace(0.0, _DAY, 1000, endpoint=False)
        values = bump.sample(times, rng)
        assert values.min() >= 0.1 - 1e-12
        peak_time = times[np.argmax(values)]
        assert peak_time == pytest.approx(_DAY / 2, rel=0.05)
        assert values.max() == pytest.approx(2.1, rel=0.01)

    def test_sinusoid_mean_and_amplitude(self, rng):
        wave = Sinusoid(_DAY, 1.0, 0.5)
        times = np.linspace(0.0, _DAY, 1001)
        values = wave.sample(times, rng)
        assert values.max() == pytest.approx(1.5, abs=1e-6)
        assert values.min() == pytest.approx(0.5, abs=1e-6)

    def test_weekly_profile_day_indexing(self, rng):
        profile = WeeklyProfile((1.0, 0.9, 0.8, 0.7, 0.6, 0.2, 0.1))
        monday_noon = np.array([12 * _HOUR])
        sunday_noon = np.array([6 * _DAY + 12 * _HOUR])
        assert profile.sample(monday_noon, rng)[0] == 1.0
        assert profile.sample(sunday_noon, rng)[0] == 0.1

    def test_weekly_profile_requires_seven_days(self):
        with pytest.raises(ValidationError):
            WeeklyProfile((1.0, 2.0))

    def test_linear_ramp_endpoints(self, rng):
        ramp = Ramp(1.0, 3.0, start_seconds=100.0, end_seconds=300.0)
        samples = ramp.sample(np.array([0.0, 100.0, 200.0, 300.0, 500.0]), rng)
        np.testing.assert_allclose(samples, [1.0, 1.0, 2.0, 3.0, 3.0])

    def test_exponential_ramp_is_geometric(self, rng):
        ramp = Ramp(1.0, 4.0, end_seconds=200.0, shape="exponential")
        mid = ramp.sample(np.array([100.0]), rng)[0]
        assert mid == pytest.approx(2.0)

    def test_exponential_ramp_requires_positive_levels(self):
        with pytest.raises(ValidationError):
            Ramp(0.0, 4.0, end_seconds=200.0, shape="exponential")

    def test_flash_crowd_profile(self, rng):
        crowd = FlashCrowd(1000.0, 5.0, rise_seconds=100.0, decay_seconds=200.0)
        samples = crowd.sample(
            np.array([0.0, 999.0, 1050.0, 1100.0, 1300.0]), rng
        )
        assert samples[0] == 0.0
        assert samples[1] == 0.0
        assert samples[2] == pytest.approx(2.5)
        assert samples[3] == pytest.approx(5.0)
        assert samples[4] == pytest.approx(5.0 * np.exp(-1.0))

    def test_regime_switching_values_and_determinism(self, times):
        regime = RegimeSwitching((0.1, 2.0), _HOUR, start_regime=0)
        first = regime.sample(times, np.random.default_rng(5))
        second = regime.sample(times, np.random.default_rng(5))
        np.testing.assert_array_equal(first, second)
        assert set(np.unique(first)) <= {0.1, 2.0}
        assert first[0] == 0.1  # starts in regime 0

    def test_regime_switching_requires_two_levels(self):
        with pytest.raises(ValidationError):
            RegimeSwitching((1.0,), _HOUR)

    def test_gamma_noise_unit_mean(self):
        noise = GammaNoise(0.3, correlation_bins=5)
        times = (np.arange(20_000) + 0.5) * 60.0
        values = noise.sample(times, np.random.default_rng(11))
        assert values.mean() == pytest.approx(1.0, abs=0.05)
        assert np.all(values >= 0)

    def test_gamma_noise_zero_cv_is_identity(self, times, rng):
        np.testing.assert_allclose(GammaNoise(0.0).sample(times, rng), 1.0)

    def test_gamma_noise_keeps_cv_on_tiny_grids(self):
        # Regression: when the grid is too small for smoothing, the variance
        # inflation must be skipped or the field is sqrt(correlation_bins)x
        # too noisy.  correlation_bins > size disables smoothing, so the
        # draws are i.i.d. with the requested cv.
        noise = GammaNoise(0.2, correlation_bins=10**6)
        values = noise.sample((np.arange(20_000) + 0.5) * 60.0, np.random.default_rng(7))
        assert values.std() / values.mean() == pytest.approx(0.2, rel=0.05)

    def test_pareto_bursts_zero_rate_is_silent(self, times, rng):
        bursts = ParetoBursts(0.0, 1.5, 1.0)
        np.testing.assert_allclose(bursts.sample(times, rng), 0.0)

    def test_pareto_bursts_deterministic_and_nonnegative(self, times):
        bursts = ParetoBursts(24.0, 1.5, 1.0, rise_seconds=60.0, decay_seconds=300.0)
        first = bursts.sample(times, np.random.default_rng(9))
        second = bursts.sample(times, np.random.default_rng(9))
        np.testing.assert_array_equal(first, second)
        assert np.all(first >= 0.0)
        assert first.max() > 0.0  # 24 bursts/day over ~3.3h: some burst lands

    def test_pareto_bursts_peaks_are_heavy_tailed(self):
        # With alpha = 1.2 the peak law has infinite variance: across many
        # independent realizations the maximum dwarfs the median maximum.
        times = (np.arange(500) + 0.5) * 60.0
        maxima = [
            ParetoBursts(48.0, 1.2, 1.0, rise_seconds=60.0, decay_seconds=600.0)
            .sample(times, np.random.default_rng(seed))
            .max()
            for seed in range(300)
        ]
        maxima = np.asarray(maxima)
        assert maxima.max() > 10.0 * np.median(maxima)

    def test_pareto_bursts_validation(self):
        with pytest.raises(ValidationError):
            ParetoBursts(-1.0, 1.5, 1.0)
        with pytest.raises(ValidationError):
            ParetoBursts(4.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            ParetoBursts(4.0, 1.5, 1.0, rise_seconds=0.0)

    def test_gamma_noise_unit_mean_at_boundaries(self):
        # Regression: zero-padded smoothing used to bias the first/last bins
        # toward ~0.5; the kernel-mass normalization must keep them at 1.
        noise = GammaNoise(0.3, correlation_bins=10)
        times = (np.arange(50) + 0.5) * 60.0
        rng = np.random.default_rng(3)
        first_bins = np.array([noise.sample(times, rng)[0] for _ in range(3000)])
        assert first_bins.mean() == pytest.approx(1.0, abs=0.03)


class TestScenarioSpec:
    def test_requires_exactly_one_builder(self):
        with pytest.raises(WorkloadError):
            Scenario(name="bad", description="no builder")
        with pytest.raises(WorkloadError):
            Scenario(
                name="bad",
                description="both builders",
                intensity=lambda horizon: Constant(1.0),
                generator=lambda *, seed, scale: None,
            )

    def test_rejects_bad_train_fraction(self):
        with pytest.raises(ValidationError):
            Scenario(
                name="bad",
                description="",
                intensity=lambda horizon: Constant(1.0),
                train_fraction=1.5,
            )

    def test_build_intensity_rejected_for_generator_scenarios(self):
        with pytest.raises(WorkloadError):
            get_scenario("google").build_intensity()

    def test_scaled_horizon_floor(self):
        scenario = get_scenario("steady-state")
        assert scenario.scaled_horizon(1e-9) == 10.0 * scenario.bin_seconds
        with pytest.raises(ValidationError):
            scenario.scaled_horizon(0.0)

    def test_build_split_fractions(self):
        scenario = get_scenario("steady-state")
        train, test = scenario.build_split(scale=0.05, seed=1)
        horizon = scenario.scaled_horizon(0.05)
        assert train.horizon == pytest.approx(horizon * scenario.train_fraction)
        assert test.horizon == pytest.approx(horizon * (1 - scenario.train_fraction))


class TestRegistry:
    def test_at_least_ten_scenarios(self):
        assert len(scenario_names()) >= 10

    def test_expected_names_present(self):
        names = set(scenario_names())
        assert {
            "flash-crowd",
            "diurnal-heavy",
            "weekend-dip",
            "ramp-launch",
            "bursty-batch",
            "multi-tenant-mix",
            "black-friday",
            "outage-recovery",
            "pareto-bursts",
            "pareto-bursts-extreme",
            "crs",
            "google",
            "alibaba",
        } <= names

    def test_multi_tenant_scenario_is_registered(self):
        scenario = get_scenario("multi-tenant-mix")
        assert scenario.kind == "intensity"
        assert scenario.horizon_seconds == 3 * _DAY
        assert "multi-tenant" in scenario.tags
        intensity = scenario.build_intensity(scale=0.05, seed=3)
        # The 0.05 q/s floor under the three tenants keeps every bin busy.
        assert np.all(intensity.values > 0)

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("FLASH-CROWD").name == "flash-crowd"
        assert "Flash-Crowd" in DEFAULT_REGISTRY

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(WorkloadError, match="flash-crowd"):
            get_scenario("no-such-scenario")

    def test_register_into_empty_custom_registry(self):
        # Regression: an empty registry is falsy (len == 0) and must still be
        # honoured — the scenario must not leak into the default registry.
        from repro.workloads import register_scenario

        registry = ScenarioRegistry()
        scenario = Scenario(
            name="custom-isolated",
            description="",
            intensity=lambda horizon: Constant(1.0),
        )
        register_scenario(scenario, registry=registry)
        assert "custom-isolated" in registry
        assert "custom-isolated" not in DEFAULT_REGISTRY

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        scenario = Scenario(
            name="demo", description="", intensity=lambda horizon: Constant(1.0)
        )
        registry.register(scenario)
        with pytest.raises(WorkloadError):
            registry.register(scenario)
        registry.register(scenario, overwrite=True)
        assert len(registry) == 1

    def test_every_scenario_generates_valid_nhpp_trace(self):
        for scenario in list_scenarios():
            trace = scenario.build_trace(scale=0.03, seed=5)
            arrivals = trace.arrival_times
            assert trace.n_queries > 0, scenario.name
            assert np.all(np.diff(arrivals) >= 0), scenario.name
            assert arrivals[0] >= 0.0 and arrivals[-1] <= trace.horizon, scenario.name
            assert np.all(trace.processing_times >= 0), scenario.name

    def test_every_intensity_scenario_has_nonnegative_intensity(self):
        for scenario in list_scenarios():
            if scenario.kind != "intensity":
                continue
            intensity = scenario.build_intensity(scale=0.05, seed=3)
            assert np.all(intensity.values >= 0), scenario.name
            assert np.all(np.isfinite(intensity.values)), scenario.name
            assert intensity.total_mass > 0, scenario.name

    def test_seed_determinism_across_registry(self):
        for scenario in list_scenarios():
            first = scenario.build_trace(scale=0.03, seed=11)
            second = scenario.build_trace(scale=0.03, seed=11)
            np.testing.assert_array_equal(
                first.arrival_times, second.arrival_times, err_msg=scenario.name
            )
            np.testing.assert_array_equal(
                first.processing_times, second.processing_times, err_msg=scenario.name
            )

    def test_different_seeds_differ(self):
        scenario = get_scenario("steady-state")
        a = scenario.build_trace(scale=0.05, seed=1)
        b = scenario.build_trace(scale=0.05, seed=2)
        assert a.n_queries != b.n_queries or not np.array_equal(
            a.arrival_times, b.arrival_times
        )

    def test_paper_aliases_match_generators(self):
        # At the scale where the alias horizon equals the generator's
        # default, the registry alias reproduces its trace bit-for-bit.
        for alias, direct in (
            (
                get_scenario("google").build_trace(scale=0.5, seed=11),
                generate_google_like_trace(seed=11),
            ),
            (
                get_scenario("alibaba").build_trace(scale=1.0, seed=13),
                generate_alibaba_like_trace(seed=13),
            ),
        ):
            np.testing.assert_array_equal(alias.arrival_times, direct.arrival_times)
            np.testing.assert_array_equal(alias.processing_times, direct.processing_times)
            assert alias.horizon == direct.horizon


_LIBRARY = sorted(scenario_names())
_INTENSITY_LIBRARY = [name for name in _LIBRARY if get_scenario(name).kind == "intensity"]


class TestLibraryScenarioContract:
    """Per-scenario guarantees the sweep, the CLI and the drivers rely on."""

    SCALE = 0.03
    SEED = 5

    @pytest.mark.parametrize("name", _LIBRARY)
    def test_pickled_scenario_rebuilds_the_same_trace(self, name):
        # Parallel sweeps ship scenarios to worker processes by pickle.
        scenario = get_scenario(name)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        a = scenario.build_trace(scale=self.SCALE, seed=self.SEED)
        b = clone.build_trace(scale=self.SCALE, seed=self.SEED)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
        np.testing.assert_array_equal(a.processing_times, b.processing_times)

    @pytest.mark.parametrize("name", _LIBRARY)
    def test_seed_none_uses_default_seed(self, name):
        scenario = get_scenario(name)
        implicit = scenario.build_trace(scale=self.SCALE)
        explicit = scenario.build_trace(scale=self.SCALE, seed=scenario.default_seed)
        np.testing.assert_array_equal(implicit.arrival_times, explicit.arrival_times)
        np.testing.assert_array_equal(implicit.processing_times, explicit.processing_times)

    @pytest.mark.parametrize("name", _LIBRARY)
    def test_split_partitions_the_trace_at_train_fraction(self, name):
        scenario = get_scenario(name)
        full = scenario.build_trace(scale=self.SCALE, seed=self.SEED)
        train, test = scenario.build_split(scale=self.SCALE, seed=self.SEED)
        cut = full.horizon * scenario.train_fraction
        assert train.horizon == pytest.approx(cut)
        assert test.horizon == pytest.approx(full.horizon - cut)
        assert train.n_queries > 0 and test.n_queries > 0
        assert train.n_queries + test.n_queries == full.n_queries
        assert np.all(train.arrival_times < cut)
        np.testing.assert_allclose(
            test.arrival_times + cut, full.arrival_times[train.n_queries :], rtol=1e-12
        )
        np.testing.assert_array_equal(
            np.concatenate([train.processing_times, test.processing_times]),
            full.processing_times,
        )

    @pytest.mark.parametrize("name", _INTENSITY_LIBRARY)
    def test_trace_spans_the_scaled_horizon(self, name):
        scenario = get_scenario(name)
        trace = scenario.build_trace(scale=self.SCALE, seed=self.SEED)
        assert trace.horizon == scenario.scaled_horizon(self.SCALE)
        assert trace.name == scenario.name

    @pytest.mark.parametrize("name", _INTENSITY_LIBRARY)
    def test_window_counts_are_poisson_in_the_compiled_intensity(self, name):
        # build_intensity consumes the seed exactly as build_trace does before
        # sampling, so it returns the intensity this realization was drawn
        # from.  Given it, each window's count is Poisson with mean Λ(b) − Λ(a).
        # Λ is taken up to the horizon, not total_mass: the compiled grid
        # rounds up to whole bins past it.
        scenario = get_scenario(name)
        trace = scenario.build_trace(scale=self.SCALE, seed=self.SEED)
        intensity = scenario.build_intensity(scale=self.SCALE, seed=self.SEED)
        edges = np.linspace(0.0, trace.horizon, 5)
        counts, _ = np.histogram(trace.arrival_times, bins=edges)
        means = np.diff(intensity.cumulative(edges))
        assert np.all(np.abs(counts - means) <= 5.0 * np.sqrt(means) + 1.0), (
            counts,
            means,
        )
        total = intensity.cumulative(trace.horizon)
        assert abs(trace.n_queries - total) <= 5.0 * np.sqrt(total)
