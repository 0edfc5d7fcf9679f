"""Tests for random-number-generator plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import ensure_rng


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

