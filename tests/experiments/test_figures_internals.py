"""Unit tests for the figure-driver plumbing (no slow experiment runs)."""

import pytest

from repro.experiments.config import SCALES, Defaults
from repro.experiments.figures import _point_seed, clear_cache, engine_for


class TestDefaults:
    def test_table_iii_bold_column(self):
        defaults = Defaults()
        assert defaults.k0 == 10
        assert defaults.n_keywords == 4
        assert defaults.alpha == 0.5
        assert defaults.lam == 0.5
        assert defaults.n_missing == 1
        assert defaults.rank_target == 51  # 5 * k0 + 1

    def test_scales_ordered_by_size(self):
        assert (
            SCALES["smoke"].euro_size
            < SCALES["default"].euro_size
            < SCALES["full"].euro_size
        )
        for scale in SCALES.values():
            assert scale.n_queries >= 1
            assert scale.bs_candidate_cap > 0


class TestPointSeeds:
    def test_deterministic(self):
        assert _point_seed("fig4", 10) == _point_seed("fig4", 10)

    def test_distinct_across_points(self):
        seeds = {_point_seed("fig4", v) for v in (3, 10, 30, 100)}
        assert len(seeds) == 4

    def test_distinct_across_figures(self):
        assert _point_seed("fig4", 10) != _point_seed("fig8", 10)

    def test_in_valid_range(self):
        seed = _point_seed("fig12", 0.5)
        assert 0 <= seed < 2**31


class TestEngineCache:
    def test_same_key_same_engine(self):
        clear_cache()
        try:
            _, engine_a = engine_for("euro", 400, 1)
            _, engine_b = engine_for("euro", 400, 1)
            assert engine_a is engine_b
            _, engine_c = engine_for("euro", 500, 1)
            assert engine_c is not engine_a
        finally:
            clear_cache()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            engine_for("mars", 100, 1)
