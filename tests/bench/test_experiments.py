"""Smoke tests for every figure experiment at a tiny scale.

These verify each experiment runs end to end and produces a fully
populated series; the benchmarks directory asserts the paper shapes at a
larger scale.  ``test_figure_pages_are_pinned`` is the exact-I/O
tripwire: every figure's page counts at smoke size, as literals.
"""

import inspect

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ablation_buffering,
    ablation_partitioner,
    fig04_topk,
    fig11_space,
    fig12_covering_fragments,
)

TINY = 1200


class TestRegistry:
    def test_all_figures_registered(self):
        for fig in range(4, 16):
            assert f"fig{fig:02d}" in ALL_EXPERIMENTS

    def test_ablations_registered(self):
        assert "ablation_partitioner" in ALL_EXPERIMENTS
        assert "ablation_buffering" in ALL_EXPERIMENTS


class TestSmallRuns:
    def test_fig04_structure(self):
        result = fig04_topk(num_tuples=TINY, queries_per_point=2)
        assert result.xs() == [10, 20, 50, 100]
        assert set(result.methods) == {"baseline", "rank_mapping", "ranking_cube"}
        for point in result.points:
            for metrics in point.metrics.values():
                assert metrics.queries == 2
                assert metrics.pages_read > 0

    def test_fig11_reports_space(self):
        result = fig11_space(num_tuples=TINY, dim_counts=(2, 4))
        for point in result.points:
            for metrics in point.metrics.values():
                assert metrics.space_bytes > 0
        # more dimensions -> more space, for every method
        for method in result.methods:
            series = result.series(method, "space_bytes")
            assert series[1] > series[0]

    def test_fig12_covering_counts(self):
        result = fig12_covering_fragments(num_tuples=TINY, queries_per_point=2)
        assert result.xs() == [1, 2, 3]

    def test_ablation_partitioner_runs(self):
        result = ablation_partitioner(num_tuples=TINY, queries_per_point=2)
        assert result.xs() == ["equi-depth", "equi-width"]

    def test_ablation_buffering_shows_effect(self):
        result = ablation_buffering(num_tuples=3000, queries_per_point=3)
        on = result.points[0].metrics["ranking_cube"]
        off = result.points[1].metrics["ranking_cube"]
        assert on.pages_read <= off.pages_read


@pytest.mark.parametrize(
    "name",
    [name for name in ALL_EXPERIMENTS if name not in ("fig04", "fig11", "fig12")],
)
def test_every_experiment_runs_tiny(name):
    fn = ALL_EXPERIMENTS[name]
    kwargs = {}
    params = inspect.signature(fn).parameters
    if "num_tuples" in params:
        kwargs["num_tuples"] = TINY
    if "queries_per_point" in params:
        kwargs["queries_per_point"] = 1
    if "sizes" in params:
        kwargs["sizes"] = (600, 1200)
    if "dim_counts" in params:
        kwargs["dim_counts"] = (3, 4)
    if "cardinalities" in params:
        kwargs["cardinalities"] = (5, 10)
    if "block_sizes" in params:
        kwargs["block_sizes"] = (10, 30)
    if "fragment_sizes" in params:
        kwargs["fragment_sizes"] = (1, 2)
    result = fn(**kwargs)
    assert result.points
    for point in result.points:
        assert point.metrics


#: Device pages read per query (``space_bytes`` for fig11) of every
#: method at every x, at ``num_tuples=3000``, one query per point and
#: fig07 over ``sizes=(1500, 3000)``.  Identical under any
#: ``PYTHONHASHSEED``.  A change that moves one of these changes the
#: paper figures: re-bless on purpose, with the diff in the change log.
FIGURE_PINS = {
    "fig04": {
        "x": [10, 20, 50, 100],
        "baseline": [27, 27, 27, 27],
        "rank_mapping": [3, 2, 2, 43],
        "ranking_cube": [14, 16, 20, 22],
    },
    "fig05": {
        "x": [1.0, 0.5, 0.25, 0.1],
        "baseline": [27, 27, 27, 27],
        "rank_mapping": [43, 43, 6, 43],
        "ranking_cube": [14, 10, 10, 8],
    },
    "fig06": {
        "x": [1, 2, 3, 4],
        "baseline": [39, 39, 39, 39],
        "rank_mapping": [55, 3, 2, 55],
        "ranking_cube": [12, 16, 20, 20],
    },
    "fig07": {
        "x": [1500, 3000],
        "baseline": [14, 27],
        "rank_mapping": [22, 6],
        "ranking_cube": [11, 13],
    },
    "fig08": {
        "x": [5, 10, 20, 50, 100],
        "baseline": [27, 27, 27, 27, 27],
        "rank_mapping": [43, 6, 43, 43, 0],
        "ranking_cube": [9, 12, 9, 7, 2],
    },
    "fig09": {
        "x": [1, 2, 3, 4],
        "baseline": [30, 30, 30, 30],
        "rank_mapping": [49, 2, 49, 0],
        "ranking_cube": [8, 8, 10, 2],
    },
    "fig10": {
        "x": [10, 30, 100, 300, 1000],
        "ranking_cube": [13, 12, 13, 15, 21],
    },
    "fig11": {
        "x": [3, 6, 9, 12],
        "baseline": [245760, 417792, 589824, 761856],
        "rank_mapping": [286720, 602112, 917504, 1130496],
        "ranking_fragments": [376832, 638976, 856064, 1118208],
    },
    "fig12": {
        "x": [1, 2, 3],
        "ranking_fragments": [10, 7, 17],
    },
    "fig13": {
        "x": [1, 2, 3],
        "ranking_fragments": [13, 13, 13],
    },
    "fig14": {
        "x": [3, 6, 9, 12],
        "baseline": [27, 36, 45, 54],
        "rank_mapping": [0, 42, 50, 90],
        "ranking_fragments": [4, 11, 14, 10],
    },
    "fig15": {
        "x": [10, 20, 50, 100],
        "baseline": [59, 59, 59, 59],
        "rank_mapping": [106, 71, 0, 108],
        "ranking_fragments": [13, 22, 5, 28],
    },
    # the "hybrid" method is the router at probe_margin=1.0
    "extra_hybrid_routing": {
        "x": [1, 2, 3, 4],
        "baseline": [30, 30, 30, 30],
        "ranking_cube": [7, 14, 2, 2],
        "hybrid": [30, 30, 30, 30],
    },
}


@pytest.mark.parametrize("name", sorted(FIGURE_PINS))
def test_figure_pages_are_pinned(name):
    fn = ALL_EXPERIMENTS[name]
    params = inspect.signature(fn).parameters
    kwargs = {}
    if "num_tuples" in params:
        kwargs["num_tuples"] = 3000
    if "queries_per_point" in params:
        kwargs["queries_per_point"] = 1
    if "sizes" in params:
        kwargs["sizes"] = (1500, 3000)
    result = fn(**kwargs)
    metric = "space_bytes" if name == "fig11" else "pages_read"
    observed = {"x": result.xs()}
    for method in result.methods:
        observed[method] = result.series(method, metric)
    assert observed == FIGURE_PINS[name]
