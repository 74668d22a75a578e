"""Synthetic datasets are a function of their spec: ``generate`` replays
one RNG stream seeded by ``spec.seed``, bit-identical to the historical
output that every checked-in baseline and seeded test was drawn from."""

import numpy as np

from repro.workloads.synthetic import SyntheticSpec, _generate_rows, generate


class TestDeterminism:
    def test_matches_legacy_single_stream(self):
        spec = SyntheticSpec(
            num_selection_dims=2,
            num_ranking_dims=2,
            num_tuples=400,
            cardinality=6,
            seed=13,
        )
        legacy = _generate_rows(
            spec, np.random.default_rng(spec.seed), spec.num_tuples
        )
        assert generate(spec).rows == legacy
        assert generate(spec).rows == legacy
