"""Tests for regression models and workload specs."""

import math
import random

import pytest

from repro.interference.models import ExponentialModel, LinearModel
from repro.interference.regression import fit_line, r_squared
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.mixes import ALL_MIXES, WMIX_1, WMIX_2, WorkloadMix
from repro.workloads.specs import ALL_BENCHMARKS, BENCHMARKS_BY_NAME, make_job


# ----------------------------------------------------------------------
# regression utilities
# ----------------------------------------------------------------------
def test_fit_line_exact():
    slope, icpt = fit_line([0, 1, 2, 3], [1, 3, 5, 7])
    assert slope == pytest.approx(2.0)
    assert icpt == pytest.approx(1.0)


def test_fit_line_degenerate_inputs():
    assert fit_line([5.0], [3.0]) == (0.0, 3.0)
    assert fit_line([2.0, 2.0], [1.0, 3.0]) == (0.0, 2.0)
    with pytest.raises(ValueError):
        fit_line([], [])
    with pytest.raises(ValueError):
        fit_line([1, 2], [1])


def test_r_squared_perfect_and_poor():
    assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert r_squared([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# model families
# ----------------------------------------------------------------------
def test_linear_model_fit_predict():
    model = LinearModel().fit([0, 1, 2], [1.0, 1.5, 2.0])
    assert model.predict(4) == pytest.approx(3.0)
    assert model.score([0, 1, 2], [1.0, 1.5, 2.0]) == pytest.approx(1.0)


def test_exponential_model_recovers_curve():
    xs = [float(x) for x in range(0, 60, 5)]
    ys = [1.0 + 0.2 * math.exp(0.05 * x) for x in xs]
    model = ExponentialModel().fit(xs, ys)
    assert model.b > 0  # growth recovered
    preds = [model.predict(x) for x in xs]
    assert preds == sorted(preds)
    assert model.predict(55) == pytest.approx(ys[-1], rel=0.35)


# ----------------------------------------------------------------------
# workload specs and mixes
# ----------------------------------------------------------------------
def test_six_benchmarks_defined():
    assert len(ALL_BENCHMARKS) == 6
    assert set(BENCHMARKS_BY_NAME) == {
        "Twitter", "Wcount", "PiEst", "DistGrep", "Sort", "Kmeans",
    }


def test_resource_classes_match_paper():
    assert BENCHMARKS_BY_NAME["PiEst"].resource_class == "cpu"
    assert BENCHMARKS_BY_NAME["Kmeans"].resource_class == "cpu"
    assert BENCHMARKS_BY_NAME["Sort"].resource_class == "io"
    assert BENCHMARKS_BY_NAME["DistGrep"].resource_class == "io"
    assert BENCHMARKS_BY_NAME["Twitter"].resource_class == "mixed"
    assert BENCHMARKS_BY_NAME["Wcount"].resource_class == "mixed"


def test_sort_moves_every_byte():
    sort = BENCHMARKS_BY_NAME["Sort"]
    assert sort.map_selectivity == 1.0
    assert sort.output_ratio == 1.0


def test_mix_fractions():
    assert WMIX_1.counts(10) == (5, 5)
    assert WMIX_2.counts(10) == (2, 8)
    with pytest.raises(ValueError):
        WorkloadMix("bad", 0.6, 0.6)


def test_generator_is_deterministic():
    a = WorkloadGenerator(random.Random(1)).batch_stream(5)
    b = WorkloadGenerator(random.Random(1)).batch_stream(5)
    assert [(s.profile.name, s.input_gb) for s in a] == [
        (s.profile.name, s.input_gb) for s in b
    ]


def test_generator_respects_scale():
    stream = WorkloadGenerator(random.Random(2), input_scale=0.1).batch_stream(20)
    for spec in stream:
        assert spec.input_gb <= 25.0 * 0.1 * 1.25 + 1e-9


def test_generator_mixed_stream_counts():
    gen = WorkloadGenerator(random.Random(3))
    interactive, batch = gen.mixed_stream(WMIX_2, 10)
    assert interactive == 2
    assert len(batch) == 8
