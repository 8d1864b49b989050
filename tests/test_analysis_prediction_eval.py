"""Exact-value tests for the Fig 9 prediction evaluation."""

import pytest

from repro.errors import AnalysisError
from repro.analysis.prediction_eval import ECS, LDNS, evaluate_prediction
from repro.core.predictor import HistoryBasedPredictor, PredictorConfig

from tests.helpers import make_client, make_dataset


def two_day_dataset(day1_anycast, day1_target, volume=10.0):
    """One client; on day 0 the predictor sees anycast=50/fe-a=30 and maps
    the client to fe-a.  Day 1 outcomes are parameterized."""
    client = make_client(1, daily_queries=volume)
    key = client.key
    ecs = [
        (0, key, "anycast", [50.0] * 25),
        (0, key, "fe-a", [30.0] * 25),
        (1, key, "anycast", [day1_anycast] * 25),
        (1, key, "fe-a", [day1_target] * 25),
    ]
    return make_dataset([client], num_days=2, ecs_samples=ecs)


class TestEvaluation:
    def test_improvement_counted(self):
        dataset = two_day_dataset(day1_anycast=50.0, day1_target=30.0)
        result = evaluate_prediction(dataset, min_eval_samples=5)
        summary = result.summary(ECS, 50.0)
        assert summary.fraction_improved == pytest.approx(1.0)
        assert summary.fraction_worse == 0.0

    def test_worse_counted(self):
        # The predicted target degraded on the evaluation day.
        dataset = two_day_dataset(day1_anycast=50.0, day1_target=80.0)
        result = evaluate_prediction(dataset, min_eval_samples=5)
        summary = result.summary(ECS, 50.0)
        assert summary.fraction_worse == pytest.approx(1.0)
        assert summary.fraction_improved == 0.0

    def test_anycast_prediction_scores_zero(self):
        client = make_client(1)
        key = client.key
        ecs = [
            (0, key, "anycast", [20.0] * 25),
            (0, key, "fe-a", [30.0] * 25),
            (1, key, "anycast", [20.0] * 25),
        ]
        dataset = make_dataset([client], num_days=2, ecs_samples=ecs)
        result = evaluate_prediction(
            dataset, groupings=(ECS,), min_eval_samples=5
        )
        summary = result.summary(ECS, 50.0)
        assert summary.fraction_unchanged == pytest.approx(1.0)

    def test_ldns_grouping_uses_resolver_decision(self):
        dataset = two_day_dataset(day1_anycast=50.0, day1_target=30.0)
        result = evaluate_prediction(dataset, min_eval_samples=5)
        summary = result.summary(LDNS, 50.0)
        # The LDNS mapping (fe-a) applies to the member /24, which indeed
        # improves on day 1.
        assert summary.fraction_improved == pytest.approx(1.0)

    def test_eval_day_sample_cut_skips_clients(self):
        client = make_client(1)
        key = client.key
        ecs = [
            (0, key, "anycast", [50.0] * 25),
            (0, key, "fe-a", [30.0] * 25),
            (1, key, "anycast", [50.0] * 25),
            (1, key, "fe-a", [30.0] * 2),  # too few to evaluate
        ]
        dataset = make_dataset([client], num_days=2, ecs_samples=ecs)
        with pytest.raises(AnalysisError, match="no client"):
            evaluate_prediction(
                dataset, groupings=(ECS,), min_eval_samples=5
            )

    def test_needs_two_days(self):
        client = make_client(1)
        dataset = make_dataset(
            [client],
            num_days=1,
            ecs_samples=[(0, client.key, "anycast", [10.0] * 25)],
        )
        with pytest.raises(AnalysisError, match=">= 2 days"):
            evaluate_prediction(dataset)

    def test_unknown_grouping_rejected(self):
        dataset = two_day_dataset(50.0, 30.0)
        with pytest.raises(AnalysisError, match="unknown grouping"):
            evaluate_prediction(dataset, groupings=("asn",))

    def test_custom_predictor_respected(self):
        dataset = two_day_dataset(day1_anycast=50.0, day1_target=30.0)
        # A predictor with an impossible sample cut never redirects.
        predictor = HistoryBasedPredictor(PredictorConfig(min_samples=1000))
        result = evaluate_prediction(
            dataset, predictor=predictor, groupings=(ECS,), min_eval_samples=5
        )
        assert result.summary(ECS, 50.0).fraction_unchanged == pytest.approx(1.0)

    def test_format_mentions_lines(self):
        dataset = two_day_dataset(50.0, 30.0)
        text = evaluate_prediction(dataset, min_eval_samples=5).format()
        assert "EDNS-0" in text
        assert "LDNS" in text
