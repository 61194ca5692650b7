"""CSV ingestion and preclinical parameter estimation."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from conftest import mc_error_rates

from platformdesign.errors import (
    DomainError,
    InsufficientData,
    ParseError,
    SchemaError,
    ZeroVariance,
)
from platformdesign.estimation import (
    PairedEndpointTable,
    TrialEstimates,
    estimate_trial,
    ingest_csv,
    table1_pipeline,
)
from platformdesign.mvnorm import CorrelationMatrix


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _synthetic_table(n_models: int = 12, seed: int = 5) -> PairedEndpointTable:
    """Base responses plus exact shifts: B = A + 0.5*sd, AB = A + 1.0*sd."""
    rng = np.random.default_rng(seed)
    base = rng.normal(10.0, 4.0, n_models)
    sd = float(np.std(base, ddof=1))
    records = []
    for i, value in enumerate(base):
        model = f"m{i:02d}"
        records.append((model, "drugA", float(value)))
        records.append((model, "drugB", float(value + 0.5 * sd)))
        records.append((model, "drugA+drugB", float(value + 1.0 * sd)))
    return PairedEndpointTable.from_records(records)


class TestIngestCsv:
    def test_minimal_fixture(self, tmp_path):
        path = _write(
            tmp_path / "tiny.csv",
            "model_id,treatment,response\nm1,a,1.0\nm1,b,2.0\nm1,ab,3.0\n",
        )
        table = ingest_csv(path)
        assert table.n_rows == 3
        assert table.models_with("a", "b", "ab") == ["m1"]

    def test_row_count_matches_source(self, tmp_path):
        lines = ["model_id,treatment,response"]
        for i in range(25):
            lines.append(f"m{i},t{i % 5},{i * 0.5}")
        path = _write(tmp_path / "rows.csv", "\n".join(lines) + "\n")
        assert ingest_csv(path).n_rows == 25

    def test_duplicates_rejected_by_default(self, tmp_path):
        path = _write(
            tmp_path / "dup.csv",
            "model_id,treatment,response\nm1,a,1.0\nm1,a,2.0\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path)
        assert "m1" in str(excinfo.value) and "a" in str(excinfo.value)

    def test_duplicates_mean_policy(self, tmp_path):
        path = _write(
            tmp_path / "dup.csv",
            "model_id,treatment,response\nm1,a,1.0\nm1,a,2.0\n",
        )
        table = ingest_csv(path, duplicates="mean")
        assert table.responses[("m1", "a")] == 1.5

    def test_duplicate_mean_that_overflows_is_refused(self, tmp_path):
        path = _write(
            tmp_path / "dup.csv",
            "model_id,treatment,response\nm1,a,1e308\nm1,a,1e308\nm2,a,1.0\n",
        )
        with pytest.raises(ParseError, match=r"\('m1', 'a'\) is not a finite number"):
            ingest_csv(path, duplicates="mean")
        with pytest.raises(ParseError, match=r"\('m1', 'a'\) is not a finite number"):
            PairedEndpointTable.from_records(
                [("m1", "a", -1e308), ("m1", "a", -1e308)], duplicates="mean"
            )

    def test_missing_column_named(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "model_id,treatment,value\nm1,a,1.0\n")
        with pytest.raises(SchemaError) as excinfo:
            ingest_csv(path)
        assert "response" in str(excinfo.value)

    def test_bad_number_reports_line(self, tmp_path):
        path = _write(
            tmp_path / "bad.csv",
            "model_id,treatment,response\nm1,a,1.0\nm2,b,oops\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path)
        assert ":3:" in str(excinfo.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_response_reports_line_and_value(self, tmp_path, raw):
        path = _write(
            tmp_path / "bad.csv",
            f"model_id,treatment,response\nm1,a,1.0\nm2,b,{raw}\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path)
        assert f"bad.csv:3: response {raw!r}" in str(excinfo.value)

    def test_custom_columns_and_delimiter(self, tmp_path):
        path = _write(
            tmp_path / "alt.csv", "pdx;drug;shrinkage\nm1;a;0.5\nm1;b;0.6\n"
        )
        table = ingest_csv(
            path, model_col="pdx", treatment_col="drug", response_col="shrinkage",
            delimiter=";",
        )
        assert table.n_rows == 2

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "empty.csv", "")
        with pytest.raises(SchemaError):
            ingest_csv(path)

    @pytest.mark.parametrize("delimiter", [";;", "", "\\t"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        # refused by the package, before csv sees it
        path = _write(tmp_path / "ok.csv", "model_id,treatment,response\nm1,a,0.5\n")
        with pytest.raises(DomainError, match="delimiter must be one character"):
            ingest_csv(path, delimiter=delimiter)


class TestEstimateTrial:
    def test_constructed_fixture_synergy_two(self):
        table = _synthetic_table()
        est = estimate_trial(table, "drugA", "drugB", "drugA+drugB")
        assert est.delta_B == pytest.approx(0.5, abs=1e-12)
        assert est.delta_AB == pytest.approx(1.0, abs=1e-12)
        assert est.s_hat == pytest.approx(2.0, abs=1e-12)
        assert est.rho_AB_A == pytest.approx(1.0, abs=1e-12)
        assert est.rho_AB_B == pytest.approx(1.0, abs=1e-12)
        assert est.n_A == est.n_B == est.n_AB == 12
        assert not est.screened_out

    def test_screening_flag(self):
        records = []
        rng = np.random.default_rng(3)
        base = rng.normal(0.0, 1.0, 10)
        noise = rng.normal(0.0, 0.3, 10)
        for i in range(10):
            records.append((f"m{i}", "a", float(base[i])))
            records.append((f"m{i}", "b", float(base[i] + 1.0)))
            records.append((f"m{i}", "ab", float(base[i] - 1.0 + noise[i])))
        table = PairedEndpointTable.from_records(records)
        est = estimate_trial(table, "a", "b", "ab")
        assert est.screened_out  # combination mean below control mean

    def test_scale_invariance(self):
        table = _synthetic_table()
        scaled = PairedEndpointTable.from_records(
            [(m, t, 3.7 * v) for (m, t), v in table.responses.items()]
        )
        a = estimate_trial(table, "drugA", "drugB", "drugA+drugB")
        b = estimate_trial(scaled, "drugA", "drugB", "drugA+drugB")
        for field in ("rho_AB_A", "rho_AB_B", "delta_B", "delta_AB", "s_hat"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-10)

    def test_sign_flip_option(self):
        table = _synthetic_table()
        flipped = PairedEndpointTable.from_records(
            [(m, t, -v) for (m, t), v in table.responses.items()]
        )
        a = estimate_trial(table, "drugA", "drugB", "drugA+drugB")
        b = estimate_trial(flipped, "drugA", "drugB", "drugA+drugB", higher_is_better=False)
        assert b.delta_AB == pytest.approx(a.delta_AB, abs=1e-12)
        assert not b.screened_out

    def test_correlations_use_pairwise_complete_models(self):
        table = _synthetic_table(n_models=10)
        # extra models carrying only (A, AB) perturb rho_AB_A but not counts
        rng = np.random.default_rng(9)
        extra = []
        for i in range(40):
            a = float(rng.normal(10, 4))
            extra.append((f"x{i}", "drugA", a))
            extra.append((f"x{i}", "drugA+drugB", float(a + rng.normal(0, 6))))
        merged = PairedEndpointTable.from_records(
            list(
                (m, t, v) for (m, t), v in table.responses.items()
            ) + extra
        )
        est = estimate_trial(merged, "drugA", "drugB", "drugA+drugB")
        assert est.n_A == 10  # complete triples only
        assert est.rho_AB_A < 1.0  # noisy pairs pulled it off the diagonal
        assert est.rho_AB_B == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        table = _synthetic_table(n_models=2)
        with pytest.raises(InsufficientData):
            estimate_trial(table, "drugA", "drugB", "drugA+drugB")

    @pytest.mark.parametrize("min_triples", [1, 0, -3])
    def test_min_triples_below_two_refused(self, min_triples):
        # a standard deviation needs two models, so fewer than two triples
        # is refused before any numpy call could warn
        one_triple = PairedEndpointTable.from_records(
            [("m0", "a", 1.0), ("m0", "b", 2.0), ("m0", "ab", 3.0), ("m1", "a", 4.0)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="min_triples must be at least 2"):
                estimate_trial(one_triple, "a", "b", "ab", min_triples=min_triples)
            with pytest.raises(InsufficientData, match="only 1 complete"):
                estimate_trial(one_triple, "a", "b", "ab", min_triples=2)

    def test_zero_variance(self):
        records = []
        for i in range(5):
            records.append((f"m{i}", "a", 1.0))
            records.append((f"m{i}", "b", float(i)))
            records.append((f"m{i}", "ab", float(2 * i)))
        with pytest.raises(ZeroVariance):
            estimate_trial(PairedEndpointTable.from_records(records), "a", "b", "ab")

    @pytest.mark.parametrize(
        "treatment, responses",
        [("ab", (1e308, -1e308, 0.0)), ("ab", (1e308, 1e308, -1e308)), ("b", (-1e308, 1e308, 5.0))],
    )
    def test_an_arm_whose_mean_or_sd_overflows_is_named(self, treatment, responses):
        # finite responses whose mean or SD is not a finite double: refused,
        # where estimates from an infinite SD used to come back (delta 0)
        arms = {"a": (10.0, 11.0, 12.0), "b": (15.5, 18.5, 12.5), "ab": (17.0, 17.5, 19.0)}
        arms[treatment] = responses
        table = PairedEndpointTable.from_records(
            [(f"m{i}", t, values[i]) for t, values in arms.items() for i in range(3)]
        )
        with pytest.raises(DomainError, match=f"the mean or SD of '{treatment}' is not a finite"):
            estimate_trial(table, "a", "b", "ab")

    def test_effects_are_standardized_by_the_pooled_sd(self, rng):
        # with equal arm counts the pooled variance is the mean of the two
        # arms' variances, so delta times the pooled SD gives back the mean
        # difference; n = 2 is the fewest models an SD takes
        for _ in range(50):
            n = int(rng.integers(2, 30))
            arms = {t: rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 5), n)
                    for t in ("a", "b", "ab")}
            table = PairedEndpointTable.from_records(
                [(f"m{i}", t, float(y[i])) for t, y in arms.items() for i in range(n)]
            )
            est = estimate_trial(table, "a", "b", "ab", min_triples=2)
            means = {t: float(np.mean(y)) for t, y in arms.items()}
            sds = {t: float(np.std(y, ddof=1)) for t, y in arms.items()}
            for delta, arm in ((est.delta_B, "b"), (est.delta_AB, "ab")):
                pooled = math.sqrt((sds[arm] ** 2 + sds["a"] ** 2) / 2)
                assert delta * pooled == pytest.approx(means[arm] - means["a"], rel=1e-12)

    def test_equal_sds_pool_to_that_sd(self):
        # every arm's SD is 2, so each delta is its mean difference over 2
        arms = {"a": (0.0, 2.0, 4.0), "b": (1.0, 3.0, 5.0), "ab": (7.0, 5.0, 3.0)}
        table = PairedEndpointTable.from_records(
            [(f"m{i}", t, values[i]) for t, values in arms.items() for i in range(3)]
        )
        est = estimate_trial(table, "a", "b", "ab")
        assert est.delta_B == 0.5 and est.delta_AB == 1.5

    def test_pooled_sd_hand_value(self):
        # SDs 1, 2 and sqrt(3) about means 1, 6 and 3: pooled variances
        # (1 + 4) / 2 and (1 + 3) / 2, so delta_B = 5 / sqrt(2.5) = sqrt(10)
        # and delta_AB = 2 / sqrt(2) = sqrt(2)
        arms = {"a": (0.0, 1.0, 2.0), "b": (4.0, 6.0, 8.0), "ab": (2.0, 5.0, 2.0)}
        table = PairedEndpointTable.from_records(
            [(f"m{i}", t, values[i]) for t, values in arms.items() for i in range(3)]
        )
        est = estimate_trial(table, "a", "b", "ab")
        assert est.delta_B == pytest.approx(math.sqrt(10.0), abs=1e-12)
        assert est.delta_AB == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert est.s_hat == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_pooled_sd_at_minimal_counts(self):
        # two models: SDs sqrt(2), sqrt(2) and 2 sqrt(2), so the pooled
        # variances are 2 and (2 + 8) / 2
        arms = {"a": (0.0, 2.0), "b": (1.0, 3.0), "ab": (2.0, 6.0)}
        table = PairedEndpointTable.from_records(
            [(f"m{i}", t, values[i]) for t, values in arms.items() for i in range(2)]
        )
        est = estimate_trial(table, "a", "b", "ab", min_triples=2)
        assert est.n_A == est.n_B == est.n_AB == 2
        assert est.delta_B == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert est.delta_AB == pytest.approx(3.0 / math.sqrt(5.0), abs=1e-12)

    def test_pooled_sd_lies_between_the_arm_sds(self, rng):
        # |delta| is the mean difference over a pooled SD that lies between
        # the two arms' SDs
        for _ in range(50):
            n = int(rng.integers(2, 30))
            arms = {t: rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 5), n)
                    for t in ("a", "b", "ab")}
            table = PairedEndpointTable.from_records(
                [(f"m{i}", t, float(y[i])) for t, y in arms.items() for i in range(n)]
            )
            est = estimate_trial(table, "a", "b", "ab", min_triples=2)
            sd_a = float(np.std(arms["a"], ddof=1))
            for delta, arm in ((est.delta_B, "b"), (est.delta_AB, "ab")):
                diff = abs(float(np.mean(arms[arm]) - np.mean(arms["a"])))
                sds = (sd_a, float(np.std(arms[arm], ddof=1)))
                slack = 1e-12 * diff / min(sds)
                assert diff / max(sds) - slack <= abs(delta) <= diff / min(sds) + slack

    def test_a_pooled_sd_that_overflows_is_named(self):
        # each arm's SD is a finite double, 9.2e153, but the sum of the two
        # arms' squared deviations is not: the pooled SD would be inf and
        # delta_AB 0, where it is about 1.08
        arms = {"a": (0.0, 1.6e154, 0.0), "b": (1.0, 2.0, 4.0), "ab": (1e154, 2.6e154, 1e154)}
        table = PairedEndpointTable.from_records(
            [(f"m{i}", t, values[i]) for t, values in arms.items() for i in range(3)]
        )
        with pytest.raises(DomainError, match="the pooled SD of 'ab' and 'a' is not a finite"):
            estimate_trial(table, "a", "b", "ab")

    def test_a_correlation_that_overflows_is_named(self):
        # the complete triples are finite; a model carrying only (a, ab)
        # makes that pair's spread overflow, so its correlation is undefined
        table = _synthetic_table(n_models=5)
        records = [(m, t, v) for (m, t), v in table.responses.items()]
        records += [("x", "drugA", 1e308), ("x", "drugA+drugB", -1e308)]
        merged = PairedEndpointTable.from_records(records)
        with pytest.raises(
            DomainError, match="the correlation of 'drugA\\+drugB' and 'drugA' is not a finite"
        ):
            estimate_trial(merged, "drugA", "drugB", "drugA+drugB")

    def test_json_field_names(self):
        est = estimate_trial(_synthetic_table(), "drugA", "drugB", "drugA+drugB")
        payload = json.loads(est.to_json())
        assert set(payload) == {
            "rho_AB_A", "rho_AB_B", "delta_B", "delta_AB", "s_hat",
            "n_A", "n_B", "n_AB", "drug_A", "drug_B", "combo", "screened_out",
        }


class TestTable1Pipeline:
    def _estimates(self, rho_ab_a, rho_ab_b, n):
        return TrialEstimates(
            rho_AB_A=rho_ab_a, rho_AB_B=rho_ab_b, delta_B=0.3, delta_AB=0.6,
            s_hat=2.0, n_A=n, n_B=n, n_AB=n, drug_A="a", drug_B="b", combo="ab",
            screened_out=False,
        )

    def test_near_independent_design_gives_sidak_threshold(self):
        # a huge control arm drives the Z correlation to ~0
        est = dataclasses.replace(self._estimates(0.0, 0.0, 10), n_A=10**8)
        result = table1_pipeline(est)
        assert result.rho == pytest.approx(0.0, abs=1e-3)
        assert result.thresholds["fwer"].p_threshold == pytest.approx(0.0253, abs=5e-4)
        # exact independent-trial rates: 1 - 0.95^2, 0.05^2, 0.025^2
        assert result.unadjusted == pytest.approx(
            {"fwer": 0.0975, "fmer": 0.0025, "msfp": 0.000625}, abs=1e-5
        )

    def test_degenerate_design_gives_unadjusted_threshold(self):
        est = dataclasses.replace(self._estimates(0.0, 1.0, 10), n_A=10**8)
        result = table1_pipeline(est)
        assert result.rho == pytest.approx(1.0, abs=1e-3)
        assert result.thresholds["fwer"].p_threshold == pytest.approx(0.05, abs=5e-4)

    def test_loop_closure_at_estimated_correlation(self):
        # thresholds pushed back through simulation hit their targets
        est = self._estimates(0.227, 0.250, 29)
        result = table1_pipeline(est)
        corr = CorrelationMatrix.bivariate(result.rho)
        for kind, target in (("fwer", 0.05), ("fmer", 0.0025), ("msfp", 0.000625)):
            rates = mc_error_rates(corr, result.thresholds[kind].critical_value, 100_000, seed=11)
            se = math.sqrt(target * (1 - target) / 100_000)
            assert rates[kind] == pytest.approx(target, abs=3 * se + 1e-9)

    def test_screened_out_rejected(self):
        est = TrialEstimates(
            rho_AB_A=0.2, rho_AB_B=0.2, delta_B=-0.1, delta_AB=0.5, s_hat=-5.0,
            n_A=10, n_B=10, n_AB=10, drug_A="a", drug_B="b", combo="ab",
            screened_out=True,
        )
        with pytest.raises(DomainError):
            table1_pipeline(est)
