"""Command-line interface: flags, outputs, exit codes, determinism."""

import json
import os
import subprocess
import time
import warnings

import numpy as np
import pytest
from conftest import FIXTURE_INDEPENDENT_CSV, run_python

from platformdesign.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if code == 0 else None), err


FIXTURE_CSV = "model_id,treatment,response\n" + "".join(
    f"m{i},A,{10 + i}\nm{i},B,{10 + i + 2.5}\nm{i},AB,{10 + i + 5.0}\n"
    for i in range(8)
)

# same generating pattern with fixed perturbations, so the estimated
# correlations stay strictly inside (-1, 1); A and B still move together
# (correlation 0.99), so with the zero control-monotherapy correlation the
# estimator assumes, the arm correlations do not fit together
_JITTER_B = (0.4, -0.3, 0.2, -0.5, 0.1, 0.3, -0.2, 0.0)
_JITTER_AB = (-0.2, 0.5, -0.4, 0.1, 0.3, -0.1, 0.2, -0.4)
FIXTURE_NOISY_CSV = "model_id,treatment,response\n" + "".join(
    f"m{i},A,{10 + i}\n"
    f"m{i},B,{10 + i + 2.5 + _JITTER_B[i]}\n"
    f"m{i},AB,{10 + i + 5.0 + _JITTER_AB[i]}\n"
    for i in range(8)
)



class TestAdjust:
    def test_sidak_threshold(self, capsys):
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "fwer", "--alpha", "0.05", "--rho", "0"
        )
        assert code == 0
        assert report["p_threshold"] == pytest.approx(0.0253, abs=5e-4)

    def test_fmer_baseline_critical_value(self, capsys):
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "fmer", "--alpha", "0.0025", "--rho", "0"
        )
        assert code == 0
        assert report["critical_value"] == pytest.approx(1.960, abs=1e-3)

    def test_arm_level_input(self, capsys):
        from platformdesign.correlation import (
            ArmCorrelations, PlatformArms, platform_z_correlation_matrix,
        )

        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "fwer",
            "--n-a", "100", "--n-b", "100", "--n-ab", "100",
            "--rho-ab-a", "0.626", "--rho-ab-b", "0.660",
        )
        assert code == 0
        arms = PlatformArms(100, 100, 100, ArmCorrelations.per_substudy(0.626, 0.660))
        expected = platform_z_correlation_matrix(arms).entries[0, 1]
        assert report["z_correlation"] == pytest.approx(expected, abs=1e-9)

    def test_alpha_validation_names_flag(self, capsys):
        code, out, err = _run(
            capsys, "adjust", "--metric", "fwer", "--alpha", "1.5", "--rho", "0"
        )
        assert code == 2
        assert "--alpha" in err

    def test_numeric_failure_exit_code(self, capsys):
        # msfp cannot reach 0.4 for any positive critical value
        code, _, err = _run(
            capsys, "adjust", "--metric", "msfp", "--alpha", "0.4", "--rho", "0"
        )
        assert code == 3
        assert "no critical value" in err and "reaches level 0.4" in err

    def test_mfwer_with_direct_rho(self, capsys):
        # two statistics: solved on the exact bivariate law, like fwer
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.01",
            "--rho", "0.5", "--seed", "2",
        )
        assert code == 0
        assert abs(report["achieved"] - 0.01) <= 1e-6
        assert report["achieved_stderr"] == 0.0
        assert report["z_correlation"] == 0.5

    @pytest.mark.parametrize(
        "flag", [("--n-a", "100"), ("--n-b", "5"), ("--n-ab", "60"), ("--rho-ab-a", "0.2"),
                 ("--rho-ab-b", "0.2"), ("--rho-a-b", "0.1")],
    )
    def test_direct_rho_refuses_arm_flags(self, capsys, flag):
        # --rho is the Z correlation itself, so an arm flag beside it would
        # be dropped without a word
        code, out, err = _run(capsys, "adjust", "--rho", "0.3", *flag)
        assert code == 2
        assert out == ""
        assert f"--rho cannot be combined with {flag[0]}" in err

    def test_arm_correlations_that_do_not_fit_together(self, capsys):
        code, _, err = _run(
            capsys, "adjust", "--n-a", "50", "--n-b", "50", "--n-ab", "50",
            "--rho-ab-a", "0.8", "--rho-ab-b", "0.9",
        )
        assert code == 2
        assert "do not fit together" in err

    @pytest.mark.parametrize("count", ["inf", "nan"])
    @pytest.mark.parametrize("flag, name", [("--n-a", "n_control"), ("--n-b", "n_mono"),
                                            ("--n-ab", "n_combo")])
    def test_arm_count_that_is_not_finite_refused(self, capsys, flag, name, count):
        counts = {"--n-a": "60", "--n-b": "60", "--n-ab": "60", flag: count}
        code, out, err = _run(
            capsys, "adjust", "--metric", "fwer", *(x for item in counts.items() for x in item),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {name} must be a finite count of at least 1, got {float(count)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("adjust", "--k", "3", "--rho-ab-a", "0.6", "0.6", "0.6", "--rho-ab-b", "0", "0", "0"),
            ("adjust", "--k", "6", "--rho-ab-a", "0.42", "--rho-ab-b", "0.42"),
            ("adjust", "--rho-ab-a", "0.45", "--rho-ab-b", "0.9"),
            ("simulate", "--study", "thresholds", "--fixed-rho", "0.45",
             "--start", "0.9", "--stop", "0.9"),
        ],
    )
    def test_arm_correlations_that_cannot_form_a_trial(self, capsys, argv):
        # the arm correlation matrix is not positive semidefinite: refused
        # before any threshold is solved, with one error line
        counts = ("--n-a", "100", "--n-b", "100", "--n-ab", "100")
        code, out, err = _run(capsys, *argv, *(counts if argv[0] == "adjust" else ()))
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "cannot form a trial" in lines[0]

    def test_mfwer_platform_mode(self, capsys):
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
            "--k", "2", "--n-a", "100", "--n-b", "100", "100",
            "--n-ab", "100", "100", "--seed", "4",
        )
        assert code == 0
        assert report["m"] == 2
        assert abs(report["achieved"] - 0.05) <= 1e-3
        assert np.asarray(report["z_correlation"]).shape == (4, 4)

    @pytest.mark.parametrize("metric, m, sided", [
        (["fwer"], 1, "two"), (["fmer"], 2, "two"), (["msfp"], 2, "one"),
        (["mfwer", "--m", "1"], 1, "two"), (["mfwer", "--m", "2", "--sided", "one"], 2, "one"),
    ], ids=["fwer", "fmer", "msfp", "mfwer-m1", "mfwer-m2-one"])
    def test_m_is_the_exceedance_count(self, capsys, metric, m, sided):
        # fmer and msfp count two exceedances, as m-FWER counts m
        code, report, _ = _run_json(capsys, "adjust", "--metric", *metric, "--rho", "0.3")
        assert code == 0
        assert (report["m"], report["sided"]) == (m, sided)


class TestDesign:
    def test_closed_form_case(self, capsys):
        code, report, _ = _run_json(
            capsys, "design", "--delta", "0.3", "--synergy", "1",
            "--rho-ab-a", "0", "--metric", "fwer", "--seed", "1",
        )
        assert code == 0
        assert report["allocation"] == pytest.approx((0.4142, 0.2929, 0.2929), abs=1e-3)

    def test_published_design_row(self, capsys):
        code, report, _ = _run_json(
            capsys, "design", "--delta", "0.663", "--synergy", "1.161",
            "--rho-ab-a", "0.626", "--rho-ab-b", "0.660", "--metric", "fwer",
            "--seed", "1",
        )
        assert code == 0
        assert report["allocation"] == pytest.approx((0.445, 0.450, 0.105), abs=0.01)
        assert abs(report["n_star"] - 97) <= 10
        # the smallest N whose integer design has exact power >= 0.80
        assert report["n_star"] == 96
        assert report["arm_counts"] == [43, 43, 10]
        assert report["achieved_power"] >= 0.80
        assert report["achieved_power"] == pytest.approx(0.8033, abs=1e-4)

    def test_two_substudy_design(self, capsys):
        code, report, _ = _run_json(
            capsys, "design", "--k", "2", "--delta", "0.4", "0.5",
            "--synergy", "1.2", "0.9", "--rho-ab-a", "0.2", "0.3",
            "--rho-ab-b", "0.3", "0.1", "--metric", "fwer", "--seed", "2",
        )
        assert code == 0
        assert len(report["allocation"]) == 5
        assert sum(report["arm_counts"]) == report["n_star"]
        assert report["achieved_power"] >= 0.8
        assert np.asarray(report["z_rho"]).shape == (4, 4)

    def test_single_substudy_mfwer_reports_scalar_z_rho(self, capsys):
        code, report, _ = _run_json(
            capsys, "design", "--delta", "0.663", "--synergy", "1.161",
            "--rho-ab-a", "0.626", "--rho-ab-b", "0.660", "--metric", "mfwer",
            "--m", "2", "--seed", "1",
        )
        assert code == 0
        assert isinstance(report["z_rho"], float)

    def test_deterministic_output(self, capsys):
        argv = (
            "design", "--delta", "0.4", "--synergy", "1.2", "--rho-ab-a", "0.3",
            "--metric", "fwer", "--seed", "7", "--format", "json",
        )
        code_a, out_a, _ = _run(capsys, *argv)
        code_b, out_b, _ = _run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_budget_exit_code(self, capsys):
        code, _, err = _run(
            capsys, "design", "--delta", "0.05", "--synergy", "1",
            "--rho-ab-a", "0", "--power", "0.99", "--n-cap", "100", "--seed", "1",
        )
        assert code == 4

    def test_an_effect_underflowing_next_to_sigma_exhausts_the_budget_quietly(self):
        # delta^2 / sigma2 underflows to a zero noncentrality: the refusal is
        # all of stderr, with no numpy divide warning before it
        proc = run_python("-m", "platformdesign.cli", "design", "--delta", "1e-150",
                          "--synergy", "1", "--sigma2", "1e300")
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "budget exceeded: no N in [3, 1000000] reaches power 0.8\n"

    def test_zero_synergy_is_a_validation_error(self, capsys):
        # no allocation gives the combination contrast power at s = 0
        code, _, err = _run(capsys, "design", "--delta", "0.3", "--synergy", "0")
        assert code == 2
        assert "synergy" in err

    def test_arm_correlations_that_cannot_form_a_trial(self, capsys):
        # the reference pair fits one substudy but not two sharing a control
        code, _, err = _run(
            capsys, "design", "--k", "2", "--delta", "0.663", "--synergy", "1.161",
            "--rho-ab-a", "0.626", "--rho-ab-b", "0.660",
        )
        assert code == 2
        assert "cannot form a trial" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--delta", "nan"), "delta"),
            (("--delta", "0.3", "--sigma2", "nan"), "sigma2"),
            (("--delta", "0.3", "--n-cap", "2"), "n_cap"),
        ],
        ids=["delta-nan", "sigma2-nan", "n-cap-below-2k+1"],
    )
    def test_unusable_design_inputs_are_validation_errors(self, capsys, flags, named):
        # a NaN passes `<= 0`, and a cap below 2K+1 admits no design at all:
        # both are refused by name (exit 2), not met later (exit 4)
        code, _, err = _run(capsys, "design", "--synergy", "1.1", *flags)
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("flag", ["--start", "--stop", "--step"])
    def test_non_finite_sweep_bound_is_a_validation_error(self, capsys, flag):
        code, _, err = _run(capsys, "simulate", "--study", "error-curves", flag, "nan")
        assert code == 2
        assert f"{flag[2:]} must be finite" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, "design", "--synergy", "1")
        assert code == 2
        assert "--delta" in err


@pytest.mark.parametrize(
    "k, flags, message",
    [
        pytest.param(k, flags, message, id="k" + k + "".join(flags))
        for k, flags, message in [
            *((k, flags, message) for k in ("1", "2") for flags, message in [
                (("--precision", "0"), "precision must be positive and finite"),
                (("--precision", "-1"), "precision must be positive and finite"),
                (("--metric", "mfwer", "--replications", "0"), "replications must be at least 1"),
            ]),
            ("1", ("--metric", "mfwer", "--m", "3"), "m must lie in [1, 2], got 3"),
        ]
    ],
)
@pytest.mark.parametrize("command", [
    ("adjust", "--n-a", "120", "--n-b", "60", "--n-ab", "60"),
    ("design", "--delta", "0.4", "--synergy", "1.2"),
], ids=["adjust", "design"])
def test_solver_settings_validated_before_work(capsys, command, k, flags, message):
    # design solves K = 1 thresholds without platform_threshold, and still
    # refuses what it refuses, before any work
    start = time.perf_counter()
    code, out, err = _run(capsys, command[0], "--k", k, *command[1:], *flags)
    assert code == 2, err
    assert out == ""
    assert message in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("adjust", "--k", "0", "--rho", "0.3"),
        ("adjust", "--k", "0", "--n-a", "120", "--n-b", "60", "--n-ab", "60"),
        ("design", "--k", "0", "--delta", "0.3", "--synergy", "1.1"),
    ],
)
def test_zero_substudies_refused(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --k must be at least 1, got 0\n"


class TestEstimate:
    def test_synthetic_fixture(self, capsys, tmp_path):
        path = tmp_path / "pdx.csv"
        path.write_text(FIXTURE_CSV, encoding="utf-8")
        code, out, _ = _run(
            capsys, "estimate", "--input", str(path),
            "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
        )
        assert code == 0
        report = json.loads(out)
        assert report["s_hat"] == pytest.approx(2.0, abs=1e-9)
        assert report["screened_out"] is False

    def test_zero_monotherapy_effect_prints_strict_json(self, capsys, tmp_path):
        # B's mean equals A's, so s_hat = delta_AB / delta_B is undefined:
        # null, where it used to be NaN, which strict JSON parsers refuse
        path = tmp_path / "zero.csv"
        path.write_text(
            "model_id,treatment,response\n"
            "m1,A,1\nm1,B,1\nm1,AB,2\nm2,A,2\nm2,B,3\nm2,AB,4\nm3,A,3\nm3,B,2\nm3,AB,5\n",
            encoding="utf-8",
        )
        code, out, _ = _run(
            capsys, "estimate", "--input", str(path),
            "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
        )
        assert code == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(out, parse_constant=refuse)
        assert report["delta_B"] == 0.0 and report["s_hat"] is None
        assert report["screened_out"] is True

    def test_missing_column_names_it(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("model_id,treatment,score\nm,A,1\n", encoding="utf-8")
        code, _, err = _run(
            capsys, "estimate", "--input", str(path),
            "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
        )
        assert code == 2
        assert "response" in err

    def test_roles_file_batch(self, capsys, tmp_path):
        data = tmp_path / "pdx.csv"
        data.write_text(FIXTURE_CSV, encoding="utf-8")
        roles = tmp_path / "roles.json"
        roles.write_text(
            json.dumps([{"drug_a": "A", "drug_b": "B", "combo": "AB"}]), encoding="utf-8"
        )
        code, out, _ = _run(
            capsys, "estimate", "--input", str(data), "--roles", str(roles),
        )
        assert code == 0
        batch = json.loads(out)
        assert isinstance(batch, list) and len(batch) == 1

    def test_with_thresholds(self, capsys, tmp_path):
        path = tmp_path / "pdx.csv"
        path.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")
        code, out, _ = _run(
            capsys, "estimate", "--input", str(path),
            "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
            "--with-thresholds", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["p_thresholds"]) == {"fwer", "fmer", "msfp"}

    def test_thresholds_refused_when_arm_correlations_do_not_fit(self, capsys, tmp_path):
        # the Z correlation would be 5.15; it used to be clipped to 1
        path = tmp_path / "pdx.csv"
        path.write_text(FIXTURE_NOISY_CSV, encoding="utf-8")
        code, _, err = _run(
            capsys, "estimate", "--input", str(path),
            "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
            "--with-thresholds", "--seed", "3",
        )
        assert code == 2
        assert "do not fit together" in err

    @pytest.mark.parametrize("triples, min_triples", [(1, "1"), (0, "0"), (0, "-3")])
    def test_too_few_triples_is_one_error_line(self, capsys, tmp_path, triples, min_triples):
        # below two triples no standard deviation exists: the refusal comes
        # before any arithmetic, so numpy has nothing to warn about
        combo_model = "m0" if triples else "m1"
        path = tmp_path / "pdx.csv"
        path.write_text(
            f"model_id,treatment,response\nm0,A,1\nm0,B,2\n{combo_model},AB,3\n",
            encoding="utf-8",
        )
        expected = {
            min_triples: f"min_triples must be at least 2, got {min_triples}",
            "2": f"only {triples} complete (A, B, combo) triples; need at least 2",
        }
        for value, message in expected.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _run(
                    capsys, "estimate", "--input", str(path), "--drug-a", "A",
                    "--drug-b", "B", "--combo", "AB", "--min-triples", value,
                )
            assert (code, out) == (2, ""), value
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_response_refused(self, capsys, tmp_path, raw):
        # a validation failure (exit 2) naming the line, not a traceback from
        # the JSON writer or a numpy warning
        path = tmp_path / "pdx.csv"
        path.write_text(FIXTURE_CSV.replace("m2,AB,17.0", f"m2,AB,{raw}"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys, "estimate", "--input", str(path), "--drug-a", "A",
                "--drug-b", "B", "--combo", "AB", "--with-thresholds",
            )
        assert (code, out) == (2, "")
        assert err == f"error: {path}:10: response {raw!r} is not a finite number\n"

    @pytest.mark.parametrize(
        "rows, duplicates, message",
        [
            # finite responses whose combination SD overflows a double
            ("m0,AB,1e308\nm1,AB,-1e308\nm2,AB,0", "error",
             "the mean or SD of 'AB' is not a finite number"),
            # two finite duplicates whose mean overflows a double
            ("m0,AB,1e308\nm0,AB,1e308\nm1,AB,17.5\nm2,AB,17", "mean",
             "the mean of the responses of (model, treatment) ('m0', 'AB') "
             "is not a finite number"),
        ],
        ids=["sd-overflows", "duplicate-mean-overflows"],
    )
    def test_overflowing_screen_refused(self, capsys, tmp_path, rows, duplicates, message):
        # a validation failure (exit 2), not estimates from an infinite SD or
        # a traceback from the JSON writer, and no numpy warning
        path = tmp_path / "pdx.csv"
        path.write_text(
            "model_id,treatment,response\nm0,A,10\nm0,B,15.5\nm1,A,11\nm1,B,18.5\n"
            f"m2,A,12\nm2,B,12.5\n{rows}\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys, "estimate", "--input", str(path), "--drug-a", "A",
                "--drug-b", "B", "--combo", "AB", "--duplicates", duplicates,
            )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("delimiter", [";;", "", "\\t"])
    def test_delimiter_of_other_than_one_character_refused(self, capsys, tmp_path, delimiter):
        # a validation failure (exit 2), not csv's TypeError
        path = tmp_path / "pdx.csv"
        path.write_text(FIXTURE_CSV, encoding="utf-8")
        code, out, err = _run(
            capsys, "estimate", "--input", str(path), "--drug-a", "A",
            "--drug-b", "B", "--combo", "AB", "--delimiter", delimiter,
        )
        assert (code, out) == (2, "")
        assert err == f"error: delimiter must be one character, got {delimiter!r}\n"


_ROLES = '[{"drug_a": "A", "drug_b": "B", "combo": "AB"}]'


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({}, ("--config", "missing.json", "adjust", "--rho", "0.3"), "--config missing.json"),
        ({"c.json": "{alpha: 0.05}"}, ("--config", "c.json", "adjust", "--rho", "0.3"),
         "--config c.json is not valid JSON"),
        ({}, ("estimate", "--input", "missing.csv", "--drug-a", "A", "--drug-b", "B",
              "--combo", "AB"), "--input missing.csv"),
        ({}, ("estimate", "--input", "pdx.csv", "--roles", "missing.json"),
         "--roles missing.json"),
        ({"r.json": _ROLES[:-1]}, ("estimate", "--input", "pdx.csv", "--roles", "r.json"),
         "--roles r.json is not valid JSON"),
        ({"r.json": "[1]"}, ("estimate", "--input", "pdx.csv", "--roles", "r.json"),
         "{drug_a, drug_b, combo} objects"),
        ({"r.json": "[]"}, ("estimate", "--input", "pdx.csv", "--roles", "r.json"),
         "--roles file must hold a non-empty JSON array"),
        ({"r.json": '[{"drug_a": "A", "drug_b": "B"}]'},
         ("estimate", "--input", "pdx.csv", "--roles", "r.json"),
         "{drug_a, drug_b, combo} objects"),
        ({"bad.csv": b"model_id,treatment,response\nm0,A,1\xff\n"},
         ("estimate", "--input", "bad.csv", "--drug-a", "A", "--drug-b", "B",
          "--combo", "AB"), "bad.csv: not UTF-8 text"),
        ({}, ("adjust", "--rho", "0.3", "--out", "missing/x.txt"),
         "--out missing/x.txt: No such file or directory"),
        ({}, ("design", "--delta", "0.663", "--synergy", "1.161", "--out", "missing/x.txt"),
         "--out missing/x.txt: No such file or directory"),
        ({}, ("estimate", "--input", "pdx.csv", "--drug-a", "A", "--drug-b", "B",
              "--combo", "AB", "--out", "."), "--out .: Is a directory"),
        ({}, ("simulate", "--study", "thresholds", "--start", "0.3", "--stop", "0.3",
              "--out", "missing/x.csv"), "--out missing/x.csv: No such file or directory"),
    ],
    ids=["config-missing", "config-malformed", "input-missing", "roles-missing",
         "roles-malformed", "roles-entry-not-object", "roles-empty", "roles-entry-without-combo",
         "input-not-utf8", "adjust-out-missing-dir", "design-out-missing-dir",
         "estimate-out-is-dir", "simulate-out-missing-dir"],
)
def test_input_file_errors_are_validation_failures(
    capsys, monkeypatch, tmp_path, files, argv, message
):
    # a missing file, malformed JSON, a malformed roles entry, text that is
    # not UTF-8 or an --out that cannot be written exits 2 with one error
    # line, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pdx.csv").write_text(FIXTURE_CSV, encoding="utf-8")
    for name, text in files.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (tmp_path / name).write_bytes(data)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestSimulate:
    def test_error_curves_baselines(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, err = _run(
            capsys, "simulate", "--study", "error-curves", "--start", "0.3",
            "--stop", "0.4", "--step", "0.1", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert "0.0975" in text and "0.0025" in text and "0.000625" in text
        assert "rows" in err

    def test_design_surface_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "surface.csv"
        code, _, _ = _run(
            capsys, "simulate", "--study", "design-surface", "--start", "1.0",
            "--stop", "1.3", "--step", "0.3", "--rho-levels", "0.1", "0.5",
            "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert len(rows) - 1 == 2 * 2 * 3

    def test_holm_at_perfect_correlation(self, capsys):
        # at z_rho = 1 both statistics are one: Holm rejects both at the
        # Bonferroni cut, so its fwer and fmer are 0.025 and its msfp
        # 0.0125, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = _run(
                capsys, "simulate", "--study", "adjustments", "--fixed-rho", "0",
                "--start", "0.9", "--stop", "1.0", "--step", "0.05",
            )
        assert code == 0
        header, *lines = out.splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        holm = {
            row["metric"]: float(row["value"])
            for row in rows if row["method"] == "holm" and float(row["z_rho"]) == 1.0
        }
        assert holm == pytest.approx({"fwer": 0.025, "fmer": 0.025, "msfp": 0.0125}, abs=1e-15)

    def test_progress_is_logged_only_with_the_flag(self, capsys):
        args = (
            "simulate", "--study", "design-surface", "--start", "1.0", "--stop", "1.0",
            "--step", "0.1", "--rho-levels", "0.3",
        )
        code_a, out_a, err_a = _run(capsys, *args)
        code_b, out_b, err_b = _run(capsys, *args, "--progress")
        assert code_a == code_b == 0
        assert out_a == out_b
        progress = [line for line in err_b.splitlines() if line.startswith("design-surface ")]
        assert [line.split(":")[0] for line in progress] == [
            f"design-surface {i}/3" for i in (1, 2, 3)
        ]
        assert "design-surface 1/3" not in err_a

    def test_progress_refused_where_nothing_is_logged(self, capsys):
        for study in ("error-curves", "adjustments", "thresholds"):
            code, out, err = _run(
                capsys, "simulate", "--study", study, "--start", "0.3", "--stop", "0.3",
                "--progress",
            )
            assert code == 2
            assert out == ""
            assert "--progress only applies to --study design-surface" in err

    @pytest.mark.parametrize(
        "study, flag, applies_to",
        [
            ("thresholds", ("--rho-levels", "0.2"), "design-surface"),
            ("error-curves", ("--rho-levels", "0.2"), "design-surface"),
            ("design-surface", ("--swept", "rho-ab-a"), "error-curves, adjustments or thresholds"),
            ("design-surface", ("--fixed-rho", "0.9"), "error-curves, adjustments or thresholds"),
            ("design-surface", ("--fixed-rho", "0"), "error-curves, adjustments or thresholds"),
        ],
    )
    def test_flags_of_other_studies_are_refused(self, capsys, study, flag, applies_to):
        code, out, err = _run(
            capsys, "simulate", "--study", study, "--start", "1.0", "--stop", "1.0", *flag
        )
        assert code == 2
        assert out == ""
        assert f"{flag[0]} only applies to --study {applies_to}" in err

    def test_sweep_defaults_come_from_the_grid_factory(self, capsys):
        # --swept and --fixed-rho left out give the factory's rho-ab-b / 0.3
        args = ("simulate", "--study", "thresholds", "--start", "0.3", "--stop", "0.5",
                "--step", "0.1")
        code_a, out_a, _ = _run(capsys, *args)
        code_b, out_b, _ = _run(capsys, *args, "--swept", "rho-ab-b", "--fixed-rho", "0.3")
        code_c, out_c, _ = _run(capsys, *args, "--swept", "rho-ab-a", "--fixed-rho", "0.3")
        assert code_a == code_b == code_c == 0
        assert out_a == out_b != out_c
        assert out_c.splitlines()[1].startswith("rho_ab_a,0.3,0.3,0.3,")

    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "--delta", "0.3", "--synergy", "1", "--nsim", "4000"),
            ("design", "--delta", "0.3", "--synergy", "1", "--n0", "20"),
            ("simulate", "--study", "design-surface", "--nsim", "2000"),
            ("simulate", "--study", "error-curves", "--replications", "2000"),
            ("estimate", "--input", "x.csv", "--replications", "2000"),
            ("simulate", "--study", "thresholds", "--seed", "1"),
        ],
    )
    def test_monte_carlo_flags_are_gone(self, argv):
        # power, N* and the two-statistic rates are exact: no draw counts,
        # and no seed where nothing is drawn
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    def test_unknown_study_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--study", "nonsense"])
        assert excinfo.value.code == 2

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = (
            "simulate", "--study", "thresholds", "--start", "0.3", "--stop", "0.5",
            "--step", "0.1",
        )
        code_a, out_a, _ = _run(capsys, *args)
        code_b, out_b, _ = _run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestConfigAndSeed:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho": 0.3, "metric": "fwer"}), encoding="utf-8")
        code, report, _ = _run_json(
            capsys, "--config", str(config), "adjust"
        )
        assert code == 0
        assert report["z_correlation"] == 0.3

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rho": 0.3}), encoding="utf-8")
        code, report, _ = _run_json(
            capsys, "--config", str(config), "adjust", "--rho", "0.6"
        )
        assert code == 0
        assert report["z_correlation"] == 0.6

    def test_config_values_are_typed_like_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "0.05", "precision": "1e-3"}), encoding="utf-8")
        code, typed, _ = _run_json(capsys, "--config", str(config), "adjust", "--rho", "0.4")
        assert code == 0
        code, flagged, _ = _run_json(capsys, "adjust", "--rho", "0.4", "--alpha", "0.05")
        assert typed == flagged
        code, report, _ = _run_json(
            capsys, "--config", str(config), "adjust", "--k", "2",
            "--n-a", "120", "--n-b", "60", "--n-ab", "60",
        )
        assert code == 0
        assert report["achieved_stderr"] <= 1e-3

    @pytest.mark.parametrize(
        "values",
        [
            {"alpha": "five percent"},
            {"alpha": True},
            {"k": 2.5},
            {"metric": "fdr"},
            {"n-b": [60, "many"]},
            {"format": ["json"]},
        ],
    )
    def test_mistyped_config_value_is_a_validation_error(self, capsys, tmp_path, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        code, out, err = _run(
            capsys, "--config", str(config), "adjust", "--n-a", "120", "--n-ab", "60"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --config key")

    @pytest.mark.parametrize("flag", [("--alp", "0.05"), ("--alpha=0.05",)])
    def test_abbreviated_or_joined_flag_beats_config(self, capsys, tmp_path, flag):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.01}), encoding="utf-8")
        code, report, _ = _run_json(
            capsys, "--config", str(config), "adjust", "--rho", "0.3", *flag
        )
        assert code == 0
        assert report["alpha"] == 0.05

    def test_design_list_flag_from_config_and_flag_wins(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"delta": [0.663], "synergy": 1.161, "power": 0.9}), encoding="utf-8"
        )
        code, report, _ = _run_json(capsys, "--config", str(config), "design", "--power", "0.8")
        assert code == 0
        code_b, flagged, _ = _run_json(
            capsys, "design", "--delta", "0.663", "--synergy", "1.161", "--power", "0.8"
        )
        assert code_b == 0
        assert report == flagged
        assert report["target_power"] == 0.8

    def test_simulate_switch_from_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"progress": True}), encoding="utf-8")
        code, _, err = _run(
            capsys, "--config", str(config), "simulate", "--study", "design-surface",
            "--start", "1.0", "--stop", "1.0", "--step", "0.1", "--rho-levels", "0.3",
        )
        assert code == 0
        assert "design-surface 1/3" in err
        code, out, err = _run(
            capsys, "--config", str(config), "simulate", "--study", "thresholds",
            "--start", "0.3", "--stop", "0.3",
        )
        assert code == 2
        assert out == ""
        assert "--progress only applies to --study design-surface" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"not-a-flag": 1}), encoding="utf-8")
        code, _, err = _run(capsys, "--config", str(config), "adjust", "--rho", "0.1")
        assert code == 2

    @pytest.mark.parametrize(
        "values, argv",
        [
            ({"config": "other.json"}, ("adjust", "--rho", "0.1")),
            ({"rho": 0.3}, ("design", "--delta", "0.663", "--synergy", "1.161")),
            ({"help": True}, ("adjust", "--rho", "0.1")),
        ],
    )
    def test_config_key_of_no_subcommand_flag_rejected(self, capsys, tmp_path, values, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        code, out, err = _run(capsys, "--config", str(config), *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --config key {next(iter(values))!r} does not match any flag\n"

    def test_config_seed_is_used_and_the_flag_beats_it(self, capsys, tmp_path):
        # the K = 2 m-FWER threshold is solved on seeded null directions, so
        # its c* moves with the seed
        argv = ("adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
                "--k", "2", "--n-a", "50", "--n-b", "50", "--n-ab", "50")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 12345}), encoding="utf-8")
        runs = {
            "default": argv,
            "seed 0": (*argv, "--seed", "0"),
            "config": ("--config", str(config), *argv),
            "seed 12345": (*argv, "--seed", "12345"),
            "config and seed 0": ("--config", str(config), *argv, "--seed", "0"),
        }
        c_star = {}
        for name, run in runs.items():
            code, report, _ = _run_json(capsys, *run)
            assert code == 0, name
            c_star[name] = report["critical_value"]
        assert c_star["default"] == c_star["seed 0"] == c_star["config and seed 0"]
        assert c_star["config"] == c_star["seed 12345"] != c_star["default"]


_LOADED_MODULES = """
import contextlib, io, json, sys
from platformdesign.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    # the m-FWER pool runs on the calling thread, and no call loads a thread
    # pool module
    assert "concurrent.futures" not in sys.modules, " ".join(argv[:3])
print(*sorted(name.split(".")[1] for name in sys.modules if name.startswith("platformdesign.")))
"""


def test_each_subcommand_loads_only_the_modules_it_calls(tmp_path):
    # in a fresh interpreter each subcommand loads only the package modules
    # its path calls, the K = 2 any-exceedance calls included, and none loads
    # concurrent.futures
    path = tmp_path / "pdx.csv"
    path.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")
    studies = ("error-curves", "adjustments", "thresholds", "design-surface")
    # the package modules besides cli that an adjust on --rho and an
    # arm-level adjust load
    on_rho = {"errors", "mvnorm", "multiplicity"}
    arm_level = on_rho | {"correlation"}
    k2_arms = ["adjust", "--k", "2", "--n-a", "120", "--n-b", "60", "60", "--n-ab", "60", "60",
               "--rho-ab-a", "0.3", "0.4", "--rho-ab-b", "0.5", "0.2"]
    cases = [
        ([["adjust", "--rho", "0.461", "--format", "json"]], on_rho),
        ([["adjust", "--metric", "mfwer", "--m", "2", "--k", "2", "--n-a", "120",
           "--n-b", "60", "60", "--n-ab", "60", "60", "--rho-ab-a", "0.3", "0.2",
           "--rho-ab-b", "0.5", "0.4", "--replications", "20000", "--format", "json"]],
         arm_level),
        ([["design", "--delta", "0.663", "--synergy", "1.161", "--rho-ab-a", "0.626",
           "--rho-ab-b", "0.660", "--metric", "fwer", "--format", "json"]],
         arm_level | {"allocation", "power"}),
        # any exceedance: a K = 2 fwer adjust at --precision 1e-5, a one-sided
        # K = 2 m-FWER at m = 1 (its lower bounds are -inf) and a K = 2 fwer
        # design
        ([[*k2_arms, "--metric", "fwer", "--precision", "1e-5", "--format", "json"],
          [*k2_arms, "--metric", "mfwer", "--m", "1", "--sided", "one", "--format", "json"]],
         arm_level),
        ([["design", "--k", "2", "--delta", "0.35", "0.5", "--synergy", "1.2", "0.9",
           "--rho-ab-a", "0.2", "0.4", "--rho-ab-b", "0.3", "0.1", "--metric", "fwer",
           "--format", "json"]],
         arm_level | {"allocation", "power"}),
        ([["estimate", "--input", str(path), "--drug-a", "A", "--drug-b", "B",
           "--combo", "AB", "--with-thresholds"]],
         arm_level | {"estimation"}),
        ([["simulate", "--study", study, "--format", "csv"] for study in studies],
         arm_level | {"allocation", "power", "studies"}),
    ]
    for calls, modules in cases:
        proc = run_python("-c", _LOADED_MODULES, json.dumps(calls))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == sorted(modules | {"cli"}), calls[0][:3]


# the buffered path is the one a fast exit could lose output on
_BUFFERED = {"PYTHONUNBUFFERED": None}
_IN_PROCESS = "import sys; from platformdesign.cli import main; sys.exit(main(sys.argv[1:]))"


def test_the_entry_point_writes_what_main_writes(tmp_path):
    # python -m platformdesign.cli ends by os._exit; sys.exit(main()) ends by
    # the interpreter's own teardown: stdout, stderr, exit code and each
    # --out file must agree byte for byte
    screen = tmp_path / "screen.csv"
    screen.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")
    calls = [
        ["adjust", "--rho", "0.4"],
        ["adjust", "--metric", "mfwer", "--m", "2", "--k", "2", "--n-a", "120", "--n-b", "60",
         "60", "--n-ab", "60", "60", "--rho-ab-a", "0.3", "0.4", "--rho-ab-b", "0.5", "0.2"],
        ["design", "--delta", "0.663", "--synergy", "1.161", "--rho-ab-a", "0.626",
         "--rho-ab-b", "0.660", "--metric", "fwer", "--power", "0.8", "--seed", "1"],
        ["estimate", "--input", str(screen), "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
         "--with-thresholds"],
        ["simulate", "--study", "thresholds", "--format", "jsonl"],
        ["simulate", "--study", "design-surface", "--progress"],
        ["design", "--delta", "0.663", "--synergy", "1.161", "--precision", "0"],
        ["adjust", "--rho", "0.4", "--format", "json", "--out", "{out}"],
    ]
    results = []
    for argv in calls:
        runs = []
        for side, entry in (("run", ("-m", "platformdesign.cli")), ("main", ("-c", _IN_PROCESS))):
            out = tmp_path / f"{side}.txt"
            proc = run_python(*entry, *(a.format(out=out) for a in argv), env=_BUFFERED,
                              text=False)
            runs.append((proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1], argv
        results.append(runs[0])
    codes, stdouts, stderrs, written = zip(*results)
    assert codes == (0,) * 6 + (2, 0)
    assert all(stdouts[:6]) and len(stdouts[4]) > 50_000 and stdouts[7] == b""
    # the design surface's progress lines and its row count; the refusal's error
    assert stderrs[5].count(b"\n") > 80 and stderrs[6].startswith(b"error: ")
    assert b'"critical_value"' in written[7]


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [["adjust", "--rho", "0.4"], ["simulate", "--study", "thresholds"]])
def test_a_closed_stdout_ends_the_call_quietly(argv, unbuffered):
    # a pipe whose reader is gone before the call writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python("-m", "platformdesign.cli", *argv,
                          env={"PYTHONUNBUFFERED": unbuffered},
                          capture_output=False, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_a_call_without_stdout_still_writes_its_out_file(tmp_path):
    # fd 1 closed before the interpreter starts leaves sys.stdout None
    out = tmp_path / "adjust.txt"
    proc = run_python("-m", "platformdesign.cli", "adjust", "--rho", "0.4", "--out", str(out),
                      capture_output=False, stderr=subprocess.PIPE,
                      preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "\ncritical_value: " in out.read_text(encoding="utf-8")


def test_the_atexit_callbacks_run_and_their_output_is_flushed():
    code = ("import atexit, sys; from platformdesign import cli; "
            "atexit.register(print, 'exit hook ran'); sys.argv[1:] = ['adjust', '--rho', '0.4']; "
            "cli.run()")
    proc = run_python("-c", code, env=_BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "critical_value: " in proc.stdout and proc.stdout.endswith("\nexit hook ran\n")


def test_a_profiler_gets_the_interpreters_own_exit():
    # cProfile prints its report only once the profiled code has exited
    # normally; from 3.12 on it is a sys.monitoring tool, not sys.getprofile()
    proc = run_python("-m", "cProfile", "-m", "platformdesign.cli", "adjust", "--rho", "0.4",
                      env=_BUFFERED)
    assert proc.returncode == 0, proc.stderr
    assert "critical_value: " in proc.stdout and "function calls" in proc.stdout


def test_python_i_still_reaches_its_prompt():
    proc = run_python("-i", "-m", "platformdesign.cli", "adjust", "--rho", "0.4",
                      env=_BUFFERED, input="print('prompt reached')\n")
    assert "critical_value: " in proc.stdout and "prompt reached" in proc.stdout
