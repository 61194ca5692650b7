"""Command-line interface: flags, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import FIXTURE_INDEPENDENT_CSV

from platformdesign.cli import SEED_ENV_VAR, main


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
        from platformdesign.correlation import PlatformArms, test_stat_correlation

        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "fwer",
            "--n-a", "100", "--n-b", "100", "--n-ab", "100",
            "--rho-ab-a", "0.626", "--rho-ab-b", "0.660",
        )
        assert code == 0
        expected = test_stat_correlation(
            PlatformArms.single(100, 100, 100, rho_ab_a=0.626, rho_ab_b=0.660)
        )
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

    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
            "--k", "2", "--n-a", "50", "--n-b", "50", "--n-ab", "50",
        )
        assert code == 0
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        code_b, report_b, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
            "--k", "2", "--n-a", "50", "--n-b", "50", "--n-ab", "50",
        )
        assert report["critical_value"] != report_b["critical_value"]

    def test_non_integer_env_seed_is_a_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        code, out, err = _run(capsys, "adjust", "--rho", "0.3")
        assert code == 2
        assert out == ""
        assert err == "error: PLATFORMDESIGN_SEED must be an integer, got 'abc'\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        code, report, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
            "--k", "2", "--n-a", "50", "--n-b", "50", "--n-ab", "50", "--seed", "0",
        )
        monkeypatch.delenv(SEED_ENV_VAR)
        code_b, report_b, _ = _run_json(
            capsys, "adjust", "--metric", "mfwer", "--m", "2", "--alpha", "0.05",
            "--k", "2", "--n-a", "50", "--n-b", "50", "--n-ab", "50", "--seed", "0",
        )
        assert report["critical_value"] == report_b["critical_value"]


_NO_SCIPY_SPECIAL = """
import contextlib, io, sys
import platformdesign
from platformdesign.cli import main
assert "scipy.special" not in sys.modules, "import platformdesign"
csv_path = sys.argv[1]
calls = [
    ["adjust", "--rho", "0.461", "--format", "json"],
    ["adjust", "--metric", "mfwer", "--m", "2", "--k", "2", "--n-a", "120",
     "--n-b", "60", "60", "--n-ab", "60", "60", "--rho-ab-a", "0.3", "0.2",
     "--rho-ab-b", "0.5", "0.4", "--replications", "20000", "--format", "json"],
    ["design", "--delta", "0.663", "--synergy", "1.161", "--rho-ab-a", "0.626",
     "--rho-ab-b", "0.660", "--metric", "fwer", "--format", "json"],
    ["estimate", "--input", csv_path, "--drug-a", "A", "--drug-b", "B",
     "--combo", "AB", "--with-thresholds"],
    *(["simulate", "--study", study, "--format", "csv"]
      for study in ("error-curves", "adjustments", "thresholds", "design-surface")),
]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "scipy.special" not in sys.modules, " ".join(argv[:3])
    # the m-FWER pool runs on the calling thread, and no call loads a thread
    # pool module
    assert "concurrent.futures" not in sys.modules, " ".join(argv[:3])
"""


def test_cli_calls_do_not_load_scipy_special(tmp_path):
    # scipy.special is most of the import time of a CLI call; these paths
    # need only math.erfc and numpy
    path = tmp_path / "pdx.csv"
    path.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SPECIAL, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
