"""The README's library quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

from conftest import FIXTURE_INDEPENDENT_CSV

from platformdesign import cli, studies

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quick_start_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    namespace = {"__name__": "readme"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    # one design of one substudy: two statistics, and the N* the README states
    result = namespace["result"]
    assert result.z_correlation.shape == (1, 2, 2)
    assert result.n_star.tolist() == [[96]]


def test_command_line_examples_run(capsys, monkeypatch, tmp_path):
    # the block that shows the subcommands, continuation lines joined
    block = next(b for b in _blocks("bash") if "platformdesign adjust" in b)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("platformdesign ")
    ]
    assert {argv[1] for argv in commands} == {"adjust", "design", "estimate", "simulate"}
    # the screen the estimate example reads, with its treatment names
    screen = FIXTURE_INDEPENDENT_CSV
    for short, name in ((",AB,", ",LEE011+everolimus,"), (",A,", ",LEE011,"),
                        (",B,", ",everolimus,")):
        screen = screen.replace(short, name)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "screens.csv").write_text(screen, encoding="utf-8")
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out or "--out" in argv, argv
    assert (tmp_path / "curves.csv").is_file() and (tmp_path / "surface.csv").is_file()


def test_study_output_schemas_match_the_tables():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Study output schemas", 1)[1].split("\n\n", 2)[1]
    schemas = {
        study: [name.strip() for name in columns.split(",")]
        for study, columns in re.findall(r"^- `([\w-]+)`: `([^`]*)`", section, re.M)
    }
    point = {"start": 0.3, "stop": 0.3}
    tables = {
        "error-curves": studies.run_error_curves(studies.error_curves_grid(**point)),
        "adjustments": studies.run_adjustment_comparison(studies.adjustment_grid(**point)),
        "thresholds": studies.run_threshold_curves(studies.threshold_grid(**point)),
        "design-surface": studies.run_design_surface(
            studies.design_surface_grid(start=1.0, stop=1.0, rho_levels=(0.3,))
        ),
    }
    assert schemas == {study: list(table.columns) for study, table in tables.items()}
