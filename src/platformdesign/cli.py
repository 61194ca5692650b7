"""Command-line front end for the full design pipeline.

Subcommands: ``adjust`` (multiplicity thresholds), ``design`` (allocation +
sample size), ``estimate`` (preclinical CSV to design parameters), and
``simulate`` (the grid studies).  Each ``--config`` value is converted and
checked with its flag's own type and choices and becomes that subcommand's
default, so a flag given on the command line wins; a key that names no flag
of the subcommand is refused.  For the subcommands that have a ``--seed``
flag, the ``PLATFORMDESIGN_SEED`` environment variable supplies the seed when
the flag is absent.

Exit codes: 0 success, 2 validation failure (including an ``--out`` path
that cannot be written), 3 numerical failure (no root / not positive
definite / precision), 4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .correlation import ArmCorrelations, PlatformArms, platform_z_correlation_matrix
from .errors import (
    BudgetExceeded,
    DomainError,
    InsufficientData,
    NotPositiveDefinite,
    ParseError,
    PrecisionUnreachable,
    RootBracketError,
    SchemaError,
    ZeroVariance,
)
from .estimation import estimate_trial, ingest_csv, table1_pipeline
from .multiplicity import DEFAULT_TARGETS, ErrorMetric, _p_threshold, platform_threshold
from .mvnorm import CorrelationMatrix
from .power import design
from .studies import (
    adjustment_grid,
    design_surface_grid,
    error_curves_grid,
    run_adjustment_comparison,
    run_design_surface,
    run_error_curves,
    run_threshold_curves,
    threshold_grid,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4

SEED_ENV_VAR = "PLATFORMDESIGN_SEED"

_VALIDATION_ERRORS = (DomainError, SchemaError, ParseError, InsufficientData, ZeroVariance)
_NUMERIC_ERRORS = (RootBracketError, NotPositiveDefinite, PrecisionUnreachable)

# an at-least-m target defaults to the fwer level
_METRIC_DEFAULT_ALPHA = {metric.kind: metric.alpha for metric in DEFAULT_TARGETS}
_METRIC_DEFAULT_ALPHA["mfwer"] = _METRIC_DEFAULT_ALPHA["fwer"]


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the ``--out`` path, or to stdout when there is none;
    a path that cannot be written is a validation failure."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"--out {out}: {exc.strerror}") from None


def _emit(report: dict, args) -> None:
    """The report as ``key: value`` lines (floats at 6 significant digits)
    or as JSON at full precision."""
    if args.format == "human":
        text = "".join(
            f"{key}: {format(value, '.6g') if isinstance(value, float) else value}\n"
            for key, value in report.items()
        )
    else:
        text = json.dumps(report, indent=2) + "\n"
    _write(text, args.out)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _load_json(path: str, flag: str):
    """The JSON value held in ``path``; a missing file or malformed JSON is a
    validation failure."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DomainError(f"{flag} {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or text
        raise DomainError(f"{flag} {path} is not valid JSON: {exc}") from None


def _broadcast(values, k: int, flag: str) -> tuple[float, ...]:
    if values is None:
        return (0.0,) * k
    if len(values) == 1:
        return (float(values[0]),) * k
    _require(len(values) == k, f"{flag} needs 1 or {k} values, got {len(values)}")
    return tuple(float(v) for v in values)


def _metric_from_args(args) -> ErrorMetric:
    alpha = args.alpha if args.alpha is not None else _METRIC_DEFAULT_ALPHA[args.metric]
    _require(0.0 < alpha < 1.0, f"--alpha must lie in (0, 1), got {alpha}")
    if args.metric == "mfwer":
        m = args.m if args.m is not None else 2
        return ErrorMetric.mfwer(m, alpha, sided=args.sided or "two")
    _require(args.m is None, "--m only applies to --metric mfwer")
    _require(args.sided is None, "--sided only applies to --metric mfwer")
    return ErrorMetric(args.metric, alpha)


def _platform_arms_from_args(args, k: int) -> PlatformArms:
    _require(args.n_a is not None, "--n-a is required for arm-level correlation input")
    _require(args.n_b is not None, "--n-b is required for arm-level correlation input")
    _require(args.n_ab is not None, "--n-ab is required for arm-level correlation input")
    n_mono = _broadcast(args.n_b, k, "--n-b")
    n_combo = _broadcast(args.n_ab, k, "--n-ab")
    correlations = ArmCorrelations.per_substudy(
        _broadcast(args.rho_ab_a, k, "--rho-ab-a"),
        _broadcast(args.rho_ab_b, k, "--rho-ab-b"),
        _broadcast(args.rho_a_b, k, "--rho-a-b"),
    )
    return PlatformArms(float(args.n_a), n_mono, n_combo, correlations)


def _z_report(z_corr):
    """The Z correlation matrix as reported: a scalar for one substudy (two
    statistics), the full matrix otherwise."""
    if len(z_corr) == 2:
        return float(z_corr[0, 1])
    return [[round(v, 12) for v in row] for row in z_corr.tolist()]


def cmd_adjust(args) -> int:
    metric = _metric_from_args(args)
    k = args.k
    _require(k >= 1, f"--k must be at least 1, got {k}")
    if args.rho is not None:
        _require(k == 1, "--rho only describes a single substudy; use arm-level flags")
        for name in ("n_a", "n_b", "n_ab", "rho_ab_a", "rho_ab_b", "rho_a_b"):
            flag = "--" + name.replace("_", "-")
            _require(getattr(args, name) is None, f"--rho cannot be combined with {flag}")
        _require(-1.0 <= args.rho <= 1.0, f"--rho must lie in [-1, 1], got {args.rho}")
        z_corr = CorrelationMatrix.bivariate(args.rho)
    else:
        z_corr = platform_z_correlation_matrix(_platform_arms_from_args(args, k))
    result = platform_threshold(
        z_corr, metric, precision=args.precision, seed=args.seed,
        replications=args.replications,
    )

    _emit(
        {
            "metric": metric.kind,
            "alpha": metric.alpha,
            "m": metric.m,
            "sided": metric.effective_sided,
            "z_correlation": _z_report(z_corr.entries),
            "critical_value": result.critical_value,
            "p_threshold": result.p_threshold,
            "achieved": result.achieved,
            "achieved_stderr": result.achieved_stderr,
        },
        args,
    )
    return EXIT_OK


def cmd_design(args) -> int:
    k = args.k
    _require(k >= 1, f"--k must be at least 1, got {k}")
    _require(args.delta is not None, "--delta is required")
    _require(args.synergy is not None, "--synergy is required")
    _require(0.0 < args.power < 1.0, f"--power must lie in (0, 1), got {args.power}")
    per_substudy = [[_broadcast(getattr(args, name), k, "--" + name.replace("_", "-"))]
                    for name in ("delta", "synergy", "rho_ab_a", "rho_ab_b")]
    metric = _metric_from_args(args)
    result = design(
        *per_substudy, (metric,), args.power, sigma2=args.sigma2, precision=args.precision,
        seed=args.seed, replications=args.replications, n_cap=args.n_cap,
    )
    c = float(result.critical_value[0, 0])
    report = {
        "metric": metric.kind,
        "alpha": metric.alpha,
        "allocation": [round(r, 12) for r in result.ratios[0].tolist()],
        "arm_counts": result.arm_counts[0, 0].tolist(),
        "z_rho": _z_report(result.z_correlation[0]),
        "critical_value": c,
        "p_threshold": _p_threshold(c),
        "n_star": int(result.n_star[0, 0]),
        "achieved_power": float(result.achieved_power[0, 0]),
        "target_power": args.power,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_estimate(args) -> int:
    _require(args.input is not None, "--input is required")
    try:
        table = ingest_csv(
            args.input,
            model_col=args.model_col,
            treatment_col=args.treatment_col,
            response_col=args.response_col,
            delimiter=args.delimiter,
            duplicates=args.duplicates,
        )
    except OSError as exc:
        raise DomainError(f"--input {args.input}: {exc.strerror}") from None
    if args.roles:
        roles = _load_json(args.roles, "--roles")
        keys = ("drug_a", "drug_b", "combo")
        _require(
            isinstance(roles, list) and len(roles) > 0
            and all(isinstance(r, dict) and all(key in r for key in keys) for r in roles),
            "--roles file must hold a non-empty JSON array of {drug_a, drug_b, combo} objects",
        )
        trials = [tuple(r[key] for key in keys) for r in roles]
    else:
        _require(
            args.drug_a is not None and args.drug_b is not None and args.combo is not None,
            "--drug-a, --drug-b and --combo are required (or pass --roles)",
        )
        trials = [(args.drug_a, args.drug_b, args.combo)]

    reports = []
    for drug_a, drug_b, combo in trials:
        estimates = estimate_trial(
            table,
            drug_a,
            drug_b,
            combo,
            min_triples=args.min_triples,
            higher_is_better=not args.lower_is_better,
        )
        entry = json.loads(estimates.to_json())
        if args.with_thresholds and not estimates.screened_out:
            summary = table1_pipeline(estimates)
            entry["z_rho"] = summary.rho
            entry["unadjusted"] = summary.unadjusted
            entry["p_thresholds"] = {
                kind: t.p_threshold for kind, t in summary.thresholds.items()
            }
        reports.append(entry)

    payload = reports[0] if len(reports) == 1 and not args.roles else reports
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


@contextlib.contextmanager
def _progress_to_stderr(enabled: bool):
    """Print the package's INFO log records (study progress) to stderr."""
    if not enabled:
        yield
        return
    log = logging.getLogger("platformdesign")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def cmd_simulate(args) -> int:
    surface = args.study == "design-surface"
    where = "error-curves, adjustments or thresholds" if surface else "design-surface"
    for flag in ("swept", "fixed_rho") if surface else ("progress", "rho_levels"):
        value = getattr(args, flag)
        _require(value is None or value is False,
                 f"--{flag.replace('_', '-')} only applies to --study {where}")
    # pass only the grid flags given, so the grid factories own the defaults
    sweep = {
        key: getattr(args, key)
        for key in ("start", "stop", "step", "fixed_rho")
        if getattr(args, key) is not None
    }
    if args.swept:
        sweep["swept"] = args.swept.replace("-", "_")
    if surface:
        if args.rho_levels:
            sweep["rho_levels"] = tuple(args.rho_levels)
        grid = design_surface_grid(**sweep)
        with _progress_to_stderr(args.progress):
            table = run_design_surface(grid)
    else:
        factory, runner = {
            "error-curves": (error_curves_grid, run_error_curves),
            "adjustments": (adjustment_grid, run_adjustment_comparison),
            "thresholds": (threshold_grid, run_threshold_curves),
        }[args.study]
        table = runner(factory(**sweep))

    _write(table.to_json_lines() if args.format == "jsonl" else table.to_csv(), args.out)
    print(f"{args.study}: {len(table.rows)} rows", file=sys.stderr)
    return EXIT_OK


def _add_common_output(parser: argparse.ArgumentParser, formats=("human", "json")) -> None:
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--format", choices=formats, default=formats[0],
        help=f"output format (default {formats[0]})",
    )


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of ``adjust`` and ``design``: substudies, arm correlations,
    the error metric, the threshold solver and the output."""
    parser.add_argument("--k", type=int, default=1, help="number of substudies (default 1)")
    parser.add_argument("--rho-ab-a", type=float, nargs="+", default=None,
                        help="combination-control endpoint correlation(s), default 0")
    parser.add_argument("--rho-ab-b", type=float, nargs="+", default=None,
                        help="combination-monotherapy endpoint correlation(s), default 0")
    parser.add_argument("--metric", choices=("fwer", "fmer", "msfp", "mfwer"), default="fwer",
                        help="error metric to control (default fwer)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="target level; defaults: fwer 0.05, fmer 0.0025, msfp 0.000625")
    parser.add_argument("--m", type=int, default=None, help="exceedance count for mfwer")
    parser.add_argument("--sided", choices=("one", "two"), default=None,
                        help="exceedance convention for mfwer (default two)")
    parser.add_argument("--precision", type=float, default=1e-4,
                        help="target standard error of randomized probabilities")
    parser.add_argument("--replications", type=int, default=65_536,
                        help="null directions of the count-metric pool "
                             "(K > 1 fmer, msfp, mfwer m >= 2)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    _add_common_output(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platformdesign",
        description="Design engine for platform trials of combination therapies.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of default flag values (kebab-case keys match flags)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    adjust = sub.add_parser(
        "adjust", help="solve a multiplicity-adjusted critical value / p-threshold"
    )
    adjust.add_argument("--rho", type=float, default=None,
                        help="test-statistic correlation, given directly")
    adjust.add_argument("--n-a", type=float, default=None, help="control arm count")
    adjust.add_argument("--n-b", type=float, nargs="+", default=None,
                        help="monotherapy arm count(s), one per substudy")
    adjust.add_argument("--n-ab", type=float, nargs="+", default=None,
                        help="combination arm count(s), one per substudy")
    adjust.add_argument("--rho-a-b", type=float, nargs="+", default=None,
                        help="control-monotherapy endpoint correlation(s), default 0")
    _add_threshold_flags(adjust)
    adjust.set_defaults(func=cmd_adjust)

    design = sub.add_parser(
        "design", help="optimal allocation, threshold, and minimal sample size"
    )
    design.add_argument("--delta", type=float, nargs="+", default=None,
                        help="monotherapy effect size(s) in endpoint units")
    design.add_argument("--synergy", type=float, nargs="+", default=None,
                        help="synergy multiplier(s); 1 = additive")
    design.add_argument("--sigma2", type=float, default=1.0,
                        help="common endpoint variance (default 1)")
    design.add_argument("--power", type=float, default=0.8,
                        help="target power (default 0.8)")
    design.add_argument("--n-cap", type=int, default=1_000_000,
                        help="sample-size search budget (default 1e6)")
    _add_threshold_flags(design)
    design.set_defaults(func=cmd_design)

    estimate = sub.add_parser(
        "estimate", help="estimate design parameters from paired-endpoint CSV data"
    )
    estimate.add_argument("--input", help="CSV of (model, treatment, response) records")
    estimate.add_argument("--drug-a", help="treatment name playing the control role A")
    estimate.add_argument("--drug-b", help="treatment name playing the monotherapy role B")
    estimate.add_argument("--combo", help="treatment name of the combination A+B")
    estimate.add_argument("--roles", default=None,
                          help="JSON file with a list of {drug_a, drug_b, combo} trials")
    estimate.add_argument("--model-col", default="model_id",
                          help="column holding the model identifier (default model_id)")
    estimate.add_argument("--treatment-col", default="treatment",
                          help="column holding the treatment name (default treatment)")
    estimate.add_argument("--response-col", default="response",
                          help="column holding the numeric endpoint (default response)")
    estimate.add_argument("--delimiter", default=",",
                          help="CSV field delimiter (default comma)")
    estimate.add_argument("--duplicates", choices=("error", "mean"), default="error",
                          help="policy for duplicate (model, treatment) rows")
    estimate.add_argument("--min-triples", type=int, default=3,
                          help="minimum complete (A, B, combo) triples required (default 3)")
    estimate.add_argument("--lower-is-better", action="store_true",
                          help="flip response signs (endpoint where lower is favorable)")
    estimate.add_argument("--with-thresholds", action="store_true",
                          help="append z-correlation, unadjusted rates, and p-thresholds")
    estimate.add_argument("--seed", type=int, default=None,
                          help="has no effect; the results are exact")
    estimate.add_argument("--out", help="output path (default: stdout)")
    estimate.set_defaults(func=cmd_estimate, format="json")

    simulate = sub.add_parser("simulate", help="run a full simulation study grid")
    simulate.add_argument(
        "--study", required=True,
        choices=("error-curves", "adjustments", "thresholds", "design-surface"),
    )
    simulate.add_argument("--swept", choices=("rho-ab-b", "rho-ab-a"), default=None,
                          help="which arm correlation to sweep (default rho-ab-b)")
    simulate.add_argument("--fixed-rho", type=float, default=None,
                          help="value of the non-swept correlation (default 0.3)")
    simulate.add_argument("--start", type=float, default=None, help="sweep start")
    simulate.add_argument("--stop", type=float, default=None, help="sweep stop")
    simulate.add_argument("--step", type=float, default=None, help="sweep step")
    simulate.add_argument("--rho-levels", type=float, nargs="+", default=None,
                          help="correlation levels for the design surface")
    simulate.add_argument("--progress", action="store_true",
                          help="print per-point progress to stderr (design surface)")
    _add_common_output(simulate, formats=("csv", "jsonl"))
    simulate.set_defaults(func=cmd_simulate)

    return parser


def _config_item(action: argparse.Action, key: str, value):
    """One config value, converted and checked as argparse would the flag's
    command-line tokens."""
    flag = f"--config key {key!r}"
    if action.nargs == 0:  # a switch such as --progress
        _require(isinstance(value, bool), f"{flag} must be true or false, got {value!r}")
        return value
    if action.type is None:
        _require(isinstance(value, str), f"{flag} must be a string, got {value!r}")
    else:
        _require(
            isinstance(value, (str, int, float)) and not isinstance(value, bool),
            f"{flag} must be a number, got {value!r}",
        )
        try:
            value = action.type(str(value))
        except ValueError:
            raise DomainError(
                f"{flag}: invalid {action.type.__name__} value {value!r}"
            ) from None
    _require(
        action.choices is None or value in action.choices,
        f"{flag} must be one of {tuple(action.choices or ())}, got {value!r}",
    )
    return value


def _config_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values by flag name (dest), converted and checked as
    the flags of the subcommand parser ``sub`` would be."""
    config = _load_json(path, "--config")
    if not isinstance(config, dict):
        raise DomainError("--config file must hold a JSON object")
    actions = {
        action.dest: action
        for action in sub._actions
        if action.option_strings and action.default is not argparse.SUPPRESS
    }
    values = {}
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DomainError(f"--config key {key!r} does not match any flag")
        if action.nargs == "+":
            items = value if isinstance(value, list) else [value]
            _require(bool(items), f"--config key {key!r} needs at least one value")
            value = [_config_item(action, key, item) for item in items]
        else:
            value = _config_item(action, key, value)
        values[action.dest] = value
    return values


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so parsing the
            # command line again lets every flag given there win
            commands = next(
                action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
            )
            sub = commands.choices[args.command]
            sub.set_defaults(**_config_defaults(sub, args.config))
            args = parser.parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:
            env = os.environ.get(SEED_ENV_VAR)
            try:
                args.seed = int(env) if env else 0
            except ValueError:
                raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
