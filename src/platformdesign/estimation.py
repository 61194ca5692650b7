"""Parameter estimation from preclinical paired-endpoint data.

Input is a long table of (model_id, treatment, response) records, e.g. one
tumor-size-reduction measurement per xenograft model per compound.  Because
the same model is measured under several treatments, responses are paired
across arms, which is what makes the inter-arm correlations estimable.
Estimates feed straight into the trial-design pipeline: correlations and
standardized effect sizes in, thresholds and allocations out.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .correlation import ArmCorrelations, PlatformArms, platform_z_correlation_matrix
from .errors import DomainError, InsufficientData, ParseError, SchemaError, ZeroVariance
from .multiplicity import (
    DEFAULT_TARGETS, ThresholdResult, bivariate_error_rates, platform_threshold,
)
from .mvnorm import _std_normal_quantile

__all__ = [
    "PairedEndpointTable",
    "TrialEstimates",
    "Table1Result",
    "ingest_csv",
    "estimate_trial",
    "table1_pipeline",
]


@dataclass(frozen=True)
class PairedEndpointTable:
    """De-duplicated (model_id, treatment) -> response lookup.

    ``n_rows`` is the number of data rows ingested before de-duplication, so
    callers can reconcile against the source file.
    """

    responses: Mapping[tuple[str, str], float]
    n_rows: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", dict(self.responses))

    def models_with(self, *treatments: str) -> list[str]:
        """Model ids having a response for every listed treatment, sorted."""
        sets = [
            {m for (m, t) in self.responses if t == treatment}
            for treatment in treatments
        ]
        return sorted(set.intersection(*sets)) if sets else []

    def arm_responses(self, treatment: str, models: Iterable[str]) -> np.ndarray:
        return np.array([self.responses[(m, treatment)] for m in models])

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[str, str, float]],
        duplicates: str = "error",
    ) -> "PairedEndpointTable":
        if duplicates not in ("error", "mean"):
            raise DomainError("duplicates policy must be 'error' or 'mean'")
        seen: dict[tuple[str, str], list[float]] = {}
        n_rows = 0
        for model, treatment, response in records:
            n_rows += 1
            seen.setdefault((str(model), str(treatment)), []).append(float(response))
        offenders = sorted(k for k, v in seen.items() if len(v) > 1)
        if offenders and duplicates == "error":
            raise ParseError(
                f"duplicate (model, treatment) pairs: {offenders[:10]}"
                + (" ..." if len(offenders) > 10 else "")
            )
        with np.errstate(over="ignore"):
            responses = {k: float(np.mean(v)) for k, v in seen.items()}
        overflowed = [k for k, v in responses.items() if not math.isfinite(v)]
        if overflowed:
            raise ParseError(
                f"the mean of the responses of (model, treatment) {overflowed[0]} "
                "is not a finite number"
            )
        return cls(responses, n_rows)


def ingest_csv(
    path: str,
    model_col: str = "model_id",
    treatment_col: str = "treatment",
    response_col: str = "response",
    delimiter: str = ",",
    duplicates: str = "error",
) -> PairedEndpointTable:
    """Parse a UTF-8 CSV with a header row into a paired-endpoint table.

    Column names are configurable; a missing column raises
    :class:`SchemaError` naming it, text that is not UTF-8 raises
    :class:`ParseError` naming the path, malformed rows and responses that
    are not finite numbers raise it with their line number, and duplicate
    (model, treatment) pairs follow the ``duplicates`` policy ('error'
    rejects, 'mean' averages).  A ``delimiter`` that is not one character is
    a :class:`DomainError`.
    """
    if len(delimiter) != 1:
        raise DomainError(f"delimiter must be one character, got {delimiter!r}")
    records: list[tuple[str, str, float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        reader = csv.reader(lines, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        indices = {}
        for name in (model_col, treatment_col, response_col):
            if name not in header:
                raise SchemaError(f"{path}: missing required column {name!r}")
            indices[name] = header.index(name)
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            model = row[indices[model_col]].strip()
            treatment = row[indices[treatment_col]].strip()
            raw = row[indices[response_col]].strip()
            if not model or not treatment:
                raise ParseError(f"{path}:{line_no}: empty model or treatment value")
            try:
                response = float(raw)
            except ValueError:
                response = math.nan
            if not math.isfinite(response):
                raise ParseError(f"{path}:{line_no}: response {raw!r} is not a finite number")
            records.append((model, treatment, response))
    return PairedEndpointTable.from_records(records, duplicates)


@dataclass(frozen=True)
class TrialEstimates:
    """Estimated design inputs for one synthetic (A, B, A+B) trial.

    Field names double as the JSON serialization schema.  ``screened_out``
    is true when either standardized effect is nonpositive; such candidates
    are flagged rather than silently dropped.
    """

    rho_AB_A: float
    rho_AB_B: float
    delta_B: float
    delta_AB: float
    s_hat: float
    n_A: int
    n_B: int
    n_AB: int
    drug_A: str
    drug_B: str
    combo: str
    screened_out: bool

    def to_json(self) -> str:
        """The fields as a JSON object; an undefined ``s_hat`` (NaN) is null."""
        fields = {**asdict(self), "s_hat": None if math.isnan(self.s_hat) else self.s_hat}
        return json.dumps(fields, allow_nan=False)


def _pearson(table: PairedEndpointTable, u: str, v: str, sign: float) -> float:
    """The correlation of treatments ``u`` and ``v`` over the models having
    both; one that overflows a double is a :class:`DomainError` naming them."""
    models = table.models_with(u, v)
    if len(models) < 2:
        raise InsufficientData("need at least 2 paired observations for a correlation")
    x, y = (sign * table.arm_responses(t, models) for t in (u, v))
    with np.errstate(over="ignore", invalid="ignore"):
        sds = np.std(x), np.std(y)
        if 0.0 in sds:
            raise ZeroVariance("an arm's responses are constant; correlation undefined")
        r = np.corrcoef(x, y)[0, 1] if np.isfinite(sds).all() else math.nan
    if not math.isfinite(r):
        raise DomainError(f"the correlation of {u!r} and {v!r} is not a finite number")
    return float(np.clip(r, -1.0, 1.0))


def estimate_trial(
    table: PairedEndpointTable,
    drug_a: str,
    drug_b: str,
    combo: str,
    min_triples: int = 3,
    higher_is_better: bool = True,
) -> TrialEstimates:
    """Correlations, standardized effects, and synergy for one drug triple.

    Means, SDs, and counts come from models with all three responses present;
    each correlation uses the (possibly larger) set of models carrying both
    arms of its pair.  Effects are standardized by the respective pooled SDs,
    so downstream design steps can take unit variance.  ``min_triples``
    below 2 is a :class:`DomainError`: a standard deviation needs two models.
    """
    if min_triples < 2:
        raise DomainError(f"min_triples must be at least 2, got {min_triples}")
    triple_models = table.models_with(drug_a, drug_b, combo)
    if len(triple_models) < min_triples:
        raise InsufficientData(
            f"only {len(triple_models)} complete (A, B, combo) triples; "
            f"need at least {min_triples}"
        )
    sign = 1.0 if higher_is_better else -1.0
    moments = []
    for treatment in (drug_a, drug_b, combo):
        y = sign * table.arm_responses(treatment, triple_models)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, sd = float(np.mean(y)), float(np.std(y, ddof=1))
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise DomainError(f"the mean or SD of {treatment!r} is not a finite number")
        moments.append((mean, sd))
    (mean_a, sd_a), (mean_b, sd_b), (mean_ab, sd_ab) = moments
    n = len(triple_models)
    if sd_a == 0.0 or sd_b == 0.0 or sd_ab == 0.0:
        raise ZeroVariance("an arm's responses are constant across models")

    rho_ab_a, rho_ab_b = (_pearson(table, combo, mono, sign) for mono in (drug_a, drug_b))

    pooled = []
    for arm, sd in ((combo, sd_ab), (drug_b, sd_b)):
        # a finite SD is at most sqrt(DBL_MAX), whose square is finite; the
        # products and their sum may still overflow to inf
        variance = ((n - 1) * sd**2 + (n - 1) * sd_a**2) / (2 * n - 2)
        if variance == math.inf:
            raise DomainError(f"the pooled SD of {arm!r} and {drug_a!r} is not a finite number")
        pooled.append(math.sqrt(variance))
    delta_ab = float((mean_ab - mean_a) / pooled[0])
    delta_b = float((mean_b - mean_a) / pooled[1])
    s_hat = delta_ab / delta_b if delta_b != 0.0 else math.nan
    return TrialEstimates(
        rho_AB_A=rho_ab_a,
        rho_AB_B=rho_ab_b,
        delta_B=delta_b,
        delta_AB=delta_ab,
        s_hat=s_hat,
        n_A=n,
        n_B=n,
        n_AB=n,
        drug_A=drug_a,
        drug_B=drug_b,
        combo=combo,
        screened_out=not (delta_ab > 0.0 and delta_b > 0.0),
    )


@dataclass(frozen=True)
class Table1Result:
    """False-positive picture for a fixed design: the test-statistic
    correlation, the exact unadjusted error rates at the conventional
    critical value (keyed fwer, fmer, msfp), and the adjusted threshold of
    each default target."""

    rho: float
    unadjusted: dict[str, float]
    thresholds: dict[str, ThresholdResult] = field(default_factory=dict)


def table1_pipeline(estimates: TrialEstimates) -> Table1Result:
    """Chain estimates into the false-positive control summary.

    Computes the Z-statistic correlation from the estimated arm correlations
    and counts and the exact unadjusted error rates at the conventional
    two-sided critical value (the normal 0.975 quantile), then solves the
    adjusted threshold for each metric of ``DEFAULT_TARGETS``.
    """
    if estimates.screened_out:
        raise DomainError(
            "trial was screened out (a standardized effect is nonpositive); "
            "thresholds would not be meaningful"
        )
    arms = PlatformArms(
        estimates.n_A, estimates.n_B, estimates.n_AB,
        ArmCorrelations.per_substudy(estimates.rho_AB_A, estimates.rho_AB_B),
    )
    z_corr = platform_z_correlation_matrix(arms)
    rho = float(z_corr.entries[0, 1])
    thresholds = {metric.kind: platform_threshold(z_corr, metric) for metric in DEFAULT_TARGETS}
    return Table1Result(
        rho=rho,
        unadjusted=bivariate_error_rates(rho, _std_normal_quantile(0.975)),
        thresholds=thresholds,
    )
