"""Acceptance suite: reproduces the reference efficiency tables at desk scale.

Studies use 200 replicates of nu=200 series of length T=50 with a fixed seed;
tolerances around the reference values are widened accordingly.  Each
criterion prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s``).  The two shared studies take a few seconds combined; every test
that uses them is marked ``slow``, so ``pytest -m "not slow"`` leaves them out.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from minscore import (
    EstimatorKind,
    ExperimentConfig,
    emit_csv,
    run_experiment,
    sample_ar1,
    sample_series,
    series_objective,
    sum_of_squares,
    wishart_components,
    wishart_context,
)
from minscore.cli import cli_main
from minscore.selfcheck import (
    ar1_covariance,
    ar1_pairwise_closed_form,
    ar1_precision,
    gaussian_hyvarinen,
    hw_grad_samples,
    ma1_covariance,
    ma1_precision,
    precision_derivative,
)

SEED = 20260808
NU = 200
T_LEN = 50

AR_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9)
MA_GRID = (-0.9, 0.0, 0.9)

# reference asymptotic relative efficiencies and allowed absolute deviations
AR_TARGETS = {
    "pairwise": ({-0.9: 0.8625, -0.5: 0.8069, 0.0: 0.9998, 0.5: 0.8071, 0.9: 0.8622}, 0.05),
    "hyv": ({-0.9: 0.0738, -0.5: 0.5060, 0.0: 1.0077, 0.5: 0.5077, 0.9: 0.0734}, 0.08),
    "hyv-wishart": ({-0.9: 0.0278, -0.5: 0.1853, 0.0: 0.7401, 0.5: 0.1867, 0.9: 0.0278}, 0.03),
}
# The "hyv" values at +/-0.9 are the exact Godambe efficiency at T=50
# (exact_efficiency below; checked by test_reference_targets_match_exact_efficiency).
# They replace 0.7208/0.7300, which could not be reproduced: the estimator
# as documented (Hyvarinen score of the T-dimensional law, sigma2 = 1 known)
# has exact efficiency 0.8237 there, and the 200-replicate study agrees
# (0.8245/0.8327).  Estimating sigma2 jointly gives 0.578 and moves AR hyv
# at +/-0.5 to 0.749; a length of T=21-22 gives 0.715-0.730 but moves MA
# pairwise at +/-0.9 to 0.254-0.237.
MA_TARGETS = {
    "pairwise": ({-0.9: 0.1064, 0.0: 1.0082, 0.9: 0.1072}, 0.04),
    "hyv": ({-0.9: 0.8237, 0.0: 1.0101, 0.9: 0.8237}, 0.08),
    "hyv-wishart": ({-0.9: 0.5471, 0.0: 0.7429, 0.9: 0.5504}, 0.08),
}

KINDS = ("full", "pairwise", "hyv", "hyv-wishart")


@pytest.fixture(scope="module")
def ar1_study():
    cfg = ExperimentConfig(
        model="ar1", param_grid=AR_GRID, nu=NU, t_len=T_LEN,
        replicates=200, mc_b=500, seed=SEED,
    )
    start = time.perf_counter()
    rows = run_experiment(cfg)
    return rows, details_of(rows), time.perf_counter() - start


@pytest.fixture(scope="module")
def ma1_study():
    cfg = ExperimentConfig(
        model="ma1", param_grid=MA_GRID, nu=NU, t_len=T_LEN,
        replicates=200, mc_b=500, seed=SEED,
    )
    start = time.perf_counter()
    rows = run_experiment(cfg)
    return rows, details_of(rows), time.perf_counter() - start


def details_of(rows):
    # each cell's kept estimates and sds as arrays, keyed by (param, estimator)
    return {(row.param_true, row.estimator): (np.array(row.estimates), np.array(row.sds))
            for row in rows}


def row_map(rows):
    return {(row.param_true, row.estimator.value): row for row in rows}


def report(criterion: str, checks: list[tuple[str, bool, str]]) -> None:
    failed = [c for c in checks if not c[1]]
    status = "PASS" if not failed else "FAIL"
    print(f"\n[ACCEPTANCE {criterion}] {status} "
          f"({len(checks) - len(failed)}/{len(checks)} subchecks)")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    assert not failed, f"criterion {criterion} failed: " + "; ".join(
        f"{name} ({detail})" for name, _, detail in failed
    )


def stationary_covariance(model, theta, t_len):
    """Unit-innovation covariance matrix and its derivative in theta, built
    densely from the AR(1)/MA(1) autocovariances (independent of minscore)."""
    lag = np.arange(t_len)
    if model == "ar1":
        gamma = theta**lag / (1.0 - theta**2)
        dgamma = (lag * theta ** np.maximum(lag - 1, 0) + 2.0 * theta * gamma) / (1.0 - theta**2)
    else:
        gamma = np.zeros(t_len)
        dgamma = np.zeros(t_len)
        gamma[:2] = 1.0 + theta**2, theta
        dgamma[:2] = 2.0 * theta, 1.0
    lags = np.abs(np.subtract.outer(lag, lag))
    return gamma[lags], dgamma[lags]


def exact_efficiency(model, kind, theta, t_len=T_LEN):
    """Exact asymptotic efficiency of a per-series estimator against full ML,
    with the per-series variability J and sensitivity K behind it.

    Each estimating function is a quadratic form ``y'A y - c`` with A the
    theta-derivative of the objective's matrix, so its Godambe information is
    K^2 / J with ``J = 2 tr(A S A S)`` and ``K = tr(A S')``; the efficiency
    divides that by the Fisher information ``I = tr((S^-1 S')^2) / 2``, and
    the estimator's sd from nu series is ``sqrt(J / K^2 / nu)``.  Returns
    ``(efficiency, J, K)``.
    """
    cov, dcov = stationary_covariance(model, theta, t_len)
    prec = np.linalg.inv(cov)
    dprec = -prec @ dcov @ prec
    if kind == "full":
        a = 0.5 * dprec
    elif kind == "hyv":
        a = 0.5 * (prec @ dprec + dprec @ prec)
    elif kind == "pairwise":
        # the stationary law gives every adjacent pair the same 2x2 block
        prec2 = np.linalg.inv(cov[:2, :2])
        block = 0.5 * prec2 @ dcov[:2, :2] @ prec2
        a = np.zeros((t_len, t_len))
        for t in range(t_len - 1):
            a[t:t + 2, t:t + 2] -= block
    else:
        raise ValueError(kind)
    sensitivity = np.trace(a @ dcov)
    variability = 2.0 * np.trace(a @ cov @ a @ cov)
    fisher = 0.5 * np.trace(prec @ dcov @ prec @ dcov)
    return sensitivity**2 / (variability * fisher), variability, sensitivity


def exact_wishart_efficiency(model, theta, nu=NU, t_len=T_LEN):
    """Exact asymptotic efficiency of the Wishart score estimator against full ML.

    Its pooled gradient is ``-c/2 tr(D S^-1)`` plus a constant, with
    ``D = -P S' P`` the derivative of the precision P and ``c = (nu-T-1)/2``;
    S^-1 is inverse-Wishart with scale P, so J follows from its second moments
    (von Rosen 1988), ``K = tr(D D) / 4``, and the efficiency is
    ``K^2 / (nu J I)``.
    """
    cov, dcov = stationary_covariance(model, theta, t_len)
    prec = np.linalg.inv(cov)
    dprec = -prec @ dcov @ prec
    c = 0.5 * (nu - t_len - 1)
    m = nu - t_len
    a = np.trace(dprec @ prec)
    b = np.trace(dprec @ prec @ dprec @ prec)
    variability = c**2 / 4 * (2 * a**2 + 2 * (m - 1) * b) / (m * (m - 1) ** 2 * (m - 3))
    sensitivity = np.trace(dprec @ dprec) / 4
    fisher = 0.5 * np.trace(prec @ dcov @ prec @ dcov)
    return sensitivity**2 / (nu * variability * fisher)


def exact_sd(model, kind, theta, nu=NU, t_len=T_LEN):
    """Exact asymptotic sd of an estimator from nu series: ``sqrt(J / K^2 /
    nu)`` for a per-series kind, and for hyv-wishart the full-ML sd over the
    root of its exact efficiency."""
    if kind == "hyv-wishart":
        return (exact_sd(model, "full", theta, nu, t_len)
                / np.sqrt(exact_wishart_efficiency(model, theta, nu, t_len)))
    _, j, k = exact_efficiency(model, kind, theta, t_len)
    return np.sqrt(j / k**2 / nu)


def sd_allowance(row, exact):
    """How far a cell's mean sd may lie from the exact sd, as a share of it.

    Two parts, neither fitted to a study: its sampling error, three standard
    errors ``sd(sds) / sqrt(n)`` of the mean of the cell's n per-replicate
    sds; and 1/nu for their bias.  A sandwich sd is biased low by O(1/nu)
    (Kauermann & Carroll 2001, JASA 96): -1/(2 nu) from the one fitted
    parameter, as from the leverages of a one-parameter linear model, plus
    terms of the same order from the estimate plugged into J and K and from
    the mean of roots; 1/nu allows twice the leading term.  The Wishart sd,
    exact J and K at the estimate, has only the plug-in part.
    """
    sds = np.array(row.sds)
    return 3 * np.std(sds, ddof=1) / np.sqrt(len(sds)) / exact + 1 / row.nu


@pytest.mark.slow
def test_criterion_1_ar1_table(ar1_study):
    rows, _, elapsed = ar1_study
    rmap = row_map(rows)
    checks = []
    for theta in AR_GRID:
        for kind in KINDS:
            est = rmap[(theta, kind)].mean_est
            checks.append((
                f"mean estimate {kind} at {theta:+.1f}",
                abs(est - theta) <= 0.01,
                f"{est:+.4f}",
            ))
    for kind, (targets, tol) in AR_TARGETS.items():
        for theta, target in targets.items():
            got = rmap[(theta, kind)].are
            checks.append((
                f"ARE {kind} at {theta:+.1f}",
                abs(got - target) <= tol,
                f"{got:.4f} (target {target} +/- {tol})",
            ))
    checks.append(("study runtime <= 600 s", elapsed <= 600.0, f"{elapsed:.0f} s"))
    report("1: AR(1) table spot rows", checks)


@pytest.mark.slow
def test_criterion_2_ma1_table(ma1_study):
    rows, _, elapsed = ma1_study
    rmap = row_map(rows)
    checks = []
    for kind, (targets, tol) in MA_TARGETS.items():
        for theta, target in targets.items():
            got = rmap[(theta, kind)].are
            checks.append((
                f"ARE {kind} at {theta:+.1f}",
                abs(got - target) <= tol,
                f"{got:.4f} (target {target} +/- {tol})",
            ))
    sd_mle = rmap[(0.0, "full")].mean_sd
    checks.append((
        "sd of full ML at alpha=0",
        abs(sd_mle - 0.0101) <= 0.0005,
        f"{sd_mle:.5f} (target 0.0101 +/- 0.0005)",
    ))
    checks.append((f"study runtime", elapsed <= 600.0, f"{elapsed:.0f} s"))
    report("2: MA(1) table spot rows", checks)


@pytest.mark.slow
def test_criterion_3_qualitative_crossover(ar1_study, ma1_study):
    ar_rows = row_map(ar1_study[0])
    ma_rows = row_map(ma1_study[0])
    ar_gap = ar_rows[(0.9, "pairwise")].are - ar_rows[(0.9, "hyv")].are
    ma_gap = ma_rows[(0.9, "hyv")].are - ma_rows[(0.9, "pairwise")].are
    checks = [
        ("AR(1) at 0.9: pairwise beats univariate score matching by >= 0.5",
         ar_gap >= 0.5, f"gap {ar_gap:.3f}"),
        ("MA(1) at 0.9: univariate score matching beats pairwise by >= 0.4",
         ma_gap >= 0.4, f"gap {ma_gap:.3f}"),
    ]
    report("3: efficiency crossover", checks)


@pytest.mark.slow
@pytest.mark.parametrize("study", ["ar1_study", "ma1_study"])
def test_study_csv_is_pinned(study, request, tmp_path):
    # the whole table of each study, byte for byte, against its committed
    # reference; a change to any cell must replace the file deliberately
    path = tmp_path / f"{study}.csv"
    emit_csv(request.getfixturevalue(study)[0], str(path))
    reference = Path(__file__).parent / "reference" / f"{study}.csv"
    assert path.read_bytes() == reference.read_bytes()


def test_reference_targets_match_exact_efficiency():
    # every reference ARE lies within its own tolerance of the exact
    # efficiency: per-series quadratic forms for pairwise and hyv, the
    # inverse-Wishart variance for hyv-wishart (at nu = NU series)
    checks = []
    h = 1e-6
    for model, theta in (("ar1", 0.5), ("ma1", 0.5)):
        _, dcov = stationary_covariance(model, theta, T_LEN)
        fd = (stationary_covariance(model, theta + h, T_LEN)[0]
              - stationary_covariance(model, theta - h, T_LEN)[0]) / (2 * h)
        worst = float(np.max(np.abs(dcov - fd)))
        checks.append((f"{model} covariance derivative vs finite differences",
                       worst <= 1e-6, f"max abs diff {worst:.2e}"))
    for model, grid, targets_by_kind in (
        ("ar1", AR_GRID, AR_TARGETS), ("ma1", MA_GRID, MA_TARGETS),
    ):
        for theta in grid:
            eff = exact_efficiency(model, "full", theta)[0]
            checks.append((f"{model} full ML efficiency at {theta:+.1f}",
                           abs(eff - 1.0) <= 1e-9, f"{eff:.12f}"))
        for kind in ("pairwise", "hyv"):
            targets, tol = targets_by_kind[kind]
            for theta, target in targets.items():
                eff = exact_efficiency(model, kind, theta)[0]
                checks.append((f"{model} {kind} target at {theta:+.1f}",
                               abs(target - eff) <= tol,
                               f"target {target} vs exact {eff:.4f} +/- {tol}"))
        targets, tol = targets_by_kind["hyv-wishart"]
        for theta, target in targets.items():
            eff = exact_wishart_efficiency(model, theta)
            checks.append((f"{model} hyv-wishart target at {theta:+.1f}",
                           abs(target - eff) <= tol,
                           f"target {target} vs exact {eff:.4f} +/- {tol}"))
    for theta in (-0.9, 0.9):
        eff = round(exact_efficiency("ma1", "hyv", theta)[0], 4)
        target = MA_TARGETS["hyv"][0][theta]
        checks.append((f"ma1 hyv target at {theta:+.1f} is the exact value",
                       target == eff, f"target {target} vs exact {eff}"))
    report("reference targets vs exact efficiency", checks)


def test_criterion_4_oracle_equivalences():
    start = time.perf_counter()
    checks = []

    # closed-form Hyvarinen scores vs the generic Gaussian form, 1e-8, each
    # series reduced on its own
    rng = np.random.default_rng(1)
    worst = 0.0
    for t_len in range(3, 21):
        y = rng.standard_normal((4, t_len))
        for theta in (-0.9, -0.4, 0.0, 0.4, 0.9):
            for model, precision in (("ar1", ar1_precision), ("ma1", ma1_precision)):
                direct = [series_objective(row, "hyv", model).total(theta) for row in y]
                generic = gaussian_hyvarinen(y, precision(theta, t_len))
                worst = max(worst, float(np.max(np.abs(direct - generic))))
    checks.append(("Hyvarinen closed forms vs generic Gaussian form",
                   worst <= 1e-8, f"max abs diff {worst:.2e}"))

    # analytic precision matrices vs dense inversion, 1e-10
    worst = 0.0
    for t_len in range(2, 21):
        for theta in (-0.9, -0.5, 0.0, 0.5, 0.9):
            worst = max(worst, float(np.max(np.abs(
                ar1_precision(theta, t_len) - np.linalg.inv(ar1_covariance(theta, t_len))
            ))))
            worst = max(worst, float(np.max(np.abs(
                ma1_precision(theta, t_len) - np.linalg.inv(ma1_covariance(theta, t_len))
            ))))
    checks.append(("precision matrices vs dense inversion",
                   worst <= 1e-10, f"max abs diff {worst:.2e}"))

    # closed-form Wishart sensitivity vs brute-force quarter sum over the
    # dense precision derivative, both models, 1e-10 relative to max(1, K):
    # MA(1) K reaches 3.3e5 at T=50, where 1e-10 absolute is below 2 ulps
    worst = 0.0
    for model in ("ar1", "ma1"):
        for t_len in (2, 5, 10, 25, 50):
            for phi in (-0.9, -0.3, 0.0, 0.3, 0.9):
                dprec = precision_derivative(model, phi, t_len)
                brute = 0.25 * float(sum(dprec[j, i] ** 2
                                         for i in range(t_len) for j in range(t_len)))
                k = wishart_components(model, phi, t_len + 4, t_len)[1]
                worst = max(worst, abs(k - brute) / max(1.0, brute))
    checks.append(("closed-form sensitivity vs brute-force double sum",
                   worst <= 1e-10, f"max rel diff {worst:.2e}"))

    # Wishart score gradient vs finite differences, 1e-4 relative
    rng = np.random.default_rng(2)
    worst = 0.0
    for model in ("ar1", "ma1"):
        for t_len in (3, 5, 10):
            y = rng.standard_normal((t_len + 10, t_len))
            ctx = wishart_context(sum_of_squares(y), nu=t_len + 10, model=model)
            for theta in (-0.8, -0.4, 0.0, 0.4, 0.8):
                h = 1e-6
                fd = (ctx.total(theta + h) - ctx.total(theta - h)) / (2 * h)
                rel = abs(ctx.derivatives(theta)[0][0] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
    checks.append(("Wishart gradient vs finite differences",
                   worst <= 1e-4, f"max rel diff {worst:.2e}"))

    # pairwise variance estimate is Monte Carlo consistent at nu=2000
    y = sample_ar1(0.5, 2000, 50, seed=3)
    phi_hat, sigma2_hat = ar1_pairwise_closed_form(y)
    checks.append(("closed-form pairwise variance consistency",
                   abs(sigma2_hat - 1.0) <= 0.02, f"sigma2_hat {sigma2_hat:.4f}"))

    elapsed = time.perf_counter() - start
    checks.append(("oracle suite runtime <= 30 s", elapsed <= 30.0, f"{elapsed:.1f} s"))
    report("4: oracle equivalences", checks)


def test_criterion_5_unbiased_estimating_equations():
    checks = []
    per_series_kinds = (
        EstimatorKind.FULL_ML, EstimatorKind.PAIRWISE_ML, EstimatorKind.HYV_UNIVARIATE,
    )
    draw = 0
    for model in ("ar1", "ma1"):
        for theta0 in (0.0, 0.5, -0.5):
            draw += 1
            y = sample_series(model, theta0, 3000, 20, seed=1000 + draw)
            for kind in per_series_kinds:
                grads, _ = series_objective(y, kind, model).derivatives(theta0)
                se = float(np.std(grads, ddof=1) / np.sqrt(len(grads)))
                mean = float(np.mean(grads))
                checks.append((
                    f"{model} {kind.value} at {theta0:+.1f}",
                    abs(mean) <= 5 * se,
                    f"mean {mean:+.4f} vs 5*SE {5 * se:.4f}",
                ))
            grads = hw_grad_samples(model, theta0, nu=50, t_len=10,
                                    n_draws=800, seed=2000 + draw)
            se = float(np.std(grads, ddof=1) / np.sqrt(len(grads)))
            mean = float(np.mean(grads))
            checks.append((
                f"{model} hyv-wishart at {theta0:+.1f}",
                abs(mean) <= 5 * se,
                f"mean {mean:+.4f} vs 5*SE {5 * se:.4f}",
            ))
    report("5: unbiased estimating equations", checks)


def test_criterion_6_cli_determinism(tmp_path):
    args = [
        "table", "--model", "ar1", "--grid", "-0.3,0.3", "--nu", "30", "--t", "8",
        "--replicates", "8", "--mc-b", "50", "--seed", "77",
    ]
    outputs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "4"), ("d", "4")):
        path = tmp_path / f"{label}.csv"
        code = cli_main(args + ["--workers", workers, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    identical = all(blob == outputs[0] for blob in outputs)
    checks = [(
        "table twice with --workers 1 and twice with 4, byte-identical CSV",
        identical, f"{len(outputs)} runs compared",
    )]
    report("6: determinism", checks)


@pytest.mark.slow
class TestStudyInvariants:
    """Cross-checks on the shared studies (not numbered criteria)."""

    def test_are_symmetry(self, ar1_study, ma1_study):
        # ARE(theta) and ARE(-theta) agree within 2 combined MC standard errors
        for rows, details, pairs in (
            (ar1_study[0], ar1_study[1], [(-0.9, 0.9), (-0.5, 0.5)]),
            (ma1_study[0], ma1_study[1], [(-0.9, 0.9)]),
        ):
            rmap = row_map(rows)
            for lo, hi in pairs:
                for kind in ("pairwise", "hyv", "hyv-wishart"):
                    variances = []
                    for theta in (lo, hi):
                        kind_enum = EstimatorKind(kind)
                        _, sds_est = details[(theta, kind_enum)]
                        _, sds_mle = details[(theta, EstimatorKind.FULL_ML)]
                        rel = rmap[(theta, kind)].are
                        m = np.mean(sds_mle)
                        s = np.mean(sds_est)
                        var_m = np.var(sds_mle, ddof=1) / len(sds_mle)
                        var_s = np.var(sds_est, ddof=1) / len(sds_est)
                        variances.append(rel**2 * 4 * (var_m / m**2 + var_s / s**2))
                    gap = abs(rmap[(lo, kind)].are - rmap[(hi, kind)].are)
                    assert gap <= 2 * np.sqrt(sum(variances)) + 1e-12, (
                        kind, lo, hi, gap, 2 * np.sqrt(sum(variances))
                    )

    def test_full_ml_baseline_sanity(self, ar1_study, ma1_study):
        for rows in (ar1_study[0], ma1_study[0]):
            rmap = row_map(rows)
            for (theta, kind), row in rmap.items():
                if kind == "full":
                    assert row.are == 1.0
                    rivals = [rmap[(theta, k)].mean_sd for k in KINDS if k != "full"]
                    assert row.mean_sd <= min(rivals) * 1.02

    def test_no_boundary_hits(self, ar1_study, ma1_study):
        for rows in (ar1_study[0], ma1_study[0]):
            for row in rows:
                if abs(row.param_true) <= 0.5:
                    assert row.n_boundary == 0
                assert row.n_replicates == 200

    def test_godambe_sd_predicts_sampling_scatter(self, ar1_study, ma1_study):
        # across replicates, the spread of estimates matches the mean
        # asymptotic sd within 15% relative
        for _, details, _ in (ar1_study, ma1_study):
            for (theta, kind), (estimates, sds) in details.items():
                scatter = np.std(estimates, ddof=1)
                predicted = np.mean(sds)
                assert abs(scatter - predicted) / predicted < 0.15, (theta, kind)

    def test_scatter_matches_exact_sd(self, ar1_study, ma1_study):
        # the scatter of the estimates in every cell of both studies against
        # the cell's exact sd, as a z-score with the standard error
        # sd / sqrt(2 (n - 1)) of a sample sd: a per-series kind has the sd
        # sqrt(J / K^2 / nu) of its sigma2 = 1 estimating equation, and
        # hyv-wishart the exact full-ML sd over the root of its exact efficiency
        for model, (_, details, _), grid in (("ar1", ar1_study, AR_GRID),
                                             ("ma1", ma1_study, MA_GRID)):
            for theta in grid:
                _, j, k = exact_efficiency(model, "full", theta)
                full_sd = np.sqrt(j / k**2 / NU)
                for kind in EstimatorKind:
                    if kind is EstimatorKind.HYV_WISHART:
                        exact = full_sd / np.sqrt(exact_wishart_efficiency(model, theta))
                    else:
                        _, j, k = exact_efficiency(model, kind.value, theta)
                        exact = np.sqrt(j / k**2 / NU)
                    estimates, _ = details[(theta, kind)]
                    z = ((np.std(estimates, ddof=1) - exact)
                         / (exact / np.sqrt(2 * (len(estimates) - 1))))
                    assert abs(z) <= 3, (model, theta, kind, z)

    def test_mean_sd_matches_exact_sd(self, ar1_study, ma1_study):
        # every cell of both studies: the mean sd within its allowance of the
        # exact sd
        for model, (rows, _, _), grid in (("ar1", ar1_study, AR_GRID),
                                          ("ma1", ma1_study, MA_GRID)):
            rmap = row_map(rows)
            for theta in grid:
                for kind in KINDS:
                    row, exact = rmap[(theta, kind)], exact_sd(model, kind, theta)
                    off = row.mean_sd / exact - 1
                    assert abs(off) <= sd_allowance(row, exact), (model, theta, kind, off)

    def test_are_matches_exact_efficiency(self, ar1_study, ma1_study):
        # are = (full mean sd / kind mean sd)^2, and the exact efficiency is
        # the same ratio of exact sds, so are lies where the two mean sds'
        # allowances put it
        for model, (rows, _, _), grid in (("ar1", ar1_study, AR_GRID),
                                          ("ma1", ma1_study, MA_GRID)):
            rmap = row_map(rows)
            for theta in grid:
                full = sd_allowance(rmap[(theta, "full")], exact_sd(model, "full", theta))
                for kind in KINDS:
                    row = rmap[(theta, kind)]
                    own = sd_allowance(row, exact_sd(model, kind, theta))
                    eff = (exact_wishart_efficiency(model, theta) if kind == "hyv-wishart"
                           else exact_efficiency(model, kind, theta)[0])
                    lo, hi = eff * (1 - full)**2 / (1 + own)**2, eff * (1 + full)**2 / (1 - own)**2
                    assert lo <= row.are <= hi, (model, theta, kind, row.are, eff)

    def test_are_ordering(self, ar1_study, ma1_study):
        ar = row_map(ar1_study[0])
        ma = row_map(ma1_study[0])
        assert ar[(0.9, "pairwise")].are > ar[(0.9, "hyv")].are > ar[(0.9, "hyv-wishart")].are
        assert ma[(0.9, "hyv")].are > ma[(0.9, "hyv-wishart")].are > ma[(0.9, "pairwise")].are

    def test_estimator_consistency(self, ar1_study, ma1_study):
        # mean estimate over 200 replicates within 3 standard errors of the
        # truth, every estimator, both models, moderate true values
        from minscore import fit

        for study, values in ((ar1_study, (-0.5, 0.0, 0.5)), (ma1_study, (0.0,))):
            _, details, _ = study
            for theta in values:
                for kind in EstimatorKind:
                    estimates, _ = details[(theta, kind)]
                    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
                    assert abs(np.mean(estimates) - theta) <= 3 * se, (theta, kind)
        # the MA(1) study grid has no +/-0.5, so run a lean mean-only pass
        for theta0 in (-0.5, 0.5):
            collected = {kind: [] for kind in EstimatorKind}
            for rep in range(200):
                seed = np.random.SeedSequence(entropy=SEED, spawn_key=(9, rep))
                y = sample_series("ma1", theta0, 200, 30, seed)
                for kind in EstimatorKind:
                    collected[kind].append(fit(y, kind, "ma1").estimate)
            for kind, estimates in collected.items():
                se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
                assert abs(np.mean(estimates) - theta0) <= 3 * se, (theta0, kind)
