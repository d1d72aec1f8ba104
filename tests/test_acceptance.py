"""End-to-end acceptance suite.

One test per acceptance criterion, in order; each prints a single
pass/fail line with its measured quantities. Protocol constants
(steps, horizons, radii) were pilot-calibrated once and are frozen here.
The full suite took 92 to 106 s in two runs on a shared 2-vCPU Xeon host,
criterion 6 the longest at 35 to 40 s.
"""
import math
import time

import numpy as np

from ncrs.diagnostics import check_descent_ncrs, check_vote_error, run_default_suite
from ncrs.geometry import RngStream, stream_id_for
from ncrs.harness import default_config, fit_scaling, run_one, run_sweep, running_average
from ncrs.objectives import InnerFunction, random_ridge_objective
from ncrs.oracles import ConfidenceOracle, LinkFunction, rho_inverse

SEEDS = (1, 2, 3, 4, 5)
MASTER = 314159


def _report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _protocol_config(d, k, advantage, inner="quadratic_cosine"):
    # shared sweep protocol: relative target, auto horizon, theory step
    cfg = default_config()
    cfg["problem"].update(d=d, k=k, inner=inner)
    cfg["oracle"]["advantage"] = advantage
    cfg["algorithm"].update(horizon="auto", alpha0="auto")
    return cfg


def _iterations_cell(d, k, advantage, target=None):
    cfg = _protocol_config(d, k, advantage)
    if target is not None:
        cfg["target"]["value"] = target
    targets = []
    for seed in SEEDS:
        _, summary = run_one(cfg, master_seed=seed)
        assert summary.iterations_to_target is not None, (
            f"run did not reach its target: d={d} k={k} p={advantage} "
            f"target={cfg['target']['value']} seed={seed}"
        )
        targets.append(summary.iterations_to_target)
    return _mean_se(targets)


def test_criterion_01_identity_suite_full_scale():
    t0 = time.perf_counter()
    reports = run_default_suite(2026, scale=1.0)
    wall = time.perf_counter() - t0
    by_name = {r.name: r for r in reports}
    required = [
        "projector_moments", "cross_moment_in_range", "cross_moment_general",
        "halfnormal", "link_reduction_logistic", "link_reduction_probit",
        "link_reduction_arctan", "grad_fd_pure_quadratic",
        "grad_fd_quadratic_cosine", "grad_fd_bounded_well", "grad_fd_nuisance",
    ]
    missing = [name for name in required if name not in by_name]
    failed = [r.name for r in reports if not r.passed]
    ok = not missing and not failed and wall < 600.0
    line = _report(1, ok, f"{len(reports)} checks, {len(failed)} failed, {wall:.0f}s")
    assert not missing, f"suite is missing required checks: {missing}"
    assert not failed, f"{line}; failing checks: {failed}"
    assert wall < 600.0, line


def test_criterion_02_descent_inequalities_random_configs():
    n = 25_000
    failures = []
    for idx in range(20):
        cfg_rng = RngStream(MASTER, stream_id_for(idx, "acc2-config"))
        d, k, m = 25, 3, 2
        radius = float(cfg_rng.uniform(0.5, 4.0)) * math.sqrt(k)
        alpha = float(np.exp(cfg_rng.uniform(math.log(1e-3), math.log(0.1))))
        for advantage in (0.1, 0.5):
            obj = random_ridge_objective(
                RngStream(MASTER, stream_id_for(idx, "acc2-ridge")),
                d=d, k=k, inner=InnerFunction("quadratic_cosine"), tau=0.0,
            )
            theta = radius * np.asarray(cfg_rng.standard_normal(d)) / math.sqrt(d)
            mc = RngStream(MASTER, stream_id_for(idx, f"acc2-mc-{advantage}"))
            rep = check_descent_ncrs(obj, advantage, theta, alpha, n, mc, se_band=4.0)
            if not rep.passed:
                failures.append(("ridge", idx, advantage, rep.estimates, rep.theory))
        for tau in (0.1, 0.3):
            obj = random_ridge_objective(
                RngStream(MASTER, stream_id_for(idx, f"acc2-near-{tau}")),
                d=d, k=k, inner=InnerFunction("quadratic_cosine"),
                tau=tau, nuisance_dim=m,
            )
            theta = radius * np.asarray(cfg_rng.standard_normal(d)) / math.sqrt(d)
            mc = RngStream(MASTER, stream_id_for(idx, f"acc2-mc-near-{tau}"))
            rep = check_descent_ncrs(obj, 0.5, theta, alpha, n, mc, se_band=4.0)
            if not rep.passed:
                failures.append(("nearly_ridge", idx, tau, rep.estimates, rep.theory))
    line = _report(2, not failures, f"80 descent checks, {len(failures)} failed")
    assert not failures, f"{line}; first failures: {failures[:3]}"


def test_criterion_03_vote_error_bound_grid():
    link = LinkFunction("logistic", 1.0)
    failures = []
    for rho_target in (0.05, 0.2):
        gap = rho_inverse(link, rho_target)
        for votes in (1, 5, 25, 125):
            obj = random_ridge_objective(
                RngStream(MASTER, stream_id_for(0, f"acc3-obj-{rho_target}-{votes}")),
                d=8, k=2, inner=InnerFunction("pure_quadratic"), tau=0.0,
            )
            oracle = ConfidenceOracle(
                obj, "engage_abstain", link,
                RngStream(MASTER, stream_id_for(votes, f"acc3-{rho_target}")),
            )
            rep = check_vote_error(oracle, gap, votes, trials=100_000)
            if not rep.passed:
                failures.append((rho_target, votes,
                                 rep.estimates["wrong_decision_freq"],
                                 rep.theory["bound"]))
    line = _report(3, not failures, f"8 cells at 1e5 trials, {len(failures)} failed")
    assert not failures, f"{line}; failures: {failures}"


def test_criterion_04_iterations_scale_with_intrinsic_dimension():
    t0 = time.perf_counter()
    cells = [(float(k),) + _iterations_cell(200, k, 0.5) for k in (5, 10, 20, 40)]
    slope, _, r2 = fit_scaling(cells)
    wall = time.perf_counter() - t0
    ok = 0.7 <= slope <= 1.4 and r2 >= 0.9 and wall < 1800.0
    line = _report(4, ok, f"slope={slope:.3f} r2={r2:.3f} wall={wall:.0f}s")
    assert 0.7 <= slope <= 1.4, line
    assert r2 >= 0.9, line
    assert wall < 1800.0, line


def test_criterion_05_iterations_ignore_ambient_dimension():
    cells = [(float(d),) + _iterations_cell(d, 10, 0.5) for d in (50, 200, 800)]
    slope, _, r2 = fit_scaling(cells)
    overlaps = []
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            _, mi, si = cells[i]
            _, mj, sj = cells[j]
            overlaps.append(max(mi - 2 * si, mj - 2 * sj) <= min(mi + 2 * si, mj + 2 * sj))
    ok = -0.2 <= slope <= 0.2 and all(overlaps)
    line = _report(5, ok, f"slope={slope:.3f} pairwise 2-SE overlap={all(overlaps)}")
    assert -0.2 <= slope <= 0.2, line
    assert all(overlaps), line + f"; cells={cells}"


def test_criterion_06_iterations_scale_with_inverse_square_advantage():
    cells = [(p,) + _iterations_cell(100, 10, p) for p in (0.125, 0.25, 0.5)]
    slope, _, r2 = fit_scaling(cells)
    ok = -2.6 <= slope <= -1.4
    line = _report(6, ok, f"slope={slope:.3f} r2={r2:.3f}")
    assert ok, line + f"; cells={cells}"


def test_criterion_07_vote_count_improves_fixed_budget_quality():
    rows = []
    for votes in (1, 4, 16, 64):
        finals = []
        for seed in SEEDS:
            cfg = default_config()
            cfg["problem"].update(d=50, k=5, inner="quadratic_cosine")
            cfg["oracle"]["kind"] = "engage_abstain"
            cfg["algorithm"].update(kind="ncrs_vote", alpha=0.02, votes=votes,
                                    horizon=15_000)
            _, summary = run_one(cfg, master_seed=seed)
            finals.append(summary.final_running_avg)
        rows.append((votes,) + _mean_se(finals))
    monotone = []
    for (_, m0, s0), (_, m1, s1) in zip(rows, rows[1:]):
        monotone.append(m1 <= m0 + math.sqrt(s0**2 + s1**2))
    means = " > ".join(f"{m:.3f}" for _, m, _ in rows)
    ok = all(monotone)
    line = _report(7, ok, f"final avg grad norm by votes: {means}")
    assert ok, line + f"; rows={rows}"


def test_criterion_08_nuisance_scale_raises_the_achievable_floor():
    rows = []
    for tau in (0.0, 0.1, 0.3):
        bests = []
        for seed in SEEDS:
            cfg = default_config()
            cfg["problem"].update(d=100, k=10, tau=tau, init_radius_scale=0.3,
                                  nuisance_dim=5 if tau > 0 else 0)
            cfg["algorithm"].update(schedule="constant", alpha0=0.002,
                                    horizon=40_000)
            traj, _ = run_one(cfg, master_seed=seed)
            bests.append(float(np.min(running_average(traj.grad_norms))))
        rows.append((tau,) + _mean_se(bests))
    (_, m0, s0), (_, m1, _), (_, m2, s2) = rows
    ordered = m0 <= m1 <= m2
    separation = (m2 - m0) / math.sqrt(s0**2 + s2**2)
    ok = ordered and separation > 2.0
    line = _report(
        8, ok,
        f"best avg grad norm {m0:.4f} <= {m1:.4f} <= {m2:.4f}, "
        f"separation {separation:.1f} SE",
    )
    assert ordered, line + f"; rows={rows}"
    assert separation > 2.0, line


def test_criterion_09_two_point_baseline_smoothing_bias_floor():
    levels = {}
    for mu in (1e-4, 0.5):
        per_seed = []
        for seed in SEEDS:
            cfg = default_config()
            cfg["problem"].update(d=100, k=10)
            cfg["algorithm"].update(kind="rsgf", alpha=1.0 / 48.0, mu=mu,
                                    horizon=50_000)
            traj, _ = run_one(cfg, master_seed=seed)
            per_seed.append(float(np.mean(traj.grad_norms**2)))
        levels[mu] = _mean_se(per_seed)[0]
    ratio = levels[0.5] / levels[1e-4]
    ok = ratio >= 10.0
    line = _report(
        9, ok,
        f"avg squared grad {levels[0.5]:.4f} (mu=0.5) vs {levels[1e-4]:.4f} "
        f"(mu=1e-4), ratio {ratio:.1f}x",
    )
    assert ok, line


def test_criterion_10_sweeps_are_bit_deterministic_across_workers(tmp_path):
    cfg = default_config()
    cfg["problem"].update(d=50, k=5)
    cfg["algorithm"]["horizon"] = 2000
    cfg["sweep"] = {"advantage": [0.25, 0.5], "seeds": [1, 2, 3]}
    run_sweep(cfg, tmp_path / "serial", workers=1)
    run_sweep(cfg, tmp_path / "pool", workers=2)
    run_sweep(cfg, tmp_path / "pool_again", workers=2)
    ref = (tmp_path / "serial" / "aggregate.json").read_bytes()
    same_pool = (tmp_path / "pool" / "aggregate.json").read_bytes() == ref
    same_repeat = (tmp_path / "pool_again" / "aggregate.json").read_bytes() == ref
    csv_same = all(
        p.read_bytes() == (tmp_path / "pool" / p.relative_to(tmp_path / "serial")).read_bytes()
        for p in sorted((tmp_path / "serial").rglob("*.csv"))
    )
    ok = same_pool and same_repeat and csv_same
    line = _report(
        10, ok,
        f"aggregate workers1==workers2: {same_pool}, repeat: {same_repeat}, "
        f"per-run CSVs identical: {csv_same}",
    )
    assert ok, line


def test_criterion_11_iterations_scale_with_inverse_square_accuracy():
    """The paper's epsilon-law, T = O(1 / eps^2), through the whole recipe:
    horizon: auto and the theory step both scale with the relative target
    eps, so the mean iterations to reach it should fall as eps^-2.  The
    band is criterion 6's, fixed before this test was first run."""
    cells = [(eps,) + _iterations_cell(50, 5, 0.5, target=eps) for eps in (0.5, 0.35, 0.25)]
    slope, _, r2 = fit_scaling(cells)
    ok = -2.6 <= slope <= -1.4 and r2 >= 0.9
    line = _report(11, ok, f"slope={slope:.3f} r2={r2:.5f}")
    assert ok, line + f"; cells={cells}"
