"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a `criterion NN` line with its measured quantities; the
pytest -v status line is the pass/fail verdict for that criterion.
"""

import time

import numpy as np
from scipy.linalg import expm

from nspbox.config import parse_config
from nspbox.energy import (
    EnergyMonitor,
    compute_constants,
    damping_margins,
    envelopes_nonincreasing,
    feasibility_margins,
    fit_damping_constant,
    global_bound_check,
)
from nspbox.experiments import experiment_perturb, experiment_refine
from nspbox.initial_data import make_initial_data
from nspbox.lp import dyadic_block, bernstein_ratio, hybrid_norm, shell_filters
from nspbox.model import FluidParams
from nspbox.spectral import (
    SpectralField,
    helmholtz_decompose,
    helmholtz_recompose,
    l2_norm,
    random_field,
)
from nspbox.stepper import FriedrichsStepper, StepperConfig

from analysis import divergence, inner, smoothing_integral, state_of
from conftest import antisym_divergence
from frozen import FROZEN
from test_model import small_state

PARAMS = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)


def sweep_params():
    for mu in np.logspace(-1.0, 1.0, 10):
        for lam in np.linspace(-0.66 * mu, 2.0 * mu, 10):
            for rho in np.logspace(-1.0, 1.0, 10):
                yield FluidParams(mu=float(mu), lam=float(lam), rho_bar=float(rho), dim=3)


def form_matrix_entries(lam, k, consts, params):
    rho, beta = params.rho_bar, params.beta
    if k <= 0:
        q = lam**2
        return (1.0 + q) / rho, -consts.K1 * q, np.ones_like(q)
    hh = (lam + lam**3) / rho + beta * consts.K2 / rho**2 * lam**5
    return hh, -consts.K2 * lam**3, lam


def test_criterion_01_shell_decomposition_exactness(grid32):
    start = time.monotonic()
    filters = shell_filters(grid32)
    data_band = (grid32.lam > 0) & ~grid32.nyquist_mask
    partition = float(np.max(np.abs(filters.masks.sum(axis=0)[data_band] - 1.0)))
    assert partition < 1e-12

    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        f = random_field(grid32, 1, rng)
        total = sum(dyadic_block(f, k).coef for k in filters.ks)
        err = np.sqrt(np.sum(np.abs(total - f.coef) ** 2)) / l2_norm(f)
        worst = max(worst, float(err))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"criterion 01: reconstruction {worst:.2e}, partition {partition:.2e}, {elapsed:.1f}s")


def test_criterion_02_bernstein_bounds(grid32):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    ks = list(shell_filters(grid32).ks)
    checked = 0
    for _ in range(100):
        f = random_field(grid32, 1, rng)
        for k in ks:
            try:
                ratio = bernstein_ratio(f, k)
            except ValueError:
                continue
            assert 0.75 * 2.0**k <= ratio <= (8.0 / 3.0) * 2.0**k
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 02: {checked} shell ratios inside their bands, {elapsed:.1f}s")


def test_criterion_03_helmholtz_split(grid32):
    start = time.monotonic()
    rng = np.random.default_rng(102)
    worst_rt, worst_orth, worst_dd = 0.0, 0.0, 0.0
    for _ in range(100):
        u = random_field(grid32, 3, rng)
        c, I = helmholtz_decompose(u)
        back = helmholtz_recompose(c, I)
        worst_rt = max(worst_rt, l2_norm(back - u) / l2_norm(u))

        grad_part = helmholtz_recompose(c, SpectralField.zeros(grid32, 3))
        sol_part = helmholtz_recompose(SpectralField.zeros(grid32), I)
        denom = max(l2_norm(grad_part) * l2_norm(sol_part), 1e-300)
        worst_orth = max(worst_orth, abs(inner(grad_part, sol_part)) / denom)

        dd = divergence(antisym_divergence(I))
        worst_dd = max(worst_dd, l2_norm(dd) / max(l2_norm(I), 1e-300))
    elapsed = time.monotonic() - start
    assert worst_rt < 1e-10
    assert worst_orth < 1e-10
    assert worst_dd < 1e-12
    assert elapsed < 10.0
    print(
        f"criterion 03: round trip {worst_rt:.2e}, orthogonality {worst_orth:.2e}, "
        f"div div I {worst_dd:.2e}, {elapsed:.1f}s"
    )


def test_criterion_04_estimate_constants():
    consts = compute_constants(PARAMS)
    assert consts.M1 == 0.25
    assert consts.M2 == 0.15625
    assert consts.K1 == 0.125
    assert consts.M3 == 1.0
    assert consts.K2 == 0.5

    checked = 0
    for params in sweep_params():
        margins = feasibility_margins(params, compute_constants(params))
        assert all(m > 0 for m in margins.values()), (params, margins)
        checked += 1
    assert checked == 1000
    print(f"criterion 04: reference constants exact, feasibility holds at {checked} parameter points")


def test_criterion_05_energy_form_positivity(grid3):
    worst_eig = np.inf
    for params in sweep_params():
        consts = compute_constants(params)
        for k in range(-6, 7):
            lam = np.linspace(0.75 * 2.0**k, (8.0 / 3.0) * 2.0**k, 50)
            a, b, c = form_matrix_entries(lam, k, consts, params)
            half_tr = 0.5 * (a + c)
            disc = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
            worst_eig = min(worst_eig, float(np.min(half_tr - disc)))
    assert worst_eig >= -1e-12

    rng = np.random.default_rng(103)
    worst_alpha = np.inf
    monitor = EnergyMonitor(PARAMS)  # every sample at t = 0; alpha_k^2 reads the sample alone
    for i in range(1000):
        h = random_field(grid3, 1, rng)
        c = random_field(grid3, 1, rng)
        scale = 2.0 ** ((i % 9) - 4)
        s = state_of(
            h=h * (scale / l2_norm(h)),
            c=c * (1.0 / l2_norm(c)),
            I=SpectralField.zeros(grid3, 3),
        )
        for alpha_sq in monitor(s).alpha_sq.tolist():
            worst_alpha = min(worst_alpha, alpha_sq / scale**2)
    assert worst_alpha >= -1e-12
    print(f"criterion 05: sweep min eigenvalue {worst_eig:.2e}, min alpha^2 (scaled) {worst_alpha:.2e}")


def test_criterion_06_linear_damping(grid32):
    start = time.monotonic()
    rng = np.random.default_rng(104)
    h = random_field(grid32, 1, rng)
    c = random_field(grid32, 1, rng)
    s0 = state_of(h=h * (1.0 / l2_norm(h)), c=c * (0.5 / l2_norm(c)), I=SpectralField.zeros(grid32, 3))

    dt, n_steps, stride = 1e-3, 1000, 10
    cfg = StepperConfig(dt=dt, n=float(grid32.size), t_end=n_steps * dt)
    stepper = FriedrichsStepper(grid32, PARAMS, cfg, linear_only=True)
    monitor = EnergyMonitor(PARAMS)

    sample_modes = [(1, 0, 0), (2, 1, 0), (4, 3, 1), (9, 2, 2)]
    captured = {m: [] for m in sample_modes}
    s = stepper.prepare(s0)
    reports = [monitor(s)]
    for m in sample_modes:
        captured[m].append((s.h.coef[0][m], s.c.coef[0][m]))
    for i in range(n_steps):
        s = stepper.step(s)
        for m in sample_modes:
            captured[m].append((s.h.coef[0][m], s.c.coef[0][m]))
        if (i + 1) % stride == 0:
            reports.append(monitor(s))

    worst_mode_err = 0.0
    for m in sample_modes:
        q = float(grid32.lam_sq[m])
        A = np.array([[0.0, -PARAMS.rho_bar], [q + 1.0, -PARAMS.nu_c * q]])
        z0 = np.array(captured[m][0])
        scale = max(np.max(np.abs(z0)), 1e-300)
        for step_idx in range(0, n_steps + 1, 50):
            exact = expm(step_idx * dt * A) @ z0
            got = np.array(captured[m][step_idx])
            worst_mode_err = max(worst_mode_err, float(np.max(np.abs(got - exact)) / scale))
    assert worst_mode_err < 1e-9

    c_fit = fit_damping_constant(reports)
    assert c_fit > 0.0
    margins = damping_margins(reports, c_fit)
    assert max(margins.values()) <= 1e-8
    assert envelopes_nonincreasing(reports)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 06: mode error {worst_mode_err:.2e}, c_fit {c_fit:.3f}, "
        f"max margin {max(margins.values()):.2e}, {elapsed:.1f}s"
    )


def test_criterion_07_heat_smoothing(grid32):
    # solenoidal part: exact per-mode heat envelope
    rng = np.random.default_rng(105)
    u = random_field(grid32, 3, rng, xi_lo=1.5)
    _, I = helmholtz_decompose(u)
    s0 = state_of(h=SpectralField.zeros(grid32), c=SpectralField.zeros(grid32), I=I)
    cfg = StepperConfig(dt=1e-3, n=float(grid32.size), t_end=0.5)

    checked_times = []

    def capture(state, flags):
        checked_times.append((state.t, state.I.coef.copy()))
        return None

    traj = FriedrichsStepper(grid32, PARAMS, cfg, linear_only=True).run(s0, monitor=capture, stride=100)
    worst = 0.0
    scale = np.max(np.abs(s0.I.coef))
    for t, coef in checked_times:
        envelope = s0.I.coef * np.exp(-PARAMS.nu_i * grid32.lam_sq * t)
        worst = max(worst, float(np.max(np.abs(coef - envelope)) / scale))
    assert worst < 1e-9

    # gradient part: time-integrated high-shell norm under the frozen majorant
    rng = np.random.default_rng(77)
    c0 = random_field(grid32, 1, rng, xi_lo=2.0)
    s0 = state_of(h=SpectralField.zeros(grid32), c=c0, I=SpectralField.zeros(grid32, 3))
    cfg = StepperConfig(dt=1e-3, n=float(grid32.size), t_end=1.0)
    monitor = EnergyMonitor(PARAMS)
    traj = FriedrichsStepper(grid32, PARAMS, cfg, linear_only=True).run(s0, monitor=monitor, stride=5)
    reg = 1.5
    integral = smoothing_integral(traj.records, reg)
    initial = hybrid_norm(s0.h, (reg, reg + 1.5)) + hybrid_norm(s0.c, (reg - 1.0, reg - 0.5))
    majorant = FROZEN["smoothing_majorant_constant"] * initial
    assert np.isfinite(integral)
    assert 0.0 < integral <= majorant
    print(
        f"criterion 07: heat envelope error {worst:.2e}, smoothing integral "
        f"{integral:.4f} <= majorant {majorant:.4f}"
    )


def test_criterion_08_small_data_boundedness():
    start = time.monotonic()
    text = "\n".join(
        [
            "grid.N = 3",
            "grid.M = 32",
            "stepper.dt = 0.02",
            "stepper.t_end = 20.0",
            "init.kind = random-band",
            "init.amplitude = 1e-3",
            "init.seed = 8",
            "init.band_lo = 0",
            "init.band_hi = 2",
            "monitor.stride = 25",
        ]
    )
    cfg = parse_config(text)
    state0 = make_initial_data(cfg)
    monitor = EnergyMonitor(cfg.params)
    stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
    traj = stepper.run(state0, monitor=monitor, stride=cfg.monitor_stride)

    verdict = global_bound_check(traj.records, monitor.e0, cfg.bound)
    assert verdict.max_ratio <= FROZEN["small_data_e_ratio_bound"]

    # non-exploding tail: energy increments die off along the run
    es = [r.e_value for r in traj.records]
    incr = np.diff(es)
    quarter = len(incr) // 4
    assert max(incr[-quarter:]) < 0.01 * max(incr[:quarter])

    mass = max(float(np.max(np.abs(f.zero_mode()))) for s in (state0, traj.final_state) for f in (s.h, s.c, s.I))
    assert mass <= 1e-12
    assert traj.flags.min_density > 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"criterion 08: max E ratio {verdict.max_ratio:.3f} <= {FROZEN['small_data_e_ratio_bound']:.3f}, "
        f"mass defect {mass:.1e}, min density {traj.flags.min_density:.4f}, {elapsed:.0f}s"
    )


def test_criterion_09_truncation_refinement(tmp_path):
    base = [
        "grid.N = 2",
        "grid.M = 32",
        "stepper.dt = 5e-3",
        "stepper.t_end = 0.5",
        "init.kind = smooth-random",
        "init.amplitude = 5e-3",
        "init.seed = 9",
        "monitor.stride = 20",
    ]
    distances = []
    for n in (2.0, 4.0, 8.0):
        cfg = parse_config("\n".join(base + [f"stepper.n = {n}"]))
        result = experiment_refine(cfg, tmp_path / f"n{int(n)}", do_assert=False)
        distances.append(result.summary["max_dist_u"])
    assert distances[0] >= 2.0 * distances[1]
    assert distances[1] >= 2.0 * distances[2]
    assert distances[2] > 0.0
    print(
        "criterion 09: distances per doubling "
        + " -> ".join(f"{d:.3e}" for d in distances)
        + f" (ratios {distances[0]/distances[1]:.1f}, {distances[1]/distances[2]:.1f})"
    )


def test_criterion_10_perturbation_stability(tmp_path):
    import json

    base = [
        "grid.N = 3",
        "grid.M = 16",
        "stepper.dt = 0.02",
        "stepper.t_end = 5.0",
        "init.kind = random-band",
        "init.amplitude = 1e-3",
        "init.seed = 10",
        "init.band_hi = 1",
        "monitor.stride = 25",
    ]

    series = {}
    for delta in (1e-6, 1e-7, 0.0):
        cfg = parse_config("\n".join(base + [f"perturb.delta = {delta}"]))
        result = experiment_perturb(cfg, tmp_path / f"d{delta}", do_assert=True)
        assert result.exit_code == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / f"d{delta}" / "difference.ndjson").read_text().splitlines()
        ]
        series[delta] = rows

    assert all(row["diff_e"] == 0.0 for row in series[0.0])

    ratios = []
    for r6, r7 in zip(series[1e-6], series[1e-7]):
        assert r6["t"] == r7["t"]
        if r6["t"] == 0.0:
            continue
        ratios.append(r6["normalized"] / r7["normalized"])
    assert all(0.5 <= r <= 2.0 for r in ratios)
    print(
        f"criterion 10: zero-delta series identically zero; response ratio range "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] within [0.5, 2]"
    )


def test_criterion_11_integrator_order(grid3):
    t_end = 0.05
    finals = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        cfg = StepperConfig(dt=dt, n=float(grid3.size), t_end=t_end)
        s0 = small_state(grid3, seed=106, amp=0.05)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg)
        finals.append(stepper.run(s0, stride=10**9).final_state)
    e1 = (
        l2_norm(finals[0].h - finals[1].h)
        + l2_norm(finals[0].c - finals[1].c)
        + l2_norm(finals[0].I - finals[1].I)
    )
    e2 = (
        l2_norm(finals[1].h - finals[2].h)
        + l2_norm(finals[1].c - finals[2].c)
        + l2_norm(finals[1].I - finals[2].I)
    )
    order = float(np.log2(e1 / e2))
    assert order >= 1.9
    print(f"criterion 11: measured self-convergence order {order:.3f} >= 1.9")
