"""Experiment drivers: nonlinear run, linear reference, refinement pair,
perturbation pair, and the shell-norm lemma checks.

Every driver writes its artifacts under an output directory, returns a
summary dict, and evaluates a named assertion set.  With asserting enabled
the process exit code is nonzero iff any assertion fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import energy, lp, records as rec
from .config import RunConfig
from .initial_data import make_initial_data
from .model import NspState
from .spectral import l2_norm, random_field
from .stepper import FriedrichsStepper

__all__ = [
    "ExperimentResult",
    "experiment_nonlinear",
    "experiment_linear",
    "experiment_refine",
    "experiment_perturb",
    "experiment_check_lemmas",
]


@dataclass
class ExperimentResult:
    exit_code: int
    summary: dict


def _write_json(out_dir, name: str, obj: dict) -> None:
    """Write `obj` to `name` under `out_dir` as indented JSON; a value json cannot encode goes through float()."""
    os.makedirs(out_dir, exist_ok=True)
    with rec.atomic_open(os.path.join(out_dir, name)) as fh:
        json.dump(obj, fh, indent=2, default=float)
        fh.write("\n")


def _finish(name: str, out_dir, summary: dict, assertions: list[tuple[str, bool, str]], do_assert: bool) -> ExperimentResult:
    summary["assertions"] = {label: bool(ok) for label, ok, _ in assertions}
    _write_json(out_dir, "summary.json", {"experiment": name, **summary})
    mode = "enforced" if do_assert else "reported"
    print(f"{name}: assertions ({mode}): {', '.join(summary['assertions'])}")
    failures = [(label, detail) for label, ok, detail in assertions if not ok]
    for label, detail in failures:
        print(f"FAIL {name}:{label}: {detail}")
    if do_assert and failures:
        return ExperimentResult(exit_code=1, summary=summary)
    return ExperimentResult(exit_code=0, summary=summary)


def _monitored_run(cfg: RunConfig, out_dir, linear_only: bool):
    """Run the stepper under an energy monitor and write its reports to records.ndjson.

    Returns the monitor and the trajectory.
    """
    # the initial data come first, so their transients do not sit on the stepper's set-up; `run`
    # gets the only reference and drops it once `prepare` has projected the state
    initial = [make_initial_data(cfg)]
    monitor = energy.EnergyMonitor(cfg.params)
    stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper, linear_only=linear_only)
    traj = stepper.run(initial.pop(), monitor=monitor, stride=cfg.monitor_stride)
    os.makedirs(out_dir, exist_ok=True)
    rec.write_records(traj.records, os.path.join(out_dir, "records.ndjson"))
    return monitor, traj


def _write_rows(out_dir, name: str, rows: list[dict]) -> None:
    """Write `rows` to `name` under `out_dir`, one JSON object per line."""
    os.makedirs(out_dir, exist_ok=True)
    with rec.atomic_open(os.path.join(out_dir, name)) as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------


def experiment_nonlinear(cfg: RunConfig, out_dir, do_assert: bool = False) -> ExperimentResult:
    monitor, traj = _monitored_run(cfg, out_dir, linear_only=False)

    # the initial data carry no mean (their zero mode lies outside the truncation annulus), so a
    # zero mode of the final h, c or I is drift
    mass_defect = float(np.max(np.abs(traj.final_state.x.zero_mode())))
    v_series = [r.v_accum for r in traj.records]
    verdict = energy.global_bound_check(traj.records, monitor.e0, cfg.bound)

    summary = {
        "e0": monitor.e0,
        "max_e_ratio": verdict.max_ratio,
        "bound_ratio": verdict.threshold_ratio,
        "m_empirical": traj.records[-1].prim_ratio,
        "min_density": traj.flags.min_density,
        "guard_ever_active": traj.flags.guard_active,
        "mass_defect": mass_defect,
    }
    assertions = [
        ("mass_conservation", mass_defect <= 1e-12, f"defect {mass_defect:.3e}"),
        ("density_positive", traj.flags.min_density > 0, f"min density {traj.flags.min_density:.3e}"),
        ("v_nondecreasing", all(b >= a for a, b in zip(v_series, v_series[1:])), "V decreased"),
        ("global_bound", verdict.passed, f"ratio {verdict.max_ratio:.3f} > {verdict.threshold_ratio:.3f}"),
    ]
    return _finish("nonlinear", out_dir, summary, assertions, do_assert)


def experiment_linear(cfg: RunConfig, out_dir, do_assert: bool = False) -> ExperimentResult:
    _, traj = _monitored_run(cfg, out_dir, linear_only=True)

    c_fit = energy.fit_damping_constant(traj.records)
    margins = energy.damping_margins(traj.records, c_fit)
    max_margin = max(margins.values())
    envelopes_ok = energy.envelopes_nonincreasing(traj.records)
    rate_bound = energy.linear_decay_rate_bound(cfg.grid, cfg.params)

    summary = {
        "c_fit": c_fit,
        "max_margin": max_margin,
        "per_mode_rate_bound": rate_bound,
        "margins": {str(k): v for k, v in margins.items()},
    }
    if cfg.k_weight != 0.0:
        weighted = energy.convection_weighted(traj.records, cfg.k_weight, "e_value")
        summary["k_weight"] = cfg.k_weight
        summary["max_weighted_e"] = float(np.max(weighted))
    assertions = [
        ("c_fit_positive", c_fit > 0, f"c_fit = {c_fit:.3e}"),
        ("damping_margins", max_margin <= 1e-8, f"max margin {max_margin:.3e}"),
        ("envelopes", envelopes_ok, "a shell envelope increased"),
    ]
    return _finish("linear", out_dir, summary, assertions, do_assert)


def experiment_refine(cfg: RunConfig, out_dir, do_assert: bool = False) -> ExperimentResult:
    cfg_fine = dataclasses.replace(
        cfg, stepper=dataclasses.replace(cfg.stepper, n=2.0 * cfg.stepper.n)
    )
    state_a = make_initial_data(cfg)
    state_b = make_initial_data(cfg_fine)

    idx_h, idx_u = energy.e0_indices(cfg.grid.dim)
    stepper_a = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
    stepper_b = FriedrichsStepper(cfg_fine.grid, cfg_fine.params, cfg_fine.stepper)
    rows = []
    # zip advances each stepper a stride in turn; they share no state, so the
    # pairs are the same instants on a shared clock
    for sa, sb in zip(
        stepper_a.iterate(state_a, cfg.monitor_stride), stepper_b.iterate(state_b, cfg.monitor_stride)
    ):
        dh, du = sb.h - sa.h, sb.velocity() - sa.velocity()
        rows.append({"t": sa.t, "dist_h": lp.hybrid_norm(dh, idx_h), "dist_u": lp.hybrid_norm(du, idx_u)})

    _write_rows(out_dir, "distance.ndjson", rows)

    max_u = max(row["dist_u"] for row in rows)
    max_h = max(row["dist_h"] for row in rows)
    summary = {"n": cfg.stepper.n, "n_fine": cfg_fine.stepper.n, "max_dist_u": max_u, "max_dist_h": max_h}
    return _finish("refine", out_dir, summary, [], do_assert)


def experiment_perturb(cfg: RunConfig, out_dir, do_assert: bool = False) -> ExperimentResult:
    delta = cfg.perturb_delta
    state_a = make_initial_data(cfg)
    if delta > 0.0:
        pert_cfg = dataclasses.replace(cfg, amplitude=delta, seed=cfg.seed + 1)
        pert = make_initial_data(pert_cfg)
        state_b = NspState(state_a.x + pert.x)
    else:
        state_b = state_a  # `prepare` projects into a fresh stack, so neither stepper writes it

    diff_monitor = energy.EnergyMonitor(cfg.params)
    stepper_a = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
    stepper_b = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
    rows = []
    for sa, sb in zip(
        stepper_a.iterate(state_a, cfg.monitor_stride), stepper_b.iterate(state_b, cfg.monitor_stride)
    ):
        diff = NspState(sb.x - sa.x, sa.t)
        diff_e = diff_monitor(diff).e_value
        rows.append({"t": sa.t, "diff_e": diff_e, "normalized": diff_e / delta if delta > 0 else diff_e})

    _write_rows(out_dir, "difference.ndjson", rows)

    max_diff = max(row["diff_e"] for row in rows)
    max_norm = max(row["normalized"] for row in rows)
    summary = {"delta": delta, "max_diff_e": max_diff, "max_normalized": max_norm}
    assertions = [("zero_delta_identically_zero", max_diff == 0.0, f"max diff {max_diff:.3e}")] if delta == 0.0 else []
    return _finish("perturb", out_dir, summary, assertions, do_assert)


# ---------------------------------------------------------------------------


def experiment_check_lemmas(cfg: RunConfig, out_dir, do_assert: bool = False) -> ExperimentResult:
    grid = cfg.grid
    rng = np.random.default_rng(cfg.seed)
    filters = lp.shell_filters(grid)
    nz = grid.lam > 0

    partition = float(np.max(np.abs(filters.masks.sum(axis=0)[nz] - 1.0)))

    recon_defect = 0.0
    bernstein_ok = True
    for _ in range(16):
        f = random_field(grid, 1, rng)
        total = sum(lp.dyadic_block(f, k).coef for k in filters.ks)
        recon_defect = max(recon_defect, float(np.max(np.abs(total - f.coef)) / np.max(np.abs(f.coef))))
        for k in filters.ks:
            try:
                ratio = lp.bernstein_ratio(f, k)
            except ValueError:
                continue
            if not (0.75 * 2.0**k <= ratio <= (8.0 / 3.0) * 2.0**k):
                bernstein_ok = False

    overlap = 0.0
    probe = random_field(grid, 1, np.random.default_rng(cfg.seed + 1))
    for k in filters.ks:
        for j in filters.ks:
            if abs(j - k) >= 2:
                twice = lp.dyadic_block(lp.dyadic_block(probe, k), j)
                overlap = max(overlap, l2_norm(twice))

    s_idx = 0.5 * grid.dim
    f = random_field(grid, 1, rng)
    # besov_norm reads the shell spectrum; sum the block norms independently
    direct = sum(2.0 ** (k * s_idx) * l2_norm(lp.dyadic_block(f, k)) for k in filters.ks)
    same = abs(lp.besov_norm(f, s_idx) - direct) / direct
    embed = lp.hybrid_norm(f, (s_idx, -1.0)) / lp.hybrid_norm(f, (s_idx - 1.0, 1.0))

    product_max = 0.0
    convolution_max = 0.0
    for _ in range(8):
        a = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        b = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        product_max = max(product_max, lp.product_estimate_ratio(a, b, (s_idx - 1.0, s_idx)))
        convolution_max = max(
            convolution_max,
            lp.product_convolution_ratio(a, b, (s_idx - 0.5, s_idx - 0.5), (s_idx - 0.5, s_idx - 0.5)),
        )

    composition_max = 0.0
    rho_bar = cfg.params.rho_bar
    for _ in range(8):
        f = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        cap = 0.4 * rho_bar / max(np.max(np.abs(f.to_physical())), 1e-300)
        composition_max = max(composition_max, lp.composition_check(f * cap, s_idx, rho_bar))

    summary = {
        "partition_defect": partition,
        "reconstruction_defect": recon_defect,
        "shell_overlap": overlap,
        "hybrid_vs_besov": same,
        "embedding_ratio": embed,
        "product_ratio_max": product_max,
        "product_convolution_ratio_max": convolution_max,
        "composition_ratio_max": composition_max,
    }
    _write_json(out_dir, "lemmas.json", summary)

    assertions = [
        ("partition_of_unity", partition <= 1e-12, f"defect {partition:.3e}"),
        ("reconstruction", recon_defect <= 1e-10, f"defect {recon_defect:.3e}"),
        ("shell_overlap", overlap <= 1e-12, f"overlap {overlap:.3e}"),
        ("bernstein_bounds", bernstein_ok, "a shell ratio escaped its band"),
        ("hybrid_equals_besov", same <= 1e-12, f"relative difference {same:.3e}"),
        ("hybrid_embedding", embed <= 1.0 + 1e-12, f"ratio {embed:.6f}"),
    ]
    return _finish("check-lemmas", out_dir, summary, assertions, do_assert)
