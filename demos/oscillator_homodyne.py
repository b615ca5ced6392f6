"""Rotating-quadrature measurement of a displaced squeezed oscillator state.

The state D(alpha) S(z) |0> with alpha = 2+i, z = 0.5+0.5i evolves under
H = hbar w (N + 1/2) in a number basis truncated at s = 20.  The measured
observable rotates in phase space: A(t) = cos(theta) x + sin(theta) p with
theta(t) = cos t, the homodyne quadrature at a swept local-oscillator phase.

Showcased here:

  * the rate bound (mu_dot^2 + sigma_dot^2) <= <v^2> holds at every step;
  * propagation is exactly norm-preserving (closed-form route);
  * the truncation diagnostics: the default cutoff reproduces the physics
    qualitatively but holds ~1e-4 tail mass in its top two levels, so the
    reported channels shift at the 1e-2 level when the cutoff doubles -
    raise `s` for converged numbers.

Optionally saves `homodyne_bound_polar.png` when matplotlib is importable.
"""

import json

import numpy as np

from fluctdyn.scenarios import ScenarioConfig, default_config, run_scenario


def run_with_cutoff(s, n_steps=4000):
    raw = {
        "name": "example3",
        "params": {"alpha": [2.0, 1.0], "z": [0.5, 0.5], "s": s},
        "grid": {"t0": 0.0, "t1": 2.0 * np.pi, "n_steps": n_steps},
    }
    return run_scenario(ScenarioConfig.from_dict(raw))


def main():
    rep = run_scenario(default_config("example3"))
    residuals = rep.series.residual_r2
    print("--- rotating quadrature on D(2+i) S(0.5+0.5i) |0>, s = 20 ---")
    print(f"  min residual      : {residuals.min():.3e}  (bound preserved everywhere)")
    print(f"  max norm defect   : {rep.max_norm_defect:.3e}")
    print(f"  top-2-level mass  : {rep.tail_mass:.3e}")
    for w in rep.warnings:
        print(f"  warning           : {w}")

    print("--- cutoff sweep (channels vs s; coarse grid) ---")
    base = run_with_cutoff(20, n_steps=400)
    print(f"  {'s':>4} {'min residual':>14} {'max |d v2|':>12} {'tail mass':>11}")
    for s in (20, 30, 40, 60):
        repc = run_with_cutoff(s, n_steps=400)
        dv2 = np.max(np.abs(base.series.v2_mean - repc.series.v2_mean))
        print(f"  {s:>4} {repc.min_residual:>14.3e} {dv2:>12.3e} {repc.tail_mass:>11.3e}")
    print("  -> channel drift vs s=20 stabilizes only once the squeezed tail clears the cutoff.")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available; skipping the figure)")
        return

    theta = np.cos(rep.series.t)
    lhs = rep.series.mu_dot**2 + rep.series.sigma_dot**2
    v2 = rep.series.v2_mean
    fig = plt.figure(figsize=(6, 6))
    ax = fig.add_subplot(111, projection="polar")
    ax.plot(theta, v2, "--", label=r"$\langle v_A^2\rangle$")
    ax.plot(theta, lhs, "-", label=r"$\dot\mu_A^2+\dot\sigma_A^2$")
    ax.set_title("rate bound vs quadrature angle")
    ax.legend(loc="upper right")
    fig.savefig("homodyne_bound_polar.png", dpi=120)
    print("wrote homodyne_bound_polar.png")


if __name__ == "__main__":
    main()
