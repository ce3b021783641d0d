"""Monte Carlo validation of the stationary law.

An ExactGaussian ensemble (exact in law per step) for the forced scalar
under the sin y shear.  The empirical covariance reproduces the Lyapunov
solution, the forced cos y coefficient shows its stationary variance
psi^2/(2 j^2) = 1/2, and the energy balance

    E||f(t)||^2 + 2 nu E int ||f||_H1^2 = E||f(tau)||^2 + nu ||Psi||^2 (t - tau)

closes to within Monte Carlo error.  Everything is reproducible bit for
bit from the (seed, member) Philox streams.
"""

import math

import numpy as np

import torusmix as tm

N, nu = 6, 0.1
shear = tm.sin_shear()
noise = tm.NoiseSpec.from_modes(N, [((0, 1), "cos", 1.0)])
config = tm.SimConfig(flow=shear, nu=nu, noise=noise, scheme="ExactGaussian",
                      dt=0.5, horizon=400.0, burn_in=50.0, ensemble=48, seed=1234)
print(f"ensemble: {config.ensemble} members, dt={config.dt}, horizon={config.horizon}, "
      f"burn-in {config.burn_in} (five e-folds of the slowest forced mode)")

key = ((0, 1), "cos")
stats = tm.simulate(config, tm.make_field(N, []), track_coefficients=(key,))
Q_emp = tm.empirical_covariance(stats)
Q_lyap = tm.lyapunov_covariance(tm.generator(shear, nu, N), noise)

i = tm.mode_table(N).coefficient_index(*key)
# each member's post-burn-in variance of the forced coefficient
entries = stats.tracked_samples[key].reshape(config.ensemble, -1).var(axis=1, ddof=1)
se = entries.std(ddof=1) / math.sqrt(len(entries))
print(f"samples: {stats.sample_count}")
print(f"variance of the forced cos y coefficient: {Q_emp.matrix[i, i]:.4f} "
      f"(exact 0.5, standard error {se:.4f})")
print(f"Frobenius distance to the Lyapunov covariance: "
      f"{np.linalg.norm(Q_emp.matrix - Q_lyap.matrix, 'fro'):.4f}")

res = tm.energy_balance_residual(stats, (config.burn_in, config.horizon))
res_se = stats.member_residuals.std(ddof=1) / math.sqrt(config.ensemble)
print(f"energy balance residual over ({config.burn_in}, {config.horizon}): "
      f"{res:+.3f} (standard error {res_se:.3f})")
print(f"time-averaged E||f||_H1^2: {stats.member_h1_means.mean():.4f} "
      f"(exact ||Psi||^2/2 = {noise.total_intensity / 2})")

again = tm.simulate(config, tm.make_field(N, []))
print(f"rerun with the same seed is bit-identical: "
      f"{np.array_equal(stats.mean_l2_sq, again.mean_l2_sq)}")
