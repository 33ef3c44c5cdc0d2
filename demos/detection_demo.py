"""How well can an interceptor read an unknown ring state?

Walks the optimal-detection numbers: identifying one of M ring states
succeeds with probability 2/M, but what matters for security is whether the
re-prepared estimate passes the sender's verification, and that acceptance
probability is pinned at 3/4 no matter how many ring states are used.
Spreading states over the whole sphere pushes it down to 2/3.
"""

from anonkey import (
    acceptance_probability,
    correct_id_probability,
    certify_optimality,
    random_basis_strategy,
    sphere_grid_ensemble,
    square_root_measurement,
    uniform_circle_ensemble,
    uniform_guess_povm,
)

print("ring ensembles, optimal detector")
print(f"{'M':>4} {'identify':>10} {'accepted':>10} {'optimal':>8}")
for M in (4, 8, 16, 32):
    e = uniform_circle_ensemble(M)
    m = square_root_measurement(e)
    print(
        f"{M:>4} {correct_id_probability(e, m):>10.4f} "
        f"{acceptance_probability(e, m):>10.4f} {str(certify_optimality(e, m)):>8}"
    )

print()
print("guessing without measuring: accepted "
      f"{acceptance_probability(uniform_circle_ensemble(4), uniform_guess_povm(4, 2)):.4f}")

est, se = random_basis_strategy(16, trials=200_000, seed=1)
print(f"random orthogonal basis, no knowledge of M: accepted {est:.4f} +- {se:.4f}")

print()
print("whole-sphere ensembles approach 2/3")
for n in (6, 30, 100):
    e = sphere_grid_ensemble(n)
    pa = acceptance_probability(e, square_root_measurement(e))
    print(f"  {n:>3} states: {pa:.6f}  (2/3 = {2/3:.6f})")
