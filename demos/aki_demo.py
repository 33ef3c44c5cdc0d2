"""Identification without a shared secret key.

The verifier holds a key qubit whose preparation phase he cannot read; the
prover is whoever can unwind that phase.  Each round masks the stored state
with a fresh random phase, and only the true prover can return the bare
challenge state.  The best measure-and-respond cheat passes one round with
probability 3/4, so a handful of qubits makes impersonation hopeless.
"""

import math

import numpy as np

from anonkey import SecretCirclePhase, aki_impersonation, run_honest_aki_round
from anonkey.aki import aki_challenge, aki_verify
from anonkey.states import circle_state_at

rng = np.random.default_rng(0)

key = SecretCirclePhase(2 * math.pi * 5 / 8)
rounds = 5000
print(f"honest prover: {sum(run_honest_aki_round(key, rng, M=8) for _ in range(rounds))}"
      f"/{rounds} rounds accepted")
print(f"verifier-side phase reads in the audit log: "
      f"{sum(1 for kind, _ in key.audit_log if kind == 'reveal')}")

replays = 20_000
hits = 0
for _ in range(replays):
    phi_a, _ = aki_challenge(SecretCirclePhase(rng.uniform(0, 2 * math.pi)), rng, M=8)
    hits += aki_verify(circle_state_at(0.0), phi_a, rng)
print(f"replaying the fixed reference state: {hits / replays:.3f} accepted "
      f"(the fresh challenge phase is what makes this fail)")

print()
print("optimal measure-and-respond impersonation, M=4")
print(f"{'qubits':>7} {'measured':>10} {'predicted':>10}")
for m in (1, 2, 4, 8):
    est, se = aki_impersonation(m, 4, trials=100_000, seed=10 + m)
    print(f"{m:>7} {est:>10.4f} {0.75**m:>10.4f}")
