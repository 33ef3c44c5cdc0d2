"""Eve's three options against the key sessions, and why each one loses.

Guessing the secret qubit orders succeeds per block with probability 1/4 and
coin-flips every qubit of a wrong block, so the trial encryption catches the
impersonation.  Intercept-resend with the optimal detector caps her per-bit
reading at 3/4 (equal to the two-copy optimum, and achievable sequentially),
which privacy amplification then erases.  Tapping both legs quietly is
bounded by 2k certain bits plus the channel-capacity leak of the rest.
"""

import numpy as np

from anonkey import (
    SessionConfig,
    impersonation_order_pmf,
    joint_attack_factorization_check,
    opaque_bound,
    run_ake_session,
    sequential_strategy_pc,
    translucent_accounting,
    two_copy_states,
)
from anonkey.harness import derive_seeds

print("order-guess impersonation, k=16 blocks")
pmf = impersonation_order_pmf(16)
print(f"  P(all 16 orders right) = {pmf[16]:.3e}")
errors = qubits = fails = 0
for s in derive_seeds(1, 50):
    t = run_ake_session(SessionConfig(k=16, cecc="none", eve_strategy="impersonate-order"), s)
    errors += t.eve_report["wrong_block_errors"]
    qubits += t.eve_report["wrong_block_qubits"]
    fails += int(not t.trial_check_passed)
print(f"  wrong-block qubit error rate: {errors / qubits:.4f} (coin flip)")
print(f"  sessions caught by trial encryption: {fails}/50")

print()
print("opaque interception (two copies granted)")
rho0, rho1 = two_copy_states(8)
print(f"  hypothesis states differ: trace distance "
      f"{np.abs(np.linalg.eigvalsh(rho0.matrix - rho1.matrix)).sum() / 2:.3f}")
for M in (4, 8, 16):
    print(f"  M={M:>2}: optimal bit read-out {opaque_bound(M):.4f}")
est, se = sequential_strategy_pc(8, trials=100_000, seed=2)
print(f"  sequential estimate-then-compare strategy: {est:.4f} +- {se:.4f}")
print(f"  joint attack on a two-bit block factorizes: "
      f"{joint_attack_factorization_check(8)}")

print()
print("translucent tap accounting (per 8k qubits, read-out 3/4)")
for k in (1, 8, 64):
    det, sh = translucent_accounting(k, 0.75)
    print(f"  k={k:>2}: {det} certain bits + {sh:.2f} partial-information bits")
