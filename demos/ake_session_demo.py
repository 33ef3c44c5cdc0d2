"""One honest key-distribution session, end to end.

Adam sends random ring states; Babe encodes her bits through the Hamming
code, modulates each survivor a quarter-turn up or down, and returns the
stream in secret per-block orders; Adam restores the order, measures, and
both sides hash down to the final key.  A second run adds channel noise to
show the code earning its keep, and a third shows the abort path.
"""

from anonkey import ChannelModel, SessionConfig, run_ake_session

t = run_ake_session(SessionConfig(k=4, M=4, cecc="none"), 11)
print("noiseless session, k=4, no code (the ideal accounting)")
print(f"  qubits sent:        {len(t.states_sent)}")
print(f"  order blocks:       {len(t.orders_used)} ({t.expended_order_bits} secret bits)")
print(f"  trial check passed: {t.trial_check_passed}")
print(f"  keys equal:         {t.final_key_adam == t.final_key_babe}")
print(f"  key bits:           {len(t.final_key_adam)}  -> net expansion "
      f"{len(t.final_key_adam) - t.expended_order_bits}")

noisy = run_ake_session(SessionConfig(k=8, channel=ChannelModel(0.05, 0.01)), 12)
print()
print("5% loss + 1% depolarization, Hamming(7,4) on")
print(f"  aborted:            {noisy.aborted}")
print(f"  corrected blocks:   {noisy.corrected_blocks}")
print(f"  trial check passed: {noisy.trial_check_passed}")

dead = run_ake_session(SessionConfig(k=4, channel=ChannelModel(0.9, 0.0)), 13)
print()
print("90% loss: aborted =", dead.aborted, "--", dead.abort_reason)
