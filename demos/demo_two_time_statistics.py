#!/usr/bin/env python3
"""Two-time energy statistics on a qubit pair.

A qubit starting in its excited state couples to a second, thermal qubit.
We compute:

  1. the system FCS: measure the system energy, evolve, measure again;
  2. the reservoir FCS: the spectral measure of (1/beta) log of the relative
     modular operator between the flowed and static reservoir weights,
     evaluated in the initial-state vector;
  3. the bookkeeping identities tying the two: the reservoir mean equals the
     flux-integrated energy drop, and the difference of the two means is the
     coupling-energy term.

The point of the exercise: the modular-operator route and the bare two-time
protocol produce the *same* measure, atom by atom.
"""

from fcslab import (
    balance_check,
    delta_q_direct,
    fcs_at,
    reservoir_fcs,
    system_fcs,
)
from fcslab.checks import two_time_reservoir_oracle
from fcslab.scenarios import chain_scenario

scn = chain_scenario(1, lam=0.25, beta=1.0)
t = 2.0

print(f"scenario: qubit + single thermal site, lambda={scn.lam}, beta={scn.beta}, t={t}")
print()

fa = fcs_at(scn, t)  # one propagator feeds both measures
sys_res = system_fcs(fa)
print("system energy-change measure (two-time protocol):")
for x, w in zip(sys_res.measure.locations, sys_res.measure.weights):
    print(f"  x = {x:+.4f}   weight = {w:.6f}")
print(f"  mean = {sys_res.mean:+.6f}")
print()

res_res = reservoir_fcs(fa)
print("reservoir energy-drop measure (relative modular operator):")
for x, w in zip(res_res.measure.locations, res_res.measure.weights):
    print(f"  x = {x:+.4f}   weight = {w:.6f}")
print(f"  mean = {res_res.mean:+.6f}")
print()

oracle = two_time_reservoir_oracle(scn, t)
print("same measure from the bare two-time protocol:")
for x, w in zip(oracle.locations, oracle.weights):
    print(f"  x = {x:+.4f}   weight = {w:.6f}")
print()

dq_s, dq_r = delta_q_direct(scn, t)
coupling = scn.lam * (scn.expect(scn.evolve(scn.v, t)) - scn.expect(scn.v))
print("bookkeeping:")
print(f"  system energy gain      dQ_S = {dq_s:+.6f}")
print(f"  reservoir energy drop   dQ_R = {dq_r:+.6f}")
print(f"  reservoir FCS mean - dQ_R    = {res_res.mean - dq_r:+.2e}")
print(f"  (dQ_R - dQ_S) - lam*d<V>     = {dq_r - dq_s - coupling:+.2e}")
print(f"  balance residual             = {balance_check(scn, t):.2e}")
