#!/usr/bin/env python3
"""Tour of the modular toolbox on the trace-inner-product representation.

Matrices act on matrices: observables multiply from the left, a full-rank
state rho is represented by the vector rho^(1/2).  We check numerically, on
random inputs, the structural facts everything else in the library rests on:

  * the conjugation J (plain adjoint) is antiunitary with J^2 = 1;
  * Delta = F S, Delta^(-1/2) = J Delta^(1/2) J;
  * the star operator sends A Omega to A* Omega;
  * J-conjugated observables commute with all left multiplications;
  * the modular boundary condition <O, A Delta B O> = <O, B A O>;
  * the relative modular operator is the noncommutative density of one
    state with respect to another;
  * the natural cone is exactly the PSD matrices and the dynamics preserves
    it;
  * the coupled Liouvillean splits as free + lam pi(V) - lam J pi(V) J and
    annihilates the coupled equilibrium vector.
"""

import numpy as np

from fcslab import (
    Liouvilleans,
    cone_membership,
    gibbs,
    modular_pair,
    perturbed_gibbs_vector,
    positive_sqrt,
    relative_modular,
)
from fcslab.linalg import dagger, hs_inner, hs_norm
from fcslab.scenarios import random_scenario
from fcslab.states import random_density

rng = np.random.default_rng(7)
scn = random_scenario(rng, dim_sys=2, dim_res=3, lam=0.4)
d = scn.dim

ms = modular_pair(scn.rho_eq)  # dense, in the standard basis of scn.evolve and relative_modular
omega = ms.omega
rand = lambda: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

print(f"reference: uncoupled equilibrium state, dim {d}")
x, y, a, b = rand(), rand(), rand(), rand()

print(f"antiunitarity   |<Jx,Jy> - <y,x>|          = "
      f"{abs(hs_inner(ms.conjugation(x), ms.conjugation(y)) - hs_inner(y, x)):.2e}")
print(f"involution      ||J(Jx) - x||              = "
      f"{hs_norm(ms.conjugation(ms.conjugation(x)) - x):.2e}")
print(f"polar product   ||F(Sx) - Delta x||        = "
      f"{hs_norm(ms.commutant_star(ms.star(x)) - ms.delta(x)):.2e}")
print(f"star action     ||S(a Omega) - a* Omega||  = "
      f"{hs_norm(ms.star(a @ omega) - dagger(a) @ omega):.2e}")
jaj = lambda z: ms.conjugation(a @ ms.conjugation(z))
print(f"commutant       ||JaJ(bx) - b JaJ(x)||     = "
      f"{hs_norm(jaj(b @ x) - b @ jaj(x)):.2e}")
lhs = hs_inner(omega, a @ ms.delta(b @ omega))
print(f"boundary cond.  |<O,a D b O> - <O,b a O>|  = "
      f"{abs(lhs - hs_inner(omega, b @ (a @ omega))):.2e}")

eta = random_density(d, rng)
rel = relative_modular(eta, scn.rho_eq)
val = hs_inner(omega, rel.apply(a @ omega))
print(f"relative density |<O,D_rel a O> - tr(eta a)| = {abs(val - np.trace(eta @ a)):.2e}")

vec = a @ omega @ dagger(a)
print(f"cone generation: a (JaJ) Omega is PSD      = {cone_membership(vec)}")

lv = Liouvilleans(scn)
print(f"flow keeps cone: exp(itL) maps PSD to PSD  = "
      f"{cone_membership(scn.evolve(vec, 2.2))}")
print(f"generator split ||L x - (free+lam v. - lam JvJ) x|| = "
      f"{hs_norm(lv.coupled(x) - lv.coupled_decomposed(x)):.2e}")

om_lam = perturbed_gibbs_vector(scn)
print(f"coupled vector  ||L Omega_coupled||        = {hs_norm(lv.coupled(om_lam)):.2e}")
print(f"coupled vector vs coupled thermal sqrt     = "
      f"{hs_norm(om_lam - positive_sqrt(gibbs(scn.h_coupled, scn.beta))):.2e}")
