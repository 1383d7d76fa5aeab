"""opcalc: numerical workbench for iterated semigroup integrals.

Modules
-------
grassmann      exact exterior-algebra arithmetic over bitmask monomials
linalg         dense complex spectral calculus and matrix exponentials
phi_core       three independent evaluators of the iterated integral
clifford       spinor representations, supertraces, curvature series
jlo            graded cocycle evaluation and the localization target; the
               small-time study (opcalc jlo) is exact for the K-truncated
               flat model, a factorised moment sum in stochastic_mc.localize,
               and equals (2 pi)^d x opcalc localize up to truncation; only
               localize enforces the 1e-10 torus-tail guard
stochastic_mc  bridge sampling, path functionals, Feynman-Kac estimators
cli            command-line front end and the acceptance self-test
"""

__version__ = "0.1.0"
