"""Verification toolkit for local central limit theorems of suspension flows.

Subpackages:

- ``quadfield``     exact arithmetic in a real quadratic field Q(sqrt D)
- ``groups``        closed subgroups of R^2, closures, case classification
- ``predict``       closed-form limit predictions and the mixing criterion
- ``systems``       concrete suspension-flow models (renewal, Markov, PM)
- ``spectral``      twisted transfer operators and Fourier-inversion oracles
- ``montecarlo``    seeded parallel Monte Carlo estimation
- ``renewal_exact`` exact renewal dynamic programming over quadratic integers
- ``config``        the config reader: one table of keys per command and system
- ``cli``           command-line front door
"""

__version__ = "0.1.0"
