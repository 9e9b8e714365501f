"""Cluster-expansion machinery with brute-force cross-verification.

Modules
-------
graphs      labelled graphs, Pruefer trees, partition schemes and their verifier
ursell      connected-graph coefficients by three independent formulas
potentials  pair-potential families, stability search and classification
mayer       discrete-volume coefficients, classical bounds, virial toolbox
polymer     abstract polymer gas, convergence criteria, bound catalog
ising       2D Ising sums, both polymer expansions, duality, thresholds
hardsphere  overlap integrals and the improved planar radius bound
numerics    exact truncated power series, bisection, golden section; imports no other module
cli         command-line interface over all of the above
oracles     scalar reference implementations for the tests; the package does not import it

``import clusterexp`` loads none of them: ``from clusterexp import graphs``
loads a module and what it needs, so each command line pays only for the
modules it runs.
"""

__version__ = "0.1.0"

__all__ = [
    "graphs",
    "ursell",
    "potentials",
    "mayer",
    "polymer",
    "ising",
    "hardsphere",
    "__version__",
]
