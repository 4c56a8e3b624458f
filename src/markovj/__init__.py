"""Cycle integrals of the Klein j-function along Markov geodesics.

The tree of Markov triples, their minus-continued-fraction periods and
quadratic forms, exact q-expansion of j, a fixed Gauss-Legendre rule for the
cycle integrals J(w) and values j(w), and an empirical verification
layer for the recursions, interlacing, and asymptotic bound chain.

The submodules are the API (cf, tree, jfunction, integrals, analysis,
cli); importing the package loads none of them, so the word and tree
layers run without numpy.
"""

__version__ = "1.0.0"
