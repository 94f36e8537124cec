"""graphlim: random permutation graphs, circle graphs and unit interval
graphs — seed objects, structural predicates, limit objects (graphons and
excursion metrics) and statistical verification experiments.

Submodules
----------
combinat     permutations, matchings, Dyck paths; samplers, counts, bijection
graphs       graph construction, distances, cliques, primality, canonical forms
graphon      the two limit graphons, sampling, exact clique densities
mmspace      Brownian excursions, excursion metric, box-distance estimate
experiments  Monte Carlo and exhaustive verification harness
cli          command-line front end (``graphlim ...``)
"""

__version__ = "0.1.0"

from . import combinat, graphs, graphon, mmspace, experiments  # noqa: F401
