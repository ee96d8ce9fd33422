"""Toolkit around almost r-embeddings of simplicial complexes.

Six pieces: exact bound formulas (``bounds``), binomial-gcd
certificates and modification plans (``numbercert``), simplicial
complexes with deleted-product counts (``complexes``), an exact
rational checker for the almost r-embedding property of simplexwise
linear maps (``plmaps``), a numerically verified construction of
degree-zero equivariant self-maps of the matrix sphere (``eqmaps``),
and, without numpy, what those maps' steps share together with the
r = 2 map on the circle and its exact winding number (``circle``).
The ``tverberg`` command line front end ties them together.

Each piece runs on the first read of one of its attributes, so a
process runs only the pieces it uses: ``tverberg delprod`` runs
``complexes`` alone, and only ``eqmap build`` and ``eqmap verify``
load numpy.
"""

import importlib.util
import sys


class NumericalDegeneracyError(RuntimeError):
    """A float quantity fell below the trusted resolution.  Defined here, and
    re-exported by ``eqmaps``, so that catching it runs no module."""


def _lazy(name: str):
    """The package module ``name``, run on the first read of one of its attributes
    (LazyLoader); an imported module is returned as it is."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


bounds, circle, complexes, eqmaps, numbercert, plmaps = (
    _lazy(f"{__name__}.{name}")
    for name in ("bounds", "circle", "complexes", "eqmaps", "numbercert", "plmaps"))

__version__ = "0.1.0"

__all__ = ["NumericalDegeneracyError", "bounds", "circle", "complexes", "eqmaps", "numbercert",
           "plmaps", "__version__"]
