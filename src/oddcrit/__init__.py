"""Extremal join families, their distance spectra, and odd-factor criticality.

The library's names live in its submodules: ``graphs``, ``spectral``,
``partitions``, ``factors``, ``theorems`` and ``errors``.
``cli`` is the command-line front end and is not imported here.
"""

from . import errors, factors, graphs, partitions, spectral, theorems

__version__ = "0.1.0"
