"""Exact interval Boolean algebra arithmetic, homogeneity analysis and
certificate-producing combinatorial searches.

Importing the package loads no submodule, so a caller imports the one it
uses: `from intalg import search` or `import intalg.search`.
"""

from .errors import CapacityError, InputError

__all__ = [
    "algebra",
    "homogeneity",
    "product",
    "search",
    "terms",
    "triples",
    "CapacityError",
    "InputError",
]

__version__ = "0.1.0"
