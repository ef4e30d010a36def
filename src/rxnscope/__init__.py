"""Reaction-scheme extraction toolkit: molecules, templates, agent pipeline."""

from .molgraph import AtomToken, Bond, MolecularGraph, RxnscopeError
from .smiles import canonicalize, is_valid, parse_smiles, write_smiles

__version__ = "0.1.0"

__all__ = [
    "AtomToken",
    "Bond",
    "MolecularGraph",
    "RxnscopeError",
    "__version__",
    "canonicalize",
    "is_valid",
    "parse_smiles",
    "write_smiles",
]
