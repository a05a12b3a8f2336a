"""Finite one-operation tables determined by twisted semilattices of groups.

The package decides whether a finite table arises as the twist of a
semilattice of groups by an idempotent-fixed self-inverse automorphism,
builds all such tables from block construction data, decomposes positives
back into that data, and sweeps exhaustive/sampled instance spaces against
the full battery of structural laws the decision rests on.
"""

from .clifford import *
from .determination import *
from .enumeration import *
from .errors import *
from .groupoid import *
from .inverses import *
from .mappings import *

__version__ = "1.0.0"

__all__ = (
    clifford.__all__
    + determination.__all__
    + enumeration.__all__
    + errors.__all__
    + groupoid.__all__
    + inverses.__all__
    + mappings.__all__
)
