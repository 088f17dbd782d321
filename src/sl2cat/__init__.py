"""Exact combinatorics of sl2 module categories.

Modules cover the Clebsch-Gordan rule and the action of each simple
module derived from that of L(1), finitely presented countably-indexed
action matrices, Dynkin diagram classification of generalized Cartan
matrices with machine-checkable certificates, module category models with
feasibility obstructions, and independent oracles (category O, Borel
combinatorics, Jordan forms, restriction systems).
"""

from __future__ import annotations

__version__ = "0.1.0"
