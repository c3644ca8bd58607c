"""Rewriting-augmented code retrieval workbench."""

from .models import (CellKey, Document, Query, Regime, RunRecord, Strategy,
                     TaskFamily)

__version__ = "0.1.0"

__all__ = [
    "CellKey", "Document", "Query", "Regime", "RunRecord", "Strategy",
    "TaskFamily", "__version__",
]
