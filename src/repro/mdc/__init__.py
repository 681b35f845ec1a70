"""Minimal Disqualifying Conditions (Wong et al., KDD'07)."""

from repro.mdc.filter import MDCFilter
from repro.mdc.mdc import (
    ConditionStore,
    DisqualifyingCondition,
    compute_mdcs,
    minimal_conditions,
    template_positions,
)

__all__ = [
    "ConditionStore",
    "DisqualifyingCondition",
    "MDCFilter",
    "compute_mdcs",
    "minimal_conditions",
    "template_positions",
]
