"""Machine-checked shape expectations from the paper's evaluation section.

This module encodes the paper's claims about its published plots, claim
by claim, as executable predicates over
:class:`~repro.bench.runner.RunResult` rows, so a harness run
(``python -m repro.bench --check-shapes``) can *verify* the
reproduction instead of leaving the comparison to the reader:

>>> # verdicts = check_figure("fig4", results)   # [(claim, True), ...]

The predicates are deliberately lenient (ratios, monotone trends with
slack) - they assert the paper's qualitative story, not absolute
numbers, which is exactly the licence the reproduction brief grants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.runner import RunResult

#: Multiplicative slack for "grows with x" style claims: each step may
#: dip by up to this factor before the trend counts as violated.
_TREND_SLACK = 0.7


@dataclass(frozen=True)
class ShapeClaim:
    """One qualitative claim of the paper about one figure."""

    figure: str
    description: str
    check: Callable[[Sequence[RunResult]], bool]


def _series(results, getter) -> List[float]:
    return [getter(r) for r in results]


def _mostly_increasing(values: List[float]) -> bool:
    return all(
        b >= a * _TREND_SLACK for a, b in zip(values, values[1:])
    ) and values[-1] > values[0] * _TREND_SLACK


def _mostly_decreasing(values: List[float]) -> bool:
    return all(
        b <= a / _TREND_SLACK for a, b in zip(values, values[1:])
    ) and values[-1] < values[0] / _TREND_SLACK


def _dominates_everywhere(results, slow: str, fast: str, factor: float) -> bool:
    return all(
        r.query_seconds[slow] >= factor * r.query_seconds[fast]
        for r in results
    )


_COMMON: List[ShapeClaim] = [
    ShapeClaim(
        "*",
        "SFS-D query time is far above IPO Tree (>= 10x everywhere)",
        lambda rs: _dominates_everywhere(rs, "SFS-D", "IPO Tree", 10.0),
    ),
    ShapeClaim(
        "*",
        "IPO Tree has the fastest queries of all methods",
        # "Methods" compares the approaches (IPO vs SFS-A vs SFS-D) as in
        # §5.3; IPO Tree-k is the same approach truncated, and at small
        # cardinalities it *is* the full tree, so it is not compared.
        lambda rs: all(
            r.query_seconds["IPO Tree"]
            <= min(r.query_seconds["SFS-A"], r.query_seconds["SFS-D"]) * 1.2
            for r in rs
        ),
    ),
    ShapeClaim(
        "*",
        "SFS-A queries beat SFS-D everywhere",
        lambda rs: _dominates_everywhere(rs, "SFS-D", "SFS-A", 1.5),
    ),
    ShapeClaim(
        "*",
        "IPO Tree preprocessing exceeds SFS-A preprocessing",
        lambda rs: all(
            r.preprocessing_seconds["IPO Tree"]
            > r.preprocessing_seconds["SFS-A"]
            for r in rs
        ),
    ),
    ShapeClaim(
        "*",
        "every method returned identical skylines on every query",
        lambda rs: all(r.mismatches == 0 for r in rs),
    ),
]

_PER_FIGURE: Dict[str, List[ShapeClaim]] = {
    "fig4": [
        ShapeClaim(
            "fig4",
            "|SKY(R)|/|D| decreases with database size",
            lambda rs: _mostly_decreasing(_series(rs, lambda r: r.sky_ratio)),
        ),
        ShapeClaim(
            "fig4",
            "SFS-D query time grows with database size",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: r.query_seconds["SFS-D"])
            ),
        ),
        ShapeClaim(
            "fig4",
            "SFS-D storage (base data) grows linearly-ish with N",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: float(r.storage_bytes["SFS-D"]))
            ),
        ),
    ],
    "fig5": [
        ShapeClaim(
            "fig5",
            "|SKY(R)|/|D| increases with dimensionality",
            lambda rs: _mostly_increasing(_series(rs, lambda r: r.sky_ratio)),
        ),
        ShapeClaim(
            "fig5",
            "|AFFECT|/|SKY| increases with dimensionality",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: r.affect_ratio)
            ),
        ),
        ShapeClaim(
            "fig5",
            "IPO Tree storage grows steeply with m' (O(c^m') nodes)",
            lambda rs: float(rs[-1].storage_bytes["IPO Tree"])
            > 5 * float(rs[0].storage_bytes["IPO Tree"]),
        ),
    ],
    "fig6": [
        ShapeClaim(
            "fig6",
            "|SKY(R)|/|D| increases with cardinality",
            lambda rs: _mostly_increasing(_series(rs, lambda r: r.sky_ratio)),
        ),
        ShapeClaim(
            "fig6",
            "|AFFECT|/|SKY| decreases with cardinality",
            lambda rs: _mostly_decreasing(
                _series(rs, lambda r: r.affect_ratio)
            ),
        ),
        ShapeClaim(
            "fig6",
            "IPO Tree storage grows with cardinality, Tree-k stays flatter",
            lambda rs: (
                float(rs[-1].storage_bytes["IPO Tree"])
                / max(1.0, float(rs[0].storage_bytes["IPO Tree"]))
                > float(rs[-1].storage_bytes["IPO Tree-k"])
                / max(1.0, float(rs[0].storage_bytes["IPO Tree-k"]))
            ),
        ),
    ],
    "fig7": [
        ShapeClaim(
            "fig7",
            "IPO Tree query time grows with the preference order",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: r.query_seconds["IPO Tree"])
            ),
        ),
        ShapeClaim(
            "fig7",
            "|AFFECT|/|SKY| grows with the preference order",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: r.affect_ratio)
            ),
        ),
        ShapeClaim(
            "fig7",
            "storage is unaffected by the preference order",
            lambda rs: len(
                {r.storage_bytes["IPO Tree"] for r in rs}
            ) == 1,
        ),
        ShapeClaim(
            "fig7",
            "|SKY(R')|/|SKY(R)| shrinks as the order grows (refinement)",
            lambda rs: _mostly_decreasing(
                _series(rs, lambda r: max(r.refined_sky_ratio, 1e-9))
            ),
        ),
    ],
    "fig8": [
        ShapeClaim(
            "fig8",
            "IPO Tree query time grows with the preference order",
            lambda rs: _mostly_increasing(
                _series(rs, lambda r: r.query_seconds["IPO Tree"])
            ),
        ),
        ShapeClaim(
            "fig8",
            "|AFFECT|/|SKY| grows with the preference order",
            lambda rs: all(
                b >= a for a, b in zip(
                    _series(rs, lambda r: r.affect_ratio),
                    _series(rs, lambda r: r.affect_ratio)[1:],
                )
            ),
        ),
    ],
}


def claims_for(figure: str) -> List[ShapeClaim]:
    """All claims applying to one figure (common + specific)."""
    specific = _PER_FIGURE.get(figure, [])
    return [
        ShapeClaim(figure, claim.description, claim.check)
        for claim in _COMMON
    ] + specific


def check_figure(
    figure: str, results: Sequence[RunResult]
) -> List[Tuple[str, bool]]:
    """Evaluate every claim for ``figure``; returns (claim, holds) pairs."""
    verdicts = []
    for claim in claims_for(figure):
        try:
            holds = bool(claim.check(results))
        except Exception:
            holds = False
        verdicts.append((claim.description, holds))
    return verdicts


def render_verdicts(verdicts: List[Tuple[str, bool]]) -> str:
    """One line per claim, check-marked."""
    return "\n".join(
        f"  [{'ok' if holds else 'XX'}] {description}"
        for description, holds in verdicts
    )
