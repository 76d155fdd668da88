"""The optimal segmentation at a fixed break count, from the library's own steps.

``detect_breakpoints`` chooses the count by BIC; tests that pin a count run
the same steps it runs: the series as the dynamic program takes it, the
dynamic program's tables, and the backtrack from the last end point.
"""

from __future__ import annotations

import numpy as np

from momir.regimes import _backtrack, _dp_tables, _segmentable


def fixed_breaks(values, n_breaks: int, min_segment: int) -> tuple[int, ...]:
    """Break indices of the least-SSE split of ``values`` with exactly ``n_breaks`` breaks."""
    y = _segmentable(values, min_segment)
    opt, argt = _dp_tables(y, min_segment, n_breaks)
    assert np.isfinite(opt[n_breaks, len(y)]), f"no admissible placement of {n_breaks} breaks"
    return _backtrack(argt, n_breaks, len(y))
