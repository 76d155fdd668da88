"""Information-ratio analysis of time-series momentum strategies.

The package covers the full pipeline: price ingestion and volatility
normalization, the moving-average momentum backtest and its IR-vs-lookback
curve, closed-form moments of the strategy under stationarity, segmentation of
long histories into drift regimes, seeded Monte Carlo simulation of synthetic
return processes, and least-squares fits of the closed forms to empirical
curves.  See the CLI (``momir --help``) for the file-based workflow.
"""

from .timeseries import (
    NormalizedReturnSeries,
    PriceSeries,
    ReturnSeries,
    log_returns,
    normalize,
    read_price_csv,
    read_value_csv,
    resample_to_weekly,
)
from .strategy import (
    IrCurve,
    annualize,
    backtest,
    ir_curve,
    ir_standard_error,
    read_ir_curve_csv,
    signal,
    write_ir_curve_csv,
)
from .theory import (
    MomentProfile,
    TheoreticalIr,
    ir_case1,
    ir_case2,
    theoretical_ir,
    theory_curve,
)
from .regimes import (
    AcfPoint,
    RegimeCase,
    RegimeStats,
    Segment,
    Segmentation,
    acf,
    average_ir_curve,
    best_segmentation,
    detect_breakpoints,
    filter_regimes,
    regime_stats,
    weekly_segmentation,
)
from .simulate import (
    IidGaussian,
    InfeasibleTargets,
    McIrCurve,
    MovingAverage,
    ProcessSpec,
    SquareWaveDrift,
    generate,
    load_process_spec,
    ma_from_target_acf,
    mc_ir_curve,
    theoretical_acf_of_ma,
)

__version__ = "0.1.0"
