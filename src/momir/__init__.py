"""Information-ratio analysis of time-series momentum strategies.

The package covers the full pipeline: price ingestion and volatility
normalization, the moving-average momentum backtest and its IR-vs-lookback
curve, closed-form moments of the strategy under stationarity, segmentation of
long histories into drift regimes, seeded Monte Carlo simulation of synthetic
return processes, and least-squares fits of the closed forms to empirical
curves.  See the CLI (``momir --help``) for the file-based workflow.
"""
