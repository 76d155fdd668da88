"""Spans recorded from outside the program, by wrapping its public functions.

Each traced function is replaced at every module attribute that binds it, so
calls made through a name imported with ``from .strategy import ir_matrix``
are caught as well as calls through ``strategy.ir_matrix``.  Spans (name,
start, end, parent, amount) are kept in memory and saved as one ``.npz`` at
the end; ``metrics_from_spans`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


def _bytes_written(bound) -> float:
    return float(len(bound.arguments["text"].encode("utf-8")))


def _matrix_payoffs(bound) -> float:
    rows, length = np.shape(bound.arguments["x_matrix"])
    ns = np.asarray(bound.arguments["lookbacks"], dtype=int)
    return float(rows * np.sum(length - ns))


def _dp_cells(bound) -> float:
    # K * (n + 1)^2 with the break cap K resolved as detect_breakpoints does.
    n = len(bound.arguments["values"])
    min_segment = bound.arguments["min_segment"]
    feasible = n // min_segment - 1
    cap = bound.arguments["max_breaks"]
    k = feasible if cap is None else min(cap, feasible)
    return float(k * (n + 1) ** 2)


def _samples_generated(bound) -> float:
    return float(bound.arguments["paths"] * bound.arguments["length"])


def _iterations(result) -> float:
    return float(result.iterations)


# span name -> (module, function, amount from the call's arguments,
#               amount from its result)
TRACED = {
    "timeseries.read": [("momir.timeseries", "read_price_csv", None, None),
                        ("momir.timeseries", "read_value_csv", None, None)],
    "timeseries.resample": [("momir.timeseries", "resample_to_weekly", None, None)],
    "timeseries.write": [("momir.timeseries", "atomic_write_text", _bytes_written, None)],
    "strategy.ir_curve": [("momir.strategy", "ir_curve", None, None)],
    "strategy.backtest": [("momir.strategy", "backtest", None, None)],
    "strategy.ir_matrix": [("momir.strategy", "ir_matrix", _matrix_payoffs, None)],
    "theory.theoretical_ir": [("momir.theory", "theoretical_ir", None, None)],
    "regimes.detect_breakpoints": [("momir.regimes", "detect_breakpoints", _dp_cells, None)],
    "regimes.regime_stats": [("momir.regimes", "regime_stats", None, None)],
    "simulate.mc_ir_curve": [("momir.simulate", "mc_ir_curve", _samples_generated, None)],
    "simulate.ma_from_target_acf": [("momir.simulate", "ma_from_target_acf", None, None)],
    "fit.fit_moment_profile": [("momir.fit", "fit_moment_profile", None, _iterations)],
    "fit.fit_square_wave": [("momir.fit", "fit_square_wave", None, _iterations)],
}


class Tracer:
    """In-memory span log with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[float] = []
        self._open: list[int] = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int, amount: float = 0.0) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._open[-1])
        self.amounts.append(amount)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int, amount: float | None = None) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()
        if amount is not None:
            self.amounts[index] = amount

    def wrap(self, name: str, fn, amount_of_call=None, amount_of_result=None):
        name_id = self.name_id(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = 0.0
            if amount_of_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = amount_of_call(bound)
            index = self.open(name_id, amount)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, None if amount_of_result is None or result is None
                           else amount_of_result(result))

        return traced

    def install(self) -> None:
        """Replace every traced function at each ``momir`` module attribute bound to it.

        Each home module is imported first, so a module that the program
        imports later takes the wrapper when it imports the name.
        """
        for module_name, *_ in (t for targets in TRACED.values() for t in targets):
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "momir" or name.startswith("momir."))]
        for span_name, targets in TRACED.items():
            for module_name, attr, of_call, of_result in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(span_name, original, of_call, of_result)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.array(self.name_ids, dtype=np.int32),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            parents=np.array(self.parents, dtype=np.int64),
            amounts=np.array(self.amounts),
        )


# Per-layer metrics: name -> (span name, quantity); quantity is "s" for total
# duration, "self_s" for duration minus direct children, "calls" for the span
# count and "amount" for the summed amounts.
LAYER_METRICS = {
    "timeseries.read_s": ("timeseries.read", "s"),
    "timeseries.resample_s": ("timeseries.resample", "s"),
    "timeseries.write_s": ("timeseries.write", "s"),
    "timeseries.bytes_written": ("timeseries.write", "amount"),
    "strategy.ir_curve_s": ("strategy.ir_curve", "s"),
    "strategy.ir_curve_calls": ("strategy.ir_curve", "calls"),
    "strategy.backtest_calls": ("strategy.backtest", "calls"),
    "strategy.ir_matrix_s": ("strategy.ir_matrix", "s"),
    "strategy.ir_matrix_calls": ("strategy.ir_matrix", "calls"),
    "strategy.ir_matrix_payoffs": ("strategy.ir_matrix", "amount"),
    "theory.theoretical_ir_s": ("theory.theoretical_ir", "s"),
    "theory.theoretical_ir_calls": ("theory.theoretical_ir", "calls"),
    "regimes.detect_breakpoints_s": ("regimes.detect_breakpoints", "s"),
    "regimes.dp_cells": ("regimes.detect_breakpoints", "amount"),
    "regimes.regime_stats_s": ("regimes.regime_stats", "s"),
    "simulate.mc_ir_curve_s": ("simulate.mc_ir_curve", "s"),
    "simulate.mc_ir_curve_self_s": ("simulate.mc_ir_curve", "self_s"),
    "simulate.samples_generated": ("simulate.mc_ir_curve", "amount"),
    "simulate.ma_from_target_acf_s": ("simulate.ma_from_target_acf", "s"),
    "simulate.ma_from_target_acf_calls": ("simulate.ma_from_target_acf", "calls"),
    "fit.fit_moment_profile_s": ("fit.fit_moment_profile", "s"),
    "fit.fit_moment_profile_self_s": ("fit.fit_moment_profile", "self_s"),
    "fit.stationary_evaluations": ("fit.fit_moment_profile", "amount"),
    "fit.fit_square_wave_s": ("fit.fit_square_wave", "s"),
    "fit.fit_square_wave_self_s": ("fit.fit_square_wave", "self_s"),
    "fit.squarewave_evaluations": ("fit.fit_square_wave", "amount"),
}
CLI_COMMANDS = ("ingest", "ir", "regimes", "fit", "theory", "simulate")


def metric_units() -> dict[str, str]:
    units = {f"cli.{c}_s": "s" for c in CLI_COMMANDS}
    for name, (_, quantity) in LAYER_METRICS.items():
        if quantity in ("s", "self_s"):
            units[name] = "s"
        elif name == "timeseries.bytes_written":
            units[name] = "bytes"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units


def metrics_from_spans(path: str, rounds: int) -> dict[str, float]:
    """Per-round per-layer metrics from a saved span file.

    Times and counts are summed over the file and divided by ``rounds``, so a
    count is exact when every round does the same work.  ``cli.<command>_s``
    comes from the spans the worker opens around each ``cli.main`` call.
    """
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name_ids, parents = data["name_ids"], data["parents"]
    durations = data["ends"] - data["starts"]
    amounts = data["amounts"]
    child_time = np.zeros(len(durations))
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], durations[has_parent])

    def select(span: str) -> np.ndarray:
        return name_ids == names.index(span) if span in names else np.zeros(len(name_ids), bool)

    out = {f"cli.{c}_s": float(durations[select(f"cli.{c}")].sum()) / rounds
           for c in CLI_COMMANDS}
    for metric, (span, quantity) in LAYER_METRICS.items():
        mask = select(span)
        if quantity == "s":
            value = durations[mask].sum()
        elif quantity == "self_s":
            value = (durations[mask] - child_time[mask]).sum()
        elif quantity == "calls":
            value = mask.sum()
        else:
            value = amounts[mask].sum()
        out[metric] = float(value) / rounds
    return out
