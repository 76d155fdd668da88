"""Each output check passes on the program's real output and fails on a corrupted copy.

Run from the root of a checkout:
    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

The workloads run here at reduced sizes (patched constants in
``workloads.py``), so the whole file takes about a minute; most of it is the
ma_targets fit, whose ~200 MA-coefficient solves do not shrink with size.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import numpy as np
import pytest

import checks
import workloads as w
from momir import cli

SMALL = {
    "history": {"HISTORY_END": "1940-01-01", "IR_N_MAX": 60, "REGIME_N_MAX": 20},
    "montecarlo": {"MC_PATHS": 100, "MC_LENGTH": 2000, "MA_PATHS": 50, "MA_LENGTH": 1000},
    "wavefit": {"WAVE_CURVE_PATHS": 60, "WAVE_LOOKBACKS": tuple(range(20, 201, 30)),
                "WAVE_T_GRID": (160, 200, 20), "WAVE_TRUE_T": (180,), "WAVE_FIT_PATHS": 20},
}
SEED = 3


def run_ops(workdir: str, ops) -> None:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(op.argv)) == 0, op.argv
    finally:
        os.chdir(cwd)


@contextlib.contextmanager
def small(name: str):
    """Patch in the reduced sizes of one workload."""
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in SMALL[name].items():
            mp.setattr(w, attr, value)
        yield


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """name -> (output directory, truth), made once per workload at reduced size."""
    made = {}

    def get(name: str):
        if name not in made:
            workdir = str(tmp_path_factory.mktemp(name))
            with small(name):
                prepared = w.PREPARE[name](SEED, workdir)
                run_ops(workdir, prepared.ops)
            made[name] = (workdir, prepared.truth)
        return made[name]

    return get


def edit_csv(path: str, row: int, column: int, change) -> None:
    """Apply ``change`` to one field of a CSV file; row 0 is the first data row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    fields = lines[first + row].split(",")
    fields[column] = change(fields[column])
    lines[first + row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_json(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def scale(factor: float):
    return lambda s: repr(float(s) * factor)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_pristine_outputs_pass(pristine, name):
    workdir, truth = pristine(name)
    with small(name):
        found = checks.check(name, workdir, truth)
    assert found and not any(found.values()), found


def regime_rows(workdir: str) -> list[list[str]]:
    with open(os.path.join(workdir, "regimes.csv"), encoding="utf-8") as fh:
        return [ln.split(",") for ln in fh.read().splitlines()[1:]]


def corrupt_overlap(workdir: str) -> None:
    rows = regime_rows(workdir)
    edit_csv(os.path.join(workdir, "regimes.csv"), 1, 0, lambda _: rows[0][1])


def corrupt_case(workdir: str) -> None:
    edit_csv(os.path.join(workdir, "regimes.csv"), 0, 8,
             lambda s: "CaseI" if s == "CaseII" else "CaseII")


def corrupt_start_rss(workdir: str) -> None:
    # Move the fit to a worse point while keeping its own curve and rss
    # consistent: only the comparison with the start point can catch it.
    curve = checks.read_ir_curve(os.path.join(workdir, "avg_ir.csv"))
    ns, target = curve["n"], curve["ir"]
    mu = float(np.mean(target[-5:])) * w.FIXED_SD + 0.5
    fitted = [checks.closed_form(mu, w.FIXED_SD ** 2, [], int(n))[2] for n in ns]

    def change(fit):
        fit["parameters"] = {"mu": mu, **{f"rho_{k}": 0.0 for k in range(1, w.K_LAGS + 1)}}
        fit["fitted"]["ir"] = fitted
        fit["rss"] = float(np.sum((np.array(fitted) - target) ** 2))

    edit_json(os.path.join(workdir, "fit.json"), change)


def corrupt_wave_curve(curve_csv: str, fit_json: str):
    """A flat fitted curve with a matching rss: only the noise bound catches it."""

    def corrupt(workdir: str) -> None:
        target = checks.read_ir_curve(os.path.join(workdir, curve_csv))["ir"]

        def change(fit):
            flat = np.full(len(target), 0.01)
            fit["fitted"]["ir"] = flat.tolist()
            fit["rss"] = float(np.sum((flat - target) ** 2))

        edit_json(os.path.join(workdir, fit_json), change)

    return corrupt


CORRUPTIONS = {
    "history": {
        "ingest": [
            lambda d: edit_csv(os.path.join(d, "returns.csv"), 5, 1, scale(1.001)),
            lambda d: edit_csv(os.path.join(d, "returns.csv"), 5, 0, lambda s: "1901-01-01"),
        ],
        "ir": [
            lambda d: edit_csv(os.path.join(d, "ir.csv"), 7, 3, scale(1.0001)),
            lambda d: edit_csv(os.path.join(d, "ir.csv"), 7, 1, scale(1.01)),
            lambda d: edit_csv(os.path.join(d, "ir.csv"), 7, 6, lambda s: str(int(s) + 1)),
            lambda d: edit_csv(os.path.join(d, "ir.csv"), 7, 5, scale(1.01)),
        ],
        "regimes": [
            corrupt_overlap,
            corrupt_case,
            lambda d: edit_csv(os.path.join(d, "regimes.csv"), 0, 5, scale(1.001)),
            lambda d: edit_csv(os.path.join(d, "regimes.csv"), 0, 7,
                               lambda s: str(int(s) % w.REGIME_N_MAX + 1)),
            lambda d: edit_csv(os.path.join(d, "regimes.csv"), 0, 2, lambda s: str(int(s) - 1)),
            lambda d: edit_csv(os.path.join(d, "regimes.csv"), 0, 3, lambda s: repr(float(s) + 0.01)),
            lambda d: edit_csv(os.path.join(d, "regimes.csv"), 0, 6, scale(1.001)),
            lambda d: edit_csv(os.path.join(d, "avg_ir.csv"), 3, 3, scale(1.001)),
        ],
        "fit": [
            lambda d: edit_json(os.path.join(d, "fit.json"),
                                lambda f: f.update(rss=f["rss"] * 1.01)),
            lambda d: edit_json(os.path.join(d, "fit.json"),
                                lambda f: f["parameters"].update(mu=f["parameters"]["mu"] + 0.01)),
            corrupt_start_rss,
        ],
        "theory": [
            lambda d: edit_csv(os.path.join(d, "theory.csv"), 10, 2, scale(1.0001)),
        ],
    },
    "montecarlo": {
        "simulate": [
            lambda d: edit_csv(os.path.join(d, "mc.csv"), 44, 1, scale(1.001)),
            lambda d: edit_csv(os.path.join(d, "mc.csv"), 0, 2, scale(1.01)),
            lambda d: edit_csv(os.path.join(d, "mc.csv"), 3, 5, lambda s: str(int(s) + 1)),
        ],
        "simulate_ma": [
            lambda d: edit_csv(os.path.join(d, "ma_mc.csv"), 4, 1, lambda s: repr(float(s) + 0.05)),
            lambda d: edit_csv(os.path.join(d, "ma_mc.csv"), 0, 3, lambda s: str(int(s) + 1)),
        ],
    },
    "wavefit": {
        "fit_iid": [
            lambda d: edit_json(os.path.join(d, "wavefit.json"),
                                lambda f: f["parameters"].update(t_wave=f["parameters"]["t_wave"] + 40)),
            lambda d: edit_json(os.path.join(d, "wavefit.json"),
                                lambda f: f["parameters"].update(
                                    amplitude=f["parameters"]["amplitude"] * 1.3)),
            lambda d: edit_json(os.path.join(d, "wavefit.json"),
                                lambda f: f.update(rss=f["rss"] * 2)),
            corrupt_wave_curve("wave_ir.csv", "wavefit.json"),
        ],
        "fit_ma": [
            lambda d: edit_json(os.path.join(d, "wavefit_ma.json"),
                                lambda f: f["parameters"].update(t_wave=f["parameters"]["t_wave"] + 20)),
            lambda d: edit_json(os.path.join(d, "wavefit_ma.json"),
                                lambda f: f.update(rss=f["rss"] * 2)),
            lambda d: edit_json(os.path.join(d, "wavefit_ma.json"),
                                lambda f: f["parameters"].update(
                                    amplitude=f["parameters"]["amplitude"] * 1.5)),
            lambda d: edit_json(os.path.join(d, "wavefit_ma.json"),
                                lambda f: f["parameters"].update(rho_1=1.2)),
            corrupt_wave_curve("wave_ma_ir.csv", "wavefit_ma.json"),
        ],
    },
}

CASES = [(workload, op, i) for workload, ops in CORRUPTIONS.items()
         for op, corruptions in ops.items() for i in range(len(corruptions))]


@pytest.mark.parametrize("workload,op,index", CASES)
def test_corrupted_output_fails_its_check(pristine, tmp_path, workload, op, index):
    source, truth = pristine(workload)
    workdir = str(tmp_path / "out")
    shutil.copytree(source, workdir)
    with small(workload):
        CORRUPTIONS[workload][op][index](workdir)
        try:
            found = checks.check(workload, workdir, truth)[op]
        except (ValueError, KeyError, IndexError) as exc:  # unreadable counts as caught
            found = [repr(exc)]
    assert found, f"{workload}/{op} corruption {index} went unnoticed"


def test_monotone_curve_has_no_damped_oscillation():
    n = np.arange(1, 401)
    rising = 0.05 * (1 - np.exp(-n / 50.0))
    assert checks.damped_oscillation(rising, np.full(400, 1e-4))
    falling_only = 0.05 * np.exp(-n / 50.0)
    assert checks.damped_oscillation(falling_only, np.full(400, 1e-4))
