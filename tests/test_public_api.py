import ast
import importlib
import inspect
import pathlib
import pkgutil

import momir

# Every public non-module name of the package itself: none, since each name
# is imported from its module.  Re-adding a facade shows up as an edit here.
PUBLIC_NAMES = []


def test_package_exposes_exactly_the_pinned_names_and_every_all_entry_resolves():
    got = sorted(
        name for name in dir(momir)
        if not name.startswith("_") and not inspect.ismodule(getattr(momir, name))
    )
    assert got == PUBLIC_NAMES
    for info in pkgutil.iter_modules(momir.__path__):
        module = importlib.import_module(f"momir.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"momir.{info.name}.__all__ names missing attributes: {missing}"


# Every module's ``__all__``, sorted; ``cli`` declares none.  A name that no
# program path needs stays out, so re-adding one shows up as an edit here.
MODULE_ALL = {
    "cli": [],
    "fit": ["FitResult", "fit_moment_profile", "fit_square_wave", "write_fit_result_json"],
    "regimes": [
        "RegimeCase", "RegimeStats", "acf1", "average_ir_curve", "detect_breakpoints",
        "regime_stats", "weekly_segmentation", "write_regime_report_csv",
    ],
    "simulate": [
        "IidGaussian", "McIrCurve", "MovingAverage", "ProcessSpec", "SquareWaveDrift",
        "innovations", "load_process_spec", "ma_from_target_acf", "mc_ir_curve", "path_rng",
        "scored_paths", "series", "theoretical_acf_of_ma", "write_mc_ir_curve_csv",
    ],
    "strategy": [
        "IrCurve", "PERIODS_PER_YEAR", "annualize", "backtest", "check_lookbacks", "ir_curve",
        "ir_standard_error", "lookback_range", "read_ir_curve_csv", "write_ir_curve_csv",
    ],
    "theory": [
        "MomentProfile", "TheoreticalIr", "realizability_violation", "theoretical_ir",
        "theory_curve", "write_theory_curve_csv",
    ],
    "timeseries": [
        "DatedSeries", "last_per_key", "log_returns", "normalize", "read_csv", "read_price_csv",
        "read_value_csv", "resample_to_weekly", "write_csv", "write_series_csv",
    ],
}


def test_each_module_exports_exactly_the_pinned_all():
    got = {
        info.name: sorted(getattr(importlib.import_module(f"momir.{info.name}"), "__all__", []))
        for info in pkgutil.iter_modules(momir.__path__)
    }
    assert got == MODULE_ALL


SRC = pathlib.Path(momir.__file__).parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_outside_its_own_class():
    # A field that no code outside its class reads as an attribute is carried
    # but never used; attribute names are matched without resolving types.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fields = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        fields.append((module, node, stmt.target.id))
    unread = []
    for module, cls, field in fields:
        own = {id(n) for n in ast.walk(cls)}
        read = any(
            isinstance(n, ast.Attribute) and n.attr == field
            and isinstance(n.ctx, ast.Load) and id(n) not in own
            for tree in trees.values() for n in ast.walk(tree)
        )
        if not read:
            unread.append(f"{module}:{cls.name}.{field}")
    assert not unread, f"dataclass fields no code reads: {unread}"


# Public names that no program path calls.  Each is kept only because the
# benchmark looks it up by name, and goes when the benchmark stops doing so.
NO_PROGRAM_CALLER = [
    "strategy.backtest",  # traced by name in bench/tracer.py
    "theory.theoretical_ir",  # traced by name in bench/tracer.py
]


def test_every_all_name_is_referenced_outside_its_own_definition():
    # A public name that only tests call is an entry point the program does
    # not need.  A reference is a name or attribute in code, not a docstring.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uncalled = []
    for module, tree in trees.items():
        for name in getattr(importlib.import_module(f"momir.{module}"), "__all__", []):
            own = {
                id(n) for stmt in tree.body if name in _defined_names(stmt) for n in ast.walk(stmt)
            }
            used = any(
                ((isinstance(n, ast.Name) and n.id == name)
                 or (isinstance(n, ast.Attribute) and n.attr == name)) and id(n) not in own
                for other in trees.values() for n in ast.walk(other)
            )
            if not used:
                uncalled.append(f"{module}.{name}")
    assert uncalled == NO_PROGRAM_CALLER


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]
