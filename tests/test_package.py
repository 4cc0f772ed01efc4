import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import nilmult

SRC = Path(nilmult.__file__).resolve().parent

LAYERS = ("analysis", "catalog", "cli", "exactla", "free_lie", "homology", "lie_core",
          "record")


def _home(obj):
    """The layer that defines a public class or function."""
    return obj.__module__.rpartition(".")[2]


@pytest.mark.parametrize("name", nilmult.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(nilmult, name)
    module = importlib.import_module(f"nilmult.{_home(obj)}")
    assert getattr(module, name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nilmult import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == nilmult.__all__
    for name in nilmult.__all__:
        assert namespace[name] is getattr(nilmult, name)


def test_dir_lists_every_public_name_and_layer():
    listed = dir(nilmult)
    assert set(nilmult.__all__) <= set(listed)
    assert set(LAYERS) <= set(listed)
    assert listed == sorted(listed)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_resolves_as_a_module(layer):
    module = getattr(nilmult, layer)
    assert isinstance(module, types.ModuleType)
    assert module is importlib.import_module(f"nilmult.{layer}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        nilmult.not_a_name
    assert not hasattr(nilmult, "_lower_series")
    assert nilmult.__version__ == "0.1.0"


def test_every_name_the_benchmark_traces_exists():
    # perfbench/tracer.py wraps these by name, and perfbench/run.py reads
    # multiplier_dim's cache_info, so none of them may be renamed away
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    needed = [(layer, name) for layer, names in tracer.TRACED.items() for name in names]
    needed += [(tracer.CONSTRUCT.partition(".")[0], "LieAlgebra.__init__"),
               ("homology", "multiplier_dim.cache_info")]
    missing = []
    for layer, dotted in needed:
        obj = importlib.import_module(f"nilmult.{layer}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"nilmult.{layer}.{dotted}")
    assert not missing, "perfbench needs " + ", ".join(missing)


# Public names that nothing in src/ references, each with its reason.
KEPT = {
    "rref": "perfbench/tracer.py wraps it; the exact RREF of a Matrix",
    "kernel_basis": "perfbench/tracer.py wraps it; the null space of a Matrix",
    "d2_matrix": "perfbench/tracer.py wraps it; the dense view of d2",
    "d3_matrix": "perfbench/tracer.py wraps it; the dense view of d3",
    "eq3_consistency": "perfbench/tracer.py wraps it; the telescoping identity alone",
    "minimal_generators": "perfbench/tracer.py wraps it; lifts of a basis of L/γ₂",
    "quotient_algebra": "perfbench/tracer.py wraps it; the quotient by any ideal",
    "product_space": "perfbench/tracer.py wraps it; the reference the lower-series tests build on",
    "serialize": "the documented .lie writer, the inverse of parse_file",
}


def _references():
    """Every name read in src/nilmult, as a variable or an attribute,
    outside the top-level definition of that same name."""
    seen = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else (
                    sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    seen.add(name)
    return seen


def _private_functions():
    """The module-level functions of src/nilmult named with one leading underscore."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")}


def test_every_public_name_is_reached_or_kept_for_a_reason():
    references = _references()
    unreached = sorted(set(nilmult.__all__) - references - set(KEPT))
    assert not unreached, "public but referenced nowhere in src/: " + ", ".join(unreached)
    stale = sorted(name for name in KEPT
                   if name not in nilmult.__all__ or name in references)
    assert not stale, "kept without need: " + ", ".join(stale)
    # a private function that only tests call belongs in tests/helpers.py
    unreached = sorted(_private_functions() - references)
    assert not unreached, "private but referenced nowhere in src/: " + ", ".join(unreached)
