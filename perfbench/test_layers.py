"""The layer map covers the whole ``repro`` package.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import FUNCTION_LAYERS, LAYERS, MODULE_LAYERS, layer_of, repro_modules  # noqa: E402


def test_every_repro_module_maps_to_a_named_layer():
    unmapped = [name for name in repro_modules() if layer_of(name) not in LAYERS]
    assert unmapped == []


def test_every_override_names_an_existing_module_and_layer():
    modules = set(repro_modules())
    for module, layer in MODULE_LAYERS.items():
        assert module in modules and layer in LAYERS
    for qualname, layer in FUNCTION_LAYERS.items():
        assert layer in LAYERS
        module_name = max((m for m in modules if qualname.startswith(m + ".")), key=len)
        target = importlib.import_module(module_name)
        for attr in qualname[len(module_name) + 1:].split("."):
            target = getattr(target, attr)
        assert callable(target)
