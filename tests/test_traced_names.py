"""The benchmark's tracer finds every library name it wraps, and puts each back.

``perfbench/spans.py`` wraps functions by module and attribute name, so a
library change that renames or deletes one makes ``Tracer.install`` raise
``AttributeError`` in every traced run.  The tracer is loaded from its file,
as the benchmark harness does, not from an installed package.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import iwafit
from iwafit.ideals import Ideal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("iwafit_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def iwafit_modules():
    for info in pkgutil.iter_modules(iwafit.__path__):
        importlib.import_module(f"iwafit.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "iwafit" or name.startswith("iwafit."))}


def test_tracer_installs_and_restores_every_name():
    spans = load_spans()
    modules = iwafit_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    canonical = Ideal.__dict__["canonical"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for mod_name, attr, _ in spans.FUNCTIONS:
            home = modules[f"iwafit.{mod_name}"]
            assert getattr(home, attr) is not before[home.__name__][attr]
        assert Ideal.__dict__["canonical"] is not canonical
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys(), name
        changed = [key for key, value in before[name].items() if after[key] is not value]
        assert not changed, f"{name}: {changed}"
    assert Ideal.__dict__["canonical"] is canonical
