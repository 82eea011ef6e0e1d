"""The benchmark tracer (perfbench/tracer.py) wraps public functions in
every module that imports them by name.  A refactor that unbinds one of
those names breaks the traced benchmark run; this test makes it fail the
ordinary suite too."""

import importlib.util
from pathlib import Path

import isochron.cli
import isochron.regions

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    watched = [
        (isochron.regions, "detect_periodicity"),
        (isochron.regions, "poincare_map"),
        (isochron.regions, "region_volume"),
        (isochron.cli, "pulse_signature"),
        (isochron.cli, "main"),
    ]
    originals = [getattr(module, name) for module, name in watched]
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        for (module, name), original in zip(watched, originals):
            assert getattr(module, name) is not original, f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for (module, name), original in zip(watched, originals):
        assert getattr(module, name) is original, f"{name} was not restored"
