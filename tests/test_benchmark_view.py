"""The benchmark's view of the package, pinned.

``perfbench/tracer.py`` wraps functions of ``snls`` by module and
attribute name, calls ``experiments.run`` through the benchmark worker,
and counts substeps with its own copy of the step rule.  It is loaded here
by path and left unedited, so that a rename or a rule change in the
package fails here rather than in a benchmark run.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from snls import experiments
from snls.propagators import substep_sizes

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@functools.cache
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_callable():
    targets = [target for group in tracer().SPANS.values() for target in group]
    assert targets
    for module_name, path in targets:
        module = importlib.import_module(f"snls.{module_name}")
        assert callable(functools.reduce(getattr, path.split("."), module)), (module_name, path)


def test_run_keeps_its_signature():
    params = inspect.signature(experiments.run).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("cfg", inspect.Parameter.empty), ("output_dir", None), ("threads", 1)
    ]


@settings(max_examples=200)
@given(st.floats(1e-4, 0.1), st.integers(-5000, 5000),
       st.one_of(st.sampled_from([0.0, 1e-15, 1e-13, 1e-9, 0.5]), st.floats(0.0, 1.0)))
def test_tracer_counts_the_package_substeps(dt, k, fraction):
    # times on, next to and between the points of the step lattice
    t = (k + fraction) * dt
    n_full, rem = substep_sizes(t, dt)
    assert tracer().substeps(t, dt) == n_full + (rem > 0)
