"""The benchmark's tracer (``perfbench/tracing.py``) against the package.

The tracer wraps package functions by attribute name and derives its
per-layer figures from the spans those wrappers record, so a renamed
function breaks every traced benchmark run.  Both branches of
``project_numeric`` evaluate the kernel through its 1-d factor tables, so
a projection records one ``projection.numeric`` span and no
``kernel.closed`` or ``quadrature.integrate`` span.
The module is loaded from its file, unchanged.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from fathartogs import analysis, cli, projection
from fathartogs.geometry import DomainSpec, Point2
from fathartogs.kernel import kernel_abs_polar
from fathartogs.quadrature import QuadratureSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    for module, attr, _, _ in tracing.WRAPS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# a callable input is contracted against the kernel's factor tables one u
# node at a time: no kernel block and no integrate call
@pytest.mark.parametrize("k", [1, 2])
def test_callable_projection_records_one_numeric_span(tracing, k):
    spec = QuadratureSpec(radial_nodes=6, angular_nodes=8, boundary_offset=1e-6)
    tracer = tracing.Tracer()
    tracer.op = "project"  # spans of the default op, "setup", feed no layer figure
    tracer.install()
    try:
        projection.project_numeric(DomainSpec(k), lambda w1, w2: w1 * w2,
                                   Point2(0.2 + 0.1j, 0.4 - 0.1j), spec)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["projection.numeric"]
    assert tracing.layer_metrics(tracer.spans, 1)["projection.numeric.calls"] == 1


# a monomial input takes the angular-mode path: the command's one
# projection.numeric span holds no kernel block and no integrate call
def test_project_command_records_one_numeric_span(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.op = "project"
    tracer.install()
    try:
        code = cli.main(["project", "--k", "2", "--f", "1,1:1,1", "--z", "0.4,0.4",
                         "--output-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert names.count("projection.numeric") == 1
    assert "kernel.closed" not in names and "quadrature.integrate" not in names
    assert tracing.layer_metrics(tracer.spans, 1)["projection.numeric.calls"] == 1


# an inner point, and the axis z1 = 0, where u and theta1 have one node each
@pytest.mark.parametrize("z", [Point2(0.3 + 0.1j, 0.5 - 0.2j), Point2(0j, 0.6 + 0j)],
                         ids=["inner", "axis"])
def test_schur_value_records_one_polar_span_per_v_block(tracing, monkeypatch, z):
    blocks = []

    def recording_polar(*args, **kwargs):
        block = kernel_abs_polar(*args, **kwargs)
        blocks.append(block.shape)
        return block

    monkeypatch.setattr(analysis, "kernel_abs_polar", recording_polar)
    tracer = tracing.Tracer()
    tracer.op = "schur"
    tracer.install()
    try:
        analysis._schur_value(DomainSpec(2), z, 0.75, 0.75, 1e-3)
    finally:
        tracer.uninstall()
    n_v = analysis._v_axis(2, 0.75, 0.75, abs(z.z2), 1e-3)[0].size
    rest = list(blocks[0][1:])
    if z.z1 == 0:
        assert rest[1:] == [1, 1]
    per_node = math.prod(rest)
    rows = max(1, analysis._SCHUR_BLOCK_ENTRIES // per_node)
    blocks = [min(rows, n_v - lo) * per_node for lo in range(0, n_v, rows)]
    polar = [s for s in tracer.spans if s.name == "kernel.abs_polar"]
    assert [s.counts["evals"] for s in polar] == blocks
    assert tracing.layer_metrics(tracer.spans, 1)["kernel.abs_polar.evals"] == n_v * per_node
