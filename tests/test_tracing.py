"""The benchmark's tracer (``perfbench/tracing.py``) against the package.

The tracer wraps package functions by attribute name and derives its
per-layer figures from the spans those wrappers record, so a renamed
function, or a projection that no longer evaluates its kernel once per
tensor block inside ``integrate``, breaks every traced benchmark run.
The module is loaded from its file, unchanged.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from fathartogs import analysis, cli, projection, quadrature
from fathartogs.geometry import DomainSpec, Point2
from fathartogs.quadrature import QuadratureSpec, _core_axes

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


# 8 angles: the 36 u nodes of the core fall into blocks of 15, 15 and 6
@pytest.mark.parametrize("k", [1, 2])
def test_projection_records_one_kernel_span_per_block(tracing, k):
    d = DomainSpec(k)
    spec = QuadratureSpec(radial_nodes=6, angular_nodes=8, boundary_offset=1e-6)
    tracer = tracing.Tracer()
    tracer.op = "project"  # spans of the default op, "setup", feed no layer figure
    tracer.install()
    try:
        projection.project_numeric(d, lambda w1, w2: w1 * w2, Point2(0.2 + 0.1j, 0.4 - 0.1j),
                                   spec)
    finally:
        tracer.uninstall()
    (u, _), (v, _), (theta, _), _ = _core_axes(d, spec)
    per_node = v.size * theta.size**2
    rows = max(1, quadrature._TENSOR_BLOCK_ENTRIES // per_node)
    blocks = [min(rows, u.size - lo) * per_node for lo in range(0, u.size, rows)]
    assert len(blocks) > 1
    (integrate,) = [s for s in tracer.spans if s.name == "quadrature.integrate"]
    closed = [s for s in tracer.spans if s.name == "kernel.closed"]
    assert [s.counts["evals"] for s in closed] == blocks
    assert all(s.parent == integrate.id for s in closed)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["kernel.closed.evals"] == sum(blocks) == u.size * per_node
    assert metrics["quadrature.integrate.nodes_per_call"] == sum(blocks)


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
    sums = []

    def recording_sum(axes, f):
        sums.append([x.size for x, _ in axes])
        return quadrature.tensor_sum(axes, f)

    monkeypatch.setattr(analysis, "tensor_sum", recording_sum)
    tracer = tracing.Tracer()
    tracer.op = "schur"
    tracer.install()
    try:
        analysis._schur_value(DomainSpec(2), z, 0.75, 0.75, 1e-3)
    finally:
        tracer.uninstall()
    ((n_v, *rest),) = sums
    if z.z1 == 0:
        assert rest[1:] == [1, 1]
    per_node = math.prod(rest)
    rows = max(1, quadrature._TENSOR_BLOCK_ENTRIES // per_node)
    blocks = [min(rows, n_v - lo) * per_node for lo in range(0, n_v, rows)]
    polar = [s for s in tracer.spans if s.name == "kernel.abs_polar"]
    assert [s.counts["evals"] for s in polar] == blocks
    assert tracing.layer_metrics(tracer.spans, 1)["kernel.abs_polar.evals"] == n_v * per_node
