import numpy as np
import pytest

from zrange.grids import GridError, GridFunction, RadialGrid, build_grid


def test_linear_grid_matches_arithmetic_progression():
    g = build_grid(8, 1.0, "linear")
    assert np.allclose(g.nodes, np.arange(1, 9) * 0.125)
    assert g.nodes[-1] == pytest.approx(1.0)


def test_log_grid_has_constant_node_ratio():
    g = build_grid(16, 10.0, "logarithmic")
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_too_few_nodes_rejected():
    with pytest.raises(GridError, match="too small"):
        build_grid(4, 1.0, "linear")


@pytest.mark.parametrize("n", [8.5, 16.0, "16"])
def test_non_integer_node_count_rejected(n):
    # 8.5 once escaped as numpy's bare TypeError from linspace
    with pytest.raises(GridError, match=f"n={n!r} must be an integer"):
        build_grid(n, 1.0, "linear")


def test_bad_r_max_rejected():
    with pytest.raises(GridError):
        build_grid(16, -1.0, "linear")
    with pytest.raises(GridError, match="spacing"):
        build_grid(16, 1.0, "cubic")


@pytest.mark.parametrize("r_max", [float("nan"), float("inf")])
def test_non_finite_r_max_rejected(r_max):
    with pytest.raises(GridError, match="r_max"):
        build_grid(16, r_max, "linear")


def test_weights_positive_and_integrate_constant():
    for spacing in ("linear", "logarithmic"):
        g = build_grid(200, 5.0, spacing)
        assert np.all(g.weights > 0)
        # integral of 1 over (0, r_max] is r_max up to the first-cell offset
        assert g.integrate(np.ones(g.n)) == pytest.approx(5.0, rel=1e-2)


def test_grid_function_shape_checked():
    g = build_grid(16, 1.0, "linear")
    with pytest.raises(GridError):
        GridFunction(g, np.ones(8))


def test_dilate_scales_nodes_and_weights():
    g = build_grid(32, 2.0, "logarithmic", r_min=1e-3)
    gd = g.dilate(3.0)
    assert np.allclose(gd.nodes, 3.0 * g.nodes)
    assert gd.integrate(np.ones(32)) == pytest.approx(3.0 * g.integrate(np.ones(32)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_node_and_dilation_rejected(bad):
    with pytest.raises(GridError, match="finite"):
        RadialGrid(np.array([0.5, 1.0, bad]), np.ones(3), "linear", bad)
    with pytest.raises(GridError, match="dilation"):
        build_grid(16, 1.0, "linear").dilate(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_r_max_and_weights_rejected(bad):
    nodes = np.array([0.5, 1.0])
    with pytest.raises(GridError, match="r_max"):
        RadialGrid(nodes, np.ones(2), "linear", bad)
    with pytest.raises(GridError, match="weights"):
        RadialGrid(nodes, np.array([0.5, bad]), "linear", 1.0)


def test_strictly_increasing_enforced():
    nodes = np.array([0.1, 0.2, 0.2, 0.4])
    with pytest.raises(GridError):
        RadialGrid(nodes, np.ones(4), "linear", 0.4)
