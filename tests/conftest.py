import numpy as np
import pytest

import schrodloc as sl


FIELD_KINDS = ("periodic", "iid", "tensor", "planted", "domino")


def make_field(kind, grid, alpha=1.0, beta=None, **kw):
    """A field of any generator kind (plus "constant") with test defaults."""
    if beta is None:
        beta = 8.0 * grid.inv_eps ** 2
    if kind == "periodic":
        return sl.gen_periodic(grid, alpha, beta)
    if kind == "iid":
        return sl.gen_iid(grid, alpha, beta, kw.get("p_beta", 0.5))
    if kind == "tensor":
        return sl.gen_tensor(grid, alpha, beta, kw.get("p_alpha", 0.4))
    if kind == "planted":
        return sl.gen_planted(grid, alpha, beta, kw.get("widths", [2]))
    if kind == "domino":
        return sl.gen_domino(grid, alpha, beta, max_level=kw.get("max_level", 4))
    if kind == "constant":
        occ = np.ones(grid.shape, dtype=bool)
        return sl.PotentialField(grid=grid, occupancy=occ, alpha=alpha, beta=beta, kind="iid")
    raise ValueError(kind)


def make_system(kind="iid", d=1, inv_eps=32, m=4, seed=3, alpha=1.0, beta=None, **kw):
    """One-stop field + assembly helper used across the suite."""
    grid = sl.GridSpec(d=d, inv_eps=inv_eps, seed=seed)
    field = make_field(kind, grid, alpha, beta, **kw)
    sub = sl.SubgridSpec(grid=grid, m=m)
    return field, sl.assemble(field, sub)


def nodes_of_cells(sub, cells):
    """Nodes on the closed eps-cells of a cell mask, as a boolean node vector."""
    m, n1, ne = sub.m, sub.n_axis, sub.grid.inv_eps
    i = np.arange(n1)
    member = np.zeros((n1, ne))
    member[i, i // m] = 1.0
    member[i[::m], (i[::m] // m - 1) % ne] = 1.0
    arr = np.asarray(cells, dtype=float)
    for axis in range(sub.grid.d):
        arr = np.moveaxis(np.tensordot(member, arr, axes=([1], [axis])), 0, axis)
    return arr.ravel() > 0


@pytest.fixture(scope="session")
def random_1d():
    """1D i.i.d. field, the workhorse disorder instance of the suite."""
    field, sys = make_system(kind="iid", d=1, inv_eps=64, m=4, seed=3)
    return field, sys


@pytest.fixture(scope="session")
def random_1d_oracle(random_1d):
    _, sys = random_1d
    return sl.dense_oracle(sys, 8)


@pytest.fixture(scope="session")
def periodic_1d():
    field, sys = make_system(kind="periodic", d=1, inv_eps=16, m=4)
    return field, sys


@pytest.fixture(scope="session")
def constant_1d():
    """V identically beta: every analytic quantity is known in closed form."""
    field, sys = make_system(kind="constant", d=1, inv_eps=8, m=4, beta=1024.0)
    return field, sys
