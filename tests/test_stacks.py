"""Every function of a state acts per member of a stack.

A stack of B members on one grid goes through each public function of
``dynamics``, ``diagnostics`` and ``normalform`` that takes a ``WaveState``
or a ``DiagState`` (and through ``holo.sobolev_norm``,
``holo.holomorphy_residual``, ``reference.high_forms`` and the references
to ``dynamics.rhs_full`` that ``tests/reference.py`` holds: ``rhs_diag``,
the structure routes and their gradients, ``skew_check`` and
``rhs_linearized``) in one call, and
member j of the result is that member's own call, bit for bit, and so
does the invariant-shell projection of ``integrator`` on a ledger block.
``stack_states`` and ``unstack`` build and split the stacks themselves
(``test_dynamics::test_stack_and_unstack``).
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from wavestrip.cli import _block_size
from wavestrip.grid import SpectralGrid, make_grid
from wavestrip.holo import holomorphy_residual, sobolev_norm
from wavestrip import diagnostics as dg
from wavestrip import dynamics as dy
from wavestrip import normalform as nf
from wavestrip.integrator import _project_to_invariant_shell
from conftest import random_trace, same_bits
import reference as ref

B = 3

# name -> f(state, diag, extras); extras are (X, Y, omega): two (w, q)
# pairs and a real weight, one of each per member
CASES = {
    "diag_of": lambda s, d, x: dy.diag_of(s),
    "rhs_full": lambda s, d, x: dy.rhs_full(s),
    "rhs_diag": lambda s, d, x: ref.rhs_diag(d),
    "taylor_field": lambda s, d, x: dy.taylor_field(s),
    "energy": lambda s, d, x: dy.energy(s),
    "momentum": lambda s, d, x: dy.momentum(s),
    "energy_gradient": lambda s, d, x: ref.energy_gradient(s),
    "momentum_gradient": lambda s, d, x: ref.momentum_gradient(s),
    "hamiltonian_vf": lambda s, d, x: ref.hamiltonian_vf(s),
    "momentum_vf": lambda s, d, x: ref.momentum_vf(s),
    "structure_matrix_apply": lambda s, d, x: ref.structure_matrix_apply(
        s, x[0]),
    "skew_check": lambda s, d, x: ref.skew_check(s, x[0], x[1]),
    "rhs_linearized": lambda s, d, x: ref.rhs_linearized(s, x[0]),
    "scale_state": lambda s, d, x: dy.scale_state(s, 2.0),
    "model_energies": lambda s, d, x: dy.model_energies(d, x[0], x[2]),
    "control_norms": lambda s, d, x: dg.control_norms(d),
    "sobolev_Nn-1": lambda s, d, x: dg.sobolev_Nn(d, 1),
    "sobolev_Nn-2": lambda s, d, x: dg.sobolev_Nn(d, 2),
    "measure": lambda s, d, x: dg.measure(s, 0.1),
    "nf_transform": lambda s, d, x: nf.nf_transform(s),
    "nf_energy-1": lambda s, d, x: nf.nf_energy(1, d),
    "nf_energy-2": lambda s, d, x: nf.nf_energy(2, d),
    "high_forms-1": lambda s, d, x: ref.high_forms(1, d),
    "high_forms-2": lambda s, d, x: ref.high_forms(2, d),
    "cubic_energy_high-1": lambda s, d, x: nf.cubic_energy_high(1, d),
    "cubic_energy_high-2": lambda s, d, x: nf.cubic_energy_high(2, d),
    "sobolev_norm-l2": lambda s, d, x: sobolev_norm(s.W, 1.5, s.grid),
    "sobolev_norm-holo": lambda s, d, x: sobolev_norm(s.Q, 0.5, s.grid,
                                                      base="holo"),
    # each member's Im W shifted by its own constant, which the residual
    # ignores; a mean pooled over the stack would read as a defect
    "holomorphy_residual": lambda s, d, x: holomorphy_residual(
        s.W + 1j * x[2][..., :1], s.grid),
}

def _leaves(value, path=""):
    """(path, leaf) pairs of a result: arrays, scalars and grids."""
    if isinstance(value, SpectralGrid):
        yield path, value
    elif is_dataclass(value):
        for f in fields(value):
            yield from _leaves(getattr(value, f.name), f.name)
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, np.asarray(value)


def _member(extras, j):
    return ((extras[0][0][j], extras[0][1][j]),
            (extras[1][0][j], extras[1][1][j]), extras[2][j])


@pytest.mark.parametrize("cell", [(2 * np.pi, 1.0), (2 * np.pi, 0.25),
                                  (3.0, 1.0)], ids=["2pi-1", "2pi-0.25", "3-1"])
@pytest.mark.parametrize("name", list(CASES))
def test_stack_equals_its_members(name, cell):
    L, h = cell
    grid = make_grid(L, 64, h)
    rng = np.random.default_rng(7)
    scale = 0.02 * min(h, 1.0)

    def traces():
        return np.stack([random_trace(grid, rng, scale=scale)
                         for _ in range(B)])

    stack = dy.WaveState(grid, traces(), traces(), 1.0, t=0.5)
    extras = ((traces(), traces()), (traces(), traces()),
              1.0 + traces().real)
    fn = CASES[name]
    got = list(_leaves(fn(stack, dy.diag_of(stack), extras)))
    for j, m in enumerate(dy.unstack(stack)):
        want = list(_leaves(fn(m, dy.diag_of(m), _member(extras, j))))
        assert [p for p, _ in got] == [p for p, _ in want]
        for (path, a), (_, b) in zip(got, want):
            if isinstance(b, SpectralGrid) or a.shape == b.shape:
                # shared by the members: the grid, g, t, dt
                assert np.all(a == b), (path, j)
                continue
            assert a.shape == (B,) + b.shape, (path, a.shape, b.shape)
            assert np.array_equal(a[j], b), (path, j)


@pytest.mark.parametrize("h", [1.0, 0.25])
@pytest.mark.parametrize("N", [256, 128])
def test_wide_stack_measure_equals_its_members(N, h):
    # a ledger block of _block_size(grid) random states, 16 at N = 256 and
    # 32 at N = 128, 96 members in all: a stack/member difference that hits
    # about 1 value in 1200 (12 fields a member) shows here and can pass
    # the 3-member stacks above
    grid = make_grid(2 * np.pi, N, h)
    rng = np.random.default_rng(N + int(4 * h))
    scales = 0.02 * min(h, 1.0) * 10.0 ** rng.uniform(-2.0, 0.0,
                                                      _block_size(grid))

    def traces():
        return np.stack([random_trace(grid, rng, scale=s) for s in scales])

    stack = dy.WaveState(grid, traces(), traces(), 1.0, t=0.5)
    table = dg.measure(stack, 0.1).table([0.5] * len(scales))
    alone = [dg.measure(m, 0.1).table([m.t]) for m in dy.unstack(stack)]
    assert table.tobytes() == np.concatenate(alone).tobytes()


@pytest.mark.parametrize("h", [1.0, 0.25])
@pytest.mark.parametrize("N", [256, 128])
def test_wide_stack_shell_projection_equals_its_members(N, h):
    # a block of _block_size(grid) random members moved off their shells:
    # each row of the projected stack is that member's own projection, bit
    # for bit, where a split of 1 value in 1200 in the per-member solve or
    # the stacked coefficients would show
    grid = make_grid(2 * np.pi, N, h)
    rng = np.random.default_rng(2 * N + int(4 * h))
    scales = 0.2 * min(h, 1.0) * 10.0 ** rng.uniform(-2.0, 0.0,
                                                     _block_size(grid))

    def traces():
        return np.stack([random_trace(grid, rng, scale=s) for s in scales])

    s = dy.WaveState(grid, traces(), traces(), 1.0, t=0.5)
    E, I = dy.energy(s)[0], dy.momentum(s)
    moved = s.with_fields(1.001 * s.W, 0.998 * s.Q)
    p = _project_to_invariant_shell(moved, E, I)
    for j, m in enumerate(dy.unstack(moved)):
        alone = _project_to_invariant_shell(m, E[j], I[j])
        assert alone is not m, j
        assert same_bits(p.W[j], alone.W) and same_bits(p.Q[j], alone.Q), j


def test_squares_where_pow_and_product_differ():
    # a float64 scalar's ** 2 is libm pow(x, 2), an array's is x * x, and
    # the two differ in the last bit for about 1 value in 1200: found by a
    # scan, those values must square as a lone member squares them
    v = np.random.default_rng(0).uniform(1e-3, 10.0, 200_000)
    odd = v[np.array([np.float64(x) ** 2 for x in v]) != v * v]
    if odd.size == 0:
        pytest.skip("pow(x, 2) equals x * x on every value scanned")
    assert np.array_equal(dg._pow2(odd), [np.float64(x) ** 2 for x in odd])
    # members whose ladder norms come out otherwise when squared as one
    # array: a stack of them gives each its own sobolev_Nn
    grid = make_grid(2 * np.pi, 16, 1.0)
    rng = np.random.default_rng(1)
    g = 1.3
    bW, R = (0.05 * (rng.standard_normal((1024, grid.N))
                     + 1j * rng.standard_normal((1024, grid.N)))
             for _ in range(2))
    for n in (1, 2):
        nw = sobolev_norm(bW, n - 1.0, grid)
        nr = sobolev_norm(R, n - 0.5, grid)
        lone = [np.sqrt(g * np.float64(a) ** 2 + np.float64(b) ** 2)
                for a, b in zip(nw, nr)]
        sel = np.flatnonzero(lone != np.sqrt(g * nw * nw + nr * nr))
        assert sel.size > 0, n
        got = dg.sobolev_Nn(dy.DiagState(grid, bW[sel], R[sel], g), n)
        want = [dg.sobolev_Nn(dy.DiagState(grid, bW[j], R[j], g), n)
                for j in sel]
        assert np.array_equal(got, want), n
