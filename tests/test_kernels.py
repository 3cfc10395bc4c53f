"""Equivalence of the vectorized hot-path kernels with plain references.

The stacked spline gather is checked against per-component evaluation and
a direct basis-function sum, ``fit_2d`` for rejecting a stacked array, the
deposits bitwise against a loop with explicit validity masks in their
summation order (the stage deposit, 1D or 2D, in the stage operator's
slot-major order of M^T w; the remap deposit's skip of negligible weights
bitwise against removing those particles, and the seed's skip bitwise
against depositing the whole lattice, whose kept set the deposit does not
test again), the blocked kernels bitwise against a single block (the
remap deposit, which sums block by block, to round-off),
the gathers through a deposit's kept stencils or a read fill bitwise
against the plain gathers, the BSL sweeps against the plain gather at
their feet, every periodic read and scatter at x + kL against the same at
x, and the DST-I Poisson solve against a dense per-mode solve.
"""

import itertools
import math

import numpy as np
import pytest

from fslvlasov import bsl, deposition, solver, splines
from fslvlasov.deposition import (
    NEGLIGIBLE,
    PAD,
    ParticleSet,
    basis_centers,
    deposit_charge,
    deposit_phase_space,
    seed_particles,
)
from fslvlasov.field2d import solve_fields, solve_potential
from fslvlasov.grids import NATURAL, UniformGrid1D
from fslvlasov.splines import (
    SplineCoeffs,
    StageOperator,
    eval_1d,
    eval_2d,
    fit_1d,
    fit_2d,
    stencil_weights,
)
from spline_oracles import basis_eval, fit_stacked, plain_eval_1d, plain_eval_2d, wrap

GRID_PAIRS = {
    "periodic-natural": (
        UniformGrid1D(0.0, 7.0, 12),
        UniformGrid1D(0.0, 2.0 * np.pi, 10, bc=NATURAL, deriv_lo=0.3, deriv_hi=-0.2),
    ),
    "natural-natural": (
        UniformGrid1D(-3.0, 3.0, 9, bc=NATURAL),
        UniformGrid1D(-2.0, 5.0, 11, bc=NATURAL),
    ),
    "periodic-periodic": (
        UniformGrid1D(1.0, 4.0, 8),
        UniformGrid1D(-1.0, 1.0, 13),
    ),
}


@pytest.fixture(params=sorted(GRID_PAIRS))
def grids(request):
    return GRID_PAIRS[request.param]


def _edge_points(g: UniformGrid1D, rng, n):
    """Random points plus the seam (periodic) or the walls (natural)."""
    inner = rng.uniform(g.xmin, g.xmax, n)
    eps = 1e-15 * max(1.0, abs(g.xmax))
    edges = [g.xmin, g.xmax, g.xmax - eps, g.xmin + eps]
    if g.periodic:
        edges += [g.xmin - eps, g.xmax + eps, g.xmin - 3.5 * (g.xmax - g.xmin)]
    return np.concatenate([inner, edges])


def _points(gx, gy, rng, n=200):
    x = _edge_points(gx, rng, n)
    y = _edge_points(gy, rng, n)
    m = min(x.size, y.size)
    # pair every seam/wall point with every other one as well
    xe, ye = np.meshgrid(x[n:], y[n:], indexing="ij")
    return np.concatenate([x[:m], xe.ravel()]), np.concatenate([y[:m], ye.ravel()])


def _basis_1d(g: UniformGrid1D, x):
    """S((x - c_k)/delta) for every basis center c_k: shape (n_points, n_coef)."""
    u = (x[:, None] - basis_centers(g)[None, :]) / g.delta
    if g.periodic:
        n = g.n_cells
        u = (u + n / 2) % n - n / 2
    return basis_eval(u)


def _direct_sum(coeffs, gx, gy, x, y):
    """Tensor sum over every coefficient; natural points clipped to the walls."""
    if not gx.periodic:
        x = np.clip(x, gx.xmin, gx.xmax)
    if not gy.periodic:
        y = np.clip(y, gy.xmin, gy.xmax)
    return np.einsum("pa,pb,ab...->p...", _basis_1d(gx, x), _basis_1d(gy, y), coeffs)


class TestStackedGather:
    def test_vector_matches_scalar_and_direct_sum(self, grids):
        gx, gy = grids
        rng = np.random.default_rng(11)
        f = rng.normal(size=(gx.n_nodes, gy.n_nodes, 2))
        c = fit_stacked(f, gx, gy)
        x, y = _points(gx, gy, rng)
        got = plain_eval_2d(c, x, y)
        assert got.shape == x.shape + (2,)
        direct = _direct_sum(c.coeffs, gx, gy, x, y)
        for k in range(2):
            scalar = plain_eval_2d(SplineCoeffs(c.grids, c.coeffs[..., k].copy()), x, y)
            np.testing.assert_allclose(got[:, k], scalar, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(got[:, k], direct[:, k], rtol=1e-14, atol=1e-14)

    def test_clamp_evaluates_at_the_wall(self):
        # a point beyond a natural wall reads what the clipped point reads
        gx, gy = GRID_PAIRS["natural-natural"]
        rng = np.random.default_rng(12)
        c = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        x = np.concatenate([rng.uniform(gx.xmin - 2, gx.xmax + 2, 300), [gx.xmin - 1e-3]])
        y = np.concatenate([rng.uniform(gy.xmin - 2, gy.xmax + 2, 300), [gy.xmax + 1e-3]])
        got = plain_eval_2d(c, x, y)
        inside = plain_eval_2d(c, np.clip(x, gx.xmin, gx.xmax), np.clip(y, gy.xmin, gy.xmax))
        np.testing.assert_array_equal(got, inside)
        direct = _direct_sum(c.coeffs, gx, gy, x, y)
        np.testing.assert_allclose(got, direct, rtol=1e-14, atol=1e-14)

    def test_scalar_point_shapes(self, grids):
        gx, gy = grids
        f = np.ones((gx.n_nodes, gy.n_nodes, 2)) * np.array([2.0, -3.0])
        c = fit_stacked(f, gx, gy)
        np.testing.assert_allclose(plain_eval_2d(c, gx.xmin, gy.xmin), [2.0, -3.0], atol=1e-14)
        scalar = fit_2d(f[..., 0], gx, gy)
        assert plain_eval_2d(scalar, gx.xmin, gy.xmin) == pytest.approx(2.0, abs=1e-14)

    def test_field_spline_holds_ey_then_ex(self):
        gx = UniformGrid1D(0.0, 7.0, 16)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, 16, bc=NATURAL)
        x, y = np.meshgrid(gx.nodes(), gy.nodes(), indexing="ij")
        fs = solve_fields(np.sin(y) * (1.0 + 0.1 * np.cos(2 * np.pi * x / 7.0)), gx, gy)
        e = plain_eval_2d(fs.E_spline, x, y)
        np.testing.assert_allclose(e[..., 0], fs.Ey, atol=1e-12)
        np.testing.assert_allclose(e[..., 1], fs.Ex, atol=1e-12)


class TestStackedFit:
    """``fit_2d`` fits one (nx, ny) array: a stacked one is an error (the
    field spline stacks its components in ``fit_2d_rfft``)."""

    def test_rejects_wrong_shapes(self, grids):
        gx, gy = grids
        nx, ny = gx.n_nodes, gy.n_nodes
        for shape in ((nx, ny + 1), (nx, ny, 2), (nx, ny, 1), (nx, ny + 1, 2), (nx, ny, 2, 1)):
            with pytest.raises(ValueError, match="expected shape"):
                fit_2d(np.zeros(shape), gx, gy)


def _reference_stencil(g: UniformGrid1D, pos):
    """Per-particle node indices, weights and explicit validity, (n, 4) each.

    The weights come from the same vectorized basis formula as the kernel;
    everything else is recomputed independently of it.
    """
    u = (pos - g.xmin) / g.delta
    n = g.n_cells
    if g.periodic:
        u = u - n * np.floor(u / n)
        u = np.where(u >= n, u - n, u)
    else:
        u = np.clip(u, -3.0, n + 3.0)
    i0 = np.floor(u)
    w = stencil_weights(u - i0).T
    nodes = i0.astype(np.int64)[:, None] + np.arange(-1, 3)[None, :]
    if g.periodic:
        return nodes % n, w, np.ones(nodes.shape, dtype=bool)
    return nodes, w, (nodes >= 0) & (nodes <= n)


def _loop_deposit_2d(p, gx, gy):
    """The remap deposit's summation order: block by block of ``splines.BLOCK``
    particles, then stencil slot (a, b) by slot, then particle by particle."""
    ix, wx, vx = _reference_stencil(gx, p.pos1)
    iy, wy, vy = _reference_stencil(gy, p.pos2)
    out = np.zeros((gx.n_nodes, gy.n_nodes))
    for start in range(0, p.pos1.size, splines.BLOCK):
        block = range(start, min(start + splines.BLOCK, p.pos1.size))
        for a in range(4):
            for b in range(4):
                for k in block:
                    if vx[k, a] and vy[k, b]:
                        out[ix[k, a], iy[k, b]] += (p.weights[k] * wx[k, a]) * wy[k, b]
    return out


def _loop_stage_deposit(p, grids):
    """The stage deposit's summation order, that of M^T w for the slot-major
    stage operator M over (gx,) or (gx, gy): stencil slot by slot (x slot
    before y slot), then particle by particle, each entry (wx wy) w."""
    st = [_reference_stencil(g, x) for g, x in zip(grids, (p.pos1, p.pos2))]
    out = np.zeros(tuple(g.n_nodes for g in grids))
    for slots in itertools.product(range(4), repeat=len(grids)):
        for k in range(p.pos1.size):
            if all(v[k, a] for (_, _, v), a in zip(st, slots)):
                node = tuple(i[k, a] for (i, _, _), a in zip(st, slots))
                out[node] += math.prod(w[k, a] for (_, w, _), a in zip(st, slots)) * p.weights[k]
    return out


def _particles(gx, gy, rng, n=400):
    """Interior particles, strays beyond u = -3 and n + 3, and seam points."""
    def coord(g):
        span, length = 6.0 * g.delta, g.xmax - g.xmin
        x = rng.uniform(g.xmin - span, g.xmax + span, n)
        far = [g.xmin - 3.0 * g.delta - 1e-9, g.xmax + 3.0 * g.delta + 1e-9,
               g.xmin - 50.0 * length, g.xmax + 50.0 * length,
               g.xmin - 2.5 * g.delta, g.xmax + 2.5 * g.delta]
        seam = [g.xmin, g.xmax, np.nextafter(g.xmax, -np.inf),
                np.nextafter(g.xmin, -np.inf), g.xmin + g.delta]
        return np.concatenate([x, far, seam])

    x, y = coord(gx), coord(gy)
    xs, ys = np.meshgrid(x[n:], y[n:], indexing="ij")
    pos1 = np.concatenate([x[:n], xs.ravel()])
    pos2 = np.concatenate([y[:n], ys.ravel()])
    return ParticleSet(pos1, pos2, rng.normal(size=pos1.size))


class TestDepositBitwise:
    def test_phase_space_equals_loop(self, grids):
        gx, gy = grids
        p = _particles(gx, gy, np.random.default_rng(14))
        a = np.abs(p.weights)
        assert (a > NEGLIGIBLE * a.max()).all()  # the remap deposit skips none
        np.testing.assert_array_equal(deposit_phase_space(p, gx, gy), _loop_deposit_2d(p, gx, gy))

    def test_charge_equals_loop(self):
        # a periodic x, and a natural one whose strays leave the grid
        for gx in (GRID_PAIRS["periodic-natural"][0], GRID_PAIRS["natural-natural"][0]):
            p = _particles(gx, gx, np.random.default_rng(15))
            np.testing.assert_array_equal(deposit_charge(p, (gx,), StageOperator()),
                                          _loop_stage_deposit(p, (gx,)))

    def test_charge_position_override(self):
        gx = GRID_PAIRS["periodic-natural"][0]
        rng = np.random.default_rng(16)
        p = _particles(gx, gx, rng)
        moved = rng.uniform(gx.xmin - 9.0, gx.xmax + 9.0, p.pos1.size)
        np.testing.assert_array_equal(
            deposit_charge(ParticleSet(moved, moved, p.weights), (gx,), StageOperator()),
            _loop_stage_deposit(ParticleSet(moved, moved, p.weights), (gx,)),
        )


def _with_negligible(p, rng):
    """``p`` with a third of its weights at or below NEGLIGIBLE max |w|: zeros,
    the threshold itself and values far below, spread over every block;
    and the mask of the particles that carry mass."""
    w = p.weights.copy()
    top = np.abs(w).max()
    tiny = rng.permutation(w.size)[: w.size // 3]
    w[tiny] = rng.choice([0.0, NEGLIGIBLE, -NEGLIGIBLE, 1e-20, -3e-300], tiny.size) * top
    w[tiny[:2]] = NEGLIGIBLE * top, -NEGLIGIBLE * top  # the bound is dropped too
    kept = np.abs(w) > NEGLIGIBLE * top
    assert np.abs(w).max() == top and 0 < kept.sum() < w.size
    return ParticleSet(p.pos1, p.pos2, w), kept


class TestNegligibleWeights:
    """The remap deposit skips every particle with |w| <= NEGLIGIBLE
    max |w|; the stage deposit, whose gather reads every row, keeps all."""

    @pytest.mark.parametrize("block", [None, 37])
    def test_equals_the_deposit_without_them(self, grids, block, monkeypatch):
        gx, gy = grids
        rng = np.random.default_rng(41)
        if block:  # the kept particles fill the blocks afresh
            monkeypatch.setattr(splines, "BLOCK", block)
        p, kept = _with_negligible(_particles(gx, gy, rng), rng)
        alone = ParticleSet(p.pos1[kept], p.pos2[kept], p.weights[kept])
        got = deposit_phase_space(p, gx, gy)
        np.testing.assert_array_equal(got, deposit_phase_space(alone, gx, gy))
        np.testing.assert_array_equal(got, _loop_deposit_2d(alone, gx, gy))

    @pytest.mark.parametrize("field", ["pos1", "pos2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_on_a_skipped_particle_raises(self, field, bad):
        # the remap deposit never locates a skipped particle, so it reads
        # nothing of it; the stage deposit, which keeps every particle, does.
        # (Its weight is the seed's to check: ``TestCompressedSeed``.)
        gx, gy = GRID_PAIRS["periodic-natural"]
        rng = np.random.default_rng(42)
        p, kept = _with_negligible(_particles(gx, gy, rng), rng)
        arrays = {"pos1": p.pos1.copy(), "pos2": p.pos2.copy(), "weights": p.weights}
        arrays[field][np.flatnonzero(~kept)[3]] = bad
        tainted = ParticleSet(**arrays)
        np.testing.assert_array_equal(deposit_phase_space(tainted, gx, gy),
                                      deposit_phase_space(p, gx, gy))
        with pytest.raises(FloatingPointError, match="^non-finite positions$"):
            deposit_charge(tainted, (gx, gy), StageOperator())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_of_a_run_raises_at_its_seed(self, bad, monkeypatch, cli_abort):
        # step 1's remap fits a non-finite coefficient where |c| is least, the
        # weight a skip drops first: the seed of its particles reports it
        real, calls = solver.fit_2d, []

        def tainted(f, gx, gy):
            c = real(f, gx, gy)
            calls.append(c)
            if len(calls) > 1:  # call 1 fits f0
                c.coeffs.flat[np.argmin(np.abs(c.coeffs))] = bad
            return c

        monkeypatch.setattr(solver, "fit_2d", tainted)
        assert cli_abort("--case", "landau") == \
            "numeric abort: non-finite spline coefficients at step 1\n"

    def test_all_zero_and_empty_sets_deposit_zeros(self, grids):
        gx, gy = grids
        p = _particles(gx, gy, np.random.default_rng(43))
        empty = np.array([])
        for q in (ParticleSet(p.pos1, p.pos2, np.zeros(p.pos1.size)),
                  ParticleSet(empty, empty, empty)):
            got = deposit_phase_space(q, gx, gy)
            np.testing.assert_array_equal(got, np.zeros((gx.n_nodes, gy.n_nodes)))

    def test_stage_deposit_keeps_every_particle(self, grids):
        gx, gy = grids
        rng = np.random.default_rng(44)
        p, _ = _with_negligible(_particles(gx, gy, rng), rng)
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        op = StageOperator()
        np.testing.assert_array_equal(deposit_charge(p, grids, op), _loop_stage_deposit(p, grids))
        assert op.index.shape == op.data.shape == (4, 4, p.pos1.size)
        fresh = StageOperator()  # every row, the skipped ones too, as a full deposit fills it
        deposit_charge(ParticleSet(p.pos1, p.pos2, rng.normal(size=p.pos1.size)), grids, fresh)
        np.testing.assert_array_equal(op.index, fresh.index)
        np.testing.assert_array_equal(op.data, fresh.data)
        x, y = p.pos1, p.pos2
        np.testing.assert_array_equal(eval_2d(c2, x, y, stage=op), plain_eval_2d(c2, x, y))


def _lattice(coeffs):
    """The whole-lattice seed: one particle per coefficient, in lattice order."""
    x1, x2 = np.meshgrid(*map(basis_centers, coeffs.grids), indexing="ij")
    return ParticleSet(x1.ravel(), x2.ravel(), coeffs.coeffs.ravel())


def _coeffs_with_negligible(gx, gy, rng):
    """Coefficients on the lattice of (gx, gy), a third of them negligible
    (``_with_negligible``); the mask of those that carry mass."""
    shape = (basis_centers(gx).size, basis_centers(gy).size)
    p, kept = _with_negligible(_lattice(SplineCoeffs((gx, gy), rng.normal(size=shape))), rng)
    return SplineCoeffs((gx, gy), p.weights.reshape(shape)), kept


class TestCompressedSeed:
    """The seed skips every |c| <= NEGLIGIBLE max |c| once that drops a
    ``BLOCK`` or more; patching ``deposition.BLOCK`` makes the small grids
    here compress.  Below a block it seeds the whole lattice."""

    def test_keeps_what_carries_mass_in_lattice_order(self, grids, monkeypatch):
        gx, gy = grids
        coeffs, kept = _coeffs_with_negligible(gx, gy, np.random.default_rng(51))
        monkeypatch.setattr(deposition, "BLOCK", np.count_nonzero(~kept))
        p, full = seed_particles(coeffs), _lattice(coeffs)
        np.testing.assert_array_equal(p.nodes, np.flatnonzero(kept))
        for got, ref in ((p.pos1, full.pos1), (p.pos2, full.pos2), (p.weights, full.weights)):
            np.testing.assert_array_equal(got, ref[kept])
        q = p.replace_positions(p.pos1 + 1.0, p.pos2)
        assert q.nodes is p.nodes
        np.testing.assert_array_equal(q.at_nodes(full.weights), p.weights)

    def test_below_a_block_seeds_the_lattice(self, grids, monkeypatch):
        gx, gy = grids
        coeffs, kept = _coeffs_with_negligible(gx, gy, np.random.default_rng(52))
        full = _lattice(coeffs)
        for block in (np.count_nonzero(~kept) + 1, splines.BLOCK):
            monkeypatch.setattr(deposition, "BLOCK", block)
            p = seed_particles(coeffs)
            assert p.nodes is None
            for name in ("pos1", "pos2", "weights"):
                np.testing.assert_array_equal(getattr(p, name), getattr(full, name))
            assert p.at_nodes(full.weights) is full.weights

    @pytest.mark.parametrize("block", [None, 37])
    def test_deposits_as_the_full_set(self, grids, block, monkeypatch):
        gx, gy = grids
        rng = np.random.default_rng(61)
        coeffs, kept = _coeffs_with_negligible(gx, gy, rng)
        monkeypatch.setattr(deposition, "BLOCK", 1)
        if block:  # the kept particles fill the deposit's blocks afresh
            monkeypatch.setattr(splines, "BLOCK", block)
        p, full = seed_particles(coeffs), _lattice(coeffs)
        d1, d2 = (rng.uniform(-2.0, 2.0, full.pos1.size) * g.delta for g in (gx, gy))
        got = deposit_phase_space(p.replace_positions(p.pos1 + p.at_nodes(d1),
                                                      p.pos2 + p.at_nodes(d2)), gx, gy)
        ref = deposit_phase_space(full.replace_positions(full.pos1 + d1, full.pos2 + d2), gx, gy)
        np.testing.assert_array_equal(got, ref)

    def test_all_zero_seeds_an_empty_set(self, grids, monkeypatch):
        gx, gy = grids
        monkeypatch.setattr(deposition, "BLOCK", 1)
        zeros = np.zeros((basis_centers(gx).size, basis_centers(gy).size))
        p = seed_particles(SplineCoeffs((gx, gy), zeros))
        assert p.pos1.size == p.pos2.size == p.weights.size == p.nodes.size == 0
        np.testing.assert_array_equal(deposit_phase_space(p, gx, gy),
                                      np.zeros((gx.n_nodes, gy.n_nodes)))

    def test_deposit_scatters_a_compressed_set_whole(self, monkeypatch):
        # a set carrying ``nodes`` holds only what its seed kept: the deposit
        # does not test its weights again, whatever they are
        gx, gy = GRID_PAIRS["periodic-natural"]
        rng = np.random.default_rng(62)
        p, kept = _with_negligible(_particles(gx, gy, rng), rng)
        sizes, real = [], deposition.stencil
        monkeypatch.setattr(deposition, "stencil",
                            lambda g, x, *args: sizes.append(np.size(x)) or real(g, x, *args))
        deposit_phase_space(p, gx, gy)
        deposit_phase_space(ParticleSet(p.pos1, p.pos2, p.weights, np.arange(p.pos1.size)), gx, gy)
        assert p.pos1.size < splines.BLOCK
        assert sizes == [np.count_nonzero(kept)] * 2 + [p.pos1.size] * 2

    @pytest.mark.parametrize("skipped", ["below-a-block", "above-a-block"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", ["kept", "negligible"])
    def test_non_finite_coefficient_raises(self, at, bad, skipped, monkeypatch):
        # the weights are made here: no kernel after the seed tests them
        gx, gy = GRID_PAIRS["periodic-natural"]
        coeffs, kept = _coeffs_with_negligible(gx, gy, np.random.default_rng(54))
        coeffs.coeffs.reshape(-1)[np.flatnonzero(kept if at == "kept" else ~kept)[2]] = bad
        negligible = np.count_nonzero(~kept)
        monkeypatch.setattr(deposition, "BLOCK", negligible + (skipped == "below-a-block"))
        with pytest.raises(FloatingPointError, match="^non-finite spline coefficients$"):
            seed_particles(coeffs)


def _check_blocked_deposit(blocked, single, p, gx, gy):
    """The remap deposit sums block by block, so its bits follow ``splines.BLOCK``:
    at the patched size they are the oracle's at that size, and they agree
    with the single-block deposit to round-off."""
    np.testing.assert_array_equal(blocked, _loop_deposit_2d(p, gx, gy))
    assert np.max(np.abs(blocked - single)) <= 1e-14 * np.max(np.abs(single))


class TestBlocking:
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        gx, gy = GRID_PAIRS["periodic-natural"]
        rng = np.random.default_rng(17)
        p = _particles(gx, gy, rng)
        assert p.pos1.size < splines.BLOCK
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        c1 = fit_1d(rng.normal(size=gx.n_nodes), gx)

        def kernels():
            return (
                deposit_phase_space(p, gx, gy),
                deposit_charge(p, (gx,), StageOperator()),
                plain_eval_2d(c2, p.pos1, p.pos2),
                plain_eval_1d(c1, p.pos1),
            )

        whole = kernels()
        monkeypatch.setattr(splines, "BLOCK", 37)  # many blocks, ragged last one
        blocked = kernels()
        for single, again in zip(whole[1:], blocked[1:]):
            np.testing.assert_array_equal(again, single)
        _check_blocked_deposit(blocked[0], whole[0], p, gx, gy)


class TestKeptStencils:
    """A deposit's kept stencils give the plain gather's values bit for bit:
    inside, on a wall exactly, for points beyond a wall (read at the wall)
    and for strays beyond u = -3 and n + 3."""

    def test_gather_2d_equals_plain(self, grids):
        gx, gy = grids
        rng = np.random.default_rng(21)
        p = _particles(gx, gy, rng)
        c = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        kept = StageOperator()
        deposit_charge(p, grids, kept)
        x, y = p.pos1, p.pos2
        np.testing.assert_array_equal(eval_2d(c, x, y, stage=kept), plain_eval_2d(c, x, y))
        for g, pos in zip(grids, (p.pos1, p.pos2)):
            i0 = np.floor(np.clip(g.to_units(pos), -3.0, g.n_cells + 2.0))  # deposit cells
            if not g.periodic:  # every case below is exercised
                assert (i0 == g.n_cells).any() and (i0 > g.n_cells).any() and (i0 < 0).any()
                assert i0.min() == -3 and i0.max() == g.n_cells + 2

    @pytest.mark.parametrize("g", [GRID_PAIRS["periodic-natural"][0],
                                   GRID_PAIRS["natural-natural"][0]])
    def test_gather_1d_equals_plain(self, g):
        rng = np.random.default_rng(22)
        p = _particles(g, g, rng)
        c = fit_1d(rng.normal(size=g.n_nodes), g)
        kept = StageOperator()
        deposit_charge(p, (g,), kept)
        x = p.pos1
        np.testing.assert_array_equal(eval_1d(c, x, stage=kept), plain_eval_1d(c, x))

    def test_deposits_equal_plain(self, grids):
        # the stage deposit sums in M^T w's order, the remap deposit block by block
        gx, gy = grids
        p = _particles(gx, gy, np.random.default_rng(23))
        kept = StageOperator()
        got = deposit_charge(p, grids, kept)
        np.testing.assert_array_equal(got, _loop_stage_deposit(p, grids))
        plain = deposit_phase_space(p, gx, gy)
        assert np.max(np.abs(got - plain)) <= 1e-14 * np.max(np.abs(plain))
        for g in grids:
            np.testing.assert_array_equal(deposit_charge(p, (g,), kept),
                                          _loop_stage_deposit(p, (g,)))

    def test_deposit_is_c_contiguous(self, grids):
        gx, gy = grids
        p = _particles(gx, gy, np.random.default_rng(24))
        assert deposit_phase_space(p, gx, gy).flags.c_contiguous

    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        gx, gy = GRID_PAIRS["periodic-natural"]
        rng = np.random.default_rng(26)
        p = _particles(gx, gy, rng)
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        c1 = fit_1d(rng.normal(size=gx.n_nodes), gx)

        def kernels():
            kept2, kept1 = StageOperator(), StageOperator()
            return (
                deposit_charge(p, (gx, gy), kept2),
                eval_2d(c2, p.pos1, p.pos2, stage=kept2),
                deposit_charge(p, (gx,), kept1),
                eval_1d(c1, p.pos1, stage=kept1),
            )

        whole = kernels()
        monkeypatch.setattr(splines, "BLOCK", 37)  # many blocks, ragged last one
        blocked = kernels()
        for single, again in zip(whole, blocked):  # the stage deposits too: M^T w has no blocks
            np.testing.assert_array_equal(again, single)
        np.testing.assert_array_equal(whole[1], plain_eval_2d(c2, p.pos1, p.pos2))
        np.testing.assert_array_equal(whole[3], plain_eval_1d(c1, p.pos1))


#: GRID_PAIRS plus the smallest periodic x the config allows (4 cells)
OPERATOR_GRIDS = {**GRID_PAIRS, "periodic4-natural": (
    UniformGrid1D(0.0, 3.0, 4), UniformGrid1D(-1.0, 2.0, 7, bc=NATURAL, deriv_hi=0.4))}


class TestStageOperator:
    """The stage operator M: deposits (M^T w) and gathers (M c) bitwise
    equal to the plain kernels (the 1D deposit: to its loop), gathers after
    a read fill too, the wall-row refill only with a natural axis, its
    layout, and its guard."""

    @pytest.mark.parametrize("name", sorted(OPERATOR_GRIDS))
    def test_equals_plain_kernels(self, name):
        gx, gy = OPERATOR_GRIDS[name]
        rng = np.random.default_rng(31)
        p = _particles(gx, gy, rng)
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        op = StageOperator()
        np.testing.assert_array_equal(deposit_charge(p, (gx, gy), op),
                                      _loop_stage_deposit(p, (gx, gy)))
        x, y = p.pos1, p.pos2
        np.testing.assert_array_equal(eval_2d(c2, x, y, stage=op), plain_eval_2d(c2, x, y))
        scalar = SplineCoeffs(c2.grids, c2.coeffs[..., 1].copy())
        np.testing.assert_array_equal(eval_2d(scalar, x, y, stage=op), plain_eval_2d(scalar, x, y))
        op.fill((x, y), (gx, gy), 0)  # the deposit's operator, refilled for reads alone
        np.testing.assert_array_equal(eval_2d(c2, x, y, stage=op), plain_eval_2d(c2, x, y))
        for g in (gx, gy):
            c1 = fit_1d(rng.normal(size=g.n_nodes), g)
            np.testing.assert_array_equal(deposit_charge(p, (g,), op),
                                          _loop_stage_deposit(p, (g,)))
            np.testing.assert_array_equal(eval_1d(c1, p.pos1, stage=op), plain_eval_1d(c1, p.pos1))
            op.fill((p.pos1,), (g,), 0)
            np.testing.assert_array_equal(eval_1d(c1, p.pos1, stage=op), plain_eval_1d(c1, p.pos1))

    @pytest.mark.parametrize("name", sorted(OPERATOR_GRIDS))
    def test_gather_leaves_the_read_fill(self, name):
        # the gather's wall rows and a read fill are one writer: same index, same D
        gx, gy = OPERATOR_GRIDS[name]
        rng = np.random.default_rng(35)
        p = _particles(gx, gy, rng)
        for g, pos in zip((gx, gy), (p.pos1, p.pos2)):
            u = g.to_units(pos)
            if not g.periodic:  # strays past both pads, points exactly on both walls
                assert (u < -3).any() and (u > g.n_cells + 3).any()
                assert (u == 0).any() and (u == g.n_cells).any()
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        for grids in ((gx, gy), (gx,), (gy,)):
            pts = (p.pos1, p.pos2)[:len(grids)]
            c = c2 if len(grids) == 2 else fit_1d(rng.normal(size=grids[0].n_nodes), grids[0])
            op, read = StageOperator(), StageOperator()
            deposit_charge(p, grids, op)
            read.fill(pts, grids, 0)
            if not all(g.periodic for g in grids):  # the deposit's wall rows differ
                assert not np.array_equal(op.index, read.index)
            op.gather(c, pts)
            np.testing.assert_array_equal(op.index, read.index)
            np.testing.assert_array_equal(op.data, read.data)

    @pytest.mark.parametrize("name, d, writes", [("periodic-natural", 1, 0),
                                                 ("periodic-periodic", 2, 0),
                                                 ("periodic-natural", 2, 1)])
    def test_gather_refills_only_with_a_natural_axis(self, name, d, writes, monkeypatch):
        # a deposit over periodic axes alone has no wall row: its gather writes nothing
        gx, gy = GRID_PAIRS[name]
        rng = np.random.default_rng(36)
        p = _particles(gx, gy, rng)
        grids, pts = (gx, gy)[:d], (p.pos1, p.pos2)[:d]
        c = (fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy) if d == 2
             else fit_1d(rng.normal(size=gx.n_nodes), gx))
        op, calls = StageOperator(), []
        deposit_charge(p, grids, op)
        real = op._write
        monkeypatch.setattr(op, "_write", lambda *args: calls.append(args) or real(*args))
        got = op.gather(c, pts)
        assert len(calls) == writes
        plain = plain_eval_2d(c, *pts) if d == 2 else plain_eval_1d(c, *pts)
        np.testing.assert_array_equal(got.reshape(plain.shape), plain)

    def test_strays_land_in_the_pad(self):
        gx, gy = GRID_PAIRS["natural-natural"]
        n, length = gx.n_cells, gx.xmax - gx.xmin
        far = [gx.xmin - 3.0 * gx.delta - 1e-9, gx.xmin - 50.0 * length,   # u < -3
               gx.xmax + 2.0 * gx.delta + 1e-9, gx.xmax + 50.0 * length]  # u > n + 2
        x = np.array(far + [0.1, -0.7])
        p = ParticleSet(x, x, np.random.default_rng(32).normal(size=x.size))
        op = StageOperator()
        np.testing.assert_array_equal(deposit_charge(p, (gx,), op),
                                      _loop_stage_deposit(p, (gx,)))
        assert op.index.dtype == np.int32 and op.index.shape == (4, x.size)
        assert op.dims == (n + 1 + 2 * PAD,)
        # u clipped to -3 puts nodes -4..-1 in pad columns 0..3; cell n + 2
        # (u beyond n + 2) puts nodes n + 1..n + 4 past the last node column n + PAD
        rows = op.index.T  # particle by particle
        np.testing.assert_array_equal(rows[:2], [[0, 1, 2, 3]] * 2)
        np.testing.assert_array_equal(rows[2:4], [np.arange(n + 1, n + 5) + PAD] * 2)
        assert ((rows[4:] >= PAD - 1) & (rows[4:] <= n + 1 + PAD)).all()

    def test_index_dtype_is_int32(self, grids):
        gx, gy = grids
        p = _particles(gx, gy, np.random.default_rng(33))
        op = StageOperator()
        deposit_charge(p, grids, op)
        assert op.index.dtype == np.int32 and op.index.shape == (4, 4, p.pos1.size)
        assert op.data.shape == op.index.shape
        assert op.matrix.row.dtype == np.int32 and op.matrix.col.dtype == np.int32
        assert np.shares_memory(op.matrix.col, op.index)  # filled in place
        assert np.shares_memory(op.matrix_t.row, op.index)  # M^T over the same arrays
        assert np.shares_memory(op.matrix.data, op.data)
        assert np.shares_memory(op.matrix_t.data, op.data)
        assert op.index.min() >= 0 and op.index.max() < np.prod(op.dims)

    @pytest.mark.parametrize("axis", ["periodic", "natural"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("margin", [0, PAD - 1])
    def test_non_finite_point_raises(self, axis, bad, margin):
        # every point becomes a cell index in the fill: none is cast from NaN
        grids = GRID_PAIRS["periodic-natural"]
        p = _particles(*grids, np.random.default_rng(35))
        k = ["periodic", "natural"].index(axis)
        pts = [p.pos1.copy(), p.pos2.copy()]
        pts[k][7] = bad
        for fill_pts, fill_grids in ((pts, grids), (pts[k:k + 1], grids[k:k + 1])):
            with pytest.raises(FloatingPointError, match="^non-finite positions$"):
                StageOperator().fill(fill_pts, fill_grids, margin)

    def test_gather_at_other_points_raises(self):
        gx, gy = GRID_PAIRS["periodic-natural"]
        rng = np.random.default_rng(34)
        p = _particles(gx, gy, rng)
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        c1 = fit_1d(rng.normal(size=gx.n_nodes), gx)
        y = p.pos2
        with pytest.raises(ValueError, match="stage operator"):
            eval_2d(c2, p.pos1, y, stage=StageOperator())  # never built
        op = StageOperator()
        deposit_charge(p, (gx, gy), op)
        with pytest.raises(ValueError, match="stage operator"):
            eval_2d(c2, p.pos1 + 0.01, y, stage=op)
        with pytest.raises(ValueError, match="stage operator"):
            eval_2d(c2, p.pos1, y + 0.3, stage=op)  # only y moved
        with pytest.raises(ValueError, match="stage operator"):
            eval_2d(c2, p.pos1[:-1], y[:-1], stage=op)
        with pytest.raises(ValueError, match="stage operator"):
            eval_1d(c1, wrap(gx, p.pos1 + 0.5), stage=op)
        with pytest.raises(ValueError, match="stage operator"):
            eval_1d(c1, p.pos1, stage=op)  # the points of a 2D operator
        # equal values in another array are the same points
        np.testing.assert_array_equal(eval_2d(c2, p.pos1.copy(), y, stage=op),
                                      plain_eval_2d(c2, p.pos1, y))


class TestLocateLeavesItsInput:
    """The locate writes over a fresh array of grid units, never over the
    caller's points: ``np.asarray(x, dtype=float)`` would be ``x`` itself."""

    @pytest.mark.parametrize("g", GRID_PAIRS["periodic-natural"], ids=["periodic", "natural"])
    @pytest.mark.parametrize("shape", [(), (300,)], ids=["0-d", "array"])
    def test_locate_kernels(self, g, shape):
        rng = np.random.default_rng(41)
        kernels = {"to_units": g.to_units, "_locate": lambda x: splines._locate(g, x),
                   "stencil": lambda x: splines.stencil(g, x),
                   "stencil margin": lambda x: splines.stencil(g, x, margin=PAD - 1)}
        length = g.xmax - g.xmin
        for name, kernel in kernels.items():
            x = np.array(rng.uniform(g.xmin - length, g.xmax + length, shape))
            kept = x.copy()
            kernel(x)
            np.testing.assert_array_equal(x, kept, err_msg=name)

    def test_stage_deposit_and_gather(self, grids):
        gx, gy = grids
        rng = np.random.default_rng(42)
        p = _particles(gx, gy, rng)
        kept = p.pos1.copy(), p.pos2.copy()
        op, op1 = StageOperator(), StageOperator()
        deposit_charge(p, grids, op)
        eval_2d(fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy),
                p.pos1, p.pos2, stage=op)
        deposit_charge(p, (gx,), op1)
        eval_1d(fit_1d(rng.normal(size=gx.n_nodes), gx), p.pos1, stage=op1)
        np.testing.assert_array_equal(p.pos1, kept[0])
        np.testing.assert_array_equal(p.pos2, kept[1])


class TestShiftInvariance:
    """``splines._locate`` is the one periodic wrap: the pushers and BSL's
    feet leave x unwrapped, so every read and scatter takes x + kL as x, to
    round-off, the seam points xmin, the last double below xmax and xmax
    included.  Off the seam the stencils pick the same coefficients."""

    @pytest.mark.parametrize("name", [k for k in sorted(GRID_PAIRS) if GRID_PAIRS[k][0].periodic])
    def test_x_plus_periods_reads_and_scatters_as_x(self, name):
        gx, gy = GRID_PAIRS[name]
        rng = np.random.default_rng(61)
        seam = [gx.xmin, np.nextafter(gx.xmax, -np.inf), gx.xmax]
        x = np.concatenate([rng.uniform(gx.xmin, gx.xmax, 300), seam])
        y = rng.uniform(gy.xmin, gy.xmax, x.size)
        weights = rng.normal(size=x.size)
        c2 = fit_stacked(rng.normal(size=(gx.n_nodes, gy.n_nodes, 2)), gx, gy)
        c1 = fit_1d(rng.normal(size=gx.n_nodes), gx)

        def kernels(xs):
            p = ParticleSet(xs, y, weights)
            op2, op1 = StageOperator(), StageOperator()
            return {
                "deposit_phase_space": deposit_phase_space(p, gx, gy),
                "deposit_charge 2d": deposit_charge(p, (gx, gy), op2),
                "eval_2d": plain_eval_2d(c2, xs, y),
                "eval_2d stage": eval_2d(c2, xs, y, stage=op2),
                "deposit_charge": deposit_charge(p, (gx,), op1),
                "eval_1d stage": eval_1d(c1, xs, stage=op1),
            }

        at_x = kernels(x)
        u = gx.to_units(x)
        off_seam = (u > 1e-9) & (u < gx.n_cells - 1e-9)
        assert off_seam[:-3].all() and not off_seam[-3:].any()
        for k in (-3, -1, 1, 3):
            xs = x + k * (gx.xmax - gx.xmin)
            for key, got in kernels(xs).items():
                want = at_x[key]
                err = np.max(np.abs(got - want))
                assert err <= 1e-14 * np.max(np.abs(want)), (k, key, err)
            np.testing.assert_array_equal(splines.stencil(gx, xs[off_seam])[0],
                                          splines.stencil(gx, x[off_seam])[0], err_msg=str(k))


class TestBslSweeps:
    """Each BSL sweep equals ``plain_eval_1d`` of its row's or column's fit at the
    feet (x_i - shift_j periodic, v_j - shift_i natural): the sweeps fit
    and read whole arrays, the oracle one row at a time."""

    def test_x_rows_equal_the_fit_at_the_feet(self):
        gx = GRID_PAIRS["periodic-natural"][0]
        rng = np.random.default_rng(51)
        f = rng.normal(size=(gx.n_nodes, 9))
        length = gx.xmax - gx.xmin
        shift = np.concatenate([rng.uniform(-3.0, 3.0, 5) * length,
                                [0.0, gx.delta, -2.5 * length, 1e-12]])
        got = bsl._advect_x_rows(f, gx, shift)
        for j, s in enumerate(shift):
            want = plain_eval_1d(fit_1d(f[:, j], gx), gx.nodes() - s)
            np.testing.assert_allclose(got[:, j], want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gv", [GRID_PAIRS["periodic-natural"][1],
                                    GRID_PAIRS["natural-natural"][0]])
    def test_v_cols_equal_the_fit_at_the_feet(self, gv):
        rng = np.random.default_rng(52)
        f = rng.normal(size=(10, gv.n_nodes))
        # feet inside, on a wall and beyond +-v_max, near and far
        length = gv.xmax - gv.xmin
        shift = np.concatenate([rng.uniform(-0.6, 0.6, 4) * length,
                                [0.0, gv.delta, length, -length, 1e3, -1e3]])
        got = bsl._advect_v_cols(f, gv, shift)
        for i, s in enumerate(shift):
            want = plain_eval_1d(fit_1d(f[i], gv), gv.nodes() - s)
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-13)
        # a column shifted past a wall reads that wall's value everywhere
        np.testing.assert_allclose(got[-2], f[-2, 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(got[-1], f[-1, -1], rtol=0, atol=1e-13)


def _dense_numerov(rho, gx, gy):
    """Per-mode dense solve of the Numerov relation (complex FFT in x)."""
    dy = gy.delta
    k = gy.n_nodes - 2
    rho_hat = np.fft.fft(rho, axis=0)
    xi2 = (2.0 * np.pi * np.fft.fftfreq(gx.n_nodes, d=gx.delta)) ** 2
    phi_hat = np.zeros_like(rho_hat)
    eye = np.eye(k)
    shift = np.eye(k, k=1) + np.eye(k, k=-1)
    for m in range(gx.n_nodes):
        a = xi2[m] * dy**2 / 12.0
        mat = (-2.0 - 10.0 * a) * eye + (1.0 - a) * shift
        rhs = -(dy**2 / 12.0) * (rho_hat[m, 2:] + 10.0 * rho_hat[m, 1:-1] + rho_hat[m, :-2])
        phi_hat[m, 1:-1] = np.linalg.solve(mat, rhs)
    return np.real(np.fft.ifft(phi_hat, axis=0))


class TestPoissonDst:
    @pytest.mark.parametrize("nx,ny", [(16, 4), (15, 9), (32, 33), (9, 64)])
    def test_matches_dense_solve(self, nx, ny):
        gx = UniformGrid1D(0.0, 7.0, nx)
        gy = UniformGrid1D(0.0, 2.0 * np.pi, ny, bc=NATURAL)
        rho = np.random.default_rng(nx * ny).normal(size=(gx.n_nodes, gy.n_nodes))
        phi = np.fft.irfft(solve_potential(rho, gx, gy), n=gx.n_nodes, axis=0)
        ref = _dense_numerov(rho, gx, gy)
        assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_array_equal(phi[:, [0, -1]], 0.0)

    def test_requires_natural_y(self):
        g = UniformGrid1D(0.0, 7.0, 8)
        with pytest.raises(ValueError, match="natural"):
            solve_potential(np.zeros((8, 8)), g, g)

    def test_requires_periodic_x(self):
        g = UniformGrid1D(0.0, 7.0, 8, bc=NATURAL)
        with pytest.raises(ValueError, match="periodic"):
            solve_fields(np.zeros((9, 9)), g, g)
