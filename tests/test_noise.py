import numpy as np
import pytest

from statinv import (
    Grid,
    L2Vector,
    NoiseSpec,
    apply,
    build_integration_operator,
    draw_noise,
    observation_to_csv,
    observe,
    pointwise_values,
)
from statinv.noise import generator_for, stream_key
from statinv.signals import dirac_direction, make_signal

GRID16 = Grid(16)


def test_dirac_zero_draw_is_zero():
    spec = NoiseSpec.dirac(L2Vector(GRID16, np.zeros(16)))
    assert np.all(draw_noise(spec, GRID16) == 0.0)


def test_same_seed_same_vector():
    spec = NoiseSpec.gaussian_white(seed=42)
    a = draw_noise(spec, Grid(100), replicate=3)
    b = draw_noise(spec, Grid(100), replicate=3)
    assert np.array_equal(a, b)
    c = draw_noise(spec, Grid(100), replicate=4)
    assert not np.array_equal(a, c)


def test_white_noise_moments():
    # CLT bounds at 4 sigma: |mean| <= 0.02, |var - 1| <= 0.02 for n = 1e5
    xi = draw_noise(NoiseSpec.gaussian_white(seed=7), Grid(100_000))
    assert abs(np.mean(xi)) < 0.02
    assert abs(np.var(xi) - 1.0) < 0.02


def test_dirac_norm_validation():
    too_big = L2Vector(GRID16, np.full(16, 1.0))
    with pytest.raises(ValueError):
        NoiseSpec.dirac(too_big)
    ok = L2Vector(GRID16, np.full(16, 0.25))
    NoiseSpec.dirac(ok)


def test_scaled_rv_flips_sign_only():
    base = dirac_direction(GRID16)
    spec = NoiseSpec.scaled_rv(base, seed=11)
    draws = np.array([draw_noise(spec, GRID16, rep) for rep in range(200)])
    norms = np.linalg.norm(draws, axis=1)
    # every draw is +-base: squared norm is exactly ||base||^2 <= 1
    assert np.allclose(norms, base.norm())
    signs = draws @ base.coeffs
    assert np.any(signs > 0) and np.any(signs < 0)
    # second-moment normalization E||Xi||^2 <= 1, Monte Carlo within 5%
    assert np.mean(norms**2) <= 1.0 + 0.05


def test_observe_noiseless_limit(op64):
    x = make_signal("smooth", op64.grid)
    spec = NoiseSpec.dirac(L2Vector(op64.grid, np.zeros(64)))
    obs = observe(op64, x, 1e-15, spec)
    assert np.array_equal(obs.coeffs, obs.y_exact.coeffs)


def test_observe_pure_dirac_noise(op64):
    x = L2Vector(op64.grid, np.zeros(64))
    xi = dirac_direction(op64.grid)
    obs = observe(op64, x, 0.3, NoiseSpec.dirac(xi))
    assert np.array_equal(obs.coeffs, 0.3 * xi.coeffs)


def test_observe_rejects_nonpositive_delta(op64):
    x = make_signal("smooth", op64.grid)
    with pytest.raises(ValueError):
        observe(op64, x, 0.0, NoiseSpec.gaussian_white(1))


def test_observe_per_coordinate_noise_energy(op64):
    # E[ sum_j (coeff_j - y_j)^2 / n ] = delta^2 for white noise
    delta = 0.2
    x = make_signal("smooth", op64.grid)
    spec = NoiseSpec.gaussian_white(seed=3)
    acc = 0.0
    reps = 2000
    for rep in range(reps):
        obs = observe(op64, x, delta, spec, replicate=rep)
        acc += np.sum((obs.coeffs - obs.y_exact.coeffs) ** 2) / obs.n
    assert acc / reps == pytest.approx(delta**2, rel=0.1)


def test_observe_determinism(op64):
    x = make_signal("smooth", op64.grid)
    spec = NoiseSpec.gaussian_white(seed=9)
    a = observe(op64, x, 0.1, spec, replicate=(2, 5))
    b = observe(op64, x, 0.1, spec, replicate=(2, 5))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.seed_used == b.seed_used


def test_observe_with_precomputed_exact_data_is_bit_identical(op64):
    x = make_signal("smooth", op64.grid)
    y_exact = apply(op64, x)
    spec = NoiseSpec.gaussian_white(seed=9)
    for rep in range(3):
        fresh = observe(op64, x, 0.05, spec, replicate=(1, rep))
        reused = observe(op64, x, 0.05, spec, replicate=(1, rep), y_exact=y_exact)
        assert np.array_equal(fresh.coeffs, reused.coeffs)
        assert np.array_equal(fresh.y_exact.coeffs, reused.y_exact.coeffs)
        assert fresh.seed_used == reused.seed_used
    with pytest.raises(ValueError):
        observe(op64, x, 0.05, spec, y_exact=L2Vector(Grid(32), np.zeros(32)))


def test_observation_replay_from_seed_used(op64):
    # seed_used alone reproduces the realized coefficients bit for bit
    from statinv.noise import generator_for

    x = make_signal("smooth", op64.grid)
    obs = observe(op64, x, 0.1, NoiseSpec.gaussian_white(seed=9), replicate=7)
    xi = generator_for(obs.seed_used).standard_normal(obs.n)
    assert np.array_equal(obs.coeffs, obs.y_exact.coeffs + 0.1 * xi)


def test_pointwise_values_scaling():
    grid = Grid(4)
    obs = observe(
        build_integration_operator(grid),
        L2Vector(grid, np.zeros(4)),
        1.0,
        NoiseSpec.dirac(L2Vector(grid, np.array([1.0, 0.0, 0.0, 0.0]))),
    )
    assert np.array_equal(pointwise_values(obs), np.array([2.0, 0.0, 0.0, 0.0]))


def test_pointwise_zero(op64):
    x = L2Vector(op64.grid, np.zeros(64))
    obs = observe(op64, x, 1e-300, NoiseSpec.dirac(L2Vector(op64.grid, np.zeros(64))))
    assert np.all(pointwise_values(obs) == 0.0)


def test_pointwise_round_trip(op64):
    x = make_signal("smooth", op64.grid)
    obs = observe(op64, x, 0.1, NoiseSpec.gaussian_white(seed=2))
    values = pointwise_values(obs)
    back = values / np.sqrt(obs.n)
    assert np.max(np.abs(back - obs.coeffs)) < 1e-14


def test_cell_value_noise_amplification(op64):
    # cell values carry sqrt(n) * delta * eps_j: empirical std within 5%
    delta, n_draws = 0.5, 10_000
    grid = Grid(16)
    op = build_integration_operator(grid)
    x = make_signal("smooth", grid)
    spec = NoiseSpec.gaussian_white(seed=13)
    devs = np.empty((n_draws, grid.n_cells))
    y_values = None
    for rep in range(n_draws):
        obs = observe(op, x, delta, spec, replicate=rep)
        if y_values is None:
            y_values = obs.y_exact.cell_values()
        devs[rep] = pointwise_values(obs) - y_values
    expected = np.sqrt(grid.n_cells) * delta
    assert np.std(devs) == pytest.approx(expected, rel=0.05)


def test_observation_csv(tmp_path, op64):
    x = make_signal("smooth", op64.grid)
    obs = observe(op64, x, 0.05, NoiseSpec.gaussian_white(seed=21))
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    observation_to_csv(obs, path_a)
    observation_to_csv(obs, path_b)
    content = path_a.read_bytes()
    assert content == path_b.read_bytes()
    text = content.decode("ascii").splitlines()
    assert text[0].startswith("# delta=")
    assert text[1].startswith("# seed=")
    assert text[2] == "# noise=gaussian_white"
    assert text[3] == "j,t_j,y_exact_j,coeff_j"
    assert len(text) == 4 + obs.n


@pytest.mark.parametrize("kind", ["gaussian_white", "scaled_rv", "dirac"])
def test_observe_derives_the_stream_key_once(op64, monkeypatch, kind):
    import statinv.noise

    x = make_signal("smooth", op64.grid)
    direction = dirac_direction(op64.grid)
    spec = {
        "gaussian_white": NoiseSpec.gaussian_white(seed=9),
        "scaled_rv": NoiseSpec.scaled_rv(direction, seed=9),
        "dirac": NoiseSpec.dirac(direction, seed=9),
    }[kind]
    real_key = statinv.noise.stream_key
    keys = []

    def counting_key(seed, replicate=0):
        keys.append(replicate)
        return real_key(seed, replicate)

    monkeypatch.setattr(statinv.noise, "stream_key", counting_key)
    for rep in [(0, 0), (1, 3), (2, 5)]:
        obs = observe(op64, x, 0.05, spec, replicate=rep)
        assert keys == [rep]
        keys.clear()
        # the draw is the one draw_noise makes from its own key
        xi = draw_noise(spec, op64.grid, rep)
        assert np.array_equal(obs.coeffs, obs.y_exact.coeffs + 0.05 * xi)
        assert obs.seed_used == real_key(9, rep)
        keys.clear()


KEY_SEEDS = [0, 7, 20260811, 2**32 - 1, 2**32, 2**63 + 5, (1 << 96) + 12345]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stream_key_is_the_seed_sequence_key(seed):
    paths = [0, 3, 2**32 - 1, (0, 0), (2, 5), (2**32 - 1, 7), (1, 2, 3), (9, 0, 2**31)]
    expected = [
        int(np.random.SeedSequence(seed, spawn_key=(p,) if isinstance(p, int) else p).generate_state(1, np.uint64)[0])
        for p in paths
    ]
    singles = [stream_key(seed, p) for p in paths]
    assert singles == expected and all(type(key) is int for key in singles)
    # a list of paths gives the same keys at once, one block per path depth
    keys = stream_key(seed, paths)
    assert keys.dtype == np.uint64 and keys.tolist() == expected
    pairs = [(di, rep) for di in range(3) for rep in range(100)]
    assert stream_key(seed, pairs).tolist() == [stream_key(seed, p) for p in pairs]


@pytest.mark.parametrize("bad", [-1, 2**32, (0, -1), (2**32, 0), [(0, 1), (0, 2**32)]])
def test_stream_key_rejects_path_entries_outside_32_bits(bad):
    with pytest.raises(ValueError):
        stream_key(3, bad)


@pytest.mark.parametrize("kind", ["gaussian_white", "scaled_rv", "dirac"])
def test_a_batch_row_is_the_single_observation(op64, kind):
    x = make_signal("smooth", op64.grid)
    direction = dirac_direction(op64.grid)
    spec = {
        "gaussian_white": NoiseSpec.gaussian_white(seed=5),
        "scaled_rv": NoiseSpec.scaled_rv(direction, seed=5),
        "dirac": NoiseSpec.dirac(direction, seed=5),
    }[kind]
    keys = [(1, rep) for rep in range(40)]
    batch = observe(op64, x, 0.05, spec, replicate=keys)
    assert batch.coeffs.shape == (40, 64) and len(batch.seed_used) == 40
    assert np.array_equal(batch.coeffs, batch.y_exact.coeffs + 0.05 * draw_noise(spec, op64.grid, keys))
    signs = set()
    for i, key in enumerate(keys):
        single = observe(op64, x, 0.05, spec, replicate=key)
        assert np.array_equal(batch.coeffs[i], single.coeffs)
        assert batch.seed_used[i] == single.seed_used
        assert np.array_equal(batch.row(i).coeffs, single.coeffs)
        # the key alone replays the row
        rng = generator_for(batch.seed_used[i])
        if kind == "gaussian_white":
            xi = rng.standard_normal(64)
        elif kind == "scaled_rv":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            signs.add(sign)
            xi = sign * direction.coeffs
        else:
            xi = direction.coeffs
        assert np.array_equal(batch.coeffs[i], batch.y_exact.coeffs + 0.05 * xi)
    if kind == "scaled_rv":
        assert signs == {1.0, -1.0}


def test_observation_owns_its_coefficients(op64):
    x = make_signal("smooth", op64.grid)
    batch = observe(op64, x, 0.05, NoiseSpec.gaussian_white(seed=2), replicate=[0, 1])
    assert batch.coeffs.flags.owndata and not batch.coeffs.flags.writeable
    # a row is a view of the batch, so it is copied
    row = batch.row(1)
    assert row.coeffs.flags.owndata and not np.shares_memory(row.coeffs, batch.coeffs)
