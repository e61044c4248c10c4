import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from perco import rng
from perco.errors import ConfigurationError
from perco.rng import mix, pair_uniforms, point_uniforms, substream


def test_mix_deterministic_and_path_sensitive():
    assert mix(1, 2, 3) == mix(1, 2, 3)
    assert mix(1, 2, 3) != mix(1, 3, 2)
    assert mix(1, 2) != mix(2, 1)
    assert 0 <= mix(12345, 6, 7) < 2**64


def test_substream_reproducible_and_distinct():
    a = substream(9, "x").random(8)
    b = substream(9, "x").random(8)
    c = substream(9, "y").random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pair_uniforms_symmetric_open_interval():
    i = np.array([0, 1, 2, 5, 100], dtype=np.uint64)
    j = np.array([1, 0, 7, 5, 3], dtype=np.uint64)
    u = pair_uniforms(42, i, j)
    v = pair_uniforms(42, j, i)
    assert np.array_equal(u, v)
    assert np.all((u > 0.0) & (u < 1.0))
    # distinct pairs decorrelate, same pair repeats
    assert u[0] != pair_uniforms(42, 0, 2)
    assert u[0] == pair_uniforms(42, 1, 0)
    assert u[0] != pair_uniforms(43, 0, 1)


def test_pair_uniforms_marginally_uniform():
    n = 400
    ii, jj = np.triu_indices(n, k=1)
    u = pair_uniforms(7, ii.astype(np.uint64), jj.astype(np.uint64))
    stat = stats.kstest(u, "uniform")
    assert stat.pvalue > 0.01
    # neighbouring pairs should not show linear dependence
    r = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(r) < 0.02


def test_point_uniforms_uniform_and_keyed_by_id():
    ids = np.arange(5000, dtype=np.uint64)
    v = point_uniforms(11, ids)
    assert stats.kstest(v, "uniform").pvalue > 0.01
    assert np.array_equal(point_uniforms(11, ids[::7]), v[::7])
    assert not np.array_equal(point_uniforms(12, ids), v)


# values of the uint64 numpy splitmix chain, recorded before mix became pure-int
_MIX_GOLDEN = [
    ((0,), 0x0),
    ((1,), 0x5692161D100B05E5),
    ((-1,), 0xB4D055FCF2CBBD7B),
    ((-12345, 7), 0xCF30FAAA042114BB),
    ((2**64,), 0x0),
    ((2**64 + 5, 3), 0xA969EF050A1AFE21),
    ((2**70, "rep"), 0x52E6B477CC6905A5),
    ((42, -1, -(2**63)), 0x0901832170E2D537),
    ((42, 2**64 - 1, 10**30), 0x5717139CDA740352),
    ((7, "rep", 3), 0x18186EFFA57536A6),
    ((7, "thin"), 0x2A5D941198AD6D36),
    ((9, "a-tag-longer-than-eight-bytes", 5), 0x34DB95A52C1C5284),
    ((123456789, "rep", 0, "rng"), 0x015FDCE11642BF55),
]


def test_mix_golden_values():
    for args, expected in _MIX_GOLDEN:
        assert mix(*args) == expected, args


# values of pair_uniforms and point_uniforms, recorded before the splitmix chain ran in place
_PAIR_GOLDEN = ["0x1.beb0dc44cb09cp-1", "0x1.40bbae23772f0p-1", "0x1.27456d20bd29cp-1", "0x1.1aef2870310f4p-1",
                "0x1.0911431808862p-1"]
_POINT_GOLDEN = ["0x1.962c5f843dadep-3", "0x1.ae65a40a9d102p-1", "0x1.813ba45ed6d41p-2", "0x1.704925b77dbe8p-1",
                 "0x1.3a9b1fe89cbd2p-3"]


def test_pair_and_point_uniforms_golden_values():
    i = np.array([0, 1, 7, 2**40, 5])
    j = np.array([3, 1, 2, 9, 2**63 + 11], dtype=np.uint64)
    assert [float(u).hex() for u in pair_uniforms(2024, i, j)] == _PAIR_GOLDEN
    ids = np.array([0, 1, 7, 2**40, 2**64 - 1], dtype=np.uint64)
    assert [float(u).hex() for u in point_uniforms(2024, ids)] == _POINT_GOLDEN
    # scalar inputs give a numpy scalar, as they did
    one = pair_uniforms(-5, 4, 9)
    assert type(one) is np.float64 and one.hex() == "0x1.006185158d870p-1"
    assert float(pair_uniforms(2**64 - 1, 0, 0)).hex() == "0x1.2d1a3d8043feep-1"
    assert type(point_uniforms(0, 0)) is np.float64 and float(point_uniforms(0, 0)).hex() == "0x1.c4415072f63bap-1"
    # a broadcast tile equals the pairs one by one
    tile = pair_uniforms(2024, i[:, None], j[None, :])
    assert tile.shape == (5, 5) and tile[4, 3] == pair_uniforms(2024, 5, 9)


def test_pair_uniforms_array_seeds_equal_scalar_seeds():
    # one seed per pair, in runs and out of order, negative and above 2**63
    seeds = np.array([2024, 2024, -5, 2024, 7, 7, -5], dtype=np.int64)
    i = np.array([0, 1, 4, 7, 3, 3, 4])
    j = np.array([3, 1, 9, 2, 8, 8, 9])
    got = pair_uniforms(seeds, i, j)
    assert np.array_equal(got, [pair_uniforms(int(s), a, b) for s, a, b in zip(seeds, i, j)])
    assert got[2].hex() == "0x1.006185158d870p-1" and got[0].hex() == _PAIR_GOLDEN[0]
    big = np.array([2**64 - 1, 2**63 + 3], dtype=np.uint64)
    assert np.array_equal(pair_uniforms(big, 0, 0), [pair_uniforms(2**64 - 1, 0, 0), pair_uniforms(2**63 + 3, 0, 0)])
    # seeds broadcast against a tile of ids
    tile = pair_uniforms(np.array([[5], [6]]), np.arange(3)[None, :], 11)
    assert np.array_equal(tile[1], pair_uniforms(6, np.arange(3), 11))
    assert pair_uniforms(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)).shape == (0,)


def test_seed_arrays_of_other_dtypes_raise():
    # a float seed has lost its low bits, so no seed array but an integer one is accepted
    for seeds in (np.array([0.5, 3.0]), [-1, 2**64 - 1], np.array([True, False])):
        with pytest.raises(ConfigurationError, match="integer dtype"):
            pair_uniforms(seeds, [0, 1], [1, 2])
    with pytest.raises(ConfigurationError, match="integer dtype"):
        pair_uniforms(np.zeros(0), np.zeros(0), np.zeros(0))


def _seed_runs(values, dtype):
    """Seed arrays made of runs of equal values; runs of length 1 give arrays without runs, and [] the empty array."""
    runs = st.lists(st.tuples(values, st.integers(1, 4)), max_size=8)
    return runs.map(lambda rs: np.repeat(np.array([v for v, _ in rs], dtype=dtype), [k for _, k in rs]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _seed_runs(st.integers(-(2**63), 2**63 - 1), np.int64),
    _seed_runs(st.one_of(st.integers(2**64 - 2**12, 2**64 - 1), st.integers(0, 2**64 - 1)), np.uint64),
))
def test_array_keys_equal_mix_per_seed(seeds):
    keys = rng._keys(seeds)
    assert keys.dtype == np.uint64 and keys.shape == seeds.shape
    assert keys.tolist() == [(mix(int(s)) + rng._GOLDEN) & rng._MASK64 for s in seeds]
