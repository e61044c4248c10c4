import numpy as np
from scipy import stats

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
