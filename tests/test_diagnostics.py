import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mtlab.diagnostics import (
    GradTrace,
    _percentile,
    concentration_experiment,
    concentration_sample,
    consecutive_trace,
    pairwise_matrix,
)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """<u,v> / (|u| |v|); rejects zero vectors. The reference for the series."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vectors have different shapes: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    return 1.0 - cosine_similarity(u, v)


def _trace(entries, k=3, dim=4):
    tr = GradTrace(num_tasks=k, dim=dim)
    for t, task, v in entries:
        tr.append(t, task, np.asarray(v, dtype=np.float64))
    return tr


def _matrix(tr, window):
    return pairwise_matrix(consecutive_trace(tr)[0], tr.num_tasks, window=window)


# ---------------------------------------------------------------------------
# cosine

def test_cosine_identical_vectors():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0)
    assert cosine_distance(v, v) == pytest.approx(0.0)


def test_cosine_orthogonal_vectors():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 5.0])
    assert cosine_similarity(u, v) == 0.0
    assert cosine_distance(u, v) == 1.0


def test_cosine_opposite_vectors():
    u = np.array([2.0, -1.0])
    assert cosine_similarity(u, -u) == pytest.approx(-1.0)
    assert cosine_distance(u, -u) == pytest.approx(2.0)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.uniform(-1, 1, 16)
        v = rng.uniform(-1, 1, 16)
        a, b = rng.uniform(0.1, 100, 2)
        assert cosine_similarity(a * u, b * v) == pytest.approx(
            cosine_similarity(u, v), abs=1e-12)


def test_cosine_bounds():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        s = cosine_similarity(u, v)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert 0.0 - 1e-12 <= 1.0 - s <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# consecutive series

def test_constant_gradient_trace_gives_zero_distances():
    v = [1.0, 2.0, 3.0, 4.0]
    tr = _trace([(t, t % 2, v) for t in range(1, 6)], k=2)
    pairs, skipped = consecutive_trace(tr)
    assert skipped == []
    assert len(pairs) == 4
    assert all(p.distance == pytest.approx(0.0) for p in pairs)


def test_alternating_sign_trace_gives_distance_two():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    entries = [(t, 0, v if t % 2 else -v) for t in range(1, 7)]
    pairs, _ = consecutive_trace(_trace(entries, k=1))
    assert all(p.distance == pytest.approx(2.0) for p in pairs)


def test_zero_gradient_iterations_skipped_and_flagged():
    v = [1.0, 1.0, 1.0, 1.0]
    z = [0.0, 0.0, 0.0, 0.0]
    tr = _trace([(1, 0, v), (2, 1, z), (3, 2, v), (4, 0, v)])
    pairs, skipped = consecutive_trace(tr)
    assert skipped == [2, 3]  # both pairs touching the zero vector
    assert [p.t for p in pairs] == [4]
    assert len(pairs) == (4 - 1) - len(skipped)


def test_series_equals_cosine_similarity_bit_for_bit():
    rng = np.random.default_rng(7)
    entries = [(t, t % 3, rng.standard_normal(4)) for t in range(1, 21)]
    pairs, _ = consecutive_trace(_trace(entries))
    assert [p.similarity for p in pairs] == [cosine_similarity(a[2], b[2])
                                             for a, b in zip(entries, entries[1:])]


def test_trace_too_short_rejected():
    with pytest.raises(ValueError, match="two entries"):
        consecutive_trace(_trace([(1, 0, [1.0, 0, 0, 0])]))


def test_trace_requires_increasing_iterations():
    tr = _trace([(2, 0, [1.0, 0, 0, 0])])
    with pytest.raises(ValueError, match="increasing"):
        tr.append(2, 0, np.ones(4))


def test_pairs_aligned_to_later_iteration():
    rng = np.random.default_rng(3)
    entries = [(t, t % 3, rng.standard_normal(4)) for t in range(1, 11)]
    pairs, _ = consecutive_trace(_trace(entries))
    assert [p.t for p in pairs] == list(range(2, 11))
    assert all(p.task_prev == (p.t - 1) % 3 and p.task_curr == p.t % 3 for p in pairs)


# ---------------------------------------------------------------------------
# pairwise matrix

def test_single_task_matrix_has_single_cell():
    rng = np.random.default_rng(4)
    entries = [(t, 0, rng.standard_normal(4)) for t in range(1, 8)]
    m = _matrix(_trace(entries, k=1), window=10)
    assert m.values.shape == (1, 1)
    assert np.isfinite(m.values[0, 0])
    assert m.counts[0, 0] == 6


def test_identical_gradients_make_all_present_cells_zero():
    v = [2.0, -1.0, 0.5, 1.5]
    entries = [(t, t % 3, v) for t in range(1, 31)]
    m = _matrix(_trace(entries), window=10)
    present = ~np.isnan(m.values)
    assert present.any()
    assert np.allclose(m.values[present], 0.0)
    assert np.all(m.counts[~present] == 0)


def test_unsampled_cells_absent_not_zero():
    rng = np.random.default_rng(5)
    entries = [(t, 0 if t % 2 else 1, rng.standard_normal(4)) for t in range(1, 11)]
    m = _matrix(_trace(entries, k=3), window=10)
    assert np.isnan(m.values[2, 2])       # task 2 never sampled
    assert np.isnan(m.values[0, 0])       # tasks alternate, never 0 -> 0
    assert np.isfinite(m.values[0, 1])
    assert np.isfinite(m.values[1, 0])


def test_infinite_window_equals_plain_mean():
    rng = np.random.default_rng(6)
    entries = [(t, t % 2, rng.standard_normal(4)) for t in range(1, 40)]
    tr = _trace(entries, k=2)
    m_inf = _matrix(tr, window=math.inf)
    pairs, _ = consecutive_trace(tr)
    for i in range(2):
        for j in range(2):
            dists = [p.distance for p in pairs if (p.task_prev, p.task_curr) == (i, j)]
            if dists:
                assert m_inf.values[i, j] == pytest.approx(np.mean(dists))
            else:
                assert np.isnan(m_inf.values[i, j])


def test_window_uses_last_samples_only():
    # sign flips give distance-2 pairs, then a constant tail gives three zeros
    v = np.ones(4)
    entries = [(t, 0, v if t % 2 else -v) for t in range(1, 7)]
    entries += [(t, 0, v) for t in range(7, 11)]
    m = _matrix(_trace(entries, k=1), window=3)
    assert m.values[0, 0] == pytest.approx(0.0)
    assert m.counts[0, 0] == 9


def test_matrix_rejects_bad_window():
    with pytest.raises(ValueError):
        _matrix(_trace([(1, 0, [1.0, 0, 0, 0]), (2, 0, [1.0, 0, 0, 0])]), window=0)


# ---------------------------------------------------------------------------
# sketch mode

def test_sketch_preserves_cosine_approximately():
    dim, m = 6000, 4096
    tr = GradTrace(num_tasks=1, dim=dim, mode="sketch", sketch_dim=m, sketch_seed=3)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(dim)
    v = 0.4 * u + rng.standard_normal(dim)
    tr.append(1, 0, u)
    tr.append(2, 0, v)
    exact = cosine_similarity(u, v)
    sketched = cosine_similarity(tr.entries[0][2], tr.entries[1][2])
    assert tr.entries[0][2].shape == (m,)
    assert abs(sketched - exact) < 5 / math.sqrt(m)


def test_sketch_deterministic_per_seed():
    dim = 5000
    u = np.random.default_rng(8).standard_normal(dim)
    outs = []
    for _ in range(2):
        tr = GradTrace(num_tasks=1, dim=dim, mode="sketch", sketch_seed=11)
        tr.append(1, 0, u)
        outs.append(tr.entries[0][2])
    np.testing.assert_array_equal(outs[0], outs[1])


def test_sketch_below_threshold_keeps_exact_vectors():
    tr = GradTrace(num_tasks=1, dim=16, mode="sketch", sketch_dim=4096)
    v = np.arange(16.0)
    tr.append(1, 0, v)
    np.testing.assert_array_equal(tr.entries[0][2], v)


# ---------------------------------------------------------------------------
# concentration experiment

def test_percentile_has_the_bytes_of_numpys():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 7, 1000, 4000, 4001):
        x = rng.standard_normal(n)
        for q in (0, 5, 37.5, 50, 95, 99.9, 100):
            assert _percentile(np.sort(x), q) == np.percentile(x, q)
            assert repr(_percentile(np.sort(x), q)) == repr(float(np.percentile(x, q)))


def test_concentration_std_decreases_with_dimension():
    rng = np.random.Generator(np.random.SFC64(0))
    stats = concentration_experiment([4, 10000], 2000, rng)
    assert stats[1].std < stats[0].std


def test_concentration_d100_matches_inverse_sqrt_law():
    rng = np.random.Generator(np.random.SFC64(1))
    (stat,) = concentration_experiment([100], 100_000, rng)
    assert 0.095 <= stat.std <= 0.105
    assert abs(stat.mean) < 0.002


def test_concentration_d10000_matches_inverse_sqrt_law():
    rng = np.random.Generator(np.random.SFC64(2))
    (stat,) = concentration_experiment([10000], 100_000, rng)
    assert 0.0095 <= stat.std <= 0.0105


def test_concentration_loglog_slope_near_minus_half():
    rng = np.random.Generator(np.random.SFC64(3))
    dims = [4, 16, 100, 1024]
    stats = concentration_experiment(dims, 20_000, rng)
    slope = np.polyfit(np.log([s.dim for s in stats]),
                       np.log([s.std for s in stats]), 1)[0]
    assert -0.55 <= slope <= -0.45


def _explicit_pair_cosines(d, n, rng):
    u = rng.standard_normal((n, d))
    v = rng.standard_normal((n, d))
    return np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))


@pytest.mark.parametrize("d", [2, 3, 16, 257])
def test_concentration_sample_has_the_law_of_explicit_pairs(d):
    sims = concentration_sample(d, 5000, np.random.Generator(np.random.SFC64(d)))
    explicit = _explicit_pair_cosines(d, 5000, np.random.default_rng(1000 + d))
    assert ks_2samp(sims, explicit).pvalue > 1e-3
    if d == 2:  # the test tells neighbouring laws apart where they differ most
        wrong = _explicit_pair_cosines(3, 5000, np.random.default_rng(7))
        assert ks_2samp(sims, wrong).pvalue < 1e-6


def test_concentration_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        concentration_experiment([1], 2000, rng)
    with pytest.raises(ValueError):
        concentration_experiment([4], 10, rng)


def test_concentration_percentiles():
    rng = np.random.Generator(np.random.SFC64(4))
    (stat,) = concentration_experiment([16], 5000, rng)
    assert stat.p05 < stat.mean < stat.p95
    assert -1 <= stat.p05 and stat.p95 <= 1
