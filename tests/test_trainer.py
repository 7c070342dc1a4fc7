import gc

import numpy as np
import pytest
from scipy import stats

from mtlab.autodiff import Tensor
from mtlab.model import Activation, Conv, GlobalAvgPool, ParamStore, build_encoder
from mtlab.tasks import (
    KIND_BINARY_SEG,
    gen_classification_task,
    gen_segmentation_task,
    sample_batch,
)
from mtlab.tensorio import TruncatedFileError
from mtlab.trainer import (
    SamplerConfig,
    TrainConfig,
    TrainError,
    apply_checkpoint,
    build_decoders,
    init_adam_states,
    iteration_rng,
    load_checkpoint,
    sample_task,
    save_checkpoint,
    train,
    train_step,
)


def _suite(seed=0, n_train=24, n_eval=8):
    return [
        gen_classification_task(3, (3, 16, 16), n_train, n_eval, 0.3,
                                seed=seed, task_id=0),
        gen_classification_task(2, (3, 16, 16), n_train, n_eval, 0.3,
                                seed=seed + 1, task_id=1),
        gen_segmentation_task(KIND_BINARY_SEG, 16, 2, 1, n_train, n_eval,
                              seed=seed + 2, task_id=2),
    ]


def _models(tasks, seed=0, filters=6, layers=None):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    layers = layers or [Conv(filters, 3, padding=1), Activation("relu"), GlobalAvgPool()]
    enc = build_encoder(layers, tasks[0].spec.input_shape, store, rng)
    decs = build_decoders(tasks, enc, store, rng)
    states = init_adam_states(store)
    return store, enc, decs, states


def _store_bytes(store, group):
    return b"".join(store.get(pid).data.tobytes() for pid in store.sorted_ids(group))


# ---------------------------------------------------------------------------
# sampler

def test_degenerate_categorical_always_zero():
    s = SamplerConfig(np.array([1.0]))
    rng = np.random.default_rng(0)
    assert all(sample_task(s, rng) == 0 for _ in range(100))


def test_two_way_frequencies():
    s = SamplerConfig(np.array([0.5, 0.5]))
    rng = np.random.default_rng(1)
    draws = np.array([sample_task(s, rng) for _ in range(100_000)])
    f1 = draws.mean()
    assert 0.49 <= f1 <= 0.51  # +-4 sigma for a fair binomial at n=1e5


def test_uniform_eleven_task_frequencies():
    s = SamplerConfig.uniform(11)
    rng = np.random.default_rng(2)
    draws = np.array([sample_task(s, rng) for _ in range(1_000_000)])
    freqs = np.bincount(draws, minlength=11) / draws.size
    assert np.all(np.abs(freqs - 1 / 11) <= 0.005)


def test_sampler_chi_square_goodness_of_fit():
    # statistic below the 0.999 quantile for k-1 dof; <=1 failure in 20 seeds
    alpha = np.array([0.5, 0.3, 0.2])
    s = SamplerConfig(alpha)
    crit = stats.chi2.ppf(0.999, df=2)
    n = 100_000
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = np.array([sample_task(s, rng) for _ in range(n)])
        observed = np.bincount(draws, minlength=3)
        chi2 = ((observed - n * alpha) ** 2 / (n * alpha)).sum()
        failures += chi2 >= crit
    assert failures <= 1


def test_sample_task_draws_as_the_loop_over_alpha():
    # reference: the same inverse-CDF loop summing alpha's numpy float64 entries
    s = SamplerConfig(np.array([0.16, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.20, 0.07]))

    def reference(rng):
        u, acc = rng.random(), 0.0
        for i, p in enumerate(s.alpha):
            acc += p
            if u < acc:
                return i
        return s.k - 1

    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    assert [sample_task(s, rng) for _ in range(20_000)] == \
        [reference(ref_rng) for _ in range(20_000)]


def test_sampler_normalizes_alpha():
    s = SamplerConfig(np.array([2.0, 2.0, 4.0]))
    np.testing.assert_allclose(s.alpha, [0.25, 0.25, 0.5])
    assert abs(s.alpha.sum() - 1.0) <= 1e-9


def test_sampler_rejects_bad_alpha():
    with pytest.raises(ValueError):
        SamplerConfig(np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        SamplerConfig(np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# train_step / train

def test_single_task_run_is_plain_training():
    tasks = _suite()[:1]
    store, enc, decs, states = _models(tasks)
    cfg = TrainConfig(iterations=20, batch_size=4, seed=3)
    log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(1), cfg)
    assert len(log.records) == 20
    assert all(r.task == 0 for r in log.records)
    assert states["decoder0"].t == 20
    assert states["encoder"].t == 20


def test_non_sampled_decoders_bit_identical():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    x, y = sample_batch(tasks[0], "train", 4, np.random.default_rng(0))
    before1 = _store_bytes(store, "decoder1")
    before2 = _store_bytes(store, "decoder2")
    m1 = {k: v.tobytes() for k, v in states["decoder1"].m.items()}
    train_step(enc, decs, store, states, 0, (x, y))
    assert _store_bytes(store, "decoder1") == before1
    assert _store_bytes(store, "decoder2") == before2
    assert {k: v.tobytes() for k, v in states["decoder1"].m.items()} == m1
    assert states["decoder1"].t == 0
    assert states["decoder0"].t == 1


def test_decoder_isolation_across_run():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    cfg = TrainConfig(iterations=30, batch_size=4, seed=5)
    sampler = SamplerConfig.uniform(3)
    snapshots = {g: _store_bytes(store, g) for g in ("decoder0", "decoder1", "decoder2")}
    for t in range(1, 31):
        rng = iteration_rng(cfg.seed, t)
        i = sample_task(sampler, rng)
        x, y = sample_batch(tasks[i], "train", cfg.batch_size, rng)
        train_step(enc, decs, store, states, i, (x, y))
        for j, g in enumerate(("decoder0", "decoder1", "decoder2")):
            new = _store_bytes(store, g)
            if j == i:
                snapshots[g] = new
            else:
                assert new == snapshots[g], f"decoder {j} moved on iteration {t} (task {i})"


def test_encoder_updates_regardless_of_sampled_task():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    for task in (0, 1, 2):
        before = _store_bytes(store, "encoder")
        x, y = sample_batch(tasks[task], "train", 4, np.random.default_rng(task))
        _, enc_grads = train_step(enc, decs, store, states, task, (x, y))
        assert any(g.data.any() for g in enc_grads.values())
        assert _store_bytes(store, "encoder") != before


def test_overfitting_one_batch_strictly_decreases_loss():
    tasks = [gen_classification_task(2, (3, 8, 8), 32, 8, 0.1, seed=9, task_id=0)]
    store, enc, decs, states = _models(tasks)
    x, y = sample_batch(tasks[0], "train", 16, np.random.default_rng(1))
    losses = [train_step(enc, decs, store, states, 0, (x, y))[0] for _ in range(50)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_zero_iterations_leaves_parameters_untouched():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    before = {g: _store_bytes(store, g) for g in store.group_names()}
    log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(3),
                TrainConfig(iterations=0, seed=1))
    assert log.records == []
    assert {g: _store_bytes(store, g) for g in store.group_names()} == before


def test_same_seed_gives_bit_identical_run():
    def run():
        tasks = _suite()
        store, enc, decs, states = _models(tasks)
        cfg = TrainConfig(iterations=25, batch_size=4, seed=11, diagnostics="exact")
        log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(3), cfg)
        return ([(r.t, r.task, r.loss) for r in log.records],
                b"".join(_store_bytes(store, g) for g in store.group_names()),
                b"".join(v.tobytes() for _, _, v in log.trace.entries))

    assert run() == run()


TWO_CONV_STRIDE2 = [Conv(6, 3, padding=1), Activation("relu"),
                    Conv(8, 3, stride=2, padding=1), Activation("relu"), GlobalAvgPool()]


@pytest.mark.parametrize("tasks, layers", [
    (slice(0, 2), None), (slice(2, 3), None), (slice(0, 3), TWO_CONV_STRIDE2),
], ids=["classification", "segmentation", "two_conv_stride2"])
def test_each_step_tape_is_freed_without_the_cyclic_gc(tasks, layers):
    # A reference cycle through the tape would keep every step's activations
    # and im2col columns alive until the cyclic collector ran.
    tasks = _suite()[tasks]
    store, enc, decs, states = _models(tasks, layers=layers)
    cfg = TrainConfig(iterations=30, batch_size=4, seed=5)
    gc.collect()
    gc.disable()
    try:
        train(tasks, enc, decs, store, states, SamplerConfig.uniform(len(tasks)), cfg)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_mismatched_counts_rejected():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    with pytest.raises(ValueError, match="counts differ"):
        train(tasks, enc, decs[:2], store, states, SamplerConfig.uniform(3),
              TrainConfig(iterations=1))


def test_step_error_carries_iteration_index():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    tasks[0].targets.flags.writeable = True
    tasks[0].targets[:] = 99  # out-of-range labels slipped in after validation
    with pytest.raises(TrainError, match="iteration 1"):
        train(tasks, enc, decs, store, states, SamplerConfig(np.array([1.0, 0, 0])),
              TrainConfig(iterations=5, seed=2))


def test_two_task_suite_reaches_thresholds():
    # one 3-class classification task plus one binary segmentation task,
    # trained for 2000 iterations, must clear the acceptance bars
    from mtlab.cli import evaluate_task

    tasks = [
        gen_classification_task(3, (3, 16, 16), 48, 24, 0.3, seed=100, task_id=0),
        gen_segmentation_task(KIND_BINARY_SEG, 16, 2, 1, 48, 24, seed=101, task_id=1),
    ]
    store, enc, decs, states = _models(tasks, seed=102, filters=8)
    cfg = TrainConfig(iterations=2000, batch_size=8, seed=103)
    train(tasks, enc, decs, store, states, SamplerConfig.uniform(2), cfg)
    metric0, acc = evaluate_task(enc, decs[0], tasks[0])
    metric1, pq = evaluate_task(enc, decs[1], tasks[1])
    assert metric0 == "accuracy" and acc >= 0.85
    assert metric1 == "PQ" and pq >= 0.6


def test_trace_records_every_iteration():
    tasks = _suite()
    store, enc, decs, states = _models(tasks)
    cfg = TrainConfig(iterations=12, batch_size=4, seed=13, diagnostics="exact")
    log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(3), cfg)
    assert log.trace is not None
    assert len(log.trace.entries) == 12
    dim = store.total_size("encoder")
    assert all(v.shape == (dim,) for _, _, v in log.trace.entries)
    assert [t for t, _, _ in log.trace.entries] == list(range(1, 13))


# ---------------------------------------------------------------------------
# checkpointing

def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    def fresh():
        tasks = _suite(seed=40)
        store, enc, decs, states = _models(tasks, seed=41)
        return tasks, store, enc, decs, states

    sampler = SamplerConfig.uniform(3)

    tasks, store, enc, decs, states = fresh()
    train(tasks, enc, decs, store, states, sampler,
          TrainConfig(iterations=200, batch_size=4, seed=42))
    straight = b"".join(_store_bytes(store, g) for g in store.group_names())

    tasks, store, enc, decs, states = fresh()
    train(tasks, enc, decs, store, states, sampler,
          TrainConfig(iterations=100, batch_size=4, seed=42))
    ck = tmp_path / "mid.mtlc"
    save_checkpoint(ck, store, states, seed=42, t=100)

    tasks, store, enc, decs, states = fresh()
    loaded = load_checkpoint(ck)
    apply_checkpoint(loaded, store, states)
    assert loaded.t == 100 and loaded.seed == 42
    train(tasks, enc, decs, store, states, sampler,
          TrainConfig(iterations=200, batch_size=4, seed=loaded.seed),
          start_t=loaded.t)
    resumed = b"".join(_store_bytes(store, g) for g in store.group_names())
    assert resumed == straight


def test_checkpoint_round_trip_at_t_zero(tmp_path):
    tasks = _suite(seed=50)
    store, enc, decs, states = _models(tasks, seed=51)
    before = b"".join(_store_bytes(store, g) for g in store.group_names())
    path = tmp_path / "init.mtlc"
    save_checkpoint(path, store, states, seed=50, t=0)

    store2, enc2, decs2, states2 = _models(_suite(seed=50), seed=999)  # different init
    apply_checkpoint(load_checkpoint(path), store2, states2)
    after = b"".join(_store_bytes(store2, g) for g in store2.group_names())
    assert after == before


def test_truncated_checkpoint_rejected(tmp_path):
    tasks = _suite(seed=60)
    store, enc, decs, states = _models(tasks, seed=61)
    path = tmp_path / "ck.mtlc"
    save_checkpoint(path, store, states, seed=60, t=0)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 100])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    from mtlab import tensorio

    tasks = _suite(seed=65)
    store, enc, decs, states = _models(tasks, seed=66)
    path = tmp_path / "checkpoint_final.mtlc"
    save_checkpoint(path, store, states, seed=65, t=10)
    before = path.read_bytes()

    def open_then_fill_disk(file, mode):
        with open(file, mode) as fh:
            fh.write(before[:len(before) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tensorio, "open", open_then_fill_disk, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, store, states, seed=65, t=20)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("old_size", [0, 100, 10**6], ids=["new", "shorter", "longer"])
def test_in_place_checkpoint_overwrites_the_file_itself(tmp_path, old_size):
    tasks = _suite(seed=67)
    store, enc, decs, states = _models(tasks, seed=68)
    renamed, path = tmp_path / "renamed.mtlc", tmp_path / "slot.mtlc"
    save_checkpoint(renamed, store, states, seed=67, t=5)
    if old_size:
        path.write_bytes(b"x" * old_size)
        inode = path.stat().st_ino
    save_checkpoint(path, store, states, seed=67, t=5, in_place=True)
    assert path.read_bytes() == renamed.read_bytes()
    assert not old_size or path.stat().st_ino == inode  # the same file, not a new one
    assert sorted(p.name for p in tmp_path.iterdir()) == ["renamed.mtlc", "slot.mtlc"]


def test_read_frames_stops_at_a_cut_or_damaged_frame(tmp_path):
    from mtlab.tensorio import BlockWriter, append_frame, read_frames

    path = tmp_path / "journal"
    for v in range(3):
        w = BlockWriter(b"MTLJ", 1)
        w.u32(v)
        append_frame(path, w)
    raw = path.read_bytes()
    frames = list(read_frames(path, b"MTLJ", 1, lambda r: r.u32()))
    assert [v for v, _ in frames] == [0, 1, 2]
    assert [end for _, end in frames] == [18, 36, 54] and len(raw) == 54

    path.write_bytes(raw[:50])   # an append that stopped midway
    assert [end for _, end in read_frames(path, b"MTLJ", 1, lambda r: r.u32())] == [18, 36]
    garbled = bytearray(raw)
    garbled[18 + 4 + 6] ^= 1     # the second frame's payload
    path.write_bytes(bytes(garbled))
    assert [end for _, end in read_frames(path, b"MTLJ", 1, lambda r: r.u32())] == [18]


def test_checkpoint_group_mismatch_rejected(tmp_path):
    tasks = _suite(seed=70)
    store, enc, decs, states = _models(tasks, seed=71)
    path = tmp_path / "ck.mtlc"
    save_checkpoint(path, store, states, seed=70, t=0)
    other_store, _, _, other_states = _models(_suite(seed=70)[:2], seed=71)
    with pytest.raises(ValueError, match="groups"):
        apply_checkpoint(load_checkpoint(path), other_store, other_states)


def test_trace_round_trip(tmp_path):
    from mtlab.trainer import load_trace, save_trace

    tasks = _suite(seed=90)
    store, enc, decs, states = _models(tasks, seed=91)
    cfg = TrainConfig(iterations=15, batch_size=4, seed=92, diagnostics="exact")
    log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(3), cfg)
    path = tmp_path / "trace.mtlg"
    save_trace(path, log.trace)
    loaded = load_trace(path)
    assert loaded.num_tasks == 3 and loaded.mode == "exact"
    assert len(loaded.entries) == 15
    for (t0, i0, v0), (t1, i1, v1) in zip(log.trace.entries, loaded.entries):
        assert (t0, i0) == (t1, i1)
        assert v0.tobytes() == v1.tobytes()


def test_periodic_checkpoints_written(tmp_path):
    from mtlab.trainer import RunRecord

    tasks = _suite(seed=80)
    store, enc, decs, states = _models(tasks, seed=81)
    record = RunRecord(tmp_path, log_every=1)
    cfg = TrainConfig(iterations=10, batch_size=4, seed=82, checkpoint_every=4)
    train(tasks, enc, decs, store, states, SamplerConfig.uniform(3), cfg, record=record)
    # saves at t=4 and t=8 go to alternate slots; the log holds the rows up to the last
    assert [load_checkpoint(p).t for p in record.slots] == [4, 8]
    lines = record.log_path.read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines] == list(range(1, 9))


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_journaled_trace_vectors_are_not_held(tmp_path, monkeypatch, mode):
    import weakref

    from mtlab.diagnostics import GradTrace
    from mtlab.trainer import JOURNAL_MAGIC, JOURNAL_VERSION, RunRecord, read_frames

    refs = []
    append = GradTrace.append

    def keeping_refs(self, t, task, vec):
        append(self, t, task, vec)
        refs.append(weakref.ref(self.entries[-1][2]))

    monkeypatch.setattr(GradTrace, "append", keeping_refs)
    tasks = _suite(seed=83)
    layers = [Conv(16, 3, padding=1), Activation("relu"),
              Conv(32, 3, stride=2, padding=1), Activation("relu"), GlobalAvgPool()]
    store, enc, decs, states = _models(tasks, seed=84, layers=layers)
    record = RunRecord(tmp_path, log_every=1)
    cfg = TrainConfig(iterations=10, batch_size=2, seed=85, checkpoint_every=4,
                      diagnostics=mode)
    log = train(tasks, enc, decs, store, states, SamplerConfig.uniform(3), cfg, record=record)
    assert log.trace.stored_dim == (4096 if mode == "sketch" else store.total_size(enc.group))
    # rows 1..8 went to the journal at t=4 and t=8 and left memory; 9 and 10 did not
    assert [r() is None for r in refs] == [True] * 8 + [False] * 2
    assert [e[0] for e in log.trace.entries] == [9, 10] and record.journaled == 8
    frames = read_frames(record.journal, JOURNAL_MAGIC, JOURNAL_VERSION,
                         lambda r: (r.tensor().tolist(), r.tensor(), r.tensor().shape))
    assert [(ts, shape) for (ts, _, shape), _ in frames] == [
        ([1, 2, 3, 4], (4, log.trace.stored_dim)), ([5, 6, 7, 8], (4, log.trace.stored_dim))]
