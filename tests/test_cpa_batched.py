"""Differential tests for the batched CPA accumulate engine.

The contract under test (see :mod:`repro.attacks.cpa`): the batched
engine — the native conditional-sum kernel, with the per-byte sums as
its fallback — and the per-byte reference engine accumulate the
**same exact sums**, so on integer-valued traces — the acquisition
regime — sums, correlations, peak correlations, guesses and ranks are
bit-identical between engines for any chunking, merge order, sample
window, or fallback decision; and state snapshots written by either
engine restore into either engine.
"""

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack
from repro.errors import AttackError, ConfigurationError
from repro.kernels import _csampler

#: The engine a batched attack folds integer chunks with here.
NATIVE = "native" if _csampler.get_cpa_kernel() is not None else "per-byte"
needs_kernel = pytest.mark.skipif(
    _csampler.get_cpa_kernel() is None, reason="native CPA kernel unavailable"
)

S = 23
WINDOWS = [None, (0, S), (3, 17), (10, 11)]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(42)
    traces = rng.integers(-2048, 2048, size=(700, S), dtype=np.int16)
    cts = rng.integers(0, 256, size=(700, 16), dtype=np.uint8)
    return traces, cts


def engines(window=None, **kwargs):
    return (
        CPAAttack(S, sample_window=window, accumulate="batched", **kwargs),
        CPAAttack(S, sample_window=window, accumulate="per-byte", **kwargs),
    )


def assert_matches_oracle(traces, cts, window=None, engine=NATIVE):
    """Fold one chunk with both engines: every accumulated sum (and the
    correlations, when defined) must agree bit for bit, and the
    batched attack must have folded it with ``engine``."""
    n_samples = traces.shape[1]
    fast = CPAAttack(n_samples, window, accumulate="batched")
    ref = CPAAttack(n_samples, window, accumulate="per-byte")
    fast.add_traces(traces, cts)
    ref.add_traces(traces, cts)
    assert fast.fold_engines == {engine}
    want = CPAAttack(n_samples, window, accumulate="batched").load_state_arrays(
        ref.state_arrays()
    )
    got_state, want_state = fast.state_arrays(), want.state_arrays()
    for name, arr in want_state.items():
        assert np.array_equal(got_state[name], arr), name
    if len(traces) >= 2:
        assert np.array_equal(fast.correlations(), ref.correlations())


class TestBitIdentity:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_all_windows_bit_identical(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.correlations(), b.correlations())
        assert np.array_equal(a.peak_correlations(), b.peak_correlations())
        assert np.array_equal(a.best_guesses(), b.best_guesses())

    def test_chunking_invariant(self, batch):
        traces, cts = batch
        whole, _ = engines()
        whole.add_traces(traces, cts)
        for cuts in ([100], [1, 699], [250, 251, 400]):
            chunked = CPAAttack(S, accumulate="batched")
            for lo, hi in zip([0] + cuts, cuts + [len(traces)]):
                chunked.add_traces(traces[lo:hi], cts[lo:hi])
            assert np.array_equal(chunked.correlations(), whole.correlations())

    def test_merge_order_invariant(self, batch):
        traces, cts = batch
        whole, _ = engines()
        whole.add_traces(traces, cts)
        parts = []
        for lo, hi in ((0, 200), (200, 450), (450, 700)):
            part = CPAAttack(S, accumulate="batched")
            part.add_traces(traces[lo:hi], cts[lo:hi])
            parts.append(part)
        merged = parts[2].merge(parts[0]).merge(parts[1])
        assert np.array_equal(merged.correlations(), whole.correlations())

    def test_tile_boundary_crossing(self):
        # The kernel tiles samples by 32 and buckets rows by ct[j]: 70
        # samples give two full tiles and a ragged one, and 4097 rows
        # fill every one of the 256 buckets.
        rng = np.random.default_rng(3)
        traces = rng.integers(0, 1024, size=(4097, 70), dtype=np.int16)
        cts = rng.integers(0, 256, size=(4097, 16), dtype=np.uint8)
        assert_matches_oracle(traces, cts)

    def test_integral_float_traces_bit_identical(self, batch):
        traces, cts = batch
        # Integer-valued but float-typed: the kernel takes it.
        assert_matches_oracle(traces.astype(np.float64), cts)

    def test_large_readouts_force_f64_and_stay_identical(self):
        # m * max|t| = 300 * 2**22 < 2**31: still the kernel, with
        # per-sample sums far past float32 and int16 range.
        rng = np.random.default_rng(9)
        traces = rng.integers(-(2**22), 2**22, size=(300, S), dtype=np.int64)
        cts = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
        assert_matches_oracle(traces, cts)

    def test_non_integer_floats_agree_to_1e_10(self, batch):
        traces, cts = batch
        noisy = traces + 0.375  # exact in float64, not integral
        a, b = engines()
        a.add_traces(noisy, cts)
        b.add_traces(noisy, cts)
        np.testing.assert_allclose(
            a.correlations(), b.correlations(), rtol=0, atol=1e-10
        )
        # Non-integer chunks fold through the per-byte sums themselves.
        assert a.fold_engines == {"per-byte"}
        assert np.array_equal(a.correlations(), b.correlations())

    def test_recovers_planted_key_like_reference(self):
        # Synthetic leakage: the hypothesis of the true key leaks into
        # one sample.  Both engines must find the same (correct) key.
        from repro.victims.aes.core import SHIFT_ROWS_IDX
        from repro.victims.aes.key_schedule import expand_key
        from repro.victims.aes.sbox import HW8, INV_SBOX

        rng = np.random.default_rng(5)
        key10 = expand_key(bytes(range(16)))[10]
        m = 900
        cts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
        traces = rng.integers(0, 64, size=(m, S), dtype=np.int16)
        leak = np.zeros(m, dtype=np.int64)
        for j in range(16):
            pred = INV_SBOX[cts[:, j] ^ key10[j]]
            leak += HW8[pred ^ cts[:, SHIFT_ROWS_IDX[j]]]
        traces[:, 7] += (4 * leak).astype(np.int16)
        a, b = engines()
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.best_guesses(), key10)
        assert np.array_equal(b.best_guesses(), key10)
        assert np.array_equal(
            a.byte_ranks(key10), np.zeros(16, dtype=np.int64)
        )


def random_chunk(seed, m, n_samples, lo=-64, hi=64, dtype=np.int16):
    rng = np.random.default_rng(seed)
    traces = rng.integers(lo, hi, size=(m, n_samples), dtype=dtype)
    cts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
    return traces, cts


class TestNativeKernel:
    """The conditional-sum kernel's sums against the per-byte oracle."""

    def test_campaign_shape(self):
        assert_matches_oracle(*random_chunk(11, 4096, 195, 0, 48))

    @pytest.mark.parametrize("m", [1, 4097])
    def test_row_counts(self, m):
        assert_matches_oracle(*random_chunk(m, m, 40))

    def test_every_sample_window(self):
        n = 9
        traces, cts = random_chunk(12, 300, n, -100, 100)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                assert_matches_oracle(traces, cts, (start, stop))

    @pytest.mark.parametrize("window", [(0, 32), (31, 33), (5, 69), (64, 70)])
    def test_windows_across_sample_tiles(self, window):
        assert_matches_oracle(*random_chunk(13, 500, 70), window)

    def test_negative_readouts(self):
        assert_matches_oracle(*random_chunk(14, 700, S, -2048, 0))

    def test_partner_bytes_zero_and_ff(self):
        traces, _ = random_chunk(15, 600, S, -500, 500)
        rng = np.random.default_rng(15)
        cts = np.where(rng.random((600, 16)) < 0.5, 0x00, 0xFF).astype(np.uint8)
        assert_matches_oracle(traces, cts)

    def test_int32_guard(self):
        # 512 rows of +-(2**22 - 1): m * max|t| = 2**31 - 512 and
        # m * max|t|**2 < 2**53, so the kernel runs with every sum near
        # its int32 bound; one more row crosses the guard and the chunk
        # folds through the per-byte sums.
        rng = np.random.default_rng(16)
        traces = rng.choice([-1, 1], size=(513, 5)) * (2**22 - 1)
        cts = rng.integers(0, 256, size=(513, 16), dtype=np.uint8)
        assert_matches_oracle(traces[:512], cts[:512])
        assert_matches_oracle(traces, cts, engine="per-byte")

    @needs_kernel
    def test_self_test_rejects_a_wrong_sum(self):
        kernel = _csampler.get_cpa_kernel()

        class WrongSum:
            def fold(self, traces, cts):
                sums = kernel.fold(traces, cts)
                sums[2][3, 7, 1] += 1.0
                return sums

        assert _csampler._cpa_self_test(kernel)
        assert not _csampler._cpa_self_test(WrongSum())

    @needs_kernel
    def test_rejected_kernel_falls_back_to_per_byte(self, monkeypatch, batch):
        class WrongSum(_csampler.CpaKernel):
            def fold(self, traces, cts):
                sums = super().fold(traces, cts)
                sums[0][0, 0] += 1.0
                return sums

        monkeypatch.setattr(_csampler, "CpaKernel", WrongSum)
        monkeypatch.setattr(_csampler, "_RESOLVED", {})
        assert _csampler.get_cpa_kernel() is None
        assert_matches_oracle(*batch, engine="per-byte")

    def test_disabled_library_falls_back_to_per_byte(self, monkeypatch, batch):
        monkeypatch.setattr(_csampler, "ENABLED", False)
        assert_matches_oracle(*batch, engine="per-byte")


class TestStateMigration:
    @pytest.mark.parametrize("window", [None, (3, 17)])
    def test_batched_dump_into_per_byte(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        a.add_traces(traces, cts)
        restored = CPAAttack(
            S, sample_window=window, accumulate="per-byte"
        ).load_state_arrays(a.state_arrays())
        b.add_traces(traces, cts)
        assert np.array_equal(restored.correlations(), b.correlations())

    @pytest.mark.parametrize("window", [None, (3, 17)])
    def test_per_byte_dump_into_batched(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        b.add_traces(traces, cts)
        restored = CPAAttack(
            S, sample_window=window, accumulate="batched"
        ).load_state_arrays(b.state_arrays())
        a.add_traces(traces, cts)
        assert np.array_equal(restored.correlations(), a.correlations())

    def test_same_engine_round_trips(self, batch):
        traces, cts = batch
        for mode in ("batched", "per-byte"):
            src = CPAAttack(S, accumulate=mode)
            src.add_traces(traces, cts)
            dst = CPAAttack(S, accumulate=mode).load_state_arrays(
                src.state_arrays()
            )
            assert np.array_equal(dst.correlations(), src.correlations())
            assert dst.n_traces == src.n_traces

    def test_cache_token_engine_agnostic(self):
        a, b = engines((3, 17))
        assert a.cache_token() == b.cache_token()

    def test_rejects_unknown_layout(self):
        with pytest.raises(AttackError, match="unrecognized"):
            CPAAttack(S).load_state_arrays({"sums": np.zeros(3)})

    def test_rejects_inconsistent_per_byte_dump(self, batch):
        traces, cts = batch
        _, b = engines()
        b.add_traces(traces, cts)
        dump = dict(b.state_arrays())
        dump["b07_s_y"] = dump["b07_s_y"] + 1.0
        with pytest.raises(AttackError, match="byte 7"):
            CPAAttack(S, accumulate="batched").load_state_arrays(dump)


class TestEngineSelection:
    def test_unknown_accumulate_rejected(self):
        with pytest.raises(ConfigurationError, match="accumulate"):
            CPAAttack(S, accumulate="vectorized")

    def test_backend_resolves_default_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert CPAAttack(S).accumulate == "batched"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert CPAAttack(S).accumulate == "per-byte"

    def test_cross_engine_merge_rejected(self, batch):
        traces, cts = batch
        a, b = engines()
        a.add_traces(traces[:100], cts[:100])
        b.add_traces(traces[100:200], cts[100:200])
        with pytest.raises(AttackError, match="engine"):
            a.merge(b)

    def test_pickle_round_trip_both_engines(self, batch):
        import pickle

        traces, cts = batch
        for mode in ("batched", "per-byte"):
            attack = CPAAttack(S, accumulate=mode)
            attack.add_traces(traces, cts)
            clone = pickle.loads(pickle.dumps(attack))
            assert np.array_equal(clone.correlations(), attack.correlations())


class TestCorrelationCache:
    def test_repeat_calls_reuse_the_matrix(self, batch):
        traces, cts = batch
        for mode in ("batched", "per-byte"):
            attack = CPAAttack(S, accumulate=mode)
            attack.add_traces(traces, cts)
            rho = attack.correlations()
            assert attack.correlations() is rho
            assert not rho.flags.writeable

    def test_update_invalidates(self, batch):
        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces[:400], cts[:400])
        before = attack.correlations()
        attack.add_traces(traces[400:], cts[400:])
        after = attack.correlations()
        assert after is not before
        assert not np.array_equal(after, before)

    def test_merge_invalidates(self, batch):
        traces, cts = batch
        a = CPAAttack(S)
        a.add_traces(traces[:400], cts[:400])
        before = a.correlations()
        other = CPAAttack(S)
        other.add_traces(traces[400:], cts[400:])
        assert a.merge(other).correlations() is not before

    def test_state_load_invalidates(self, batch):
        traces, cts = batch
        a = CPAAttack(S)
        a.add_traces(traces[:400], cts[:400])
        before = a.correlations()
        full = CPAAttack(S)
        full.add_traces(traces, cts)
        a.load_state_arrays(full.state_arrays())
        assert np.array_equal(a.correlations(), full.correlations())
        assert not np.array_equal(a.correlations(), before)

    def test_cached_matrix_matches_fresh_compute(self, batch):
        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces, cts)
        cached = attack.correlations()
        fresh = CPAAttack(S)
        fresh.add_traces(traces, cts)
        assert np.array_equal(cached, fresh.correlations())


class TestPeakCorrelations:
    """``peak_correlations()`` (the batched engine's fused peak pass,
    the per-byte engine's per-byte maxima) equals the peak of the full
    correlation stack bit for bit, and its memo follows the state."""

    @staticmethod
    def assert_peaks_match_stack(attack):
        peaks = attack.peak_correlations()
        assert peaks.shape == (16, 256)
        assert not peaks.flags.writeable
        assert np.array_equal(peaks, np.abs(attack.correlations()).max(axis=2))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_matches_stack_both_engines(self, batch, window):
        traces, cts = batch
        for attack in engines(window):
            attack.add_traces(traces, cts)
            self.assert_peaks_match_stack(attack)

    def test_engines_agree(self, batch):
        traces, cts = batch
        a, b = engines((3, 17))
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.peak_correlations(), b.peak_correlations())

    def test_zero_variance_hypotheses(self, batch):
        # One ciphertext for every trace: every guess's hypothesis is
        # constant, so every correlation is undefined (finalized to 0).
        traces, cts = batch
        same = np.repeat(cts[:1], len(cts), axis=0)
        for attack in engines():
            attack.add_traces(traces, same)
            self.assert_peaks_match_stack(attack)
            assert not attack.peak_correlations().any()

    def test_zero_variance_sample_and_guess_row(self, batch):
        from repro.analysis.streaming import StackedStreamingPearson

        traces, _ = batch
        rng = np.random.default_rng(3)
        x = rng.integers(0, 9, size=(len(traces), 3 * 8)).astype(float)
        x[:, 5] = 4.0  # one constant hypothesis: an all-undefined row
        y = traces.astype(float)
        y[:, 2] = 7.0  # one constant sample: an undefined column
        acc = StackedStreamingPearson(3, 8, S).update(x, y)
        peaks = acc.peak_abs()
        assert np.array_equal(peaks, np.abs(acc.finalize()).max(axis=2))
        assert peaks[0, 5] == 0.0 and np.all(peaks[np.arange(3) != 0] > 0)

    def test_after_merge_and_state_load(self, batch):
        traces, cts = batch
        for mode in ("batched", "per-byte"):
            merged = CPAAttack(S, accumulate=mode)
            merged.add_traces(traces[:300], cts[:300])
            other = CPAAttack(S, accumulate=mode)
            other.add_traces(traces[300:], cts[300:])
            merged.merge(other)
            self.assert_peaks_match_stack(merged)
            loaded = CPAAttack(S, accumulate=mode).load_state_arrays(
                merged.state_arrays()
            )
            self.assert_peaks_match_stack(loaded)
            assert np.array_equal(
                loaded.peak_correlations(), merged.peak_correlations()
            )

    def test_memo_reused_and_invalidated(self, batch):
        traces, cts = batch
        for mode in ("batched", "per-byte"):
            full = CPAAttack(S, accumulate=mode)
            full.add_traces(traces, cts)

            attack = CPAAttack(S, accumulate=mode)
            attack.add_traces(traces[:200], cts[:200])
            first = attack.peak_correlations()
            assert attack.peak_correlations() is first

            attack.add_traces(traces[200:400], cts[200:400])
            after_add = attack.peak_correlations()
            assert after_add is not first
            assert not np.array_equal(after_add, first)
            self.assert_peaks_match_stack(attack)

            rest = CPAAttack(S, accumulate=mode)
            rest.add_traces(traces[400:], cts[400:])
            after_merge = attack.merge(rest).peak_correlations()
            assert after_merge is not after_add
            assert np.array_equal(after_merge, full.peak_correlations())

            attack.load_state_arrays(rest.state_arrays())
            after_load = attack.peak_correlations()
            assert np.array_equal(after_load, rest.peak_correlations())
            assert not np.array_equal(after_load, after_merge)

    def test_pickled_attack_recomputes(self, batch):
        import pickle

        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces, cts)
        peaks = attack.peak_correlations()
        clone = pickle.loads(pickle.dumps(attack))
        assert clone._derived == {}
        assert np.array_equal(clone.peak_correlations(), peaks)
