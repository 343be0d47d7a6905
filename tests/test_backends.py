"""Tests for the pluggable compute-backend registry (``repro.backends``).

The load-bearing properties:

* the registry is capability-probing — unavailable backends are listed
  but not selectable, and selecting one fails with the probe's reason;
* backend selection composes: ``REPRO_BACKEND`` < ``activate_backend``
  < an explicit ``accumulate=`` override, and the backend alone picks
  the default acquisition kernel;
* activating the ``numpy`` backend steers every seam to the pure-numpy
  oracle path (reference kernel, numpy fan-out sampler, per-byte CPA),
  and activation is reversible;
* third-party registration is guarded (reserved names, duplicates,
  active backends);
* the worker threadpool pinning never raises and honours
  ``REPRO_BLAS_THREADS``.
"""

import os

import numpy as np
import pytest

from repro import backends
from repro.backends import (
    Backend,
    activate_backend,
    active_backend_name,
    all_backends,
    available_backends,
    cpa_accumulate_mode,
    default_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends import threads as backend_threads
from repro.errors import ConfigurationError, ReproError
from repro.kernels import default_kernel_name
from repro.kernels import _csampler


@pytest.fixture
def restore_backend_state():
    """Snapshot and restore every piece of backend process state."""
    prev_active = backends._ACTIVE[0]
    prev_enabled = _csampler.ENABLED
    yield
    backends._ACTIVE[0] = prev_active
    _csampler.ENABLED = prev_enabled


@pytest.fixture
def unavailable_backend():
    """A registered backend whose capability probe fails."""
    backend = Backend(
        name="needs-gpu", description="test", kernel="fused",
        probe=lambda: "no GPU in this process",
    )
    register_backend(backend)
    yield backend
    unregister_backend(backend.name)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"fused", "numpy"} <= set(all_backends())

    def test_always_available_backends(self):
        avail = available_backends()
        assert "fused" in avail and "numpy" in avail

    def test_unknown_backend_names_registered(self):
        with pytest.raises(ConfigurationError, match="fused"):
            get_backend("cuda")

    def test_unavailable_backend_reports_reason(self, unavailable_backend):
        assert "needs-gpu" in all_backends()
        assert "needs-gpu" not in available_backends()
        with pytest.raises(ConfigurationError, match="no GPU in this process"):
            get_backend("needs-gpu")

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            get_backend("nope")

    def test_register_requires_backend_instance(self):
        with pytest.raises(ConfigurationError):
            register_backend("fast")

    def test_register_rejects_reserved_names(self):
        for name in ("fused", "numpy"):
            with pytest.raises(ConfigurationError, match="reserved"):
                register_backend(Backend(name=name, description="", kernel="fused"))

    def test_register_rejects_bad_accumulate_mode(self):
        with pytest.raises(ConfigurationError, match="cpa_accumulate"):
            register_backend(
                Backend(
                    name="weird", description="", kernel="fused",
                    cpa_accumulate="sideways",
                )
            )

    def test_register_unregister_round_trip(self):
        backend = Backend(
            name="thirdparty", description="test", kernel="fused"
        )
        assert register_backend(backend) == "thirdparty"
        try:
            assert "thirdparty" in all_backends()
            assert get_backend("thirdparty") is backend
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend(backend)
            replacement = Backend(
                name="thirdparty", description="v2", kernel="fused"
            )
            register_backend(replacement, replace=True)
            assert get_backend("thirdparty") is replacement
        finally:
            unregister_backend("thirdparty")
        assert "thirdparty" not in all_backends()

    def test_unregister_guards(self, restore_backend_state):
        with pytest.raises(ConfigurationError, match="built-in"):
            unregister_backend("fused")
        with pytest.raises(ConfigurationError, match="unknown"):
            unregister_backend("ghost")
        register_backend(Backend(name="briefly", description="", kernel="fused"))
        try:
            activate_backend("briefly")
            with pytest.raises(ConfigurationError, match="active"):
                unregister_backend("briefly")
        finally:
            activate_backend("fused")
            unregister_backend("briefly")

    def test_probe_failure_keeps_backend_listed(self):
        backend = Backend(
            name="broken", description="", kernel="fused",
            probe=lambda: "no accelerator attached",
        )
        register_backend(backend)
        try:
            assert "broken" in all_backends()
            assert "broken" not in available_backends()
            with pytest.raises(ConfigurationError, match="no accelerator"):
                get_backend("broken")
        finally:
            unregister_backend("broken")


# ----------------------------------------------------------------------
# Selection and activation
# ----------------------------------------------------------------------


class TestSelection:
    def test_default_backend_is_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "fused"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert active_backend_name() == "numpy"
        assert cpa_accumulate_mode() == "per-byte"

    def test_unknown_env_backend_fails_loudly_on_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "typo")
        with pytest.raises(ConfigurationError, match="typo"):
            get_backend()
        with pytest.raises(ConfigurationError, match="typo"):
            cpa_accumulate_mode()

    def test_explicit_accumulate_mode_passes_through(self):
        assert cpa_accumulate_mode("batched") == "batched"
        assert cpa_accumulate_mode("per-byte") == "per-byte"
        with pytest.raises(ConfigurationError, match="accumulate"):
            cpa_accumulate_mode("vectorized")

    def test_activate_numpy_steers_all_seams(
        self, restore_backend_state, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backends._ACTIVE[0] = None
        previous = activate_backend("numpy")
        assert previous == "fused"
        assert active_backend_name() == "numpy"
        assert default_kernel_name() == "reference"
        assert _csampler.get_sampler() is None  # native library bypassed
        assert _csampler.get_cpa_kernel() is None
        assert cpa_accumulate_mode() == "per-byte"
        assert activate_backend(previous) == "numpy"
        assert default_kernel_name() == "fused"
        assert _csampler.ENABLED
        assert cpa_accumulate_mode() == "batched"

    def test_env_kernel_mapping(self, restore_backend_state, monkeypatch):
        # REPRO_BACKEND=numpy must reach the kernel default even in
        # freshly spawned processes that never call activate_backend.
        backends._ACTIVE[0] = None
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_kernel_name() == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        assert default_kernel_name() == "fused"

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig5", "--backend", "numpy"])
        assert args.backend == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--backend", "cuda"])

    def test_cli_validates_env_backend_eagerly(
        self, restore_backend_state, monkeypatch, capsys
    ):
        # A mistyped REPRO_BACKEND must fail the CLI on *every*
        # experiment — including ones that never resolve a backend seam
        # — not silently compute on the default path.
        from repro.cli import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(["pdn-validation", "--seed", "1"]) == 2
        assert "unknown backend 'bogus'" in capsys.readouterr().err

    def test_cli_unavailable_backend_is_clean_error(
        self, restore_backend_state, unavailable_backend, capsys
    ):
        # --backend resolution errors (e.g. a missing dependency) must
        # go through the CLI's ReproError presentation, not a traceback.
        from repro.cli import main

        assert main(["pdn-validation", "--backend", "needs-gpu"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unavailable" in err


# ----------------------------------------------------------------------
# Threadpool pinning
# ----------------------------------------------------------------------


class TestThreads:
    def test_thread_env_vars_cover_all_runtimes(self):
        env = backend_threads.thread_env_vars(3)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["OPENBLAS_NUM_THREADS"] == "3"
        assert set(env) == set(backend_threads._ENV_VARS)

    def test_set_blas_threads_reports_and_sets_env(self, monkeypatch):
        for var in backend_threads._ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        report = backend_threads.set_blas_threads(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert all(threads == 2 for threads in report.values())

    def test_set_blas_threads_clamps_bad_counts(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        backend_threads.set_blas_threads(0)
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pin_worker_threads_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLAS_THREADS", raising=False)
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pin_worker_threads_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "4")
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_pin_worker_threads_survives_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "lots")
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pinning_actually_limits_a_loaded_runtime(self):
        # On this interpreter numpy's OpenBLAS (or an OMP runtime) is
        # loaded; the ctypes walk should find at least one setter, or
        # threadpoolctl should have reported pools.  Tolerate neither
        # (static BLAS builds) but require the call to stay silent.
        report = backend_threads.set_blas_threads(1)
        assert isinstance(report, dict)


# ----------------------------------------------------------------------
# Compute record
# ----------------------------------------------------------------------


def _small_fig5(workers=1):
    """A few-shard fig5 run; returns ``(result, run_span)``."""
    from repro.experiments import registry

    config = registry.ExperimentConfig(
        scale="quick", seed=3, workers=workers, shard_size=600,
        options={"n_traces": 1200, "step": 600, "rating_at": 600},
    )
    engine = config.make_engine()
    result = registry.run("fig5", config, engine)
    return result, engine.telemetry.roots[-1]


def _accumulate_spans(span):
    for rec in span.children:
        if rec.name == "accumulate":
            yield rec
        yield from _accumulate_spans(rec)


class TestComputeRecord:
    def test_record_names_backend_library_and_engine(
        self, restore_backend_state, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backends._ACTIVE[0] = None
        result, _ = _small_fig5()
        native = _csampler.get_cpa_kernel() is not None
        assert result.metadata["compute"] == {
            "backend": "fused",
            "native_built": _csampler.native_built(),
            "cpa_engine": "native" if native else "per-byte",
        }

    def test_without_native_library_record_says_per_byte(
        self, restore_backend_state, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_CSAMPLER", "0")
        monkeypatch.setattr(_csampler, "_RESOLVED", {})
        backends._ACTIVE[0] = None
        result, run_span = _small_fig5(workers=2)
        want = {"backend": "fused", "native_built": False, "cpa_engine": "per-byte"}
        assert result.metadata["compute"] == want
        # The run span and every worker's accumulate span say the same.
        assert {k: run_span.attrs[k] for k in want} == want
        spans = list(_accumulate_spans(run_span))
        assert len(spans) == 2
        assert all(rec.attrs == want for rec in spans)

    def test_numpy_backend_record(self, restore_backend_state, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        activate_backend("numpy")
        result, _ = _small_fig5()
        assert result.metadata["compute"] == {
            "backend": "numpy", "native_built": False, "cpa_engine": "per-byte",
        }


# ----------------------------------------------------------------------
# numba backend
# ----------------------------------------------------------------------


class TestNumbaBackend:
    def test_absent_numba_blocks_activation(self, restore_backend_state):
        with pytest.raises(ConfigurationError, match="numba"):
            activate_backend("numba")
        # Nothing was half-applied.
        assert active_backend_name() != "numba"
