"""Unit tests for the frozen RunContext and its contextvar plumbing."""

import pickle

import pytest

from repro.runtime import deprecation
from repro.runtime.context import (
    DEFAULT_CONTEXT,
    ENGINE_CHOICES,
    START_METHODS,
    RunContext,
    activate,
    current_context,
    resolve_engine,
)


class TestRunContext:
    def test_defaults(self):
        ctx = RunContext()
        assert ctx.seed == 0
        assert ctx.engine == "fast"
        assert ctx.compiled is True
        assert ctx.validate is False
        assert ctx.metrics is False
        assert ctx.events is None
        assert ctx.workers == 1
        assert ctx.chunk_size == 5
        assert ctx.start_method is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunContext().seed = 3

    def test_with_returns_new_instance(self):
        base = RunContext()
        derived = base.with_(compiled=False, seed=7)
        assert derived.compiled is False and derived.seed == 7
        assert base.compiled is True and base.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="engine"):
            RunContext(engine="bogus")
        with pytest.raises(ValueError, match="workers"):
            RunContext(workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            RunContext(chunk_size=0)
        with pytest.raises(ValueError, match="start_method"):
            RunContext(start_method="thread")
        for method in START_METHODS:
            RunContext(start_method=method)

    def test_pickle_round_trip(self):
        ctx = RunContext(
            seed=11, engine="reference", compiled=False, validate=True,
            metrics=True, events="ev.jsonl", workers=4, chunk_size=2,
            start_method="spawn",
        )
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx

    def test_dict_round_trip(self):
        ctx = RunContext(seed=3, workers=2, start_method="fork")
        rebuilt = RunContext.from_dict(ctx.to_dict())
        assert rebuilt == ctx

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RunContext fields"):
            RunContext.from_dict({"seed": 0, "turbo": True})


class TestActivation:
    def test_default_active(self):
        # the pytest --start-method option may adopt a start_method
        # override for the whole session; everything else is default
        assert current_context().with_(start_method=None) == DEFAULT_CONTEXT

    def test_activate_scopes_and_restores(self):
        before = current_context()
        ctx = RunContext(seed=5, compiled=False)
        with activate(ctx) as active:
            assert active is ctx
            assert current_context() is ctx
        assert current_context() == before

    def test_activation_nests(self):
        outer, inner = RunContext(seed=1), RunContext(seed=2)
        with activate(outer):
            with activate(inner):
                assert current_context().seed == 2
            assert current_context().seed == 1

    def test_activate_restores_on_error(self):
        before = current_context()
        with pytest.raises(RuntimeError):
            with activate(RunContext(seed=9)):
                raise RuntimeError("boom")
        assert current_context() == before


class TestResolveEngine:
    def test_none_defers_to_context(self):
        assert resolve_engine(None) == DEFAULT_CONTEXT.engine
        with activate(RunContext(engine="reference")):
            assert resolve_engine(None) == "reference"

    def test_explicit_wins_over_context(self):
        with activate(RunContext(engine="reference")):
            assert resolve_engine("fast") == "fast"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("bogus")
        assert set(ENGINE_CHOICES) == {"fast", "reference"}


class TestConsumers:
    """The legacy global toggles now read/write the context."""

    def test_compiled_enabled_follows_context(self):
        from repro.model.compiled import compiled_enabled

        assert compiled_enabled()
        with activate(current_context().with_(compiled=False)):
            assert not compiled_enabled()
        assert compiled_enabled()

    def test_use_compiled_shim_still_scopes(self):
        from repro.model.compiled import compiled_enabled, use_compiled

        deprecation.reset()
        with pytest.deprecated_call(match="use_compiled"):
            with use_compiled(False):
                assert not compiled_enabled()
        assert compiled_enabled()

    def test_obs_enabled_follows_context(self):
        from repro import obs

        assert not obs.enabled()
        with activate(current_context().with_(metrics=True)):
            assert obs.enabled()
        assert not obs.enabled()

    def test_obs_enable_shim_overrides_context(self):
        from repro import obs

        deprecation.reset()
        with pytest.deprecated_call(match="obs.enable"):
            obs.enable()
        try:
            assert obs.enabled()
        finally:
            obs.disable()
        assert not obs.enabled()

    def test_scheduler_engine_defaults_from_context(self):
        from repro.core.hdlts import HDLTS

        assert HDLTS().engine == "fast"
        with activate(current_context().with_(engine="reference")):
            assert HDLTS().engine == "reference"
            assert HDLTS(engine="fast").engine == "fast"
