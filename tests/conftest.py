import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def count_executions(monkeypatch):
    """A list that grows by one entry per Ray Data execution started
    while the test runs (clear it to start counting). It wraps
    ``StreamingExecutor.execute``, so a Ray upgrade that moves or renames
    it fails here, not silently in the count."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls
