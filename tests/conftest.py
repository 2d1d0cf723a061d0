import hypothesis
import pytest

hypothesis.settings.register_profile(
    "slowbox",
    deadline=None,
    max_examples=40,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("slowbox")


@pytest.fixture
def openblas():
    """The loaded OpenBLAS's thread-count getter, with the count set to 2 for the test and put back after it."""
    from spiked_lab.ensembles import _openblas_threads

    api = _openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread-count API is loaded in this process")
    get, set_ = api
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)
