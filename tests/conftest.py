"""Session-wide checks shared by the test modules."""

import pytest

import reference
from rsprod import analysis


@pytest.fixture(scope="session", autouse=True)
def macwilliams_against_reference():
    """Every dual spectrum a test builds through the package, by
    spectrum_via_dual or macwilliams_transform (which reads the module
    attribute), is held to the term-by-term reference."""
    fast = analysis.macwilliams_transform

    def checked(counts, n, q):
        out = fast(counts, n, q)
        assert out == reference.macwilliams_transform(counts, n, q)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "macwilliams_transform", checked)
        yield
