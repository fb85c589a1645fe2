"""Tests for the package's public names."""

import moprox

# internal since solve() became the only boundary of the solver stack
REMOVED = ("BBMemory", "DegenerateStepError", "FWConfig", "LineSearchError",
           "armijo_search", "bb_stepsizes", "max_feasible_step")


def test_every_listed_name_resolves():
    """Every name in __all__ resolves, the lazily loaded bench names too."""
    for name in moprox.__all__:
        assert getattr(moprox, name) is not None, name
    assert len(set(moprox.__all__)) == len(moprox.__all__)


def test_internal_layers_are_not_exported():
    assert not set(REMOVED) & set(moprox.__all__)
    for name in REMOVED:
        assert not hasattr(moprox, name), name
