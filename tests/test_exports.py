"""Tests for the package's public names."""

import inspect
import pathlib
import re

import moprox
from moprox import prox

# internal since solve() became the only boundary of the solver stack;
# check_jacobian moved into tests/test_problems.py, its only caller; the BB
# and line-search settings are fields of SolverConfig; the return-history
# ingest is gone, and the two prox helpers are folded into the kinds'
# WeightedL1.prox and SimplexIndicator.project
REMOVED = ("BBMemory", "DegenerateStepError", "FWConfig", "LineSearchError",
           "armijo_search", "bb_stepsizes", "max_feasible_step", "check_jacobian",
           "BBConfig", "LineSearchConfig", "load_returns_table", "project_simplex",
           "soft_threshold")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_listed_name_resolves():
    """Every name in __all__ resolves, the lazily loaded bench names too."""
    for name in moprox.__all__:
        assert getattr(moprox, name) is not None, name
    assert len(set(moprox.__all__)) == len(moprox.__all__)


def test_internal_layers_are_not_exported():
    assert not set(REMOVED) & set(moprox.__all__)
    for name in REMOVED:
        assert not hasattr(moprox, name), name


def test_every_public_name_is_used_outside_the_tests():
    """No public name is kept only for a test: each one in __all__ appears
    in the package's other modules, the demos, the tools, perfbench or the
    README."""
    package = ROOT / "src" / "moprox"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "tools", "perfbench"):
        sources += (ROOT / folder).rglob("*.py")
    text = "\n".join(p.read_text() for p in [*sources, ROOT / "README.md"])
    # a definition is not a use
    unused = [name for name in moprox.__all__
              if not re.search(rf"(?<!def )(?<!class )\b{name}\b", text)]
    assert not unused, f"public names used only by tests: {unused}"


def test_prox_module_exposes_only_its_kinds():
    """moprox.prox defines no public function: a kind is the only place
    that knows its prox, so its public names are the four kinds and KINDS.
    Names it imports (np, dataclass) are not its own."""
    own = {name for name, obj in vars(prox).items()
           if not name.startswith("_") and not inspect.ismodule(obj)
           and getattr(obj, "__module__", prox.__name__) == prox.__name__}
    assert not [name for name in own if inspect.isfunction(getattr(prox, name))]
    assert own == {"Zero", "WeightedL1", "BoxIndicator", "SimplexIndicator", "KINDS"}
    assert prox.KINDS == (prox.Zero, prox.WeightedL1, prox.BoxIndicator,
                          prox.SimplexIndicator)
