"""The package surface: every public name, loaded eagerly or on first access."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fertgames

REPO = Path(__file__).resolve().parent.parent
LAZY_MODULES = ("fertgames.population", "fertgames.oracle")


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports fertgames from
    ``src``; it fails the test by failing an assert."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_the_sampler_nor_the_oracles():
    run_fresh(f"""
        import sys
        import fertgames
        for name in {LAZY_MODULES + ("numpy",)!r}:
            assert name not in sys.modules, name
        assert set(fertgames.__all__) <= set(dir(fertgames))
    """)


def test_every_public_name_is_its_defining_module_object():
    run_fresh(f"""
        import sys
        import fertgames
        for name in fertgames.__all__:
            value = getattr(fertgames, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
            # Kept in the package namespace: later lookups skip __getattr__.
            assert vars(fertgames)[name] is value, name
        for name in {LAZY_MODULES!r}:
            assert name in sys.modules, name
        assert fertgames.aggregate is fertgames.population.aggregate
        assert fertgames.oracle_game is fertgames.oracle.oracle_game
    """)


def test_star_import_binds_every_public_name():
    run_fresh("""
        import fertgames
        namespace = {}
        exec("from fertgames import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == fertgames.__all__
        assert all(namespace[name] is getattr(fertgames, name) for name in namespace)
    """)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fertgames.no_such_name  # noqa: B018
    assert not hasattr(fertgames, "no_such_name")
