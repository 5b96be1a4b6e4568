"""Documentation consistency checks.

A reproduction's documentation is part of its correctness surface:
DESIGN.md's inventory, EXPERIMENTS.md's claims, and README's commands
must refer to things that exist.  These tests keep prose and code from
drifting apart.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignInventory:
    def test_every_inventory_module_exists(self):
        """Each path-like token in DESIGN.md's package tree must exist."""
        text = read("DESIGN.md")
        block = text.split("```")[1]  # the src/repro tree
        for line in block.splitlines():
            token = line.strip().split()[0] if line.strip() else ""
            if token.endswith(".py"):
                matches = list((ROOT / "src").rglob(token.split("/")[-1]))
                assert matches, f"DESIGN.md references missing module {token}"

    def test_implementation_table_ids_registered(self):
        """Every id in DESIGN.md's implementation table exists in the
        registry (rows look like ``| `gunrock.is` | ... |``)."""
        from repro.core.registry import ALGORITHMS

        text = read("DESIGN.md")
        ids = re.findall(
            r"^\| `((?:gunrock|graphblas|naumov|cpu)\.\w+)`",
            text,
            flags=re.M,
        )
        assert len(ids) >= 9
        for impl_id in ids:
            assert impl_id in ALGORITHMS, impl_id


class TestExperimentsClaims:
    def test_mentions_every_table_and_figure(self):
        text = read("EXPERIMENTS.md")
        for artifact in ("Table I", "Table II", "Figure 1a", "Figure 1b",
                         "Figure 2", "Figure 3"):
            assert artifact in text, artifact

    def test_deviation_list_present(self):
        assert "Known deviations" in read("EXPERIMENTS.md")

    def test_paper_numbers_quoted(self):
        text = read("EXPERIMENTS.md")
        for anchor in ("656", "17.21", "6.68", "1.3×", "1.9×", "5.0×"):
            assert anchor in text, anchor


class TestReadmeCommands:
    def test_example_scripts_exist(self):
        text = read("README.md")
        for script in re.findall(r"examples/(\w+\.py)", text):
            assert (ROOT / "examples" / script).exists(), script

    def test_docs_exist(self):
        for doc in (
            "docs/algorithms.md",
            "docs/backends.md",
            "docs/cost_model.md",
            "docs/datasets.md",
            "docs/performance.md",
            "docs/robustness.md",
            "docs/serving.md",
            "docs/static-analysis.md",
            "docs/observability.md",
            "docs/distributed.md",
        ):
            assert (ROOT / doc).exists(), doc

    def test_registry_ids_in_readme_exist(self):
        from repro.core.registry import ALGORITHMS

        text = read("README.md")
        for impl_id in re.findall(r"\b((?:gunrock|graphblas|naumov)\.\w+)\b", text):
            assert impl_id in ALGORITHMS, impl_id

    def test_quickstart_snippet_runs(self):
        """The README's quickstart block must execute as written."""
        text = read("README.md")
        snippet = text.split("```python")[1].split("```")[0]
        scope: dict = {}
        exec(snippet, scope)  # noqa: S102 - our own documentation


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.graph",
            "repro.graph.csr",
            "repro.graphblas",
            "repro.graphblas.ops",
            "repro.gunrock",
            "repro.gpusim",
            "repro.core",
            "repro.harness",
            "repro.serve",
            "repro.apps",
        ],
    )
    def test_public_api_documented(self, module):
        """Every name in a public module's __all__ carries a docstring."""
        import importlib

        mod = importlib.import_module(module)
        assert mod.__doc__
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module}.{name} lacks a docstring"


def _documented_invocations():
    """(source, argv) for every ``python -m repro.harness …`` command
    line in the README, docs/ and the CI workflow, with ``\\``
    continuations joined.  Synopsis lines (``<placeholder>``, ``...``)
    and bare mentions of the module are skipped."""
    import shlex

    sources = ["README.md", ".github/workflows/ci.yml"] + sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
    )
    found = []
    for source in sources:
        text = re.sub(r"\\\n\s*", " ", read(source))
        for match in re.finditer(
            r"python -m repro\.harness\b([^`#\n|;&>]*)", text
        ):
            tail = match.group(1).strip()
            if tail and "<" not in tail and "..." not in tail:
                found.append((source, shlex.split(tail)))
    return found


DOCUMENTED_INVOCATIONS = _documented_invocations()


class TestDocumentedInvocations:
    """CI fails when a doc or a CI step names a flag its harness
    subcommand does not take.  Parsing only: nothing runs."""

    def test_collects_the_documented_lines(self):
        sources = {source for source, _ in DOCUMENTED_INVOCATIONS}
        assert len(DOCUMENTED_INVOCATIONS) >= 30
        assert {"README.md", ".github/workflows/ci.yml"} <= sources

    @pytest.mark.parametrize(
        "source, argv",
        DOCUMENTED_INVOCATIONS,
        ids=[f"{s}:{' '.join(a)}" for s, a in DOCUMENTED_INVOCATIONS],
    )
    def test_parser_accepts(self, source, argv):
        from repro.harness.__main__ import build_parser

        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{source}: harness rejects {' '.join(argv)!r}")
