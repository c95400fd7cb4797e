"""Keep documentation and packaging honest.

Checks that the commands, modules and files the documentation references
actually exist, that the public API advertised by ``repro.__all__``
imports, that every example script at least parses, and that the
README quickstart and the tutorial's first pipeline actually run.
"""

import ast
import importlib
import os
import pkgutil
import re
import shlex

import pytest

import repro
from conftest import run_fresh

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(os.path.join(ROOT, path)) as handle:
        return handle.read()


#: every package whose ``__init__`` is one export table (name -> defining module)
PACKAGES = (
    "repro", "repro.engine", "repro.core", "repro.actuation", "repro.obs",
    "repro.simulation", "repro.qos", "repro.workloads", "repro.graphs",
    "repro.analysis", "repro.sweep", "repro.evaluate", "repro.experiments",
    "repro.bench",
)


def submodules(package):
    """Names of the modules and subpackages directly under ``package``."""
    return {info.name for info in pkgutil.iter_modules(package.__path__)}


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_declared(self):
        assert re.match(r"^\d+\.\d+\.\d+$", repro.__version__)

    def test_top_level_export_count(self):
        # the 88 names of the eager __init__ plus MigrationFailure
        assert len(repro.__all__) == 89
        assert repro.__all__[0] == "__version__"
        assert len(set(repro.__all__)) == 89

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, package):
        pkg = importlib.import_module(package)
        table = pkg._EXPORTS
        assert [n for n in pkg.__all__ if n != "__version__"] == list(table)
        for name, source in table.items():
            assert getattr(pkg, name) is getattr(importlib.import_module(source), name), name
            assert vars(pkg)[name] is getattr(pkg, name), f"{name} not cached"
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            pkg.no_such_export

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_exactly_all(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(importlib.import_module(package).__all__)

    def test_subpackage_attribute_access_needs_no_import(self):
        """``import repro; repro.obs.export_run`` worked when ``__init__`` was eager."""
        script = (
            "import repro\n"
            "from repro.obs.manifest import export_run\n"
            "assert repro.obs.export_run is export_run\n"
            "assert repro.core.constraints.LatencyConstraint is repro.LatencyConstraint\n"
        )
        run_fresh(script)

    @pytest.mark.parametrize(
        "first",
        ["from repro.core import rebalance", "import repro.core.scale_reactively"],
    )
    def test_exported_function_outranks_its_submodule(self, first):
        """``repro.core.rebalance`` is a submodule and an exported function.

        The import system binds the submodule on the package when anything
        first loads it; the export must keep the name whatever came first.
        """
        script = (
            f"{first}\n"
            "import repro.core.scale_reactively\n"
            "from repro.core import rebalance\n"
            "import repro.core\n"
            "from repro.core.rebalance import rebalance as function\n"
            "assert rebalance is function and repro.core.rebalance is function\n"
            "assert repro.rebalance is function\n"
        )
        run_fresh(script)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_other_export_shares_a_submodule_name(self, package):
        pkg = importlib.import_module(package)
        shared = set(pkg._EXPORTS) & submodules(pkg)
        assert shared == ({"rebalance"} if package == "repro.core" else set())

    def test_fault_specs_are_exported(self):
        """docs/API.md lists all seven fault specs as top-level names."""
        from repro.simulation import faults

        for name in ("MigrationFailure", "ActuationDelay", "ActuationFailure"):
            assert getattr(repro.simulation, name) is getattr(faults, name)
            assert getattr(repro, name) is getattr(faults, name)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.simulation",
            "repro.graphs",
            "repro.engine",
            "repro.engine.operators",
            "repro.engine.state",
            "repro.qos",
            "repro.qos.diagnostics",
            "repro.core",
            "repro.core.policy",
            "repro.core.policies",
            "repro.core.predictive",
            "repro.core.drs",
            "repro.core.daedalus",
            "repro.actuation",
            "repro.actuation.config",
            "repro.actuation.reconciler",
            "repro.analysis",
            "repro.workloads",
            "repro.workloads.keys",
            "repro.workloads.traces",
            "repro.builder",
            "repro.experiments",
            "repro.experiments.fig3_motivation",
            "repro.experiments.fig5_surface",
            "repro.experiments.fig6_primetester",
            "repro.experiments.fig8_twitter",
            "repro.experiments.sensitivity",
            "repro.experiments.validation",
            "repro.experiments.compare_policies",
            "repro.experiments.ascii",
            "repro.sweep",
            "repro.sweep.grid",
            "repro.sweep.shard",
            "repro.sweep.orchestrator",
            "repro.sweep.report",
            "repro.evaluate",
            "repro.evaluate.metrics",
            "repro.evaluate.tolerance",
            "repro.evaluate.baseline",
            "repro.evaluate.compare",
            "repro.evaluate.render",
            "repro.evaluate.history",
            "repro.evaluate.scoreboard",
            "repro.cli",
        ],
    )
    def test_module_imports_and_has_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"


class TestReadme:
    def test_referenced_files_exist(self):
        readme = read("README.md")
        for path in re.findall(r"\]\((\w[\w./-]*)\)", readme):
            assert os.path.exists(os.path.join(ROOT, path)), path

    def test_referenced_example_scripts_exist(self):
        readme = read("README.md")
        for script in re.findall(r"python (examples/[\w_]+\.py)", readme):
            assert os.path.exists(os.path.join(ROOT, script)), script

    def test_referenced_experiment_modules_exist(self):
        readme = read("README.md")
        for module in re.findall(r"python -m (repro[.\w]+)", readme):
            importlib.import_module(module)


def _python_block_after(text, heading):
    """The first ```python fence below ``heading``."""
    section = text[text.index(heading):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestDocSnippetsRun:
    """A removed attribute cannot survive in the docs: the snippets execute."""

    @pytest.mark.parametrize(
        "path, heading, expected",
        [
            ("README.md", "## Quickstart", "p(Analyzer) = "),
            ("docs/TUTORIAL.md", "## 1. A pipeline in five lines", "ConstraintTracker"),
        ],
    )
    def test_snippet_executes(self, path, heading, expected, capsys):
        exec(compile(_python_block_after(read(path), heading), path, "exec"), {})
        assert expected in capsys.readouterr().out


class TestDesignAndExperiments:
    def test_design_module_map_paths_exist(self):
        """Every .py file the DESIGN module map names exists in the tree."""
        design = read("DESIGN.md")
        existing = set()
        for top in ("src", "tests", "benchmarks", "examples"):
            for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, top)):
                existing.update(name for name in filenames if name.endswith(".py"))
        for path in re.findall(r"(\w[\w/]*\.py)", design):
            assert os.path.basename(path) in existing, path

    def test_experiments_md_commands_importable(self):
        text = read("EXPERIMENTS.md")
        for module in set(re.findall(r"python -m (repro[.\w]+)", text)):
            importlib.import_module(module)

    def test_experiments_md_sweep_commands_parse(self, monkeypatch):
        """Every documented ``repro sweep`` line names flags and values that exist."""
        from repro import cli

        monkeypatch.chdir(ROOT)  # --grid paths are relative to the repo root
        text = read("EXPERIMENTS.md").replace("\\\n", " ")
        commands = re.findall(r"^.*python -m repro (sweep [^#\n]*)", text, re.M)
        assert any("--seeds 7,8,9,10" in command for command in commands)
        for command in commands:
            args = cli.build_parser().parse_args(shlex.split(command))
            assert len(cli._build_sweep_grid(args)) >= 1, command

    def test_experiments_md_bench_files_exist(self):
        text = read("EXPERIMENTS.md")
        for path in set(re.findall(r"`(benchmarks/[\w_]+\.py)`", text)):
            assert os.path.exists(os.path.join(ROOT, path)), path
        for path in set(re.findall(r"`(tests/[\w_]+\.py)`", text)):
            assert os.path.exists(os.path.join(ROOT, path)), path


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        sorted(
            name
            for name in os.listdir(os.path.join(ROOT, "examples"))
            if name.endswith(".py")
        ),
    )
    def test_example_parses_and_has_docstring(self, script):
        source = read(os.path.join("examples", script))
        tree = ast.parse(source)
        assert ast.get_docstring(tree), f"{script} lacks a module docstring"
        # every example must be directly runnable
        assert '__main__' in source, f"{script} has no __main__ guard"

    def test_at_least_five_examples(self):
        scripts = [
            name
            for name in os.listdir(os.path.join(ROOT, "examples"))
            if name.endswith(".py")
        ]
        assert len(scripts) >= 5


class TestPackaging:
    def test_setup_cfg_points_at_src(self):
        cfg = read("setup.cfg")
        assert "package_dir" in cfg
        assert "= src" in cfg

    def test_no_runtime_third_party_imports(self):
        """The library runs stdlib-only: no third-party import, guarded or not."""
        banned = ("numpy", "scipy", "networkx", "pandas", "matplotlib")
        for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                tree = ast.parse(read(os.path.join(dirpath, filename)))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    else:
                        continue
                    for name in names:
                        assert name.split(".")[0] not in banned, (filename, name)

    def test_import_and_a_run_leave_numpy_unloaded(self):
        """Checked in a fresh interpreter: this one may have numpy loaded."""
        script = (
            "import sys\n"
            "import repro\n"
            "assert 'numpy' not in sys.modules, 'import repro loaded numpy'\n"
            "pipeline = (repro.PipelineBuilder('hygiene')\n"
            "    .source(lambda now, rng: 0, rate=repro.ConstantRate(200.0))\n"
            "    .map('work', lambda x: x, service=repro.Gamma(0.002, 0.7))\n"
            "    .sink().build())\n"
            "engine = repro.StreamProcessingEngine()\n"
            "job = engine.submit(pipeline)\n"
            "engine.run(2.0)\n"
            "assert job.runtime.vertex('work').tasks[0].items_processed > 100\n"
            "assert 'numpy' not in sys.modules, 'engine.run loaded numpy'\n"
        )
        run_fresh(script)
