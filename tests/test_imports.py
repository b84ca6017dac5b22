"""Every name a module imports is used in that module (or exported), every
private module-level name is used somewhere in the package, every exported
name is defined where it is exported and re-exported only from there, each
rule the scan tracks (kernel products, null atoms, atom limits, array
ownership, lost mass, dense BLAS kernels, whole survivor matrices, the
survivor rule, the chain's own draws, int64 widening) is read only in its home, every public
harness check is run by some package code, and the package loads no scipy
at all."""

import ast
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inarlab

MODULES = sorted(
    p for p in Path(inarlab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _exports(tree) -> list[str]:
    """The names in a module's ``__all__`` (empty without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_exports(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(source) == ["dumps (line 2)"]


def _references(node) -> Counter:
    """Names read (as names or attributes) anywhere under ``node``."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def _bound_names(node) -> list[str]:
    """Names a module-level def, class or assignment binds (none for others)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions, classes and constants that no code
    in ``sources`` reads outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            names = _bound_names(node)
            own = _references(node)
            dead += [
                f"{module}:{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
                and everywhere[name] == own[name]
            ]
    return dead


def test_package_uses_every_private_name():
    package = Path(inarlab.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_scan_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_spare = 1\ndef _loop(n):\n    return _loop(n - 1)\n",
        "b.py": "from a import _LIMIT\nclass _Unused:\n    pass\nprint(_LIMIT)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_spare", "a.py:_loop", "b.py:_Unused"]


# Each rule's one home: a name that carries the rule, and the only places (a
# module, or a module-level definition in one) that may read it.  Every exact
# law comes from transition_matrix, every joint drops its null atoms through
# one helper, only the window-law limit refuses a table as too large, every
# holder freezes its array through pmf._owned, and every exact sum (lost
# mass, totals, distances) is taken in pmf, besides the chi-square tail's own
# terms.  Only a window law's split copies an array into C order, so no
# simulator transposes its step-major buffer into a path-sized copy.  The
# dense SVDs and matrix powers run only at the call sites that enter
# dependence._serial_blas, and only the OpenBLAS lookup behind that scope
# loads a C library.  Only the ensemble builds its survivors matrix whole,
# as ``u`` on read: every other reader takes one step, x[:, k] - v[:, k], or
# a row block.  The survivor rule ``_survivors`` runs in the ensemble, which
# applies it to every step of a run it holds, in the campaign's streamed
# block, which applies it to every step it draws, and in the two checks that
# read survivors; no third copy of the rule may appear.  Only
# the two count-chain simulators draw binomial survivors and Poisson counts,
# so no other module runs a step loop of its own.  A count leaves its own
# type for int64 only where memory is counted at the worst case, where
# outside input is converted, where pair keys are formed and where the
# negative control bumps an innovation: survivors lie in [0, x] and are
# read in the counts' type.
KERNEL_PLACES = {"pmf", "chains.transition_matrix", "chains._kernel_row"}
CHAIN_DRAWS = {"chains._direct_steps", "chains.simulate_inar_superposition"}
RULE_HOMES = {
    "binomial_table": KERNEL_PLACES,
    "convolve": KERNEL_PLACES,
    "compress": {"dependence._without_null_atoms"},
    "ExplosionLimitError": {"chains.require_window_atoms"},
    "ascontiguousarray": {"chains.TupleLaw"},
    "setflags": {"pmf._owned"},
    "fsum": {"pmf", "harness._chi2_tail"},
    "svd": {"dependence._flush"},
    "matrix_power": {"chains.window_joint_pmf", "chains.marginal_at"},
    "ctypes": {"dependence._openblas_threads"},
    "u": {"chains.PathEnsemble"},
    "_survivors": {
        "chains.PathEnsemble",
        "harness._mc_block",
        "harness.check_innovation_independence",
        "harness.check_thinning_conditional",
    },
    # a simulator's buffer range is read in one place; every simulator calls it
    "iinfo": {"chains._fitted"},
    "promote_types": {"chains._fitted"},
    "binomial": CHAIN_DRAWS,
    "poisson": CHAIN_DRAWS,
    "int64": {
        "chains._require_memory",
        "chains._counts",
        "harness._pair_counts",
        "harness._corrupted_innovation_check",
    },
}


def stray_rule_reads(sources: dict[str, str]) -> list[str]:
    """``module.definition:name`` (or ``module:name`` outside any def or
    class) of each read of a ``RULE_HOMES`` name, as a name or an attribute,
    outside that name's places."""
    stray = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            place = f"{module}.{node.name}" if named else module
            read = _references(node)
            stray += [
                f"{place}:{name}"
                for name, homes in sorted(RULE_HOMES.items())
                if read[name] and module not in homes and place not in homes
            ]
    return stray


def test_each_rule_is_read_only_in_its_home():
    package = Path(inarlab.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert stray_rule_reads(sources) == []


def test_scan_flags_a_rule_read_outside_its_home():
    sources = {
        "pmf": (
            "def convolve(p, q):\n    return np.convolve(p, q)\n"
            "def _owned(a):\n    a.setflags(write=False)\n    return math.fsum(a)\n"
            "class Pmf:\n    def freeze(self):\n        self.probs.setflags(write=False)\n"
        ),
        "chains": (
            "from .pmf import binomial_table\n"
            "from .errors import ExplosionLimitError\n"
            "def transition_matrix(spec, cap):\n    return binomial_table(cap, spec.a)\n"
            "def marginal(spec):\n    return np.convolve(spec, spec)\n"
            "def require_window_atoms(cap, count):\n    raise ExplosionLimitError(cap)\n"
            "class TupleLaw:\n    def split(self):\n        return self.mass.compress([1])\n"
            "def simulate_inar_direct(params, x):\n    return np.ascontiguousarray(x.T)\n"
            "def _fitted(buffer, values):\n    return np.iinfo(buffer.dtype).max\n"
            "def simulate_chain(paths, draws):\n    return draws.max() <= np.iinfo(paths.dtype).max\n"
            "def _counts(paths):\n    return np.asarray(paths, np.int64)\n"
            "class _Survivors:\n    def rows(self, b):\n"
            "        return np.subtract(self.x[b], self.v[b], dtype=np.int64)\n"
            "def write_ensemble_csv(ensemble, b):\n"
            "    return _survivors(ensemble.paths[b], ensemble.v[b])\n"
        ),
        "dependence": (
            "def _without_null_atoms(mass):\n    return mass.compress([1], axis=0)\n"
            "def _flush(stack):\n    return np.linalg.svd(stack)\n"
            "def maximal_correlation(joint):\n    return np.linalg.svd(joint.mass)[1]\n"
        ),
        "harness": (
            "from . import pmf\nTABLE = pmf.binomial_table(3, 0.5)\n"
            "def _chi2_tail(terms):\n    return math.fsum(terms)\n"
            "def _pooled_gof_ratio(probs):\n    return 1.0 - math.fsum(probs)\n"
            "def check_thinning_conditional(dec, k):\n    return dec.x[:, k] - dec.u[:, k]\n"
            "def _mc_block(rng, x, a):\n    return rng.binomial(x, a)\n"
        ),
        "mixing": "def lag_joints(spec):\n    raise ExplosionLimitError(spec)\n",
    }
    assert stray_rule_reads(sources) == [
        "pmf.Pmf:setflags",
        "chains.marginal:convolve",
        "chains.TupleLaw:compress",
        "chains.simulate_inar_direct:ascontiguousarray",
        "chains.simulate_chain:iinfo",
        "chains._Survivors:int64",
        "chains.write_ensemble_csv:_survivors",
        "dependence.maximal_correlation:svd",
        "harness:binomial_table",
        "harness._pooled_gof_ratio:fsum",
        "harness.check_thinning_conditional:u",
        "harness._mc_block:binomial",
        "mixing.lag_joints:ExplosionLimitError",
    ]


def unread_checks(sources: dict[str, str], module: str) -> list[str]:
    """``check_*`` names in ``module``'s ``__all__`` that no module-level
    definition in ``sources`` reads besides the check's own: a public check
    that no package code runs (an import is not a read)."""
    read = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            bound = _bound_names(node)
            if bound:
                read |= set(_references(node)) - set(bound)
    exports = _exports(ast.parse(sources[module]))
    return [name for name in exports if name.startswith("check_") and name not in read]


def test_package_runs_every_public_check():
    package = Path(inarlab.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unread_checks(sources, "harness") == []


def test_scan_flags_a_check_no_package_code_runs():
    sources = {
        "harness": (
            "__all__ = ['check_a', 'check_b', 'check_c', 'check_d', 'run']\n"
            "def check_a(n):\n    return check_a(n - 1)\n"
            "def check_b(n):\n    return n\n"
            "def check_c(n):\n    return n\n"
            "def check_d(n):\n    return n\n"
            "def run():\n    return check_c(1)\n"
            "print(check_b(2))\n"
        ),
        "cli": "from .harness import check_d\nJOBS = [check_d]\n",
        "__init__": "from .harness import check_a, check_b\n",
    }
    assert unread_checks(sources, "harness") == ["check_a", "check_b"]


def undefined_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no module-level def, class or assignment binds."""
    tree = ast.parse(source)
    defined = {name for node in tree.body for name in _bound_names(node)}
    return [name for name in _exports(tree) if name not in defined]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_export(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_a_stale_export():
    source = (
        "from os import sep\n__all__ = ['LIMIT', 'gone', 'sep', 'Law']\n"
        "LIMIT = 3\nclass Law:\n    pass\n"
    )
    assert undefined_exports(source) == ["gone", "sep"]


def unexported_package_imports(init_source: str, modules: dict[str, str]) -> list[str]:
    """Names the package ``__init__`` imports from one of its modules that the
    module's ``__all__`` does not list."""
    exports = {name: set(_exports(ast.parse(source))) for name, source in modules.items()}
    return [
        f"{node.module}.{alias.name}"
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exports[node.module]
    ]


def test_package_imports_only_exported_names():
    package = Path(inarlab.__file__).parent
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    init = (package / "__init__.py").read_text(encoding="utf-8")
    assert "from ." in init
    assert unexported_package_imports(init, modules) == []


def test_scan_flags_an_unexported_package_import():
    modules = {"a": "__all__ = ['f']\ndef f(): pass\ndef g(): pass\n", "b": "x = 1\n"}
    init = "from .a import f, g\nfrom .b import x\nimport os\n"
    assert unexported_package_imports(init, modules) == ["a.g", "b.x"]


def test_package_does_not_import_scipy():
    """Importing any of scipy (scipy.special alone takes 0.36 s and 26 MB)
    would double a cold start; nothing needs it."""
    src = str(Path(inarlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, inarlab, inarlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
