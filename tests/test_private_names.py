"""No zetakit module imports or reads a private name of another zetakit
module, and none reads the process environment.

A private name (one leading underscore) belongs to the module that defines
it; a module that needs it from elsewhere needs a public name instead.  The
namedtuple API (_asdict, _replace, _make, _fields) is public despite its
underscore.  A setting read from the environment is an option that no
signature shows, so the library reads none: os.environ and os.getenv are
out, however they are imported.  Nor does any module use an assert
statement: python -O strips them, and a runtime check must still run there.
Each optional parameter of a public function doubles the configurations
that tests must cover, so only the three that callers vary have a default.
"""

import ast
import importlib
import inspect
import pathlib
import types

import zetakit

NAMEDTUPLE_API = {"_asdict", "_replace", "_make", "_fields"}


def _private(name):
    return name.startswith("_") and not name.startswith("__") and name not in NAMEDTUPLE_API


def _from_zetakit(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "zetakit"


def private_reads(sources):
    """(module, line, name) for each private name a module takes from another.

    sources maps each module's name to its source text.  A module takes a
    private name from another when it imports it from a zetakit module, reads
    it as an attribute of a name bound to a zetakit module, or reads it as an
    attribute of any other object without defining that name itself.
    """
    found = []
    for module, text in sources.items():
        nodes = list(ast.walk(ast.parse(text)))
        own = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        own |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        own |= {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        modules = set()
        for n in nodes:
            if isinstance(n, ast.ImportFrom) and _from_zetakit(n):
                found += [(module, n.lineno, a.name) for a in n.names if _private(a.name)]
                if n.module in (None, "zetakit"):  # from . import catalog
                    modules |= {a.asname or a.name for a in n.names}
            elif isinstance(n, ast.Import):
                modules |= {a.asname or a.name for a in n.names if a.name.split(".")[0] == "zetakit"}
        for n in nodes:
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and _private(n.attr):
                of_module = isinstance(n.value, ast.Name) and n.value.id in modules
                if of_module or n.attr not in own:
                    found.append((module, n.lineno, n.attr))
    return sorted(found)


ENVIRONMENT_NAMES = {"environ", "getenv", "environb", "getenvb"}


def environment_reads(sources):
    """(module, line, name) for each read of os.environ, os.getenv and kin.

    Caught: an attribute of a name bound to the os module (import os, import
    os as o), and a from-import of one of those names out of os.
    """
    found = []
    for module, text in sources.items():
        nodes = list(ast.walk(ast.parse(text)))
        os_names = {a.asname or a.name for n in nodes if isinstance(n, ast.Import)
                    for a in n.names if a.name == "os"}
        for n in nodes:
            if isinstance(n, ast.ImportFrom) and n.module == "os":
                found += [(module, n.lineno, a.name) for a in n.names if a.name in ENVIRONMENT_NAMES]
            elif (isinstance(n, ast.Attribute) and n.attr in ENVIRONMENT_NAMES
                  and isinstance(n.value, ast.Name) and n.value.id in os_names):
                found.append((module, n.lineno, n.attr))
    return sorted(found)


def assert_statements(sources):
    """(module, line) for each assert statement."""
    return sorted((module, n.lineno) for module, text in sources.items()
                  for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Assert))


def _package_sources():
    package = pathlib.Path(zetakit.__file__).parent
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}


def test_no_module_reads_another_modules_private_names():
    sources = _package_sources()
    assert {"catalog", "exact", "specfun", "verifier", "cli"} <= set(sources)
    assert private_reads(sources) == []


def test_no_module_reads_the_environment():
    sources = _package_sources()
    assert {"catalog", "cli", "convergence", "verifier"} <= set(sources)
    assert environment_reads(sources) == []


def test_no_module_uses_assert():
    sources = _package_sources()
    assert {"catalog", "exact", "specfun", "verifier"} <= set(sources)
    assert assert_statements(sources) == []


def test_the_guard_sees_assert_statements():
    sources = {
        "catalog": "x = 1\n"
                   "assert x > 0, 'x must be positive'\n",
        "specfun": "def f(x):\n"
                   "    if x:\n"
                   "        assert x\n"
                   "    return 'assert x'  # assert\n",
    }
    assert assert_statements(sources) == [("catalog", 2), ("specfun", 3)]


def test_the_guard_sees_environment_reads():
    sources = {
        "catalog": "import os\n"
                   "cap = int(os.environ.get('ZETAKIT_MAX_TERMS', '1'))\n"
                   "level = os.getenv('LEVEL')\n"
                   "os.path.join('a', 'b')\n",
        "cli": "import os as _os\n"
               "from os import environ, sep\n"
               "_os.environ['X']\n",
        "verifier": "environ = {}\n"
                    "environ.get('X')\n",
    }
    assert environment_reads(sources) == [("catalog", 2, "environ"), ("catalog", 3, "getenv"),
                                          ("cli", 2, "environ"), ("cli", 3, "environ")]


def test_the_guard_sees_private_imports_and_reads():
    sources = {
        "verifier": "from .specfun import cl2_drift, _cl2_reduce\n"
                    "from . import specfun\n"
                    "specfun._CL2_RANGE\n"
                    "specfun.clausen_cl2(1.0)._asdict()\n"
                    "def f(entry):\n"
                    "    return entry._steps\n",
        "specfun": "_CL2_RANGE = 1.0\n"
                   "def _cl2_reduce(theta):\n"
                   "    return theta\n"
                   "class C:\n"
                   "    def __init__(self):\n"
                   "        self._steps = 1\n"
                   "    def f(self):\n"
                   "        return self._steps\n",
    }
    assert private_reads(sources) == [("verifier", 1, "_cl2_reduce"), ("verifier", 3, "_CL2_RANGE"),
                                      ("verifier", 6, "_steps")]


# (module, function, parameter): the only optional parameters of public functions
ALLOWED_OPTIONS = {("specfun", "clausen_cl2", "method"), ("verifier", "verify", "include_printed"),
                   ("cli", "main", "argv")}


def optional_parameters(modules):
    """(module, function, parameter) for each parameter with a default of each
    function a module lists in __all__, named by the module that defines it."""
    found = set()
    for module in modules:
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                found |= {(fn.__module__.rpartition(".")[2], fn.__name__, p.name)
                          for p in inspect.signature(fn).parameters.values() if p.default is not p.empty}
    return found


def test_public_functions_take_only_the_allowed_options():
    package = pathlib.Path(zetakit.__file__).parent
    modules = [zetakit] + [importlib.import_module(f"zetakit.{path.stem}")
                           for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    assert len(modules) == 9
    assert optional_parameters(modules) == ALLOWED_OPTIONS


def test_the_guard_sees_optional_parameters():
    def f(a, b=1, *, c=None, d):
        pass

    def g(x=1):
        pass

    module = types.SimpleNamespace(__all__=["f"], f=f, g=g)
    assert optional_parameters([module]) == {("test_private_names", "f", "b"),
                                             ("test_private_names", "f", "c")}
