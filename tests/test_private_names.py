"""No zetakit module imports or reads a private name of another zetakit module.

A private name (one leading underscore) belongs to the module that defines
it; a module that needs it from elsewhere needs a public name instead.  The
namedtuple API (_asdict, _replace, _make, _fields) is public despite its
underscore.
"""

import ast
import pathlib

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


def test_no_module_reads_another_modules_private_names():
    package = pathlib.Path(zetakit.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert {"catalog", "exact", "specfun", "verifier", "cli"} <= set(sources)
    assert private_reads(sources) == []


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
