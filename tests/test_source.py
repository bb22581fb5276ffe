import ast
import pathlib

import ercd


def _unreferenced(sources):
    """The (module, name) of every function, method and class defined in
    sources (module name -> text) that no code of sources names outside its
    own definition, as a name, an attribute or a from-import; dunders are
    not counted. An attribute of a module bound by an import statement,
    such as np.conjugate after import numpy as np or os.path.join after
    import os.path, names that module's member, not a definition of
    sources."""
    defs, refs = [], []
    for module, text in sources.items():
        tree = ast.parse(text)
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in imported):
                    refs.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs += [(module, alias.name, node.lineno)
                         for alias in node.names]
    return [(module, name) for module, name, first, last in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(ref == name and not (at == module and
                                             first <= line <= last)
                        for at, ref, line in refs)]


def test_the_scan_counts_no_reference_from_inside_a_definition():
    sources = {"a": "def used():\n    return 1\n\n"
                    "def recursive():\n    return recursive()\n\n"
                    "class Box:\n    def read(self):\n        return 1\n",
               "b": "from a import used\nused().read\n"}
    assert _unreferenced(sources) == [("a", "recursive"), ("a", "Box")]


def test_an_attribute_of_an_imported_module_is_not_a_reference():
    # np.conjugate and os.path.join name numpy's and os's members; the
    # package's own modules, imported with from, still count
    sources = {"a": "class Scalar:\n    def conjugate(self):\n"
                    "        return self\n\n    def join(self):\n"
                    "        return self\n\n"
                    "def read():\n    return 1\n",
               "b": "import numpy as np\nimport os.path\nfrom . import a\n"
                    "np.conjugate(os.path.join, a.read)\nScalar = None\n"}
    assert _unreferenced(sources) == [("a", "conjugate"), ("a", "join")]


def test_every_definition_in_the_package_has_a_caller_in_the_package():
    # code that only the tests call belongs in the tests; the public names
    # of ercd.__all__ are the package's interface
    package = pathlib.Path(ercd.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    dead = [(module, name) for module, name in _unreferenced(sources)
            if name not in ercd.__all__]
    assert dead == []
