import ast
import pathlib

import ercd


def _unreferenced(sources):
    """The (module, name) of every function, method and class defined in
    sources (module name -> text) that no code of sources names outside its
    own definition, as a name, an attribute or a from-import; dunders are
    not counted."""
    defs, refs = [], []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
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


def test_every_definition_in_the_package_has_a_caller_in_the_package():
    # code that only the tests call belongs in the tests; the public names
    # of ercd.__all__ are the package's interface
    package = pathlib.Path(ercd.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    dead = [(module, name) for module, name in _unreferenced(sources)
            if name not in ercd.__all__]
    assert dead == []
