"""Every public function and class of the package is referred to inside the
package."""

import ast
import pathlib

import fptkit

# Public functions only the library surface and the tests call.
LIBRARY_ONLY = (
    "fpt_is_one",  # a scan reads fpt = 1 off its nu table instead
    "nu_ideal",  # nu of a monomial ideal, as in fpt((x^p, y^p)) = 2/p
    "multinomial_mod_p",  # multinomials mod p digit by digit (Lucas)
)

PACKAGE_DIR = pathlib.Path(fptkit.__file__).parent


def _references(node, modules):
    """Bare names, and attributes of a package module (exactnum.truncate):
    a method call such as s.digit(e) is not a call of a function digit."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
        ):
            yield sub.attr


def unreferenced_public(package_dir, kind):
    """Names of the public module-level definitions of the given kind
    (ast.FunctionDef or ast.ClassDef) that no code in the package refers to,
    outside the definition's own body and __init__.py."""
    paths = sorted(pathlib.Path(package_dir).glob("*.py"))
    modules = {path.stem for path in paths}
    trees = [ast.parse(path.read_text()) for path in paths if path.name != "__init__.py"]
    counts = {}
    for tree in trees:
        for name in _references(tree, modules):
            counts[name] = counts.get(name, 0) + 1
    return [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, kind)
        and not node.name.startswith("_")
        and counts.get(node.name, 0) == sum(name == node.name for name in _references(node, modules))
    ]


def test_every_public_function_has_a_caller():
    # the exceptions are exactly the uncalled ones, and each is exported
    assert sorted(unreferenced_public(PACKAGE_DIR, ast.FunctionDef)) == sorted(LIBRARY_ONLY)
    assert all(hasattr(fptkit, name) for name in LIBRARY_ONLY)


def test_every_public_class_has_a_reference():
    # a call, an annotation, a base class or an except clause counts
    assert unreferenced_public(PACKAGE_DIR, ast.ClassDef) == []


def test_a_method_of_the_same_name_is_not_a_call(tmp_path):
    (tmp_path / "digits.py").write_text(
        "def digit(x):\n    return x\n\n\ndef tens(x):\n    return digit(x)\n"
    )
    (tmp_path / "streams.py").write_text(
        "from . import digits\n\n\n"
        "def first(s):\n    return s.digit(1)\n\n\n"
        "def last(s):\n    return digits.tens(s)\n"
    )
    # digit is called by name, tens through its module; first and last by nobody
    assert sorted(unreferenced_public(tmp_path, ast.FunctionDef)) == ["first", "last"]
    (tmp_path / "digits.py").write_text("def digit(x):\n    return x\n")
    assert sorted(unreferenced_public(tmp_path, ast.FunctionDef)) == ["digit", "first", "last"]


def test_an_unreferenced_class_is_flagged(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class Box:\n    def grow(self):\n        return Box()\n\n\n"
        "class Ball:\n    pass\n\n\n"
        "class _Hidden:\n    pass\n\n\n"
        "def make() -> Ball:\n    return make()\n"
    )
    # Ball appears in an annotation; Box only inside its own body
    assert unreferenced_public(tmp_path, ast.ClassDef) == ["Box"]
    assert unreferenced_public(tmp_path, ast.FunctionDef) == ["make"]
