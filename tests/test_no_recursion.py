"""No function in the package reaches itself through calls, so no input can
end in RecursionError and no cap has to keep the depth down.  The modules
import one another without cycles, so each is checked on its own."""

import ast
from pathlib import Path

import nufact

SRC = Path(nufact.__file__).resolve().parent
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)

# at most 10 calls deep: every atom has norm >= 4, so a factorization of an
# element under quadring.NORM_CAP = 10**6 has at most 9 atoms
ALLOWED = {"quadring.element_factorizations.rec"}


def own_nodes(node):
    """The nodes inside a definition, not looking into nested definitions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, DEFS):
            stack.extend(ast.iter_child_nodes(child))


def call_graph(source):
    """Each function of a module by qualified name, with the functions it
    calls: a plain name is looked up in the enclosing function and module
    scopes (a class body is not one), and `self.m`, `cls.m` and `Class.m`
    name the method m of that class."""
    tree = ast.parse(source)
    methods = {c.name: {f.name for f in c.body if isinstance(f, FUNCS)}
               for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}

    def resolve(func, visible, cls):
        if isinstance(func, ast.Name):
            return visible.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = cls if func.value.id in ("self", "cls") else func.value.id
            if func.attr in methods.get(owner, ()):
                return f"{owner}.{func.attr}"
        return None

    graph = {}
    todo = [(tree, "", {}, None)]  # a definition, its name, the names around it, its class
    while todo:
        node, name, visible, cls = todo.pop()
        defs = [d for d in own_nodes(node) if isinstance(d, DEFS)]
        prefix = name + "." if name else ""
        if not isinstance(node, ast.ClassDef):
            visible = {**visible, **{d.name: prefix + d.name for d in defs
                                     if isinstance(d, FUNCS)}}
        for d in defs:
            todo.append((d, prefix + d.name, visible,
                         node.name if isinstance(node, ast.ClassDef) else cls))
        if isinstance(node, FUNCS):
            graph[name] = {resolve(c.func, visible, cls) for c in own_nodes(node)
                           if isinstance(c, ast.Call)} - {None}
    return graph


def recursive_functions(source):
    """The functions of a module that can reach themselves through calls."""
    graph = call_graph(source)
    found = []
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(graph.get(f, ()))
        if start in seen:
            found.append(start)
    return sorted(found)


def test_no_function_reaches_itself():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name in recursive_functions(path.read_text())}
    assert found == ALLOWED


CONTROL = '''
def direct(n):
    return direct(n - 1) if n else 0


def ping(n):
    return pong(n)


def pong(n):
    return ping(n - 1) if n else size([])


def size(items):
    return len(items)


def outer():
    def inner(n):
        return inner(n - 1) if n else 0
    return inner(3)


class Frac:
    @classmethod
    def of(cls, x):
        return Other.of(x)

    def size(self):
        return size(self.items)

    def walk(self, n):
        return self.step(n)

    def step(self, n):
        return self.walk(n - 1) if n else self.of(n)


class Other:
    @classmethod
    def of(cls, x):
        return x
'''


def test_recursion_check_flags_direct_and_mutual_recursion():
    # negative control; Frac.of calls another class's `of` and Frac.size the
    # module's size, and neither is recursion
    assert recursive_functions(CONTROL) == [
        "Frac.step", "Frac.walk", "direct", "outer.inner", "ping", "pong"]
