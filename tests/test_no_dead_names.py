"""House rule, executable: ``src/`` grows no dead code and no test-only knob.

Every function, method and class defined in ``src/`` must be named
somewhere in ``src/`` or ``examples/`` besides its own ``def`` — as a
name, an attribute, an import, or a string (``getattr``).  An attribute
names a method only where its receiver may hold the method's class.
Where the receiver's class is evident — ``self``, ``cls``,
``super()``, a constructor call, a literal, an annotated name, or a
``self`` attribute annotated or assigned one of those — ``.x`` names
the ``x`` of that class, its bases and its subclasses, and nothing if
the class is a builtin's.  An unresolved ``.x`` names every ``x``
unless a builtin type defines ``x`` (``.clear()``, ``.discard()``,
``.count()``): that is most likely the builtin's.  ``module.x`` names
the module's ``x``.  A package ``__init__`` re-exporting a name
(``from repro… import`` or ``__all__``) does not count: a re-export
nobody uses is still dead.  A class under a registering decorator (any
but ``dataclass``) counts as used, since the registry reaches it by
name.  A name whose only referrers are tests is dead weight the
simulator carries, so it fails here unless :data:`ALLOWED` says why it
stays.  The list can only shrink: an entry whose name gained a
referrer, or was deleted, fails too.

The parameter pass applies the same rule one level down: a defaulted
parameter that only tests pass is a switch.  Every defaulted parameter
of a ``def`` in ``src/`` (an ``__init__`` keyed by its class, e.g.
``LigloServer(capacity=)``) and every defaulted init field of every
dataclass (a ``field(init=False)`` is state, not a parameter) must be
set somewhere in ``src/``, ``examples/`` or ``perfledger/``: by a
keyword at a call, by a positional argument at its index (``map(f, xs,
ys)`` passes ``f`` two, ``super().__init__(...)`` calls the bases), by
``dataclasses.replace(x, field=)`` or ``replace(x, **d)`` with ``d`` a
dict of literal keys, or by a keyword passed through a ``**kwargs``
forwarder to the callee it forwards to.  Calls match by name, as names
do above (``cls(...)`` in a class body names that class).  A parameter
nobody sets fails here unless :data:`PARAMETERS_ALLOWED` gives one of
four reasons: ``FUZZING``, ``LEDGER``, ``PAPER`` or ``WIRE``, or it is
part of the simulated cost model, :data:`COST_MODEL`.  There is no
``TESTS`` reason for a parameter: one only tests turn becomes a
constant in the module that reads it, or leaves with the branch it
selects.  That list can only shrink too.
"""

from __future__ import annotations

import ast
import builtins
import textwrap
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).parent.parent

PAPER = "paper surface: an operation of the node API the paper describes"
FUZZING = "kept for seeded fault fuzzing inside simulated runs"
LEDGER = "read by the perf ledger (perfledger/)"
TESTS = "invariant probe: state no src/ surface exposes"
PAPER_LIGLO_CAPACITY = (
    f"{PAPER}: a LIGLO server may refuse new members (Section 3.4; DESIGN.md, "
    "LIGLO row, 'capacity cap'), which sends a node on to the next server"
)
PAPER_LIGLO_SERVERS = (
    f"{PAPER}: a deployment runs several LIGLO servers (DESIGN.md, LIGLO "
    "row, 'multi-server deployments')"
)
WIRE = (
    "part of an agent class's shipped source or pickled state: editing it "
    "moves every frame that carries the agent"
)

#: name -> why it may have no referrer in ``src/`` or ``examples/``
ALLOWED = {
    "grep": PAPER,
    "FrameFaultInjector": FUZZING,
    "render_timeline": FUZZING,
    "event_counts": FUZZING,
    "busiest_hosts": FUZZING,
    "clear_templates": LEDGER,
    "clear_caches": f"{TESTS}: a cold and a warm agent-path cache give identical simulated runs",
    "frames_allocated": f"{TESTS}: buffer frames are built on first use (tracked-object budget)",
    "held_copies": f"{TESTS}: every holder's replica carries the owner's current version",
    "holders_of": f"{TESTS}: an owned record has one holder per placed copy, none once it is gone",
    "pending_events": f"{TESTS}: the event kernel drains to zero at quiescence",
    "registered_specs": f"{TESTS}: every registered message type round-trips on the wire",
    "resident_pages": f"{TESTS}: the pool never holds more pages than frames, and a clone holds what a reopen does",
}

#: parameter -> why nothing in ``src/``, ``examples/`` or ``perfledger/`` sets it
PARAMETERS_ALLOWED = {
    "FrameFaultInjector(seed=)": FUZZING,
    "truncate(keep=)": FUZZING,
    "bit_flip(position=)": FUZZING,
    "bit_flip(bit=)": FUZZING,
    "wrong_version(version=)": FUZZING,
    "link_window(src=)": FUZZING,
    "link_window(dst=)": FUZZING,
    "link_window(latency=)": FUZZING,
    "churn(start=)": FUZZING,
    "render_timeline(categories=)": FUZZING,
    "render_timeline(start=)": FUZZING,
    "render_timeline(end=)": FUZZING,
    "render_timeline(limit=)": FUZZING,
    "busiest_hosts(top=)": FUZZING,
    "LigloServer(capacity=)": PAPER_LIGLO_CAPACITY,
    "build_network(liglo_count=)": PAPER_LIGLO_SERVERS,
    "StorMSearchAgent(use_index=)": WIRE,
    "StorMSearchAgent(reply_empty=)": WIRE,
    "ReplicatedSearchAgent(use_index=)": WIRE,
    "ReplicatedSearchAgent(reply_empty=)": WIRE,
    "TopKSearchAgent(use_index=)": WIRE,
    "DiscoveryAgent(max_keywords=)": WIRE,
}

#: The simulated cost model, which the parameter pass leaves alone: every
#: field of ``AgentCosts`` and ``LinkModel``, and each parameter that
#: carries an ``AgentCosts`` into a deployment.  Its defaults are the
#: paper's constants; a cost-sensitivity study perturbs them and tests
#: substitute fast costs through them, so no ``src/`` caller need set them.
COST_MODEL = frozenset(
    {
        "AgentCosts",
        "LinkModel",
        "BestPeerConfig(agent_costs=)",
        "build_cs_network(costs=)",
        "build_gnutella_network(costs=)",
    }
)
#: Decorators whose wrapper supplies a function's first argument, so a
#: call's positional arguments start at the second (as for ``self``).
BINDING_DECORATORS = frozenset({"combinator"})
#: Where a parameter may be set, under a checkout's root.
SETTING_TREES = ("src", "examples", "perfledger")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
BUILTIN_TYPES = frozenset(
    name for name, value in vars(builtins).items() if isinstance(value, type)
)
#: Every attribute of a builtin type: an unresolved ``.x`` of one of these
#: is most likely the builtin's, so it names no definition.
BUILTIN_ATTRIBUTES = frozenset(
    attribute for name in BUILTIN_TYPES for attribute in dir(getattr(builtins, name))
)
#: A literal's class.
DISPLAYS = {
    ast.Dict: "dict",
    ast.DictComp: "dict",
    ast.List: "list",
    ast.ListComp: "list",
    ast.Set: "set",
    ast.SetComp: "set",
    ast.Tuple: "tuple",
    ast.JoinedStr: "str",
}
#: Generic classes whose one parameter is the class of their elements.
ITERABLES = frozenset(
    {"list", "set", "frozenset", "deque", "Iterable", "Iterator", "Sequence", "Generator"}
)
#: Calls that return their argument's elements in a list.
COPIES = frozenset({"list", "sorted", "reversed", "tuple", "set", "frozenset"})
#: Builtin types an annotation can name without saying which class it means.
UNTYPED = frozenset({"object", "type"})
#: The receiver of ``module.x``.
MODULE = "<module>"


def _referenced(node: ast.AST) -> str | None:
    """The name ``node`` refers to, if it refers to one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else None
    return None


def _is_reexport(statement: ast.stmt) -> bool:
    """Is this top-level statement of a package ``__init__`` a re-export?"""
    if isinstance(statement, ast.ImportFrom):
        return statement.level == 0 and (statement.module or "").startswith("repro")
    if isinstance(statement, ast.Assign):
        return any(_referenced(target) == "__all__" for target in statement.targets)
    return False


def _registered(node: ast.ClassDef) -> bool:
    """Does a decorator other than ``dataclass`` hand the class to a registry?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _referenced(target) != "dataclass":
            return True
    return False


def _first_bound(function: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> bool:
    """Does something other than the caller supply the first argument?"""
    decorators = {_referenced(decorator) for decorator in function.decorator_list}
    if method:
        return "staticmethod" not in decorators
    return bool(decorators & BINDING_DECORATORS)


def _annotated(annotation: ast.expr | None) -> str | None:
    """The one class an annotation names, if it names exactly one: ``"C"``,
    or ``"C[E]"`` for an iterable ``C`` of ``E``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        outer = _referenced(annotation.value)
        # ``Optional[X]`` and ``type[X]`` reach X's attributes
        if outer in ("Optional", "type"):
            return _annotated(annotation.slice)
        items = annotation.slice.elts if isinstance(annotation.slice, ast.Tuple) else [annotation.slice]
        uniform = outer in ITERABLES or outer == "tuple" and _is_constant(items[-1], ...)
        element = _annotated(items[0]) if uniform else None
        return f"{outer}[{element}]" if element else outer
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = [side for side in (annotation.left, annotation.right) if not _is_constant(side, None)]
        return _annotated(sides[0]) if len(sides) == 1 else None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        return _referenced(annotation)
    return None


def _is_constant(node: ast.AST, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _outer(kind: str | None) -> str | None:
    return kind.split("[", 1)[0] if kind else None


def _element(kind: str | None) -> str | None:
    return kind[kind.index("[") + 1 : -1] if kind and "[" in kind else None


class _Each:
    """What a ``for`` binds: an element of ``iterable``."""

    def __init__(self, iterable: ast.expr):
        self.iterable = iterable


def _bindings(statement: ast.AST):
    """``(target, value, annotated class or _Each)`` for a plain binding."""
    if isinstance(statement, ast.AnnAssign):
        yield statement.target, _annotated(statement.annotation)
    elif isinstance(statement, ast.Assign):
        for target in statement.targets:
            yield target, statement.value
    elif isinstance(statement, (ast.For, ast.AsyncFor, ast.comprehension)):
        yield statement.target, _Each(statement.iter)


def _one(kinds: set[str | None]) -> str | None:
    """The one class a name is evidently bound to, if there is one."""
    kinds = kinds - {None}
    return next(iter(kinds)) if len(kinds) == 1 else None


class _Classes:
    """Every class of a checkout: its bases, the classes of its attributes
    and of its methods' results, and the results of module functions."""

    def __init__(self, trees: list[ast.Module]):
        self.bases: dict[str, set[str]] = defaultdict(set)
        self.attributes: dict[str, dict[str, str]] = defaultdict(dict)
        self.returns: dict[str, dict[str, str]] = defaultdict(dict)
        self._families: dict[str, set[str]] = {}
        classes = [
            node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        ]
        functions: dict[str, set[str | None]] = defaultdict(set)
        for tree in trees:
            for node in tree.body:
                if isinstance(node, FUNCTIONS):
                    functions[node.name].add(_annotated(node.returns))
        self.functions = {name: _one(kinds) for name, kinds in functions.items()}
        for node in classes:
            self.bases[node.name].update(filter(None, map(_referenced, node.bases)))
            for method in node.body:
                if isinstance(method, FUNCTIONS) and method.returns is not None:
                    decorators = {_referenced(d) for d in method.decorator_list}
                    table = self.attributes if "property" in decorators else self.returns
                    table[node.name][method.name] = _annotated(method.returns)
        for node in classes:
            found: dict[str, set[str | None]] = defaultdict(set)
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    found[statement.target.id].add(_annotated(statement.annotation))
            for method in node.body:
                if not isinstance(method, FUNCTIONS) or not method.args.args:
                    continue
                scope = self.local_types(method, node.name, {})
                this = method.args.args[0].arg
                for statement in ast.walk(method):
                    for target, value in _bindings(statement):
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == this
                        ):
                            found[target.attr].add(self.kind(value, scope, node.name))
            for name, kinds in found.items():
                if _one(kinds) is not None:
                    self.attributes[node.name][name] = _one(kinds)

    def known(self, kind: str | None) -> bool:
        return _outer(kind) in self.bases or _outer(kind) in BUILTIN_TYPES - UNTYPED

    def family(self, name: str) -> set[str]:
        """``name``, its bases and its subclasses, transitively."""
        if name not in self._families:
            family = {name}
            for step in (self.bases.get, self.subclasses):
                frontier = [name]
                while frontier:
                    for other in step(frontier.pop()) or ():
                        if other not in family:
                            family.add(other)
                            frontier.append(other)
            self._families[name] = family
        return self._families[name]

    def subclasses(self, name: str) -> list[str]:
        return [other for other, bases in self.bases.items() if name in bases]

    def lookup(self, table: dict[str, dict[str, str]], owner: str | None, name: str) -> str | None:
        """``table[owner][name]``, looked up ``owner``'s bases too."""
        frontier, seen = [owner], set()
        while frontier:
            current = frontier.pop()
            if current in seen or current not in self.bases:
                continue
            seen.add(current)
            if name in table[current]:
                return table[current][name]
            frontier.extend(self.bases[current])
        return None

    def kind(self, value: ast.expr | _Each | str | None, scope: dict[str, str], owner: str | None) -> str | None:
        """The class ``value`` evidently has (a string is an annotated class)."""
        if value is None or isinstance(value, str):
            return value
        if isinstance(value, _Each):
            return _element(self.kind(value.iterable, scope, owner))
        if isinstance(value, ast.Call):
            callee = _referenced(value.func)
            if callee == "super":
                return owner
            if callee in COPIES and value.args:
                element = _element(self.kind(value.args[0], scope, owner))
                return f"list[{element}]" if element else None
            if self.known(callee):
                return callee
            if isinstance(value.func, ast.Attribute):
                receiver = _outer(self.kind(value.func.value, scope, owner))
                return self.lookup(self.returns, receiver, value.func.attr)
            return self.functions.get(callee)
        if isinstance(value, ast.Name):
            if value.id in scope:
                return scope[value.id]
            return value.id if value.id in self.bases else None
        if isinstance(value, ast.Attribute):
            receiver = _outer(self.kind(value.value, scope, owner))
            return self.lookup(self.attributes, receiver, value.attr)
        if isinstance(value, (ast.IfExp, ast.BoolOp)):
            sides = [value.body, value.orelse] if isinstance(value, ast.IfExp) else value.values
            kinds = {self.kind(side, scope, owner) for side in sides if not _is_constant(side, None)}
            return None if None in kinds else _one(kinds)
        if isinstance(value, ast.Constant) and value.value is not None:
            return type(value.value).__name__
        return DISPLAYS.get(type(value))

    def local_types(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: str | None,
        outer: dict[str, str],
    ) -> dict[str, str]:
        """``outer``, with each local of ``function`` of evident class -> that class."""
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        found: dict[str, set[str | None]] = defaultdict(set)
        for argument in positional + arguments.kwonlyargs:
            found[argument.arg].add(_annotated(argument.annotation))
        if owner is not None and positional and _first_bound(function, True):
            found[positional[0].arg] = {owner}
        scope = {**outer, **{name: _one(kinds) for name, kinds in found.items()}}
        for statement in ast.walk(function):
            for target, value in _bindings(statement):
                if isinstance(target, ast.Name):
                    found[target.id].add(self.kind(value, scope, owner))
        local = {name: _one(kinds) for name, kinds in found.items()}
        return {
            name: kind
            for name, kind in {**outer, **local}.items()
            if kind is not None
        }


class _Referrers(ast.NodeVisitor):
    """Every name one source uses, and every attribute with its receiver's class."""

    def __init__(self, classes: _Classes, modules: set[str]):
        self.classes = classes
        self.modules = modules
        self.names: set[str] = set()
        self.attributes: set[tuple[str | None, str]] = set()
        self.owner: str | None = None
        self.in_class_body = False
        self.scope: dict[str, str] = {}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _registered(node):
            self.names.add(node.name)
        for child in node.decorator_list + node.bases + node.keywords:
            self.visit(child)
        saved = self.owner, self.in_class_body
        self.owner, self.in_class_body = node.name, True
        for statement in node.body:
            self.visit(statement)
        self.owner, self.in_class_body = saved

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        arguments = node.args
        every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        outside = [
            *node.decorator_list,
            *arguments.defaults,
            *filter(None, arguments.kw_defaults),
            *filter(None, (argument.annotation for argument in every)),
            *filter(None, [node.returns]),
        ]
        for child in outside:
            self.visit(child)
        owner = self.owner if self.in_class_body else None
        saved = self.scope, self.in_class_body
        self.scope = self.classes.local_types(node, owner, self.scope)
        self.in_class_body = False
        for statement in node.body:
            self.visit(statement)
        self.scope, self.in_class_body = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attributes.add((self._receiver(node.value), node.attr))
        self.visit(node.value)

    def _receiver(self, value: ast.expr) -> str | None:
        if isinstance(value, ast.Name) and value.id in self.modules and value.id not in self.scope:
            return MODULE
        kind = self.classes.kind(value, self.scope, self.owner)
        return _outer(kind) if self.classes.known(kind) else None

    def generic_visit(self, node: ast.AST) -> None:
        name = _referenced(node)
        if name is not None:
            self.names.add(name)
        super().generic_visit(node)


def _modules(tree: ast.Module, path: Path, root: Path) -> set[str]:
    """The names under which ``tree`` imports a module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = (node.module or "").split(".") if node.module else []
            base = path.parents[node.level - 1] if node.level else root / "src"
            base = base.joinpath(*package)
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if (base / f"{alias.name}.py").exists() or (base / alias.name).is_dir()
            )
    return modules


def _dead_names(root: Path = ROOT) -> dict[str, list[str]]:
    """Every ``src/`` definition nothing else names -> where it is defined."""
    src = root / "src" / "repro"
    files = sorted(src.rglob("*.py")) + sorted((root / "examples").rglob("*.py"))
    assert files, f"no sources under {src}"
    trees = []
    for path in files:
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            tree.body = [stmt for stmt in tree.body if not _is_reexport(stmt)]
        trees.append((path, tree))
    classes = _Classes([tree for _, tree in trees])
    names: set[str] = set()
    attributes: set[tuple[str | None, str]] = set()
    defined: list[tuple[str, str | None, str]] = []
    for path, tree in trees:
        referrers = _Referrers(classes, _modules(tree, path, root))
        referrers.visit(tree)
        names |= referrers.names
        attributes |= referrers.attributes
        if src not in path.parents:
            continue
        where = path.relative_to(src).as_posix()
        owners = {
            statement: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for statement in node.body
        }
        defined += [
            (node.name, owners.get(node), f"{where}:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS)
        ]
    # ``module.x`` names the module's ``x``; an unresolved ``.x`` every ``x``
    # but a builtin's; a resolved one its class family's
    names |= {
        name
        for receiver, name in attributes
        if receiver == MODULE or receiver is None and name not in BUILTIN_ATTRIBUTES
    }
    reaching: dict[str, set[str]] = defaultdict(set)
    for receiver, name in attributes:
        if receiver in classes.bases:
            reaching[name] |= classes.family(receiver)
    dead: dict[str, list[str]] = defaultdict(list)
    for name, owner, where in defined:
        if not name.startswith("__") and name not in names and owner not in reaching[name]:
            dead[name].append(where)
    return dict(dead)


def _callee(call: ast.Call) -> str | None:
    return _referenced(call.func)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _referenced(decorator.func if isinstance(decorator, ast.Call) else decorator)
        == "dataclass"
        for decorator in node.decorator_list
    )


def _init_field(statement: ast.stmt) -> bool:
    """Is ``statement`` a dataclass field that ``__init__`` takes?"""
    if not isinstance(statement, ast.AnnAssign) or not isinstance(statement.target, ast.Name):
        return False
    value = statement.value
    return not (
        isinstance(value, ast.Call)
        and _callee(value) == "field"
        and any(
            keyword.arg == "init"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
            for keyword in value.keywords
        )
    )


def _defaulted(tree: ast.Module, where: str) -> dict[str, tuple[int | None, str, bool]]:
    """``"owner(name=)"`` -> (positional index at a call, location, is a
    dataclass field) for every defaulted parameter and dataclass init
    field one source defines."""
    found: dict[str, tuple[int | None, str, bool]] = {}
    methods: dict[ast.AST, ast.ClassDef] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields = [statement for statement in node.body if _init_field(statement)]
            for index, statement in enumerate(fields):
                if statement.value is not None:
                    key = f"{node.name}({statement.target.id}=)"
                    found[key] = (index, f"{where}:{statement.lineno}", True)
        for statement in node.body:
            methods[statement] = node
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        owner = methods.get(node)
        key = owner.name if owner is not None and node.name == "__init__" else node.name
        skip = 1 if _first_bound(node, owner is not None) else 0
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        for index in range(first, len(positional)):
            found[f"{key}({positional[index].arg}=)"] = (
                index - skip,
                f"{where}:{node.lineno}",
                False,
            )
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                found[f"{key}({argument.arg}=)"] = (None, f"{where}:{node.lineno}", False)
    return found


def _forwarders(trees: list[ast.Module]) -> dict[str, set[str]]:
    """Function -> the callees it hands its ``**kwargs`` to."""
    forwards: dict[str, set[str]] = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS) or node.args.kwarg is None:
                continue
            kwargs = node.args.kwarg.arg
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and any(
                    keyword.arg is None and _referenced(keyword.value) == kwargs
                    for keyword in call.keywords
                ):
                    callee = _callee(call)
                    if callee is not None:
                        forwards[node.name].add(callee)
    return forwards


def _literal_keys(mapping: ast.expr, tree: ast.Module) -> set[str]:
    """The literal keys ``**mapping`` may carry: a dict display's, or those
    of the displays, ``dict(k=...)`` calls and ``d["k"] = ...`` stores
    that build the dict a name holds."""
    if isinstance(mapping, ast.Dict):
        return {key.value for key in mapping.keys if isinstance(key, ast.Constant)}
    if isinstance(mapping, ast.Call) and _callee(mapping) == "dict":
        return {keyword.arg for keyword in mapping.keywords if keyword.arg is not None}
    if not isinstance(mapping, ast.Name):
        return set()
    keys: set[str] = set()
    for statement in ast.walk(tree):
        for target, value in _bindings(statement):
            stored = target.value if isinstance(target, ast.Subscript) else target
            if _referenced(stored) != mapping.id:
                continue
            if isinstance(target, ast.Name) and isinstance(value, (ast.Dict, ast.Call)):
                keys |= _literal_keys(value, tree)
            elif isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant):
                keys.add(target.slice.value)
    return keys


def _callees(tree: ast.Module) -> dict[ast.Call, list[str]]:
    """The callee(s) of each call whose name is not its callee's:
    ``cls(...)`` in a class body calls that class, ``super().__init__(...)``
    its bases."""
    callees: dict[ast.Call, list[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if _callee(call) == "cls":
                callees[call] = [node.name]
            elif (
                _callee(call) == "__init__"
                and isinstance(call.func.value, ast.Call)
                and _callee(call.func.value) == "super"
            ):
                callees[call] = [_referenced(base) for base in node.bases]
    return callees


def _settings(trees: list[ast.Module]) -> tuple[set[str], dict[str, int], set[str]]:
    """Every ``"owner(name=)"`` a call sets by keyword (through forwarders
    too), the most positional arguments any call passes each callee, and
    every field name a ``replace`` sets."""
    forwards = _forwarders(trees)
    keywords: set[str] = set()
    positional: dict[str, int] = defaultdict(int)
    replaced: set[str] = set()

    def set_keyword(callee: str, name: str, seen: frozenset[str]) -> None:
        keywords.add(f"{callee}({name}=)")
        if callee == "replace":
            replaced.add(name)
        for target in forwards.get(callee, ()):
            if target not in seen:
                set_keyword(target, name, seen | {callee})

    for tree in trees:
        named = _callees(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            arguments = call.args
            callees = named.get(call, [_callee(call)])
            if callees == ["map"] and arguments:
                # ``map(f, xs, ys)`` calls ``f`` with one argument per iterable
                callees, arguments = [_referenced(arguments[0])], arguments[1:]
            for callee in filter(None, callees):
                for keyword in call.keywords:
                    if keyword.arg is not None:
                        set_keyword(callee, keyword.arg, frozenset())
                    elif callee == "replace":
                        replaced.update(_literal_keys(keyword.value, tree))
                starred = any(isinstance(argument, ast.Starred) for argument in arguments)
                count = len(arguments) if not starred else 1 << 16
                positional[callee] = max(positional[callee], count)
    return keywords, positional, replaced


def _owner(key: str) -> str:
    return key.split("(", 1)[0]


def _unset_parameters(root: Path) -> dict[str, str]:
    """Every defaulted parameter under ``root/src`` that nothing under
    :data:`SETTING_TREES` sets -> where it is defined."""
    defined: dict[str, tuple[int | None, str, bool]] = {}
    for path in sorted((root / "src").rglob("*.py")):
        where = path.relative_to(root / "src").as_posix()
        defined.update(_defaulted(ast.parse(path.read_text()), where))
    trees = [
        ast.parse(path.read_text())
        for tree in SETTING_TREES
        for path in sorted((root / tree).rglob("*.py"))
    ]
    keywords, positional, replaced = _settings(trees)
    unset = {}
    for key, (index, where, is_field) in defined.items():
        owner = _owner(key)
        if (
            key in keywords
            or (index is not None and positional.get(owner, 0) > index)
            or (is_field and key[len(owner) + 1 : -2] in replaced)
            or owner in COST_MODEL
            or key in COST_MODEL
        ):
            continue
        unset[key] = where
    return unset


def _stale(allowed: dict[str, str], flagged: dict[str, str]) -> list[str]:
    """Allow-list entries that no longer name a flagged definition."""
    return sorted(allowed.keys() - flagged.keys())


def test_every_unreferenced_name_is_allow_listed():
    dead = _dead_names()
    assert {name: dead[name] for name in dead.keys() - ALLOWED.keys()} == {}


def test_allow_list_names_only_unreferenced_definitions():
    assert _stale(ALLOWED, _dead_names()) == []


def test_every_test_allowance_names_the_invariant_it_probes():
    assert all(
        reason in (PAPER, FUZZING, LEDGER) or reason.startswith(f"{TESTS}: ")
        for reason in ALLOWED.values()
    )


def test_every_unset_parameter_is_allow_listed():
    unset = _unset_parameters(ROOT)
    assert {key: unset[key] for key in unset.keys() - PARAMETERS_ALLOWED.keys()} == {}


def test_parameter_allow_list_names_only_unset_parameters():
    assert _stale(PARAMETERS_ALLOWED, _unset_parameters(ROOT)) == []


def test_parameter_allow_list_gives_no_test_reason():
    assert all(
        reason in (FUZZING, LEDGER, WIRE) or reason.startswith(PAPER)
        for reason in PARAMETERS_ALLOWED.values()
    )


def test_the_cost_model_names_only_what_src_defines():
    defined: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(_defaulted(tree, ""))
        defined.update(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
    assert sorted(COST_MODEL - defined) == []


#: A synthetic ``src/`` for the parameter pass to check itself against.
SYNTHETIC_SRC = """
    from dataclasses import dataclass, field


    @dataclass(frozen=True)
    class BestPeerConfig:
        ttl: int = 7
        top_k: int | None = None
        derived: int = field(init=False)


    class Engine:
        def __init__(self, host, quiet=False):
            self.quiet = quiet

        def dispatch(self, agent, path=None, hops=1):
            return path, hops


    def knob(value=1):
        return value


    def churned_run(rate, **config_fields):
        return BestPeerConfig(**config_fields)


    def dispatch_agent(engine, agent, **kwargs):
        return engine.dispatch(agent, **kwargs)
"""


def _checkout(root: Path, files: dict[str, str]) -> Path:
    """A checkout under ``root`` holding ``files`` (relative path -> text)."""
    for name, text in {"src/repro/synthetic.py": SYNTHETIC_SRC, **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


ALL_SYNTHETIC = {
    "BestPeerConfig(ttl=)",
    "BestPeerConfig(top_k=)",
    "Engine(quiet=)",
    "dispatch(path=)",
    "dispatch(hops=)",
    "knob(value=)",
}


class TestParameterPass:
    def test_a_parameter_only_tests_set_is_flagged(self, tmp_path):
        root = _checkout(tmp_path, {"tests/test_knob.py": "knob(value=2)\nknob(3)\n"})
        assert set(_unset_parameters(root)) == ALL_SYNTHETIC

    def test_examples_perfledger_and_forwarders_are_setters(self, tmp_path):
        root = _checkout(
            tmp_path,
            {
                "examples/demo.py": "Engine(None, quiet=True)\nknob(5)\n",
                "perfledger/scenario.py": "replace(config, ttl=3)\n",
                "src/repro/caller.py": (
                    "dispatch_agent(engine, agent, path=['a'])\n"
                    "churned_run(0.1, top_k=4)\n"
                ),
            },
        )
        assert set(_unset_parameters(root)) == {"dispatch(hops=)"}

    def test_a_positional_argument_sets_only_its_index(self, tmp_path):
        root = _checkout(tmp_path, {"examples/demo.py": "engine.dispatch(agent, 'path')\n"})
        assert "dispatch(path=)" not in _unset_parameters(root)
        assert "dispatch(hops=)" in _unset_parameters(root)

    def test_cls_calls_its_own_class(self, tmp_path):
        made = """
            class Made:
                def __init__(self, size=1):
                    self.size = size

                @classmethod
                def twice(cls):
                    return cls(2)
        """
        root = _checkout(tmp_path, {"src/repro/made.py": made})
        assert "Made(size=)" not in _unset_parameters(root)

    def test_map_passes_one_argument_per_iterable(self, tmp_path):
        frames = """
            class Frame:
                def __init__(self, page_id=0, data=b"", pinned=False):
                    self.page_id, self.data, self.pinned = page_id, data, pinned


            def load(page_ids, images):
                return list(map(Frame, page_ids, images))
        """
        unset = _unset_parameters(_checkout(tmp_path, {"src/repro/frames.py": frames}))
        assert {key for key in unset if key.startswith("Frame(")} == {"Frame(pinned=)"}

    def test_super_init_calls_the_bases(self, tmp_path):
        errors = """
            class Refused(Exception):
                def __init__(self, message="refused", code=0, retry=False):
                    super().__init__(message)
                    self.code, self.retry = code, retry


            class Full(Refused):
                def __init__(self):
                    super().__init__("full", code=7)
        """
        unset = _unset_parameters(_checkout(tmp_path, {"src/repro/errors.py": errors}))
        assert {key for key in unset if key.startswith("Refused(")} == {"Refused(retry=)"}

    def test_replace_with_a_built_dict_sets_its_literal_keys(self, tmp_path):
        window = """
            def widen(config, ttl=None):
                overrides = {}
                if ttl is not None:
                    overrides["ttl"] = ttl
                return replace(config, **overrides)
        """
        unset = _unset_parameters(
            _checkout(tmp_path, {"src/repro/window.py": window, "examples/demo.py": "widen(c, 3)\n"})
        )
        assert "BestPeerConfig(ttl=)" not in unset
        assert "BestPeerConfig(top_k=)" in unset

    def test_a_dataclass_field_only_tests_set_is_flagged(self, tmp_path):
        handle = """
            from dataclasses import dataclass, field


            @dataclass
            class Handle:
                query: str
                answers: list = field(default_factory=list)
                started: float = 0.0
                seen: set = field(init=False, default_factory=set)


            def track(query):
                return Handle(query, [])
        """
        root = _checkout(
            tmp_path,
            {"src/repro/handle.py": handle, "tests/test_handle.py": "Handle('q', started=1.0)\n"},
        )
        unset = _unset_parameters(root)
        assert {key for key in unset if key.startswith("Handle(")} == {"Handle(started=)"}

    def test_an_init_false_field_is_state_not_a_parameter(self, tmp_path):
        unset = _unset_parameters(_checkout(tmp_path, {}))
        assert "BestPeerConfig(derived=)" not in unset
        assert "BestPeerConfig(ttl=)" in unset

    def test_the_allow_list_can_only_shrink(self, tmp_path):
        unset = _unset_parameters(
            _checkout(tmp_path, {"examples/demo.py": "knob(value=2)\n"})
        )
        allowed = {"Engine(quiet=)": FUZZING, "knob(value=)": FUZZING, "gone(x=)": PAPER}
        # knob gained a setter and gone() was deleted: both entries are stale
        assert _stale(allowed, unset) == ["gone(x=)", "knob(value=)"]


#: A synthetic ``src/`` for the name pass to check itself against.
SYNTHETIC_NAMES = """
    class Tracer:
        def clear(self):
            pass

        def record(self, event):
            pass


    class Table:
        def __init__(self):
            self._seen = set()
            self._rows: dict[str, int] = {}

        def discard(self, key):
            self._rows.pop(key, None)

        def forget(self, key):
            self._seen.discard(key)
            self._rows.clear()


    class Base:
        def run(self):
            return self.step()

        def step(self):
            pass


    class Child(Base):
        def step(self):
            pass

        def count(self):
            return 0


    class Ledger:
        def __init__(self, tracer: Tracer):
            self.tracer = tracer

        def count(self):
            return 1

        def reset(self):
            self.tracer.clear()
            Table().forget("x")
            return [1, 2].count(1) + "ab".count("a")


    def main(child: Child, ledger: "Ledger | None"):
        child.run()
        ledger.tracer.record(ledger.count())
"""


class TestNamePass:
    def _dead(self, root: Path) -> dict[str, list[str]]:
        text = textwrap.dedent(SYNTHETIC_NAMES)
        path = root / "src" / "repro" / "synthetic.py"
        path.parent.mkdir(parents=True)
        path.write_text(text)
        (root / "examples").mkdir()
        (root / "examples" / "demo.py").write_text("main(None, None)\nLedger(None).reset()\n")
        return _dead_names(root)

    def _line(self, text: str) -> str:
        lines = textwrap.dedent(SYNTHETIC_NAMES).splitlines()
        return f"synthetic.py:{lines.index(text) + 1}"

    def test_a_common_name_only_a_builtin_receiver_calls_is_flagged(self, tmp_path):
        dead = self._dead(tmp_path)
        assert dead["discard"] == [self._line("    def discard(self, key):")]

    def test_a_resolved_receiver_names_only_its_class_family(self, tmp_path):
        dead = self._dead(tmp_path)
        # ``ledger.count()`` reaches Ledger's, ``[].count`` and ``"".count`` no one's
        assert dead["count"] == [self._line("    def count(self):")]
        # ``self.step()`` in Base reaches Child's override; ``self.tracer`` is a Tracer
        assert {"step", "clear", "record", "run", "forget"}.isdisjoint(dead)
