"""Project model: the parsed tree, its symbol table and call graph.

Every lint run starts here.  The invariants the rules guard — the
tmp+``os.replace`` durability idiom scattered across
``util.shardio`` / ``util.checkpoint``, locks guarding state shared
between producer and consumer threads — span module boundaries, so this
module reads and parses the whole tree **once** (with each file's inline
suppressions) and builds what the rules need:

* a symbol table of every module, class, function and method, with
  qualified names (``repro.nn.dataloader.PrefetchLoader._producer``);
* import resolution that follows aliases, relative imports *and*
  re-exports (``from .a import fn`` in a package ``__init__`` resolves
  callers of ``pkg.fn`` to ``pkg.a.fn``), so diamond import graphs
  collapse onto one canonical symbol;
* lightweight receiver-type inference (annotations, ``x = Cls(...)``
  locals, ``self.attr`` types recorded from ``__init__``) so method
  calls resolve to definitions;
* a call graph whose edges carry the call site, including *external*
  edges (``os.replace``, ``numpy.savez_compressed``) — checkers match
  on qualified callee names without re-walking ASTs.

Decorated functions register under their plain name: calling a wrapped
function still reaches the wrapped body, which is the sound
approximation for every decorator in this codebase.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import qualified_name
from repro.analysis.findings import Finding

__all__ = [
    "PARSE_ERROR_RULE",
    "SUPPRESSION_REASON_RULE",
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "Project",
    "ProjectFile",
    "Suppressions",
    "build_project",
    "project_from_source",
    "discover",
    "module_name_for",
]

#: rule name reserved for files the linter cannot read or parse
PARSE_ERROR_RULE = "parse-error"

#: rule name for suppressions carrying no reason
SUPPRESSION_REASON_RULE = "suppression-reason"

#: rules group (lazy) plus an optional `-- reason` / `— reason` tail
_SUPPRESS_LINE = re.compile(
    r"#\s*repro:\s*disable=([\w, -]+?)(?:\s*(?:--|[—–])\s*(\S.*))?$"
)
_SUPPRESS_FILE = re.compile(
    r"#\s*repro:\s*disable-file=([\w, -]+?)(?:\s*(?:--|[—–])\s*(\S.*))?$"
)

_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)

#: constructors whose instances are safe to share across threads
THREAD_SAFE_CTORS = frozenset(
    {
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "threading.Event",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "threading.local",
        "collections.deque",
    }
)


def _split_rules(spec: str) -> set[str]:
    return {part.strip(" -") for part in spec.split(",") if part.strip(" -")}


@dataclass
class Suppressions:
    """Inline-suppression tables for one file.

    ``reasonless`` holds ``(lineno, rules)`` for every suppression
    comment missing its ``-- <reason>`` tail; the engine turns those
    into findings so a suppression can never silently drop a rule
    without justification.
    """

    line: dict[int, set[str]] = field(default_factory=dict)
    file: set[str] = field(default_factory=set)
    reasonless: list[tuple[int, set[str]]] = field(default_factory=list)

    @classmethod
    def parse(cls, lines: list[str]) -> "Suppressions":
        supp = cls()
        for lineno, text in enumerate(lines, start=1):
            m = _SUPPRESS_FILE.search(text)
            if m:
                rules = _split_rules(m.group(1))
                supp.file |= rules
                if not m.group(2):
                    supp.reasonless.append((lineno, rules))
                continue
            m = _SUPPRESS_LINE.search(text)
            if m:
                rules = _split_rules(m.group(1))
                supp.line.setdefault(lineno, set()).update(rules)
                if not m.group(2):
                    supp.reasonless.append((lineno, rules))
        return supp

    def covers(self, finding: Finding) -> bool:
        """Whether an inline comment suppresses this finding."""
        for rules in (self.file, self.line.get(finding.line, ())):
            if finding.rule in rules or "all" in rules:
                return True
        return False

    def reason_findings(self, path: str) -> list[Finding]:
        """One ``suppression-reason`` finding per reasonless comment."""
        return [
            Finding(
                rule=SUPPRESSION_REASON_RULE,
                message=(
                    f"suppression of {sorted(rules)} has no reason; append "
                    "`-- <why this is safe>` so the next reader does not "
                    "have to re-derive the justification"
                ),
                path=path,
                line=lineno,
            )
            for lineno, rules in self.reasonless
        ]


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    The component after the last ``src`` directory starts the module
    (``src/repro/md/system.py`` → ``repro.md.system``); without a
    ``src`` anchor the whole relative path is used.  ``__init__.py``
    maps to its package.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    parts = [p for p in parts if p not in (".", "..", "/")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def discover(paths: list[Path]) -> list[Path]:
    """Expand directories into sorted ``*.py`` files; keep explicit files."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        else:
            files.append(path)
    return files


@dataclass
class ProjectFile:
    """One parsed source file plus the tables derived from it."""

    path: str  # display path (relative to the project root when possible)
    module: str
    source: str
    tree: ast.Module
    is_package: bool
    imports: dict[str, str] = field(default_factory=dict)
    suppressions: Suppressions = field(default_factory=Suppressions)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    decorators: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    def positional_params(self) -> list[str]:
        """Names bindable by position (methods include ``self``)."""
        a = self.node.args
        return [p.arg for p in (*a.posonlyargs, *a.args)]


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    #: ``self.attr`` → project class qualname (inferred in ``__init__``)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` → qualified constructor called to produce it
    #: (``threading.Lock``, ``queue.Queue`` …), project or external
    attr_ctors: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One call site: ``caller`` invokes ``callee``."""

    caller: str  # function qualname ("<module:m>" for module-level code)
    callee: str  # canonical qualname (project symbol or external dotted)
    external: bool  # callee is not defined in the project
    path: str
    line: int


class Project:
    """Whole-program view: files, symbols, call graph."""

    def __init__(self) -> None:
        self.files: dict[str, ProjectFile] = {}  # module -> file
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._out: dict[str, list[CallEdge]] = {}
        self._by_call_node: dict[int, CallEdge] = {}
        self._by_def_node: dict[int, FunctionInfo] = {}
        self.parse_findings: list[Finding] = []

    # ------------------------------------------------------------ queries
    def calls_from(self, qualname: str) -> list[CallEdge]:
        """Call edges leaving ``qualname``."""
        return self._out.get(qualname, [])

    def callee_of(self, call_node: ast.Call) -> str | None:
        """Canonical callee of a specific ``ast.Call``, if resolved."""
        edge = self._by_call_node.get(id(call_node))
        return edge.callee if edge is not None else None

    def edge_of(self, call_node: ast.Call) -> CallEdge | None:
        """The edge recorded for a specific ``ast.Call`` node."""
        return self._by_call_node.get(id(call_node))

    def reachable(self, roots) -> set[str]:
        """Project functions reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            fq = frontier.pop()
            if fq in seen:
                continue
            seen.add(fq)
            for edge in self.calls_from(fq):
                if not edge.external and edge.callee in self.functions:
                    frontier.append(edge.callee)
        return seen

    def functions_in(self, module_prefixes: list[str]) -> list[str]:
        """Qualnames of functions whose module falls under any prefix."""
        from repro.analysis.config import module_matches

        return [
            fq
            for fq, info in self.functions.items()
            if module_matches(info.module, module_prefixes)
        ]

    def method_resolution(self, class_qualname: str, method: str) -> str | None:
        """Resolve ``method`` on a class, walking project base classes."""
        seen: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            cq = frontier.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            frontier.extend(cls.bases)
        return None

    # ------------------------------------------------------- resolution
    def canonical(self, dotted: str | None) -> str | None:
        """Follow re-exports until ``dotted`` names a project definition.

        ``pkg.fn`` where ``pkg/__init__.py`` does ``from .a import fn``
        canonicalizes to ``pkg.a.fn``; unknown names come back unchanged
        (they are external).
        """
        if dotted is None:
            return None
        seen: set[str] = set()
        while (
            dotted not in self.functions
            and dotted not in self.classes
            and dotted not in seen
        ):
            seen.add(dotted)
            head, _, sym = dotted.rpartition(".")
            if not head:
                break
            # `a.b.c.sym`: if `a.b.c` is a project module re-exporting
            # sym, follow; otherwise try canonicalizing the head (so
            # `pkg.Cls.method` resolves through a re-exported Cls)
            pf = self.files.get(head)
            if pf is not None and sym in pf.imports:
                nxt = pf.imports[sym]
                if nxt != dotted:
                    dotted = nxt
                    continue
            new_head = None
            if head not in self.files:
                new_head = self.canonical(head)
            if new_head is not None and new_head != head:
                dotted = f"{new_head}.{sym}"
                continue
            break
        return dotted

    def function_of(self, def_node: ast.AST) -> FunctionInfo | None:
        """The :class:`FunctionInfo` registered for a ``def`` node."""
        return self._by_def_node.get(id(def_node))

    def resolve(
        self, module: str, name_expr: ast.AST, scope: str | None = None
    ) -> str | None:
        """Resolve a Name/Attribute chain seen in ``module`` to a symbol.

        ``scope`` is the qualname of the function the name appears in:
        a bare name then finds the defs nested in that function and in
        the functions enclosing it first, as a closure would.
        """
        if scope is not None and isinstance(name_expr, ast.Name):
            while scope in self.functions:
                nested = f"{scope}.{name_expr.id}"
                if nested in self.functions:
                    return nested
                scope = scope.rpartition(".")[0]
        pf = self.files.get(module)
        if pf is None:
            return None
        dotted = qualified_name(name_expr, pf.imports)
        if dotted is None:
            return None
        # an unimported bare root may be module-level in this module
        root = dotted.split(".", 1)[0]
        if root not in pf.imports:
            local = f"{module}.{dotted}"
            resolved = self.canonical(local)
            if resolved in self.functions or resolved in self.classes:
                return resolved
        return self.canonical(dotted)


def _resolved_imports(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local name → dotted origin, with relative imports resolved.

    The importing module's own dotted path anchors relative imports, so
    ``from .shardio import x`` in ``repro.util.checkpoint`` maps ``x`` →
    ``repro.util.shardio.x``.
    """
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base_parts = anchor + (node.module.split(".") if node.module else [])
                base = ".".join(base_parts)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = origin
    return imports


def _annotation_class(ann: ast.AST | None, project: Project, module: str) -> str | None:
    """Project class named by an annotation (unwraps Optional/unions/strings)."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_class(ann.left, project, module) or _annotation_class(
            ann.right, project, module
        )
    if isinstance(ann, ast.Subscript):  # Optional[X], list[X] → try X
        return _annotation_class(ann.slice, project, module)
    if isinstance(ann, (ast.Name, ast.Attribute)):
        resolved = project.resolve(module, ann)
        if resolved in project.classes:
            return resolved
    return None


def _collect_symbols(project: Project, pf: ProjectFile) -> None:
    """Register every function/class in one file under qualified names."""

    def visit(body, prefix: str, class_qualname: str | None) -> None:
        for node in body:
            if isinstance(node, _FUNC):
                qual = f"{prefix}.{node.name}"
                decorators = []
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    dotted = qualified_name(target, pf.imports)
                    if dotted:
                        decorators.append(dotted)
                info = FunctionInfo(
                    qualname=qual,
                    module=pf.module,
                    path=pf.path,
                    node=node,
                    class_qualname=class_qualname,
                    decorators=decorators,
                )
                if project.functions.setdefault(qual, info) is info:
                    project._by_def_node[id(node)] = info
                if class_qualname is not None:
                    project.classes[class_qualname].methods.setdefault(
                        node.name, qual
                    )
                # nested defs are their own symbols (not methods)
                visit(node.body, qual, None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}"
                cls = ClassInfo(
                    qualname=qual, module=pf.module, path=pf.path, node=node
                )
                project.classes.setdefault(qual, cls)
                visit(node.body, qual, qual)

    visit(pf.tree.body, pf.module, None)


def _resolve_class_tables(project: Project) -> None:
    """Second pass: resolve base classes and infer ``self.attr`` types."""
    for cls in project.classes.values():
        for base in cls.node.bases:
            resolved = project.resolve(cls.module, base)
            if resolved in project.classes:
                cls.bases.append(resolved)
        # class-level annotations (dataclass fields)
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                t = _annotation_class(stmt.annotation, project, cls.module)
                if t is not None:
                    cls.attr_types.setdefault(stmt.target.id, t)
        init_q = cls.methods.get("__init__")
        init = project.functions.get(init_q) if init_q else None
        if init is None:
            continue
        params = {
            p.arg: _annotation_class(p.annotation, project, cls.module)
            for p in (*init.node.args.posonlyargs, *init.node.args.args)
        }
        self_name = init.positional_params()[0] if init.positional_params() else "self"
        for stmt in ast.walk(init.node):
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    continue
                attr = target.attr
                if isinstance(stmt, ast.AnnAssign):
                    t = _annotation_class(stmt.annotation, project, cls.module)
                    if t is not None:
                        cls.attr_types.setdefault(attr, t)
                if isinstance(value, ast.Call):
                    ctor = project.resolve(cls.module, value.func)
                    if ctor is None:
                        pf = project.files.get(cls.module)
                        ctor = qualified_name(
                            value.func, pf.imports if pf else {}
                        )
                    if ctor is not None:
                        cls.attr_ctors.setdefault(attr, ctor)
                        if ctor in project.classes:
                            cls.attr_types.setdefault(attr, ctor)
                elif isinstance(value, ast.Name) and value.id in params:
                    t = params[value.id]
                    if t is not None:
                        cls.attr_types.setdefault(attr, t)


class _LocalTypes:
    """Receiver types inside one function: annotations + constructor calls."""

    def __init__(self, project: Project, info: FunctionInfo) -> None:
        self.project = project
        self.info = info
        self.types: dict[str, str] = {}
        args = info.node.args
        for p in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            t = _annotation_class(p.annotation, project, info.module)
            if t is not None:
                self.types[p.arg] = t
        if info.is_method and info.positional_params():
            self.types[info.positional_params()[0]] = info.class_qualname

    def note_assign(self, stmt: ast.stmt) -> None:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
            t = _annotation_class(stmt.annotation, self.project, self.info.module)
            if t is not None and isinstance(stmt.target, ast.Name):
                self.types[stmt.target.id] = t
            value = stmt.value
        if isinstance(value, ast.Call):
            ctor = self.project.resolve(self.info.module, value.func)
            if ctor in self.project.classes:
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.types[target.id] = ctor

    def type_of(self, expr: ast.AST) -> str | None:
        """Class qualname of an expression, when inferable."""
        if isinstance(expr, ast.Name):
            return self.types.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            recv_type = self.types.get(expr.value.id)
            if recv_type is not None:
                cls = self.project.classes.get(recv_type)
                while cls is not None:
                    if expr.attr in cls.attr_types:
                        return cls.attr_types[expr.attr]
                    cls = (
                        self.project.classes.get(cls.bases[0])
                        if cls.bases
                        else None
                    )
        return None


def _function_body_nodes(fn: ast.AST):
    """Walk a function body, *excluding* nested function/class bodies."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNC, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _resolve_call(
    project: Project,
    info: FunctionInfo,
    types: _LocalTypes,
    call: ast.Call,
) -> tuple[str, bool] | None:
    """(canonical callee, external?) for one call site, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        # nested defs in enclosing scopes shadow module/global names
        resolved = project.resolve(info.module, func, scope=info.qualname)
        if resolved in project.functions:
            return resolved, False
        if resolved in project.classes:
            init = project.method_resolution(resolved, "__init__")
            return (init, False) if init else (resolved, False)
        if resolved is not None and resolved != name:
            return resolved, True
        return name, True
    if isinstance(func, ast.Attribute):
        # method call on an inferable receiver
        recv_type = types.type_of(func.value)
        if recv_type is not None:
            target = project.method_resolution(recv_type, func.attr)
            if target is not None:
                return target, False
            return f"{recv_type}.{func.attr}", True
        resolved = project.resolve(info.module, func)
        if resolved in project.functions:
            return resolved, False
        if resolved in project.classes:
            init = project.method_resolution(resolved, "__init__")
            return (init, False) if init else (resolved, False)
        if resolved is not None:
            return resolved, True
    return None


def _build_call_graph(project: Project) -> None:
    for fq, info in project.functions.items():
        types = _LocalTypes(project, info)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                types.note_assign(node)
        for node in _function_body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve_call(project, info, types, node)
            if resolved is None:
                continue
            callee, external = resolved
            edge = CallEdge(
                caller=fq,
                callee=callee,
                external=external,
                path=info.path,
                line=getattr(node, "lineno", 0),
            )
            project._out.setdefault(fq, []).append(edge)
            project._by_call_node[id(node)] = edge


def _canonical_decorator(project: Project, module: str, dotted: str) -> str:
    """Canonical qualname of a decorator (module-local names included)."""
    local = project.canonical(f"{module}.{dotted}")
    if local in project.functions or local in project.classes:
        return local
    return project.canonical(dotted) or dotted


def _add_file(
    project: Project, source: str, module: str, path: str, is_package: bool
) -> None:
    """Parse one source into the project, or record why it cannot be."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        project.parse_findings.append(
            Finding(
                rule=PARSE_ERROR_RULE,
                message=f"cannot parse: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                col=max((exc.offset or 1) - 1, 0),
            )
        )
        return
    # every node learns its parent, so rules can walk upward freely
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]
    project.files[module] = ProjectFile(
        path=path,
        module=module,
        source=source,
        tree=tree,
        is_package=is_package,
        imports=_resolved_imports(tree, module, is_package),
        suppressions=Suppressions.parse(source.splitlines()),
    )


def _link(project: Project) -> Project:
    """Build the symbol table, class tables and call graph over the files."""
    for pf in project.files.values():
        _collect_symbols(project, pf)
    for info in project.functions.values():
        info.decorators = [
            _canonical_decorator(project, info.module, dec)
            for dec in info.decorators
        ]
    _resolve_class_tables(project)
    _build_call_graph(project)
    return project


def build_project(paths: list[Path], root: Path | None = None) -> Project:
    """Read and parse every file under ``paths`` once; assemble the project.

    Paths display relative to ``root`` when they lie under it.  Files
    that cannot be read or parsed contribute a ``parse-error`` finding
    and are skipped; everything else joins the symbol table and call
    graph.
    """
    project = Project()
    for path in discover(paths):
        display = path
        if root is not None:
            try:
                display = path.resolve().relative_to(Path(root).resolve())
            except ValueError:
                display = path
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            project.parse_findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    message=f"cannot read: {exc}",
                    path=str(display),
                    line=0,
                )
            )
            continue
        _add_file(
            project,
            source,
            module_name_for(display),
            str(display),
            is_package=path.name == "__init__.py",
        )
    return _link(project)


def project_from_source(
    source: str, module: str = "<module>", path: str = "<string>"
) -> Project:
    """A one-file project built from a source string."""
    project = Project()
    _add_file(project, source, module, path, is_package=False)
    return _link(project)
