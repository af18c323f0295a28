"""The package's design rules, checked on its source.

Each test reads `src/ergopt` as text or as a syntax tree, never by
importing it, and its docstring names the rule. A rule that greps
applies its regular expression line by line, as grep does; a rule that
walks the tree walks the trees parsed once for the whole module.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ergopt"
SOLVE = ("tropical", "subactions", "pipeline")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.fixture(scope="module")
def sources():
    """Module name -> (source text, syntax tree), for every module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found[path.stem] = (text, ast.parse(text, str(path)))
    missing = {*SOLVE, "potential", "oracle", "instances", "cli"} - set(found)
    assert not missing, f"{PACKAGE} lacks {sorted(missing)}"
    return found


def grep(sources, pattern, names=None):
    """`name:line: text` of every line of the named modules (all by
    default) that `pattern` matches."""
    regex = re.compile(pattern)
    return [f"{name}:{i}: {line.strip()}"
            for name in (names or sorted(sources))
            for i, line in enumerate(sources[name][0].splitlines(), 1)
            if regex.search(line)]


def mentions(node):
    """The names `node` itself holds: a name, an attribute, a definition
    or an imported name."""
    return {getattr(node, field, None) for field in ("id", "attr", "name")} - {None}


def test_no_bare_asserts(sources):
    """No bare asserts in the package: python -O strips assert
    statements, so invariant checks raise InternalError, which the CLI
    maps to exit 6."""
    found = grep(sources, r"^\s*assert ") + grep(sources, r"raise AssertionError")
    assert not found, "\n".join(found)


def test_no_word_lists_in_the_solver_layers(sources):
    """No word lists in the solver layers: words are built only where
    they are printed or parsed, so the solver layers read no graph's
    edges, name neither the oracle's WordGraph nor its Edge, and read no
    edge's word."""
    found = grep(sources, r"\.edges\b", (*SOLVE, "potential"))
    for name in (*SOLVE, "potential"):
        for node in ast.walk(sources[name][1]):
            found += [f"{name}: names {word} (line {node.lineno})"
                      for word in sorted(mentions(node) & {"WordGraph", "Edge"})]
            if isinstance(node, ast.Attribute) and node.attr == "word":
                found.append(f"{name}: reads .word (line {node.lineno})")
    assert not found, "\n".join(found)


def test_one_word_speller(sources):
    """One word speller: instances.word_texts spells every word list the
    CLI prints or writes and instances.parse_word reads every word cell,
    so cli uses the oracle's WordGraph only in _oracle_checks, reads no
    edge's word, names no admissible_words (verify matches out-of-order
    rows by count and admissibility, with no word list), and no second
    speller or cell reader is defined in the package."""
    found = []
    tree = sources["cli"][1]
    [checks] = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "_oracle_checks"]
    inside = set(map(id, ast.walk(checks)))
    for node in ast.walk(tree):
        if ("WordGraph" in mentions(node) and id(node) not in inside
                and not isinstance(node, ast.alias)):
            found.append(f"cli: names WordGraph outside _oracle_checks (line {node.lineno})")
        if isinstance(node, ast.Attribute) and node.attr == "word":
            found.append(f"cli: reads .word (line {node.lineno})")
        if "admissible_words" in mentions(node):
            found.append(f"cli: names admissible_words (line {node.lineno})")
    banned = {"WordTemplates", "csv_words", "_cell_word"}
    for name, (_, tree) in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defined = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = node.id
            else:
                continue
            if defined in banned:
                found.append(f"{name}: {defined} defined (line {node.lineno})")
    assert not found, "\n".join(found)


def test_no_table_dict_in_the_solve(sources):
    """No table dict in the solve: a potential holds one value per
    admissible word in word order, the edge order of its working graph,
    so a solve reads `values` as they are, compile_weights sorts nothing,
    and the two-sided reduction takes its minima block by block without
    reading the word-keyed `table`."""
    found = grep(sources, r"\.table\b", SOLVE)
    body = sources["potential"][1].body
    [compile_weights] = [f for f in body
                         if isinstance(f, ast.FunctionDef) and f.name == "compile_weights"]
    [reduce_two_sided] = [f for f in body
                          if isinstance(f, ast.FunctionDef) and f.name == "reduce_two_sided"]
    found += [f"potential.compile_weights sorts (line {call.lineno})"
              for call in ast.walk(compile_weights)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "sorted"]
    found += [f"potential.reduce_two_sided reads .table (line {node.lineno})"
              for node in ast.walk(reduce_two_sided)
              if isinstance(node, ast.Attribute) and node.attr == "table"]
    assert not found, "\n".join(found)


def test_one_path_minima_kernel(sources):
    """One path-minima kernel: every Bellman-Ford row runs through
    tropical._path_minima, and the dense barrier path stays on integers.
    (The dense phi against one search per node is
    test_tropical.py::TestFeedbackRows.)"""
    found = grep(sources, r"def _relax\b") + grep(sources, r"\b(Fraction|_unscale)\b",
                                                  ["pipeline"])
    assert not found, "\n".join(found)


def test_one_min_plus_relay(sources):
    """One min-plus relay: the elementwise minimum of c + row over
    (c, row) pairs, behind the dense phi's relayed rows, h and the
    calibrated family, is tropical._relay, so no comprehension of the
    form `x if x <= c + y else c + y` appears in tropical or subactions
    outside it."""
    found = []
    for name in ("tropical", "subactions"):
        tree = sources[name][1]
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, FUNCTIONS) and fn.name == "_relay" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.IfExp) and id(node) not in allowed
                    and isinstance(node.test, ast.Compare)
                    and [type(op) for op in node.test.ops] == [ast.LtE]
                    and isinstance(node.test.comparators[0], ast.BinOp)
                    and isinstance(node.test.comparators[0].op, ast.Add)
                    and ast.dump(node.body) == ast.dump(node.test.left)
                    and ast.dump(node.orelse) == ast.dump(node.test.comparators[0])):
                found.append(f"{name}: a min-plus relay outside _relay (line {node.lineno})")
    assert not found, "\n".join(found)


def test_one_solved_system(sources):
    """One solved system: a solve returns its critical structure, which
    holds the graph, weights and abar, and a solve and the oracle read
    the system from the potential, so no function takes crit next to any
    of them or sft next to a potential, and no record stores crit or a
    potential as a field."""
    found = []
    pairs = (({"crit"}, {"graph", "weights", "abar"}), ({"potential", "ahat"}, {"sft"}))
    for name, (_, tree) in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                a = node.args
                args = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                found += [f"{name}: {node.name} (line {node.lineno}) takes "
                          f"{sorted(args & held)} with {sorted(args & copies)}"
                          for held, copies in pairs if args & held and args & copies]
            elif isinstance(node, ast.ClassDef):
                fields = {s.target.id for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
                if fields & {"crit", "potential"}:
                    found.append(f"{name}: {node.name} (line {node.lineno}) stores "
                                 f"{sorted(fields & {'crit', 'potential'})}")
    assert not found, "\n".join(found)


def test_oracle_off_the_solver(sources):
    """Oracle off the solver: the oracle is the independent check of the
    solver, so the closure of the relative imports of oracle, potential
    and instances holds none of tropical, subactions, pipeline or cli;
    and the solve reads no file format, so the closure of tropical,
    subactions and pipeline holds neither instances nor cli. The oracle
    wires its own graph from words: it names no solver graph builder and
    reads no int array of a solver graph."""
    imports = {name: {node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
               for name, (_, tree) in sources.items()}
    found = []
    rules = ((("oracle", "potential", "instances"), {*SOLVE, "cli"}),
             (SOLVE, {"instances", "cli"}))
    for roots, banned in rules:
        for root in roots:
            closure, todo = set(), [root]
            while todo:
                for dep in imports[todo.pop()] - closure:
                    closure.add(dep)
                    todo.append(dep)
            if closure & banned:
                found.append(f"{root} imports {sorted(closure)}")
    builders = {"DeBruijnGraph", "refine", "line_graph", "lift_to"}
    arrays = {"tails", "heads", "lasts", "in_edges"}
    for node in ast.walk(sources["oracle"][1]):
        if isinstance(node, ast.Attribute) and node.attr in arrays:
            found.append(f"oracle reads .{node.attr} (line {node.lineno})")
        found += [f"oracle names {name} (line {node.lineno})"
                  for name in sorted(mentions(node) & builders)]
    assert not found, "\n".join(found)


def test_one_slack_reader(sources):
    """One slack reader: every sub-action function reads the slacks of
    node values through the lift of subactions._lift. lift_critical's
    explicit lift is what that builds at the graph order and, above it,
    the tests' reference, so no other code in the package calls it."""
    found = []
    for name, (_, tree) in sources.items():
        allowed = set()
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                if fn.name in {"_slacks", "_calibrated"}:
                    found.append(f"{name}: def {fn.name} (line {fn.lineno})")
                if name == "subactions" and fn.name == "_lift":
                    allowed.update(map(id, ast.walk(fn)))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and id(call) not in allowed:
                called = getattr(call.func, "id", getattr(call.func, "attr", None))
                if called == "lift_critical":
                    found.append(f"{name}: lift_critical called (line {call.lineno})")
    assert not found, "\n".join(found)
