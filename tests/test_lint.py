"""Static checks on the package source."""

import ast
import inspect
import re
from pathlib import Path

import emseg
from emseg.closure import _search

SOURCES = sorted(p for p in Path(emseg.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    assert SOURCES
    unused = {p.name: found for p in SOURCES if (found := _unused_imports(p))}
    assert unused == {}


def _module_privates(node):
    """The _private names a module-level statement defines: a function, or
    the plain names an assignment binds."""
    if isinstance(node, ast.FunctionDef):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _unreferenced_privates(trees):
    """Module-level _private functions and _NAME = ... assignments that no
    module of trees (file name -> ast) reads."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted((name, private) for name, tree in trees.items()
                  for node in tree.body
                  for private in _module_privates(node)
                  if private not in referenced)


def test_no_unreferenced_private_names():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in Path(emseg.__file__).parent.glob("*.py")}
    assert _unreferenced_privates(trees) == []


def test_unreferenced_private_names_are_found():
    source = ("_ROW_RE = 1\n_USED: int = 2\n_SPAN = _USED\n__all__ = []\n"
              "def _helper():\n    return _SPAN\n")
    assert _unreferenced_privates({"m.py": ast.parse(source)}) == [
        ("m.py", "_ROW_RE"), ("m.py", "_helper")]


def _is_call_of(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _callers(name, callee):
    """Names of the module-level functions of the module `name` that call
    callee(...), with None for a call outside any function."""
    path = Path(emseg.__file__).parent / name
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for sub in ast.walk(node):
            if _is_call_of(sub, callee):
                found.add(owner)
    return found


def test_operator_formulas_live_in_the_row_level_cores():
    """Rows are made only by the row-level cores of ops, so no formula is
    copied into a wrapper, a composite or the search."""
    cores = {"exchange_pair", "ui_rows", "dual_row", "split_pair"}
    assert _callers("ops.py", "Row") <= cores
    assert _callers("closure.py", "Row") == set()


def test_merging_hats_is_the_dual_ui_dual_composite():
    """merge_hats states no merge of its own: it hands the pair's image in
    the dual to dual_ui_dual, which runs dual and ui and sorts nothing."""
    assert "merge_hats" in _callers("ops.py", "dual_ui_dual")
    assert "dual_ui_dual" in _callers("ops.py", "dual")
    assert "dual_ui_dual" not in _callers("ops.py", "to_sorted")


def test_closure_trusts_the_rows_the_cores_build():
    """The search stores the row tuples the cores built: closure.py checks
    no row again with make_row and builds no MultiSegment(...)."""
    assert _callers("closure.py", "make_row") == set()
    assert _callers("closure.py", "MultiSegment") == set()


def test_closure_and_canonical_share_one_search_loop():
    """_search is the one breadth-first loop of closure.py: only closure,
    canonical and are_equivalent run it.  are_equivalent runs it once,
    from ms1, and calls neither closure nor canonical, so no second search
    of ms2's class comes back."""
    assert _callers("closure.py", "_search") == {
        "closure", "canonical", "are_equivalent"}
    assert "are_equivalent" not in (_callers("closure.py", "closure")
                                    | _callers("closure.py", "canonical"))


def test_the_search_checks_no_state_with_valid_state():
    """_valid_state, the full check with (P), checks only a seed, the moves
    neighbors lists and are_equivalent's ms2: _search checks a candidate
    by its ids' ok flags alone, since no move of a valid state breaks (P),
    and no (P) check comes back into its loop."""
    assert _callers("closure.py", "_valid_state") == {
        "_seed_table", "neighbors", "are_equivalent"}
    assert _callers("closure.py", "order_admissible") == {"_valid_state"}


def test_build_trusts_its_checked_coordinates():
    """build makes the rows of checked (S, T) directly:
    sdata.py checks no row with make_row and builds no MultiSegment(...)."""
    assert _callers("sdata.py", "make_row") == set()
    assert _callers("sdata.py", "MultiSegment") == set()


def test_build_makes_each_row_once_per_block():
    """sdata.py makes a Row only for theta1's lift hat and in the miss
    path of the block's row table in _rows: under an `if ... is None`,
    bound to a name that the same branch then stores in the table as its
    own key.  No path goes back to one fresh Row per row of a member."""
    assert _callers("sdata.py", "Row") == {"_rows", "theta1"}
    path = Path(emseg.__file__).parent / "sdata.py"
    rows_fn = next(node for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_rows")
    made = [node for node in ast.walk(rows_fn) if _is_call_of(node, "Row")]
    misses = [node for node in ast.walk(rows_fn) if isinstance(node, ast.If)
              and isinstance(node.test, ast.Compare)
              and isinstance(node.test.ops[0], ast.Is)
              and isinstance(node.test.comparators[0], ast.Constant)
              and node.test.comparators[0].value is None]
    assert len(made) == 1 and len(misses) == 1
    made_at, stored_at = misses[0].body
    assert made_at.value is made[0]
    (name,) = made_at.targets
    (store,) = stored_at.targets
    assert isinstance(store, ast.Subscript)
    assert ast.unparse(store.value) == "table"
    assert [ast.unparse(store.slice), ast.unparse(stored_at.value)] == [
        name.id, name.id]


def test_splits_of_a_column_range_are_one_walk():
    """S-tuples and T-refinements are both splits of a run of columns:
    _splits, one product over the column boundaries, is the only walk
    that makes them, and sdata.py keeps no hand-written loop beside it."""
    assert _callers("sdata.py", "_splits") == {"iter_S", "_partitions_of"}
    path = Path(emseg.__file__).parent / "sdata.py"
    assert not [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.While)]


def test_a_split_of_a_column_range_has_one_check():
    """Whether parts split a column range is one predicate, _is_split:
    validate_S asks it of an S-tuple (overlaps where mult(c) > 1) and
    validate_T of each T-part (no overlap); no other function checks a
    split."""
    assert _callers("sdata.py", "_is_split") == {"validate_S", "validate_T"}


def test_the_search_has_no_edges_knob():
    """_search always records the exchange edges; canonical ignores them,
    and no argument switches them off."""
    path = Path(emseg.__file__).parent / "closure.py"
    search = next(node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_search")
    assert [arg.arg for arg in search.args.args] == [
        "table", "moves", "max_states", "max_depth"]
    assert not (search.args.kwonlyargs or search.args.vararg
                or search.args.kwarg or search.args.defaults)


def test_the_search_yields_each_level():
    """_search is a generator that yields once per level, so a caller such
    as are_equivalent stops at the level that answers it, and a per-level
    figure needs no new parameter."""
    assert inspect.isgeneratorfunction(_search)


def test_only_core_checks_rows():
    """Rows are checked once, at the boundary in core (make_row, parse,
    from_json and the constructors).  ops, closure, sdata, blocks and the
    other modules trust their checked input and the rows their row-level
    cores build, and call no make_row."""
    for name in ("ops.py", "closure.py", "sdata.py", "blocks.py"):
        assert _callers(name, "make_row") == set(), name
    assert {p.name for p in SOURCES if _callers(p.name, "make_row")} == {
        "core.py"}


def test_rows_are_checked_in_one_loop():
    """_made_rows, the row-check loop, runs only under _checked, the one
    path of make_row and the constructors, and parse."""
    assert _callers("core.py", "_made_rows") == {"_checked", "parse"}
    for p in SOURCES:
        if p.name != "core.py":
            assert _callers(p.name, "_made_rows") == set(), p.name


def test_the_boundary_rule_lives_in_core():
    """The plain-int check _integer, the limit check _limit and the sign
    check _eta are defined only in core.py, and no module tests
    isinstance(..., int) but core._shown, which only picks how to show a
    value in a message: every other integer test is type(v) is int."""
    checks = {"_integer", "_limit", "_eta"}
    for p in SOURCES:
        tree = ast.parse(p.read_text(), str(p))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert defined & checks == (checks if p.name == "core.py"
                                    else set()), p.name
    assert {(p.name, owner) for p in SOURCES
            for owner in _callers(p.name, "isinstance")
            if _tests_int(p.name, owner)} == {("core.py", "_shown")}


def _tests_int(name, owner):
    """Whether the module-level function owner of the module `name` calls
    isinstance with int among its types."""
    path = Path(emseg.__file__).parent / name
    fn = next(node for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name == owner)
    return any(_is_call_of(node, "isinstance") and "int" in {
        sub.id for sub in ast.walk(node.args[1]) if isinstance(sub, ast.Name)}
        for node in ast.walk(fn))


def test_blocks_are_counted_through_the_method_table():
    """count.METHODS names each count_block_* once: cli's count --M and
    verify_instance go through it and call none of them directly."""
    methods = ("count_block_recursive", "count_block_enumerative",
               "count_block_closure")
    for name in ("cli.py", "count.py"):
        for method in methods:
            assert _callers(name, method) == set(), (name, method)


def test_cli_reads_integers_in_one_place():
    """Every integer the command line takes goes through
    cli._read_int, the ASCII-digit reader: only it calls int(), and no
    flag has type=int."""
    assert _callers("cli.py", "int") == {"_read_int"}
    path = Path(emseg.__file__).parent / "cli.py"
    assert not [kw for kw in ast.walk(ast.parse(path.read_text()))
                if isinstance(kw, ast.keyword) and kw.arg == "type"
                and isinstance(kw.value, ast.Name) and kw.value.id == "int"]


def test_operator_positions_are_checked_in_one_place():
    """Every operator of ops that takes a row position after the symbol
    checks it with _rows_at: directly, or through the operator it hands
    the position to (ui through ui_type, dual_ui_dual through ui)."""
    path = Path(emseg.__file__).parent / "ops.py"
    takers = {node.name for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and [a.arg for a in node.args.args][:1] == ["ms"]
              and len(node.args.args) > 1}
    assert takers == {"row_exchange", "ui_type", "ui", "dual_ui_dual",
                      "merge_hats", "split_circles"}
    checked = _callers("ops.py", "_rows_at")
    assert checked == takers - {"ui", "dual_ui_dual"}
    assert "ui" in _callers("ops.py", "ui_type")
    assert "dual_ui_dual" in _callers("ops.py", "ui")


def test_cli_leaves_operator_positions_to_ops():
    """apply hands --k to the operator as it is: _cmd_apply measures no
    row count, and _OPS holds only each operator's call, no arity."""
    assert "_cmd_apply" not in _callers("cli.py", "len")
    path = Path(emseg.__file__).parent / "cli.py"
    ops_table = next(node.value for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.Assign)
                     and ast.unparse(node.targets[0]) == "_OPS")
    assert not [v for v in ops_table.values if isinstance(v, ast.Tuple)]


def _imported(name):
    """The names the module `name` imports."""
    path = Path(emseg.__file__).parent / name
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_the_lift_family_is_built_without_operators():
    """theta_family makes each lift as build does, a member of the block
    with one more column: sdata.py imports neither ops nor any name that
    ops.py defines."""
    path = Path(emseg.__file__).parent / "ops.py"
    tree = ast.parse(path.read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {name.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets for name in ast.walk(target)
                if isinstance(name, ast.Name)}
    assert {"merge_hats", "OpResult", "T3PRIME"} <= defined
    assert not _imported("sdata.py") & (defined | {"ops"})


def test_closure_sorts_and_dualizes_on_ids():
    """The dual-conjugated moves stay on row ids: closure.py sorts no rows
    with to_sorted, tests no (P') order with order_sorted and sums no
    parities with a per-state dual_parities."""
    assert not _imported("closure.py") & {
        "to_sorted", "order_sorted", "dual_parities"}


def test_dual_flip_rule_lives_in_ops():
    """ops.dual_flip is the one statement of the parity at which a row is
    dualized: only ops.py defines it, every dual_row call takes its flip
    from it, and closure.py takes no parity of its own."""
    calls = 0
    for p in SOURCES:
        tree = ast.parse(p.read_text(), str(p))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert ("dual_flip" in defined) == (p.name == "ops.py"), p.name
        for node in ast.walk(tree):
            if _is_call_of(node, "dual_row"):
                assert _is_call_of(node.args[1], "dual_flip"), p.name
                calls += 1
        if p.name == "closure.py":
            assert not [node for node in ast.walk(tree)
                        if isinstance(node, ast.BinOp)
                        and isinstance(node.op, (ast.BitAnd, ast.Mod))]
    assert calls == 2


def test_no_module_imports_dataclasses():
    """The value classes are plain classes on core._Value and the records
    are named tuples: dataclasses would load inspect, ast and dis at every
    start of the command line."""
    for p in Path(emseg.__file__).parent.glob("*.py"):
        names = {alias.name.split(".")[0] if isinstance(node, ast.Import)
                 else (node.module or "").split(".")[0]
                 for node in ast.walk(ast.parse(p.read_text(), str(p)))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        assert "dataclasses" not in names, p.name


def test_the_block_rule_lives_in_the_block_constructor():
    """A BlockTuple is a block: BlockTuple.__init__ refuses an even
    multiplicity, and no module keeps a check of its own for an entry
    point, no _check_block, and no other "odd multiplicities" text."""
    found = []
    for p in Path(emseg.__file__).parent.glob("*.py"):
        tree = ast.parse(p.read_text(), str(p))
        assert "_check_block" not in {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}, p.name
        found += [(p.name, n) for n, line in
                  enumerate(p.read_text().splitlines(), 1)
                  if "odd multiplicities" in line]
    path = Path(emseg.__file__).parent / "blocks.py"
    init = next(node for cls in ast.parse(path.read_text()).body
                if isinstance(cls, ast.ClassDef) and cls.name == "BlockTuple"
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    assert found and all(name == "blocks.py"
                         and init.lineno <= n <= init.end_lineno
                         for name, n in found), found


def test_the_block_walk_keeps_plain_entries():
    """block_tuples walks the runs with plain (c_min, mults, eta) entries:
    it defines no nested function, and it makes its BlockTuples only in
    its return, from the finished entries."""
    path = Path(emseg.__file__).parent / "blocks.py"
    walk = next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "block_tuples")
    assert not [node for node in ast.walk(walk) if node is not walk
                and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    made = [node for node in ast.walk(walk) if _is_call_of(node, "BlockTuple")]
    returned = [node for ret in ast.walk(walk) if isinstance(ret, ast.Return)
                for node in ast.walk(ret) if _is_call_of(node, "BlockTuple")]
    assert len(made) == 1 and made == returned


# The entries of an Arthur pair (a, b) of a row: its attributes a and b,
# or their formulas A + B + 1 and A - B + 1.
_PAIR_ENTRIES = (re.compile(r".+\.a|.*\bA \+ B \+ 1"),
                 re.compile(r".+\.b|.*\bA - B \+ 1"))


def _pair_makers(tree):
    """Names of the functions of tree that make an Arthur pair: a tuple
    of two entries that _PAIR_ENTRIES match in order."""
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Tuple) and len(node.elts) == 2
            and all(pattern.fullmatch(ast.unparse(entry))
                    for pattern, entry in zip(_PAIR_ENTRIES, node.elts))}


def test_the_arthur_pair_is_made_only_by_row():
    """The (a, b) formula lives in Row.ab alone: arthur_parameter reads
    the ab of each row, and closure.py makes no pair of its own, nor
    keeps a per-id ab table in _Rows."""
    assert _pair_makers(ast.parse(
        "def f(ms):\n    return [(A + B + 1, A - B + 1) for A, B, _, _ in ms]\n"
        "def g(row):\n    return row.a, row.b\n"
        "def h(row):\n    return row.b, row.a\n")) == {"f", "g"}
    makers = {p.name: found for p in SOURCES
              if (found := _pair_makers(ast.parse(p.read_text())))}
    assert makers == {"core.py": {"ab"}}
    assert "r.ab" in inspect.getsource(emseg.arthur_parameter)
    path = Path(emseg.__file__).parent / "closure.py"
    table = next(node for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.ClassDef) and node.name == "_Rows")
    assert "ab" not in {node.attr for node in ast.walk(table)
                        if isinstance(node, ast.Attribute)}

