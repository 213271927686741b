"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "subsetphase").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so no correctness check may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


# names of the circuit view that the drivers must not reach for
CIRCUIT_NAMES = ("apply_circuit", "Circuit")


def _circuit_name(name: str) -> bool:
    return name in CIRCUIT_NAMES or name.endswith("_thermalizer")


def test_drivers_run_programs_only():
    # every driver loop runs packed array programs; ``Circuit`` objects
    # are for ``gen``, ``sim`` and the tests
    path = Path(__file__).resolve().parents[1] / "src" / "subsetphase" / "drivers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(a.name, node.lineno) for a in node.names if _circuit_name(a.name.rpartition(".")[2])]
        elif isinstance(node, ast.Attribute) and _circuit_name(node.attr):
            found.append((node.attr, node.lineno))
    assert found == [], f"drivers.py reaches for circuit objects: {found}"


def _nodes_by_function(match) -> list[tuple[ast.AST, str]]:
    """Every node under ``src/`` that ``match`` accepts, with the innermost
    function around it, as (node, "module.function")."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module: str):
            self.scope = [module]

        def visit(self, node):
            if match(node):
                found.append((node, f"{self.scope[0]}.{self.scope[-1]}"))
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if function:
                self.scope.append(node.name)
            self.generic_visit(node)
            if function:
                self.scope.pop()

    for path in SOURCES:
        Visitor(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def _names(node: ast.AST, name: str) -> bool:
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def _calls_by_function(name: str) -> list[tuple[ast.Call, str]]:
    """Every call of ``name`` under ``src/`` with the innermost function
    that makes it, as (call, "module.function")."""
    return _nodes_by_function(lambda node: isinstance(node, ast.Call) and _names(node.func, name))


READER = "_draw_stages"
PROGRAMS = {"gate-opt": "gate_opt_program", "depth-opt": "depth_opt_program", "sign": "sign_program"}
# the stream openers: a Generator, and one raw read of a block of streams
OPENERS = ("stream", "stream_words")


def test_each_generator_stream_is_consumed_in_one_function():
    # one reader opens every generator stream, one per (generator, stage):
    # the stage is the last tag, read from the stage table's row
    users = set()
    for opener in OPENERS:
        for call, where in _calls_by_function(opener):
            args = [a.value if isinstance(a, ast.Constant) else None for a in call.args]
            if "gen" in args[:-1]:
                assert len(args) == args.index("gen") + 3, f"{where}: a gen stream without a stage tag"
                assert getattr(call.args[-1], "attr", None) == "stage", f"{where}: the last tag is not a stage"
                users.add(where)
    assert users == {f"generators.{READER}"}, f"generator streams opened in {sorted(users)}"


GENERATORS = Path(__file__).resolve().parents[1] / "src" / "subsetphase" / "generators.py"
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_depths(fn: ast.FunctionDef) -> list[tuple[ast.AST, int]]:
    """Every node of ``fn`` with the number of loops around it in ``fn``."""
    out = []

    def walk(node, depth):
        out.append((node, depth))
        for child in ast.iter_child_nodes(node):
            walk(child, depth + isinstance(node, LOOPS))

    walk(fn, 0)
    return out


def test_generators_draw_stage_blocks_not_rounds():
    # a stage's streams are read in one raw read for the whole block of
    # seeds: the reader's only opener sits in its stage loop, never in a
    # loop inside it (per seed or per round), and nothing in generators
    # draws through a Generator
    tree = ast.parse(GENERATORS.read_text(), filename=str(GENERATORS))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert not {fn.name for fn in functions} & {"_rmc_draw", "_prmc_draw"}, "a per-round sampler is back"
    opened = [
        (fn.name, node.func.id, depth)
        for fn in functions
        for node, depth in _loop_depths(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in OPENERS
    ]
    assert {name for name, _, _ in opened} == {READER}
    assert {(opener, depth) for _, opener, depth in opened} == {("stream_words", 1)}, opened


# the per-trial openers a block of trials reads through ``rng``'s block
# reader instead: ``block_seeds`` and ``TrialStreams``
PER_TRIAL = ("stream", "derive_seed")


def _draw_closures(path: Path) -> dict[str, ast.FunctionDef]:
    """Every function of ``path`` passed to ``run_blocks`` as its ``draw``,
    by "function.closure" name."""
    closures = {}
    tree = ast.parse(path.read_text(), filename=str(path))
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        inner = {node.name: node for node in ast.walk(outer) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(outer):
            if isinstance(node, ast.Call) and _names(node.func, "run_blocks"):
                draw = node.args[2].id
                closures[f"{outer.name}.{draw}"] = inner[draw]
    return closures


def test_trial_blocks_open_no_stream_per_trial():
    # a block of trials derives its seeds and reads its copy pools once,
    # through one re-keyed Philox: no draw closure opens a stream or
    # derives a seed in a loop over its trials
    closures = {
        f"{path.stem}.{name}": fn
        for path in (SRC / "subsetphase" / "drivers.py", SRC / "subsetphase" / "cli.py")
        for name, fn in _draw_closures(path).items()
    }
    assert sorted(closures) == [
        "cli.sim.draw", "drivers._bit_span.draw", "drivers._sign_span.draw", "drivers.moment_states.draw",
    ], sorted(closures)
    per_trial = [
        (where, node.func.id, node.lineno)
        for where, fn in closures.items()
        for node, depth in _loop_depths(fn)
        if depth and isinstance(node, ast.Call) and getattr(node.func, "id", None) in PER_TRIAL
    ]
    assert per_trial == [], per_trial


def _xor(node: ast.AST) -> bool:
    return (
        isinstance(node, (ast.AugAssign, ast.BinOp)) and isinstance(node.op, ast.BitXor)
    ) or (isinstance(node, ast.Attribute) and node.attr == "bitwise_xor")


def _in_loops(path: Path, match) -> list[tuple[str, ast.AST]]:
    """Every node of ``path`` that ``match`` accepts and that sits in a
    loop or comprehension of its innermost function, with that function
    as "module.outer.inner"."""
    found = []

    def walk(node, scope, depth):
        if depth and match(node):
            found.append((scope, node))
        function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        inner = f"{scope}.{node.name}" if function else scope
        for child in ast.iter_child_nodes(node):
            walk(child, inner, 0 if function else depth + isinstance(node, LOOPS))

    walk(ast.parse(path.read_text(), filename=str(path)), path.stem, 0)
    return found


def test_one_gf2_elimination():
    # a rank is one batched elimination, ``f2linalg.ranks``: the only
    # loop of ``src/`` that XORs, beside the kernel applying its flips.
    # ``rank`` of one matrix calls it, and every other caller hands it a
    # block of trials
    xors = sorted({where for path in SOURCES for where, _ in _in_loops(path, _xor)})
    assert xors == ["copysim.run_steps", "f2linalg.ranks"], xors
    callers = sorted(where for _, where in _calls_by_function("ranks"))
    assert callers == ["cli.sim", "drivers._bit_span", "drivers._mc_rank_span", "f2linalg.rank"], callers


# the single-matrix rank calls and the per-trial openers
PER_TRIAL_CALLS = ("rank", "from_dense", "is_full_row_rank", "stream", "derive_seed")
# loops of ``drivers`` and ``cli`` that may make one, each with its reason
LOOPED_CALLS = {
    ("cli.bounds", "derive_seed"): "one Monte Carlo seed per grid point, not per trial",
    ("cli.scaling", "derive_seed"): "one cost-profile seed per grid point, not per trial",
    ("drivers.run_moment_experiment.oracle_states", "stream"): "the oracle sampler draws through a Generator",
}


def test_no_rank_or_stream_per_trial_in_drivers_or_cli():
    # trials are ranked and read a block at a time: no loop or
    # comprehension of ``drivers`` or ``cli`` ranks one matrix, packs one
    # into a ``BitMatrix``, opens a stream or derives a seed, but for the
    # listed loops, which are not over trials
    def called(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)

    found = {
        (where, called(node))
        for path in (SRC / "subsetphase" / "drivers.py", SRC / "subsetphase" / "cli.py")
        for where, node in _in_loops(path, lambda node: isinstance(node, ast.Call) and called(node) in PER_TRIAL_CALLS)
    }
    assert sorted(found) == sorted(LOOPED_CALLS), sorted(found)


def test_one_program_type():
    # every generator draws one array form, its kernel rows packed at
    # draw time: only the program functions pack or compact rows
    tree = ast.parse(GENERATORS.read_text(), filename=str(GENERATORS))
    programs = [node.name for node in tree.body if isinstance(node, ast.ClassDef) and node.name.endswith("Program")]
    assert programs == ["Program"], programs
    returns = {
        node.name: ast.unparse(node.returns)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in PROGRAMS.values()
    }
    assert returns == {name: "Program" for name in PROGRAMS.values()}, returns
    for name in ("pack_conditions", "_place"):
        callers = {where for _, where in _calls_by_function(name) if where.startswith("generators.")}
        assert callers and callers <= {f"generators.{f}" for f in PROGRAMS.values()}, (name, sorted(callers))


def _tag(call: ast.Call):
    first = call.args[0] if call.args else None
    return first.value if isinstance(first, ast.Constant) else None


def test_depth_opt_rounds_readers():
    # the stage reader has two kinds of readers: each generator's program,
    # which draws every block, and the one cost-profile fold, which asks
    # for the firing bits only and serves each generator's profile
    calls = _calls_by_function(READER)
    readers = sorted(where for _, where in calls)
    assert readers == sorted(["generators._cost_profile"] + [f"generators.{f}" for f in PROGRAMS.values()]), readers
    for call, where in calls:
        firing_only = [k.value.value for k in call.keywords if k.arg == "firing_only"]
        assert firing_only == ([True] if where == "generators._cost_profile" else []), where
        if where != "generators._cost_profile":
            assert PROGRAMS[_tag(call)] == where.partition(".")[2], where
    profiles = {(_tag(call), where) for call, where in _calls_by_function("_cost_profile")}
    assert profiles == {(tag, f"generators.{f.replace('_program', '_cost_profile')}") for tag, f in PROGRAMS.items()}


def test_analysis_reads_the_layout_from_generators():
    # round counts and stage tables are worked out in ``generators`` only;
    # ``analysis`` reads them through ``stage_table``
    path = Path(__file__).resolve().parents[1] / "src" / "subsetphase" / "analysis.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    banned = {"ceil_rounds", "_depth_opt_stages"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(a.name, node.lineno) for a in node.names if a.name.rpartition(".")[2] in banned]
        elif isinstance(node, ast.Name) and node.id in banned:
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append((node.attr, node.lineno))
    assert found == [], f"analysis.py works out the layout itself: {found}"


def test_bit_generators_are_built_in_rng_only():
    # every stream is named, keyed and opened in ``rng``; nothing draws
    # from a generator of numpy's own seeding
    built = {where.partition(".")[0] for name in ("Philox", "Generator") for _, where in _calls_by_function(name)}
    assert built == {"rng"}, f"bit generators built in {sorted(built)}"
    unnamed = sorted(where for name in ("default_rng", "RandomState") for _, where in _calls_by_function(name))
    assert unnamed == [], f"unnamed generators in {unnamed}"


KERNEL_CALLS = ("run_steps", "step_program")


def test_only_run_blocks_drives_the_kernel():
    # one runner decides how trials share a kernel call
    callers = {
        (name, where)
        for name in KERNEL_CALLS
        for _, where in _calls_by_function(name)
        if where.partition(".")[0] in ("drivers", "cli")
    }
    assert callers == {(name, "drivers.run_blocks") for name in KERNEL_CALLS}


def test_one_process_pool():
    # trial loops reach other processes through one helper, which picks
    # the start method and closes and joins its pool on every path
    users = sorted({where for _, where in _nodes_by_function(lambda node: _names(node, "ProcessPoolExecutor"))})
    assert users == ["drivers._map_spans"], users
    imported = [
        (where, name)
        for node, where in _nodes_by_function(lambda node: isinstance(node, (ast.Import, ast.ImportFrom)))
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
        if name and name.partition(".")[0] in ("multiprocessing", "threading")
    ]
    assert imported == [("drivers._map_spans", "multiprocessing")], imported


def _tobytes_set(node: ast.AST) -> bool:
    """A set comprehension, or ``set(...)`` of a generator, that collects
    ``.tobytes()`` values."""
    if isinstance(node, ast.Call) and _names(node.func, "set") and node.args:
        node = node.args[0]
        if not isinstance(node, ast.GeneratorExp):
            return False
    elif not isinstance(node, ast.SetComp):
        return False
    return any(isinstance(sub, ast.Call) and _names(sub.func, "tobytes") for sub in ast.walk(node.elt))


def test_one_distinctness_rule():
    # whether copies are pairwise distinct is decided by one sort,
    # ``copysim.distinct``, not by a set of row bytes per trial
    found = sorted(where for _, where in _nodes_by_function(_tobytes_set))
    assert found == [], found


# scipy subpackages that take a second or more to import between them;
# a launch needs only scipy.special's kernels (scipy.linalg's BLAS loads
# when a moment accumulates past d_sym)
HEAVY_SCIPY = (
    "scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.interpolate", "scipy.ndimage", "scipy.linalg",
)


def test_cli_import_leaves_heavy_scipy_unloaded():
    # every launch pays for what ``import subsetphase.cli`` pulls in
    probe = "import sys, subsetphase.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    loaded = set(res.stdout.split())
    assert "subsetphase.cli" in loaded
    assert sorted(loaded.intersection(HEAVY_SCIPY)) == []


# module-level functions of ``src/`` that nothing there calls, each with
# the reason it stays; the test fails when one gains a caller, too
UNCALLED = {
    "analysis.success_bound_ccx": "the full-rank verdicts are to report it (ROADMAP item 9)",
    "analysis.success_bound_mcx": "the full-rank verdicts are to report it (ROADMAP item 9)",
    "circuit.ccx_equivalent_count": "perfbench/replica.py imports it until the replica is retraced",
    "copysim.apply_circuit": "perfbench/replica.py imports it until the replica is retraced",
    "f2linalg.is_full_row_rank": "perfbench/replica.py imports it until the replica is retraced",
    "subsetstate.apply_circuit": "perfbench/replica.py imports it until the replica is retraced",
}


def _is_command(decorator: ast.expr) -> bool:
    func = getattr(decorator, "func", None)
    return getattr(func, "attr", None) in ("command", "group")


def test_every_function_has_a_caller_in_src():
    # code that only tests call lives in ``tests/``; a click command is
    # called by its group
    defined, referenced = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not any(map(_is_command, node.decorator_list))
        ]
        for node in ast.walk(tree):
            referenced.add(getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None))
    uncalled = sorted(f"{module}.{name}" for module, name in defined if name not in referenced)
    assert uncalled == sorted(UNCALLED), uncalled
