import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecover
from cyclecover import (
    Circuit,
    ConstructionResult,
    CycleCover,
    KCdc,
    PetersenColouring,
    ReductionMap,
    SccResult,
    TauResult,
    WeightSpectrum,
    contract_two_factor,
    cover_via_oddness2,
    edge_weight_spectrum,
    find_cdc,
    find_petersen_colouring,
    oddness,
    perfect_matching_index,
    petersen,
    shortest_cycle_cover,
    suppress_degree_two,
    validate,
    write_graph6,
)
from cyclecover.covers import CoverReport
from cyclecover.errors import GraphError
from cyclecover.graphs import ContractionMap


def test_all_names_resolve_once():
    names = cyclecover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cyclecover, name)]
    assert missing == []


def test_runtime_is_stdlib_only_and_single_process():
    # every absolute import of the package is a standard-library module, and
    # none of them starts threads or processes
    root = Path(cyclecover.__file__).parent
    imported = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported, "no module parsed"
    assert imported <= sys.stdlib_module_names
    assert not imported & {"threading", "multiprocessing", "concurrent", "subprocess"}


def test_private_names_in_the_readme_are_defined():
    # a backticked `_name` or `module._name` in README.md names a function,
    # class or variable defined in that module (any module without a prefix),
    # or a private module of the package (`cyclecover._engine`)
    root = Path(cyclecover.__file__).parent
    defined = {}
    for path in root.glob("*.py"):
        names = defined.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    everywhere = set().union(defined, *defined.values())
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    refs = re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)", readme)
    assert refs, "no private name found"
    stale = [f"{mod}.{name}" if mod else name for mod, name in refs
             if name not in defined.get(mod, everywhere)]
    assert stale == []


def test_import_needs_no_dataclasses():
    # the result types are plain slotted records, so importing the package
    # and its CLI pulls in neither dataclasses nor the inspect module it loads
    root = Path(cyclecover.__file__).parent
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
    code = ("import sys, cyclecover, cyclecover.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def _module_level_imports(tree):
    """The import statements that run when the module is imported: all but
    those inside a function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _imported(node):
    """The last dotted part of every name an import statement names: its
    module and the names it imports."""
    names = [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names.append(node.module or "")
    return {name.rsplit(".", 1)[-1] for name in names}


def test_cover_engine_loads_on_demand(tmp_path):
    # only weights above 2 and enumerate_circuits reach the engine, so no
    # module imports it at module level and a default analyze leaves it out
    root = Path(cyclecover.__file__).parent
    for path in root.glob("*.py"):
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            assert "_engine" not in _imported(node), path.name
    graph = tmp_path / "petersen.g6"
    graph.write_text(write_graph6(petersen()) + "\n", encoding="ascii")
    code = (
        "import contextlib, io, sys, cyclecover, cyclecover.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cyclecover.cli.main(['analyze', {str(graph)!r}, '--json', '--no-timing'])\n"
        "names = ('_CircuitSpace', '_circuits', '_CoverEngine', '_deepening', '_spectrum_over')\n"
        "print(code, 'cyclecover._engine' in sys.modules,\n"
        "      [n for n in names if hasattr(cyclecover.solvers, n)])\n"
        "k4 = cyclecover.build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])\n"
        "print(len(cyclecover.enumerate_circuits(k4)), 'cyclecover._engine' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "0 False []\n7 True\n"


def test_search_engines_are_leaves_below_solvers():
    # the matching sweep, the labelling search and the transition search
    # import nothing from the modules above them, so no import cycle forms;
    # solvers imports all three at load time, and every solver the package
    # re-exports from solvers is defined there (the benchmark's tracer names
    # its spans by ``__module__``)
    root = Path(cyclecover.__file__).parent
    for engine in ("_sweep", "_labelling", "_transitions"):
        tree = ast.parse((root / f"{engine}.py").read_text(), engine)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not _imported(node) & {"solvers", "constructions", "pcolour", "cli"}, engine
    solvers = ast.parse((root / "solvers.py").read_text())
    loaded = {node.module for node in _module_level_imports(solvers)
              if isinstance(node, ast.ImportFrom) and node.level}
    assert {"_sweep", "_labelling", "_transitions"} <= loaded
    init = ast.parse((root / "__init__.py").read_text())
    (exported,) = [[a.name for a in node.names] for node in init.body
                   if isinstance(node, ast.ImportFrom) and node.module == "solvers"]
    assert exported
    assert [name for name in exported
            if getattr(cyclecover.solvers, name).__module__ != "cyclecover.solvers"] == []


def _records():
    """One record of each of the 11 result types, from real calls on P."""
    g = petersen()
    scc = shortest_cycle_cover(g)
    factor = oddness(g)[1]
    return [
        scc.cover.circuits[0],
        scc.cover,
        find_cdc(g, k=5),
        validate(scc.cover, g),
        suppress_degree_two(g, range(g.m))[1],
        contract_two_factor(g, factor)[1],
        scc,
        edge_weight_spectrum(g),
        perfect_matching_index(g),
        cover_via_oddness2(g),
        find_petersen_colouring(g),
    ]


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_records_cover_every_result_type():
    types = {type(r) for r in _records()}
    assert types == {Circuit, CycleCover, KCdc, CoverReport, ReductionMap, ContractionMap,
                     SccResult, WeightSpectrum, TauResult, ConstructionResult,
                     PetersenColouring}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls, values = type(record), _fields(record)
    names = cls.__match_args__
    # built back from its fields, positionally or by keyword, it is equal
    assert cls(*values) == record and not cls(*values) != record
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    # equal only to records of its own class
    assert record != values and record.__eq__(values) is NotImplemented
    for other in _records():
        if type(other) is not cls:
            assert record != other
    # hashed as the tuple of its fields, exactly as a frozen dataclass hashes
    if cls in (CoverReport, ConstructionResult):  # they hold a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(values)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    # immutable: no field is assigned or deleted, and no attribute added
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == values
    # every field is required unless it has a default, once and by name
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:-1]) if cls is not TauResult else cls(values[0])
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="but [0-9]+ were given"):
        cls(*values, None)


def test_record_reprs_and_defaults():
    assert repr(Circuit((0, 1), (0, 1))) == "Circuit(edges=(0, 1), vertices=(0, 1))"
    assert repr(TauResult(None, ())) == "TauResult(tau=None, matchings=(), nodes=0)"
    assert TauResult(3, ()) == TauResult(3, (), 0) == TauResult(tau=3, matchings=(), nodes=0)
    assert TauResult(3, (), nodes=7).nodes == 7
    # records with equal fields but of two classes differ and hash alike
    a, b = Circuit((0, 1), (0, 1)), ContractionMap((0, 1), (0, 1))
    assert a != b and hash(a) == hash(b)
    assert len({a, b, Circuit((0, 1), (0, 1))}) == 2
    match a:  # positional patterns read __match_args__
        case Circuit(edges, vertices):
            assert (edges, vertices) == ((0, 1), (0, 1))
        case _:
            pytest.fail("Circuit did not match its own fields")


@pytest.mark.parametrize("call", [shortest_cycle_cover, perfect_matching_index,
                                  edge_weight_spectrum, find_petersen_colouring],
                         ids=lambda f: f.__name__)
def test_solver_results_pickle_and_copy(call):
    result = call(petersen())
    for twin in (pickle.loads(pickle.dumps(result)), copy.copy(result),
                 copy.deepcopy(result)):
        assert type(twin) is type(result) and twin == result and hash(twin) == hash(result)
        assert repr(twin) == repr(result)


def test_petersen_colouring_refuses_a_bad_assignment():
    good = find_petersen_colouring(petersen()).assignment
    for bad in (good[:-1] + (15,), good[:-1] + (-1,), good[:-1] + (None,)):
        with pytest.raises(GraphError):
            PetersenColouring(bad)
        with pytest.raises(GraphError):
            PetersenColouring(assignment=bad)
    # pickle and copy rebuild a record through its constructor, so a
    # colouring read back is checked again
    assert PetersenColouring(good).__reduce__() == (PetersenColouring, (good,))
