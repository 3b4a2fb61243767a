"""The package's public surface and the names the benchmark reaches into.

ssicbench/ wraps ssic functions in place (spans.TARGETS, worker.SAMPLE_AT)
and warms ssic's tables through the package (worker.setup).  Those files
are read here as source, never imported or run, so a deleted or renamed
name fails this suite instead of only the benchmark.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import ssic

BENCH = Path(__file__).resolve().parent.parent / "ssicbench"

PINNED_ALL = [
    "scramble", "lfsr_run", "seed_from_int", "mask_matrix",
    "LLR_MAX", "SoftWord",
    "seed_posterior", "z_sequence_table", "hd", "naive_sd", "hrsx", "srsx",
    "combine_streams", "decide",
    "VcHeader", "VcFrame", "encapsulate", "frame_to_bits", "decode_header_soft",
    "decode_header_hard",
    "ChannelParams", "fresh_seed", "transmit",
    "Dispatcher", "Aggregator", "AggregatorConfig", "run_network_point", "run_metrics",
    "SweepSpec", "run_sweep", "run_netsim",
]


def module_constant(path: Path, name: str):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path}")


def resolves(module: str, owner: str, attr: str) -> bool:
    obj = importlib.import_module(module)
    if owner:
        obj = getattr(obj, owner, None)
    return obj is not None and hasattr(obj, attr)


def test_traced_and_sampled_names_resolve():
    targets = module_constant(BENCH / "spans.py", "TARGETS")
    sampled = module_constant(BENCH / "worker.py", "SAMPLE_AT")
    names = [t[:3] for t in targets] + [tuple(s) for s in sampled]
    assert len(targets) >= 20 and len(sampled) == 3
    missing = [n for n in names if not resolves(*n)]
    assert not missing, f"the benchmark wraps names ssic no longer has: {missing}"


def test_names_the_benchmark_reads_from_the_package_resolve():
    tree = ast.parse((BENCH / "worker.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ssic"}
    read.discard("__file__")
    assert "SweepSpec" in read  # the walk found the reads
    assert read <= set(ssic.__all__), read - set(ssic.__all__)
    for name in read:
        assert callable(getattr(ssic, name)), name


def test_package_exports_exactly_the_pinned_names():
    assert ssic.__all__ == PINNED_ALL
    public = {name for name, value in vars(ssic).items()
              if not name.startswith("_") and type(value) is not type(ssic)}
    assert public == set(PINNED_ALL)
    star: dict = {}
    exec("from ssic import *", star)
    assert set(star) - {"__builtins__"} == set(PINNED_ALL)


def test_every_module_level_array_is_read_only():
    # a fixed table is shared by every caller, so one write would corrupt them all
    modules = [ssic] + [importlib.import_module(f"ssic.{m.name}")
                        for m in pkgutil.iter_modules(ssic.__path__)]
    arrays = {f"{m.__name__}.{name}": value for m in modules
              for name, value in vars(m).items() if isinstance(value, np.ndarray)}
    assert "ssic.descramble._PILOT_CODEBOOK" in arrays  # the walk found the tables
    writeable = [name for name, a in arrays.items() if a.flags.writeable]
    assert not writeable, f"module-level arrays that can be written: {writeable}"
