"""The package's public surface and the names the benchmark reaches into.

ssicbench/ wraps ssic functions in place (spans.TARGETS, worker.SAMPLE_AT)
and warms ssic's tables through the package (worker.setup).  Those files
are read here as source, and worker.setup alone is run, so a deleted or
renamed name fails this suite instead of only the benchmark.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np

import ssic

BENCH = Path(__file__).resolve().parent.parent / "ssicbench"

PINNED_ALL = [
    "scramble", "lfsr_run", "seed_from_int", "mask_matrix",
    "LLR_MAX", "SoftWord",
    "seed_posterior", "z_sequence_table", "hd", "naive_sd", "hrsx", "srsx",
    "ssic_combine",
    "FrameKey", "VcFrame", "encapsulate", "frame_to_bits", "decode_header_soft",
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


def test_the_benchmark_setup_runs_on_src():
    """worker.setup imports ssic from src and warms it through the package:
    mask_matrix, z_sequence_table and lfsr_run on all 128 register states."""
    saved_path = sys.path[:]
    sys.path.insert(0, str(BENCH))  # worker imports workloads and spans from its own folder
    try:
        worker = importlib.import_module("worker")
        assert worker.setup(BENCH.parent) is ssic
    finally:
        sys.path[:] = saved_path
        for name in ("worker", "workloads", "spans"):
            sys.modules.pop(name, None)


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


# Names spans.TARGETS wraps that no run calls through that name: the sweeps
# run the block kernels, and the other names are imported only to be traced.
# A refactor that routes a call through one of them shortens this list.
KNOWN_UNCALLED = {
    "sweeps.soft_copy", "channel.scramble",
    "descramble.seed_posterior", "sweeps.srsx", "sweeps.hrsx", "sweeps.naive_sd",
    "netstack.frame_from_bits",
}


def traced_name(module: str, owner: str, attr: str) -> str:
    """A TARGETS entry as 'netstack.Aggregator.push' or 'sweeps.soft_copy'."""
    return ".".join(filter(None, (module.removeprefix("ssic."), owner, attr)))


def test_the_runs_call_every_traced_name_but_the_known_uncalled(monkeypatch):
    """Wrap each traced name with a counter, run a small bursty netsim per soft
    variant and one packet_per sweep: the names called are exactly the traced
    ones less KNOWN_UNCALLED.  A call moved off a traced name fails this, and
    so does a name on the list that runs now call."""
    targets = module_constant(BENCH / "spans.py", "TARGETS")
    called = set()
    for module, owner, attr, _ in targets:
        obj = importlib.import_module(module)
        obj = getattr(obj, owner) if owner else obj

        def counting(*args, _fn=getattr(obj, attr), _name=traced_name(module, owner, attr),
                     **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(obj, attr, counting)

    for variant in ssic.netstack.SOFT_VARIANTS:
        ssic.run_netsim(ssic.SweepSpec(
            "netsim", [8.0], n_streams=2, trials=30, payload_bytes=64, variants=(variant,),
            rng_seed=3, detection_loss_prob=0.01, burst_prob=0.1, burst_llr_atten=0.25))
    ssic.run_sweep(ssic.SweepSpec("packet_per", [4.0], n_streams=2, trials=20,
                                  payload_bytes=16, variants=("naive", "hrsx", "srsx"),
                                  rng_seed=3))
    traced = {traced_name(*t[:3]) for t in targets}
    assert KNOWN_UNCALLED <= traced, KNOWN_UNCALLED - traced
    assert called == traced - KNOWN_UNCALLED, (
        f"traced but not called: {traced - KNOWN_UNCALLED - called}; "
        f"called though listed as uncalled: {called & KNOWN_UNCALLED}")
