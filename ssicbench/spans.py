"""Outside-in span tracing of the ssic layers.

Nothing in the program is instrumented.  Instead, while a Tracer is
installed, the names a module calls into are replaced in the *calling*
module's namespace (``ssic.netstack.transmit``, ``ssic.descramble.seed_posterior``,
``Aggregator.push``, ...) by wrappers that record a span.  Spans nest through
a stack and carry their parent's id, so a span's self time is its duration
minus the durations of its direct children.  The originals are put back when
the ``installed()`` block ends.

Wrappers only read arguments and results; they never touch an RNG, so a
traced run draws the same random numbers as an untraced one.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute owner inside the module or "", attribute, span name)
TARGETS = [
    ("ssic.sweeps", "", "soft_copy", "channel.soft_copy"),
    ("ssic.netstack", "", "transmit", "channel.transmit"),
    ("ssic.channel", "", "scramble", "scrambler.scramble"),
    ("ssic.sweeps", "", "seed_posterior", "descramble.seed_posterior"),
    ("ssic.descramble", "", "seed_posterior", "descramble.seed_posterior"),
    ("ssic.sweeps", "", "srsx", "descramble.srsx"),
    ("ssic.netstack", "", "srsx", "descramble.srsx"),
    ("ssic.sweeps", "", "hrsx", "descramble.hrsx"),
    ("ssic.netstack", "", "hrsx", "descramble.hrsx"),
    ("ssic.sweeps", "", "naive_sd", "descramble.naive_sd"),
    ("ssic.netstack", "", "naive_sd", "descramble.naive_sd"),
    ("ssic.sweeps", "", "ssic_combine", "combine.ssic_combine"),
    ("ssic.netstack", "", "ssic_combine", "combine.ssic_combine"),
    ("ssic.netstack", "", "encapsulate", "vcframe.encapsulate"),
    ("ssic.netstack", "", "frame_to_bits", "vcframe.frame_to_bits"),
    ("ssic.netstack", "", "frame_from_bits", "vcframe.frame_from_bits"),
    ("ssic.netstack", "", "decode_header_soft", "vcframe.decode_header_soft"),
    ("ssic.vcframe", "", "decode_header_hard", "vcframe.decode_header_hard"),
    ("ssic.netstack", "Dispatcher", "send", "netstack.send"),
    ("ssic.netstack", "Aggregator", "push", "netstack.push"),
    ("ssic.sweeps", "", "run_network_point", "netstack.run_point"),
    ("ssic.sweeps", "", "run_metrics", "netstack.run_metrics"),
]

ROOT = "sweeps.run"
LAYERS = ("channel", "scrambler", "descramble", "combine", "vcframe", "netstack", "sweeps")


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{attr} was not restored")


def owner_of(module: str, cls: str):
    """The module, or the class cls inside it."""
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Collects spans (id, parent id, name, duration, self time) in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.transmits = [0, 0, 0]  # calls, detected, clean
        self.combine_copies = 0
        self._stack: list[list] = []  # [span id, start, time in children]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            frame = [len(spans) + len(stack), 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                spans.append((frame[0], parent[0] if parent else -1, name, dur,
                              dur - frame[2]))

        return traced

    def _observe_transmit(self, fn):
        counts = self.transmits

        def observed(*args, **kwargs):
            obs = fn(*args, **kwargs)
            counts[0] += 1
            counts[1] += obs.detected
            counts[2] += obs.crc_pass
            return obs

        return observed

    def _observe_combine(self, fn):
        def observed(copies):
            self.combine_copies += len(copies)
            return fn(copies)

        return observed

    @contextlib.contextmanager
    def installed(self):
        replacements = []
        for module, cls, attr, name in TARGETS:
            owner = owner_of(module, cls)
            fn = getattr(owner, attr)
            if name == "channel.transmit":
                fn = self._observe_transmit(fn)
            elif name == "combine.ssic_combine":
                fn = self._observe_combine(fn)
            replacements.append((owner, attr, self._wrap(name, fn)))
        with patched(replacements):
            yield

    def scale(self, first: int, factor: float):
        """Multiply the times of spans[first:] by factor."""
        self.spans[first:] = [(i, parent, name, dur * factor, own * factor)
                              for i, parent, name, dur, own in self.spans[first:]]

    def root(self, fn, *args):
        """Call fn(*args) as the root span of one chunk."""
        return self._wrap(ROOT, fn)(*args)

    def layer_metrics(self, grid_points: int, aggregator_stats: list) -> dict[str, float]:
        """Per-call medians of self time (and push's total time) per span name,
        layer shares of all traced time, call counts, and the sums of the
        AggregatorStats of the traced run_network_point calls."""
        self_t, total_t = defaultdict(list), defaultdict(list)
        for _, _, name, dur, own in self.spans:
            self_t[name].append(own)
            total_t[name].append(dur)

        def med_us(name):
            xs = self_t.get(name)
            return statistics.median(xs) * 1e6 if xs else 0.0

        m = {}
        for name in ("channel.soft_copy", "channel.transmit", "scrambler.scramble",
                     "descramble.seed_posterior", "descramble.srsx", "descramble.hrsx",
                     "descramble.naive_sd", "combine.ssic_combine", "vcframe.encapsulate",
                     "vcframe.frame_to_bits", "vcframe.frame_from_bits",
                     "vcframe.decode_header_hard", "vcframe.decode_header_soft",
                     "netstack.send"):
            m[f"{name}_us"] = med_us(name)
        push = total_t.get("netstack.push", [])
        m["netstack.push_us_p50"] = statistics.median(push) * 1e6 if push else 0.0
        # a p99 needs at least ten samples beyond it
        m["netstack.push_us_p99"] = (statistics.quantiles(push, n=100)[98] * 1e6
                                     if len(push) >= 1000 else 0.0)
        m["netstack.push_self_us"] = med_us("netstack.push")
        run_point = self_t.get("netstack.run_point")
        m["netstack.run_point_self_s"] = statistics.median(run_point) if run_point else 0.0
        roots = self_t.get(ROOT, [])
        m["sweeps.point_self_s"] = (statistics.median(roots) / grid_points
                                    if roots else 0.0)

        calls, detected, clean = self.transmits
        m["channel.detected_frac"] = detected / calls if calls else 0.0
        m["channel.clean_frac"] = clean / calls if calls else 0.0
        m["scrambler.calls"] = len(self_t.get("scrambler.scramble", []))
        m["descramble.words"] = sum(len(self_t.get(f"descramble.{v}", []))
                                    for v in ("srsx", "hrsx", "naive_sd"))
        n_combine = len(self_t.get("combine.ssic_combine", []))
        m["combine.copies_per_call"] = self.combine_copies / n_combine if n_combine else 0.0

        for counter in ("delivered_hard", "delivered_combined", "combine_failures",
                        "header_invalid_drops", "duplicate_drops", "pending_evictions"):
            m[f"netstack.{counter}"] = sum(getattr(s, counter) for s in aggregator_stats)
        tried = m["netstack.delivered_combined"] + m["netstack.combine_failures"]
        m["netstack.combine_success_frac"] = (m["netstack.delivered_combined"] / tried
                                              if tried else 0.0)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, xs in self_t.items():
            layer_self[name.split(".")[0]] += sum(xs)
        traced = sum(total_t.get(ROOT, []))
        for layer, t in layer_self.items():
            m[f"{layer}.self_frac"] = t / traced if traced else 0.0
        return m
