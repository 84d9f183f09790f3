"""In-memory span recorder that wraps the program's public functions.

The benchmark never edits the program: in a traced run it rebinds the
public functions and methods listed in ``LAYERS`` to thin wrappers that
record one span (name, start, end, parent) per call.  Every module that
imported a wrapped function by name gets its binding replaced too, so
``from repro.sparse.sweep import csr_sweep_matvec`` call sites are
traced like ``sweep.csr_sweep_matvec`` ones.

Self time of a span is its duration minus the durations of its direct
children.  Calls are single-threaded and strictly nested, so the
children never overlap and the self times of all spans sum exactly to
the duration of the root spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from contextlib import contextmanager

#: Span name -> wrapped callables, as ``"module:attr"`` (a function) or
#: ``"module:Class.attr"`` (a method or property).  Names follow the
#: program's modules.  ``engine`` spans are the moment engines' entry
#: points; the aggregation reports them as ``gpukpm.engine`` and, when
#: a gateway dispatched them, also as ``serve.engine``.
LAYERS = {
    "sparse.csr_matvec": ["repro.sparse.sweep:csr_sweep_matvec"],
    "sparse.csr_matmat": ["repro.sparse.sweep:csr_sweep_matmat"],
    "sparse.ell_matvec": ["repro.sparse.sweep:ell_sweep_matvec"],
    "sparse.ell_matmat": ["repro.sparse.sweep:ell_sweep_matmat"],
    "sparse.is_symmetric": [
        "repro.sparse.csr:CSRMatrix.is_symmetric",
        "repro.sparse.ell:ELLMatrix.is_symmetric",
        "repro.sparse.dense:DenseOperator.is_symmetric",
    ],
    "sparse.as_operator": ["repro.sparse.ops:as_operator"],
    "kpm.compute_dos": ["repro.kpm.dos:compute_dos"],
    "kpm.validate": ["repro.kpm.dos:validate_spectral_operator"],
    "kpm.rescale": ["repro.kpm.rescale:rescale_operator"],
    "kpm.moments": [
        "repro.kpm.moments:stochastic_moments",
        "repro.kpm.moments:stochastic_moments_resumable",
        "repro.kpm.moments:extend_stochastic_moments",
        "repro.kpm.moments:moments_single_vector_resumable",
        "repro.kpm.moments:extend_moments_single_vector",
    ],
    "kpm.reconstruct": [
        "repro.kpm.reconstruct:dos_from_moments",
        "repro.kpm.green:greens_function",
    ],
    "engine": [
        "repro.gpukpm.pipeline:GpuKPM.compute_moments",
        "repro.gpukpm.pipeline:GpuKPM.compute_moments_resumable",
        "repro.gpukpm.pipeline:GpuKPM.extend_moments",
    ],
    "gpukpm.recursion_kernel": ["repro.gpukpm.kernels:kpm_recursion_kernel"],
    "gpu.launch": ["repro.gpu.device:Device.launch"],
    "gpu.array_data": ["repro.gpu.memory:DeviceArray.data"],
    "gpu.memcpy": [
        "repro.gpu.device:Device.memcpy_htod",
        "repro.gpu.device:Device.memcpy_dtoh",
    ],
    "tune.choose": ["repro.tune.autotuner:Autotuner.choose"],
    "cpu.moments": ["repro.cpu.backend:CpuModelEngine.compute_moments"],
    "serve.run_trace": ["repro.serve.gateway:Gateway.run_trace"],
    "serve.offer": ["repro.serve.gateway:Gateway.offer"],
    "serve.price": ["repro.gpukpm.pipeline:GpuKPM.estimate_modeled_seconds"],
    "serve.pump": ["repro.serve.gateway:Gateway.pump"],
}


def _sweep_work(args):
    """Computed (flops, bytes) of one canonical sweep call.

    Every stored entry is one multiply-add per column; bytes count the
    stored values and indices once plus the input and output columns.
    Cache misses are ignored, so both are labelled *computed*.
    """
    if len(args) == 4:  # CSR: (data, indices, plan, x)
        data, indices, _, x = args
    else:  # ELL: (ell_data, ell_indices, x)
        data, indices, x = args
    columns = x.shape[1] if x.ndim == 2 else 1
    rows = data.shape[0] if data.ndim == 2 else x.shape[0]
    flops = 2 * data.size * columns
    nbytes = data.nbytes + indices.nbytes + (x.size + rows * columns) * x.itemsize
    return flops, nbytes


def _memcpy_bytes(args):
    # memcpy_htod(self, device_array, host) / memcpy_dtoh(self, host, device_array)
    return max(getattr(a, "nbytes", 0) for a in args[1:])


_SWEEP = (("sparse.sweep.flops_computed", "sparse.sweep.bytes_computed"), _sweep_work)

#: Extra per-call counters: span name -> (counter names, args -> values).
COUNTERS = {
    "sparse.csr_matvec": _SWEEP,
    "sparse.csr_matmat": _SWEEP,
    "sparse.ell_matvec": _SWEEP,
    "sparse.ell_matmat": _SWEEP,
    "gpu.memcpy": (("gpu.memcpy.bytes",), lambda args: (_memcpy_bytes(args),)),
}


def _resolve(target):
    """``"module:attr"`` -> (owner, attr, current value, is_property)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value, isinstance(value, property)


class SpanRecorder:
    """Records spans of the wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._sites: list[tuple] = []  # (owner, attr, original, wrapped)
        for name, targets in LAYERS.items():
            extra = COUNTERS.get(name)
            for target in targets:
                owner, attr, original, is_property = _resolve(target)
                if is_property:
                    wrapped = property(self._wrap(name, original.fget, extra))
                else:
                    wrapped = self._wrap(name, original, extra)
                self._sites.append((owner, attr, original, wrapped))
                if not isinstance(owner, type):
                    self._sites.extend(_imported_bindings(original, wrapped, owner))

    def _wrap(self, name, func, extra):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if extra is not None:
                for counter, value in zip(extra[0], extra[1](args)):
                    counters[counter] = counters.get(counter, 0) + value
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name):
        """Record a span around one whole operation."""
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        """Write every span as gzipped ``index,parent,name,start,end`` lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,parent,name,start,end\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(f"{i},{parent},{name},{start!r},{end!r}\n")

    def self_times(self):
        """(calls, self seconds) per span name, plus per-index flags.

        ``engine`` spans are split into ``gpukpm.engine`` and, for those
        with a ``serve.pump`` ancestor, ``serve.engine``.
        """
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        own = list(durations)
        under_pump = [False] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                own[parent] -= durations[i]
                under_pump[i] = under_pump[parent] or self.names[parent] == "serve.pump"
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for i in range(count):
            name = self.names[i]
            if name == "engine":
                name = "serve.engine" if under_pump[i] else "gpukpm.engine"
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + own[i]
        roots = sum(durations[i] for i in range(count) if self.parents[i] < 0)
        return calls, seconds, roots


def _imported_bindings(original, wrapped, home):
    """Sites of every other ``repro`` module that imported ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is home or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr, original, wrapped))
    return sites
