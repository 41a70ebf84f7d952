"""Spans around calls into opdisc's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper in
every opdisc module that holds a reference to it, which is where the program
looks it up, so calls between modules nest: pe_entangled -> maximize ->
(objective -> decode_p / trace_norm). Aggregates (count, total and self time
per span name and dimension) are exact; raw spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs the tracer wraps, by the module that defines them.
TRACED = {
    "linalg": ("trace_norm", "is_hermitian", "eig_hermitian"),
    "channels": ("make_operation", "pauli_channel", "weyl_channel", "unnormalized_choi"),
    "optimizer": ("maximize", "decode_p", "decode_pure_state"),
    "discrimination": (
        "pe_entangled",
        "pe_unentangled",
        "helstrom",
        "pauli_delta_summary",
        "pe_random_unitary_exact",
        "pe_random_unitary_bounds",
        "bound_max_entangled",
        "delta_operator",
    ),
    "oracle": ("brute_force_unentangled", "brute_force_entangled"),
    "cli": ("main", "build_parser", "parse_channel_file"),
}

SPAN_CAP = 100_000
_SIZE_TO_DIM = {4: 2, 9: 3, 16: 4}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, dim, start, child_time, id]
        self._dims: list[int] = []  # dimension of the enclosing discrimination call
        self._next_id = 0
        self._saved: list[tuple] = []
        self.spans: list[tuple] = []  # (id, parent id, name, dim, start_ns, end_ns)
        self.dropped = 0
        # (name, dim) -> [count, total_ns, self_ns]
        self.totals: dict[tuple[str, int], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.agreement: dict[int, list[float]] = defaultdict(list)

    # ------------------------------------------------------------ recording

    def _enter(self, name: str, dim: int) -> list:
        self._next_id += 1
        frame = [name, dim, time.perf_counter_ns(), 0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, dim, start, child, span_id = frame
        duration = end - start
        agg = self.totals[(name, dim)]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[4] if parent else 0, name, dim, start, end))
        else:
            self.dropped += 1

    def _span_dim(self, qualname: str, args) -> int:
        if qualname in ("discrimination.pe_entangled", "discrimination.pe_unentangled"):
            return int(args[0].op1.dim)
        if qualname == "linalg.trace_norm":
            return _SIZE_TO_DIM.get(len(args[0]), 0)
        if qualname.startswith("oracle."):
            return int(args[0].op1.dim)
        return self._dims[-1] if self._dims else 0

    def _wrap(self, qualname: str, fn):
        tracer = self

        def objective_wrapper(objective, dim):
            def traced_objective(theta):
                frame = tracer._enter("optimizer.objective", dim)
                try:
                    return objective(theta)
                finally:
                    tracer._exit(frame)

            return traced_objective

        def wrapper(*args, **kwargs):
            dim = tracer._span_dim(qualname, args)
            if qualname == "optimizer.maximize":
                args = (objective_wrapper(args[0], dim),) + args[1:]
            pushed = qualname in ("discrimination.pe_entangled", "discrimination.pe_unentangled")
            if pushed:
                tracer._dims.append(dim)
            frame = tracer._enter(qualname, dim)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if pushed:
                    tracer._dims.pop()
            if qualname == "optimizer.maximize":
                agree = sum(1 for v in result.summary.start_values if v >= result.value - 1e-9)
                tracer.agreement[dim].append(agree / result.summary.n_starts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, opdisc) -> None:
        importlib.import_module("opdisc.cli")  # the package does not import its CLI
        modules = {name: getattr(opdisc, name) for name in TRACED}
        namespaces = [opdisc, *modules.values()]
        for module_name, names in TRACED.items():
            for name in names:
                original = getattr(modules[module_name], name)
                wrapped = self._wrap(f"{module_name}.{name}", original)
                for namespace in namespaces:
                    if getattr(namespace, name, None) is original:
                        self._saved.append((namespace, name, original))
                        setattr(namespace, name, wrapped)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # ------------------------------------------------------------ reading

    def count(self, name: str, dim: int | None = None) -> int:
        return sum(v[0] for (n, d), v in self.totals.items() if n == name and dim in (None, d))

    def total_s(self, name: str, dim: int | None = None, self_time: bool = False) -> float:
        index = 2 if self_time else 1
        return sum(v[index] for (n, d), v in self.totals.items() if n == name and dim in (None, d)) / 1e9

    def mean_us(self, names, dim: int | None = None) -> float:
        names = (names,) if isinstance(names, str) else names
        calls = sum(self.count(n, dim) for n in names)
        if calls == 0:
            return 0.0
        return sum(self.total_s(n, dim) for n in names) / calls * 1e6

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, dim, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "dim": dim,
                                     "start_ns": start, "end_ns": end}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")
