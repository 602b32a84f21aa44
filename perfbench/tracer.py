"""Span and count tracing of qkdlab's layers, installed from outside the package.

A Tracer replaces selected public functions and methods of the qkdlab
modules with thin wrappers for as long as it is installed.  Register,
protocol, adversary, closed-form and analysis calls each record a span
(group name, start, end, parent span, op id); ring arithmetic is only
counted, because a single attacked session makes hundreds of thousands of
ring calls and timing each one would dominate the trace.  Spans stay in
memory and are written out by the caller when the run ends; self times
and per-op counts are derived from them afterwards.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from qkdlab import adversary, analysis, closed_forms, protocol, register, ring

# span group -> (owner, attribute) pairs; a group's self time is summed
# over every span recorded for any of its members
SPAN_TARGETS = {
    "register.hadamard": [(register.PureState, "apply_hadamard")],
    "register.shift": [(register.PureState, "apply_controlled_shift")],
    "register.tensor": [(register.PureState, "tensor")],
    "register.reorder": [(register.PureState, "reorder_wires")],
    "register.measure": [
        (register.PureState, "measure_computational"),
        (register.PureState, "measurement_distribution"),
        (register.PureState, "project"),
        (register.PureState, "norm_squared"),
    ],
    "register.construct": [(register.PureState, "__init__")],
    "register.to_json": [(register.PureState, "to_json_dict")],
    "register.from_json": [(register.PureState, "from_json_dict")],
    "register.state_equals": [(register, "state_equals")],
    "protocol.run_round": [(protocol, "run_round")],
    "protocol.make_rng": [(protocol, "make_rng")],
    "protocol.transcript_json": [(protocol, "transcript_to_json_dict")],
    "adversary.on_basis_change": [
        (adversary.AdversaryStrategy, "on_basis_change"),
        (adversary.GaoAttack, "on_basis_change"),
    ],
    "adversary.on_transit": [
        (adversary.AdversaryStrategy, "on_transit"),
        (adversary.InterceptResend, "on_transit"),
        (adversary.GaoAttack, "on_transit"),
    ],
    "closed_forms.stage_states": [(closed_forms, "eavesdrop_stage_states")],
    "analysis.monte_carlo": [(analysis, "monte_carlo")],
    "analysis.compute_metrics": [(analysis, "compute_metrics")],
    "analysis.exact_next_round_error": [(analysis, "exact_next_round_error")],
}

# count group -> CycloElem methods; reflected operators count with their
# forward form, and subtraction is counted as the addition it performs
COUNT_TARGETS = {
    "ring.add": ["__add__", "__radd__"],
    "ring.mul": ["__mul__", "__rmul__"],
    "ring.mul_zeta": ["mul_zeta"],
    "ring.conj": ["conj"],
    "ring.canonical_reduce": ["canonical_reduce"],
}


HADAMARD_COUNTS = (
    "register.hadamard.terms_in",
    "register.hadamard.terms_out",
    "register.hadamard.contributions",
)


def _hadamard_terms(counts: Counter, args, result) -> None:
    state = args[0]
    counts["register.hadamard.terms_in"] += len(state.terms)
    counts["register.hadamard.terms_out"] += len(result.terms)
    counts["register.hadamard.contributions"] += len(state.terms) * state.dim


# extra counts taken outside the timed interval of a span
OBSERVERS = {"register.hadamard": _hadamard_terms}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.groups = list(SPAN_TARGETS)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counts: Counter = Counter(dict.fromkeys(HADAMARD_COUNTS, 0))
        self.op = -1
        self._stack: list[int] = []
        self._ring_cells = {name: [0] for name in COUNT_TARGETS}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, group_id: int, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (group_id, start, end, parent, self.op)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @staticmethod
    def _count(cell: list[int], fn):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the with-block."""
        try:
            for group_id, group in enumerate(self.groups):
                for owner, attr in SPAN_TARGETS[group]:
                    self._install_span(group_id, group, owner, attr)
            for name, attrs in COUNT_TARGETS.items():
                for attr in attrs:
                    fn = ring.CycloElem.__dict__[attr]
                    self._replace(ring.CycloElem, attr, self._count(self._ring_cells[name], fn))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)
            for name, cell in self._ring_cells.items():
                self.counts[f"{name}.calls"] += cell[0]
                cell[0] = 0

    def _install_span(self, group_id: int, group: str, owner, attr: str) -> None:
        observe = OBSERVERS.get(group)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self._replace(owner, attr, classmethod(self._span(group_id, original.__func__, observe)))
            return
        wrapped = self._span(group_id, original, observe)
        if isinstance(owner, type):
            self._replace(owner, attr, wrapped)
            return
        # a module-level function is also bound by name in every module
        # that imported it; rebind all of those so internal calls are seen
        for name, module in list(sys.modules.items()):
            if name == "qkdlab" or name.startswith("qkdlab."):
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapped)

    # -- derived figures -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Self time (ms) and call count per span group, plus every count."""
        child_ns = [0] * len(self.spans)
        for group_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = [0] * len(self.groups)
        calls = [0] * len(self.groups)
        for index, (group_id, start, end, _, _) in enumerate(self.spans):
            self_ns[group_id] += end - start - child_ns[index]
            calls[group_id] += 1
        out: dict[str, float] = {}
        for group_id, group in enumerate(self.groups):
            out[f"{group}.self_ms"] = self_ns[group_id] / 1e6
            out[f"{group}.calls"] = calls[group_id]
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: group, start_ns, end_ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("group,start_ns,end_ns,parent,op\n")
            for group_id, start, end, parent, op in self.spans:
                fh.write(f"{self.groups[group_id]},{start},{end},{parent},{op}\n")
