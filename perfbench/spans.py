"""Spans around the public functions of each steinpoly module, from outside.

``Tracer.install()`` wraps each listed function and rebinds the wrapper
under every name that refers to the original in any ``steinpoly`` module,
because the modules import these names with ``from ... import`` and call
their local binding.  Methods are replaced on their class.  Nothing in the
package is edited; ``uninstall()`` puts the originals back.

Spans are kept in memory while a request runs and folded into per-function
totals when it ends: ``calls``, ``self_s`` (span time not covered by child
spans) and ``total_s`` (outermost span of a function only, so recursion is
not counted twice).
"""
import functools
import sys
from time import perf_counter

# module -> public functions (``Class.method`` for methods) that get a span
TRACED = {
    "steinberg": ("flag_expand", "normalize_apartment", "make_apartment", "ash_rudolph_reduce"),
    "barcplx": ("shuffle_span_reduce", "p_H_project"),
    "st2": (
        "st2_normal_form",
        "embed_s",
        "is_zero_st_infty",
        "st2_product",
        "dualize",
        "cobracket_matches_coproduct",
    ),
    "qlinalg": (
        "rref",
        "det",
        "rank",
        "solve",
        "nullspace",
        "canonical_point",
        "Subspace.span",
        "Subspace.intersect",
    ),
    "cones": ("st_equality_oracle", "rho_st", "truncated_fourier_sum", "bernoulli_reference"),
    "mpl": (
        "li_identity_residual",
        "truncated_symbol",
        "recursion_symbol_bar",
        "goncharov_symbol_bar",
        "bar_gl_act",
        "st2_gl_act",
        "bar_infty_reduce",
    ),
    "cli": ("main",),
}


def _terms_in_out(prefix):
    def count(tracer, args, result):
        tracer.count(prefix + "terms_in", len(args[0].terms))
        tracer.count(prefix + "terms_out", len(result.terms))

    return count


def _words_out(tracer, args, result):
    tracer.count("st2.embed_s.words_out", len(result.terms))


# work counters taken at the same boundaries as the spans
COUNTERS = {
    "steinberg.flag_expand": _terms_in_out("steinberg.flag_expand."),
    "barcplx.shuffle_span_reduce": _terms_in_out("barcplx.shuffle_span_reduce."),
    "st2.embed_s": _words_out,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start = name, parent, start
        self.end = None
        self.child = 0.0


class Tracer:
    """Per-function span totals for one workload run, plus named counters."""

    def __init__(self, focus=()):
        self.focus = frozenset(focus)
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counters = {}
        self.cache_stats = {}  # cache name -> [hits, misses, largest size]
        self.spans = []  # spans of the request in flight
        self._open = []  # stack of open spans
        self._depth = {}  # name -> open spans of that name
        self._focus_depth = 0
        self._focus_start = 0.0
        self.focus_s = 0.0
        self._patched = []  # (owner, attribute, original)
        self.absent = []

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def end_request(self) -> None:
        """Fold the finished spans of one request into the totals."""
        for span in self.spans:
            st = self.stats.setdefault(span.name, [0, 0.0, 0.0])
            st[0] += 1
            dur = span.end - span.start
            st[1] += dur - span.child
        self.spans = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        is_focus = name in self.focus
        is_rho = name == "cones.rho_st"

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            depth = tracer._depth.get(name, 0)
            tracer._depth[name] = depth + 1
            if is_focus:
                if tracer._focus_depth == 0:
                    tracer._focus_start = perf_counter()
                tracer._focus_depth += 1
            span = Span(name, parent, perf_counter())
            tracer._open.append(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span.end = end = perf_counter()
                tracer._open.pop()
                tracer._depth[name] = depth
                dur = end - span.start
                if parent is not None:
                    parent.child += dur
                if depth == 0:
                    tracer.stats.setdefault(name, [0, 0.0, 0.0])[2] += dur
                if is_focus:
                    tracer._focus_depth -= 1
                    if tracer._focus_depth == 0:
                        tracer.focus_s += end - tracer._focus_start
                tracer.spans.append(span)
                if is_rho:
                    # a PoleError means the oracle resamples the point
                    tracer.count("cones.rho_st.attempted")
                    tracer.count("cones.rho_st.accepted", int(ok))
            if counter is not None:
                counter(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("steinpoly.")]
        for short, names in TRACED.items():
            mod = sys.modules.get(f"steinpoly.{short}")
            for attr in names:
                full = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None) if mod else None
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        self.absent.append(full)
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(full, raw.__func__))
                    else:
                        new = self._wrap(full, raw)
                    self._patched.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, attr, None) if mod else None
                if orig is None:
                    self.absent.append(full)
                    continue
                new = self._wrap(full, orig)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patched.append((m, k, orig))
                            setattr(m, k, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []
