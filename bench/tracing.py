"""Span tracing around the public functions of each `unsharp` layer.

The wrappers live here, in the benchmark, not in the package: installing a
:class:`Tracer` rebinds each traced function in every `unsharp` module
namespace that binds it (``effects``, ``states`` and ``cli`` import by name),
and patches the traced methods on their classes.  Uninstalling restores the
originals.

Three kinds of boundary exist:

* ``span``: records ``(name, start, end, parent)`` in :attr:`Tracer.spans`
  and adds its self time (duration minus the time covered by child spans and
  timed leaves) to the layer's account.  A call made while a span of the same
  name is innermost (recursion, ``q_meet`` calling ``q_combine``) is not a new
  span.
* ``leaf``: timed and counted like a span but not recorded one by one,
  because it runs millions of times (effect evaluation).  Only the outermost
  call of a nested tree evaluation counts.
* ``count``: counted only; its time stays in the enclosing span.

Spans stay in memory until the run ends; :meth:`Tracer.layer_metrics` turns
the counters of one pass into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = [
    ("intervals", "union", "intervals.op"),
    ("intervals", "intersect", "intervals.op"),
    ("intervals", "difference", "intervals.op"),
    ("intervals", "symmetric_difference", "intervals.op"),
    ("intervals", "complement", "intervals.op"),
    ("intervals", "combine", "intervals.op"),
    ("setexpr", "parse_set_expr", "setexpr.parse"),
    ("quotient", "project", "quotient.project"),
    ("quotient", "q_combine", "quotient.qop"),
    ("quotient", "q_join", "quotient.qop"),
    ("quotient", "q_meet", "quotient.qop"),
    ("quotient", "q_diff", "quotient.qop"),
    ("quotient", "q_symmdiff", "quotient.qop"),
    ("quotient", "q_not", "quotient.qop"),
    ("quotient", "q_leq", "quotient.qop"),
    ("filters", "has_fmp", "filters.fmp"),
    ("filters", "FilterBase.truncated_meet", "filters.meet"),
    ("effects", "orthogonality", "effects.certify"),
    ("effects", "leq", "effects.certify"),
    ("effects", "vanishes_at_infinity", "effects.certify"),
    ("effects", "effect_range_on", "effects.certify"),
    ("quadrature", "adaptive_simpson_pieces", "quadrature.simpson"),
    ("quadrature", "gauss_legendre", "quadrature.gl"),
    ("states", "eval_density", "states.eval_density"),
    ("states", "mixture_expectation", "states.mixture_expectation"),
    ("states", "filter_effect_value", "states.squeeze"),
    ("states", "ppf", "states.ppf"),
    ("measurement", "run_protocol", "measurement.protocol"),
    ("measurement", "sample", "measurement.sample"),
    ("measurement", "scorekeeper", "measurement.scorekeeper"),
    ("cli", "run", "cli.run"),
]

LEAVES = [
    ("effects", "Constant.value_at", "effects.eval"),
    ("effects", "SmearedIndicator.value_at", "effects.eval"),
    ("effects", "OrthoSum.value_at", "effects.eval"),
    ("effects", "Scaled.value_at", "effects.eval"),
    ("effects", "Complemented.value_at", "effects.eval"),
]

COUNTS = [
    ("intervals", "Interval.__post_init__", "intervals.built"),
    ("setexpr", "_Parser.atom", "setexpr.atom"),
    ("states", "cdf", "states.cdf"),
    ("rng", "stream_word", "rng.word"),
]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []  # indices of open spans
        self._child = []  # time covered by children, per open span
        self._patches = []  # (owner, attribute, original)
        self._eval_open = False
        self.reset()

    # -- accounting ---------------------------------------------------------

    def reset(self):
        """Start a new pass: clear counters and self times (not spans)."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.n = Counter()  # boundary-specific counters

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        start = perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx):
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        covered = self._child.pop()
        dur = end - span[1]
        self.self_s[span[0]] += dur - covered
        self.calls[span[0]] += 1
        if self._child:
            self._child[-1] += dur

    def task(self, kind):
        """Root span of one benchmark task; its children are layer spans."""
        return _TaskSpan(self, "task." + kind)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            state = None
            if hook:
                state = hook.enter(tracer, args, kwargs)
                args = hook.rewrite(tracer, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook:
                    hook.fail(tracer, state, exc)
                raise
            finally:
                tracer._close(idx)
            if hook:
                hook.leave(tracer, state, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        tracer = self

        def wrapper(self_, q):
            if tracer._eval_open:
                return fn(self_, q)
            tracer._eval_open = True
            start = perf_counter()
            try:
                return fn(self_, q)
            finally:
                dur = perf_counter() - start
                tracer._eval_open = False
                kind = name + (".float" if isinstance(q, float) else ".exact")
                tracer.calls[kind] += 1
                tracer.self_s[kind] += dur
                if tracer._child:
                    tracer._child[-1] += dur
                if tracer.n["certify.open"]:
                    tracer.n["certify.evals"] += 1

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self, module_name, attr):
        """Every (owner, attribute) that binds the traced object."""
        module = sys.modules[f"{self.package.__name__}.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            return getattr(module, cls_name).__dict__[meth], [(getattr(module, cls_name), meth)]
        fn = getattr(module, attr)
        owners = []
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in vars(mod).items():
                if value is fn:
                    owners.append((mod, key))
        return fn, owners

    def install(self):
        for table, make in (
            (SPANS, self._span_wrapper),
            (LEAVES, self._leaf_wrapper),
            (COUNTS, self._count_wrapper),
        ):
            for module_name, attr, name in table:
                fn, owners = self._targets(module_name, attr)
                wrapped = make(name, fn)
                for owner, key in owners:
                    self._patches.append((owner, key, vars(owner)[key]))
                    setattr(owner, key, wrapped)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass since the last :meth:`reset`."""
        c, s, n = self.calls, self.self_s, self.n
        certify = c["effects.certify"]
        bisections = n["ppf.bisections"]
        return {
            "intervals.ops": c["intervals.op"],
            "intervals.ops_s": s["intervals.op"],
            "intervals.components_in": n["intervals.components_in"],
            "intervals.intervals_built": c["intervals.built"],
            "setexpr.parses": c["setexpr.parse"],
            "setexpr.parse_s": s["setexpr.parse"],
            "setexpr.atoms": c["setexpr.atom"],
            "quotient.projects": c["quotient.project"],
            "quotient.project_s": s["quotient.project"],
            "quotient.qops": c["quotient.qop"],
            "quotient.qops_s": s["quotient.qop"],
            "filters.fmp_checks": c["filters.fmp"],
            "filters.fmp_s": s["filters.fmp"] + s["filters.meet"],
            "filters.meets": n["filters.meets"],
            "effects.evals_exact": c["effects.eval.exact"],
            "effects.eval_exact_s": s["effects.eval.exact"],
            "effects.evals_float": c["effects.eval.float"],
            "effects.eval_float_s": s["effects.eval.float"],
            "effects.certify_calls": certify,
            "effects.certify_s": s["effects.certify"],
            "effects.certify_evals": n["certify.evals"],
            "effects.shortcut_frac": n["certify.shortcuts"] / certify if certify else 0.0,
            "effects.cannot_certify": n["certify.cannot"],
            "quadrature.simpson_s": s["quadrature.simpson"],
            "quadrature.gl_s": s["quadrature.gl"],
            "quadrature.integrand_evals": n["quadrature.integrand_evals"],
            "quadrature.failures": n["quadrature.failures"],
            "states.eval_density_s": s["states.eval_density"],
            "states.mixture_expectation_s": s["states.mixture_expectation"],
            "states.squeezes": c["states.squeeze"],
            "states.squeeze_s": s["states.squeeze"],
            "states.squeeze_rounds": n["squeeze.rounds"],
            "states.undetermined": n["squeeze.undetermined"],
            "states.ppf_calls": c["states.ppf"],
            "states.ppf_s": s["states.ppf"],
            "states.cdf_per_ppf": n["ppf.cdf"] / bisections if bisections else 0.0,
            "measurement.draws": n["measurement.draws"],
            "measurement.protocol_s": s["measurement.protocol"] + s["measurement.sample"],
            "measurement.scorekeeper_s": s["measurement.scorekeeper"],
            "rng.words": c["rng.word"],
            "cli.runs": c["cli.run"],
            "cli.self_s": s["cli.run"],
        }


class _TaskSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


# ---------------------------------------------------------------------------
# per-boundary counters


class _Hook:
    def enter(self, tracer, args, kwargs):
        return None

    def leave(self, tracer, state, result):
        pass

    def fail(self, tracer, state, exc):
        pass

    def rewrite(self, tracer, args):
        return args


class _IntervalOp(_Hook):
    def enter(self, tracer, args, kwargs):
        tracer.n["intervals.components_in"] += sum(
            len(a.components) for a in args if hasattr(a, "components")
        )


class _QuotientOp(_Hook):
    def enter(self, tracer, args, kwargs):
        if tracer.n["filters.open"]:
            tracer.n["filters.meets"] += 1


class _Filters(_Hook):
    def enter(self, tracer, args, kwargs):
        tracer.n["filters.open"] += 1

    def leave(self, tracer, state, result):
        tracer.n["filters.open"] -= 1

    def fail(self, tracer, state, exc):
        tracer.n["filters.open"] -= 1


class _Certify(_Hook):
    def enter(self, tracer, args, kwargs):
        tracer.n["certify.open"] += 1
        return tracer.n["certify.evals"]

    def _done(self, tracer, evals_before):
        tracer.n["certify.open"] -= 1
        if tracer.n["certify.evals"] == evals_before:
            tracer.n["certify.shortcuts"] += 1

    def leave(self, tracer, state, result):
        self._done(tracer, state)

    def fail(self, tracer, state, exc):
        self._done(tracer, state)
        if isinstance(exc, tracer.package.CannotCertify):
            tracer.n["certify.cannot"] += 1


class _Quadrature(_Hook):
    """Counts integrand evaluations by wrapping the integrand argument."""

    def rewrite(self, tracer, args):
        f = args[0]
        n = tracer.n

        def counted(x):
            n["quadrature.integrand_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def fail(self, tracer, state, exc):
        if isinstance(exc, tracer.package.QuadratureFailure):
            tracer.n["quadrature.failures"] += 1


class _Squeeze(_Hook):
    def enter(self, tracer, args, kwargs):
        return tracer.calls["effects.certify"]

    def leave(self, tracer, state, result):
        tracer.n["squeeze.rounds"] += tracer.calls["effects.certify"] - state
        if result is tracer.package.UNDETERMINED:
            tracer.n["squeeze.undetermined"] += 1


class _Ppf(_Hook):
    def enter(self, tracer, args, kwargs):
        return tracer.calls["states.cdf"]

    def leave(self, tracer, state, result):
        cdf_calls = tracer.calls["states.cdf"] - state
        if cdf_calls:  # a bisection, not a closed form
            tracer.n["ppf.bisections"] += 1
            tracer.n["ppf.cdf"] += cdf_calls


class _Sample(_Hook):
    def enter(self, tracer, args, kwargs):
        count = args[1] if len(args) > 1 else kwargs["count"]
        tracer.n["measurement.draws"] += count


_HOOKS = {
    "intervals.op": _IntervalOp(),
    "quotient.qop": _QuotientOp(),
    "filters.fmp": _Filters(),
    "filters.meet": _Filters(),
    "effects.certify": _Certify(),
    "quadrature.simpson": _Quadrature(),
    "quadrature.gl": _Quadrature(),
    "states.squeeze": _Squeeze(),
    "states.ppf": _Ppf(),
    "measurement.sample": _Sample(),
}
