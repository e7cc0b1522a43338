"""Spans around uqtrain's public functions, installed from outside.

The program is not edited.  `install` replaces each traced function with
a wrapper in every uqtrain module that binds it (and each traced method
on its class), so the lookups `training`, `compensation` and `cli` make
at call time land on the wrapper.  `Patches.restore` puts the originals
back, which lets one process alternate untraced and traced operations.

Spans live in memory as [name, start, end, parent] lists and are written
out once, at the end of the run.  A layer's self time is its span minus
its direct child spans.  Work the benchmark itself does inside a traced
call (counting, sampling batches for the checks) runs in a `bench.check`
span, so it is charged to no layer and can be taken out of the overhead.
"""

import json
import sys
import time
from collections import defaultdict

# (owner, attribute, span name).  An owner given as a string is a module
# of the uqtrain package; a tuple names a class inside one.
TRACED = [
    ("mining", "mine_triplets", "mining.mine"),
    ("mining", "pairwise_cosine_distances", "mining.distances"),
    ("tensor", "backward", "tensor.backward"),
    ("compensation", "forward_with_compensation", "compensation.forward"),
    ("compensation", "compensate", "compensation.compensate"),
    ("compensation", "draw_perturbation", "compensation.draw"),
    ("stats", "layer_stats", "stats.layer_stats"),
    ("losses", "mixup", "losses.mixup"),
    ("losses", "ce_loss", "losses.ce"),
    ("losses", "triplet_loss", "losses.triplet"),
    (("heads", "DenseGridBlock"), "apply", "heads.block_apply"),
    ("heads", "head_forward", "heads.head_forward"),
    ("heads", "save_checkpoint", "heads.save_checkpoint"),
    ("heads", "load_checkpoint", "heads.load_checkpoint"),
    ("training", "train_step", "training.step"),
    ("training", "make_batches", "training.batches"),
    (("training", "Adam"), "step", "training.adam"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "predict", "training.predict"),
    ("training", "write_metrics_csv", "training.write_metrics"),
    ("data", "save_dataset", "data.save"),
    ("data", "load_dataset", "data.load"),
]

# tape ops the model records; backward time of any other op is "other"
BACKWARD_OPS = ("add", "sub", "mul", "div", "scalar_mul", "relu", "softplus",
                "matmul", "transpose", "reshape", "take_rows", "total_sum",
                "row_sum", "spatial_mean", "spatial_std", "batch_mean",
                "batch_std", "log_softmax", "other")

CHECK = "bench.check"
OP = "bench.op"


class Tracer:
    """In-memory span recorder plus counters for the per-layer ratios."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index or -1]
        self.stack = []           # indices of the open spans
        self.counts = defaultdict(float)
        self.backward_op_s = defaultdict(float)
        self.check_s = 0.0        # time spent in check spans so far

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        """fn inside a span; hook(result, *args) runs in a check span."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                t0 = time.perf_counter()
                self.begin(CHECK)
                try:
                    hook(result, *args, **kwargs)
                finally:
                    self.end()
                    self.check_s += time.perf_counter() - t0
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Total self time per span name: span minus its child spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            total[name] += t1 - t0 - c
        return total

    def write(self, path, extra):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "counts": self.counts,
                       "backward_op_s": self.backward_op_s, **extra}, fh)
            fh.write("\n")


def _owner(spec):
    if isinstance(spec, tuple):
        return getattr(sys.modules[f"uqtrain.{spec[0]}"], spec[1])
    return sys.modules[f"uqtrain.{spec}"]


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def install(tracer, hooks):
    """Wrap every TRACED function; hooks maps span name -> hook.  The
    uqtrain modules, cli included, must already be imported."""
    patches = Patches()
    modules = [m for n, m in sys.modules.items()
               if n.startswith("uqtrain.") and m is not None]
    for spec, attr, name in TRACED:
        owner = _owner(spec)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hooks.get(name))
        if isinstance(spec, tuple):
            patches.set(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.set(module, key, wrapped)

    tensor = sys.modules["uqtrain.tensor"]
    record = tensor._record
    known = set(BACKWARD_OPS)

    def timed_record(out, inputs, backward):
        op = backward.__qualname__.split(".", 1)[0]
        op = op if op in known else "other"

        def timed_backward(g):
            t0 = time.perf_counter()
            try:
                return backward(g)
            finally:
                tracer.backward_op_s[op] += time.perf_counter() - t0
        return record(out, inputs, timed_backward)

    patches.set(tensor, "_record", timed_record)
    return patches


def time_calls(owner, attr, samples, keep, after=None):
    """Untraced runs: time each call of owner.attr at its boundary only,
    appending (seconds, keep(result)) to samples; after(), if given,
    runs once each call is timed."""
    patches = Patches()
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        samples.append((time.perf_counter() - t0, keep(result)))
        if after is not None:
            after()
        return result
    patches.set(owner, attr, timed)
    return patches
