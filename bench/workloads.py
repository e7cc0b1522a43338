"""The three workloads and the measured operations.

Every operation goes through `uqtrain.cli.main`, the in-process entry
point of the `uqtrain` command: set-up runs `synth` (and, for
score-large, `train`); a training operation repeats the set-up, runs
`train` and then one pair of `eval` plus `reject-curve` on the test CSV;
a scoring operation runs one such pair on the held-out CSV.  The
program sees only the CSVs written by `synth`.  Reference chunks
(`speed.py`) run between the calls, and every end-to-end time is scaled
by the speed they measure.
"""

import contextlib
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import speed as sp
import tracer as tr
from uqtrain import cli, training
from uqtrain.config import TrainConfig
from uqtrain.data import load_dataset
from uqtrain.heads import load_checkpoint

CLASSES = 4
FEATURES = 10
TRAIN_ROWS = 2000
TEST_ROWS = 1000
NOISE_RATIO = 0.3
BATCH_SIZE = 128
EPOCHS = 40

FULL = ()
BASELINE = ("--compensation", "false", "--use-positive-branch", "false",
            "--use-negative-branch", "false", "--use-triplet-term", "false")

# set-ups at the start of each training round; one takes ~50 ms, mostly
# Python and file writes, so a single sample is dominated by jitter
SETUP_REPEATS = 8

# every n-th mined batch of a traced run is kept for the exhaustive check
MINING_SAMPLE_EVERY = 97

# reference chunks after each set-up and after each scoring pair
SETUP_CHUNKS = 2
SCORE_CHUNKS = 8


@dataclass(frozen=True)
class Workload:
    """One row of BENCHMARK.json's workloads; the why of each is there."""

    name: str
    variant: tuple        # `train` overrides that pick the method
    heldout_rows: int     # > 0: the operation scores a checkpoint


WORKLOADS = {w.name: w for w in [
    Workload("alum-noisy30", FULL, 0),
    Workload("ce-noisy30", BASELINE, 0),
    Workload("score-large", FULL, 20000),
]}

END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("step_ms_p50", "ms"),
              ("score_s", "s"),
              ("test_acc", "fraction"), ("rej30_acc", "fraction"),
              ("peak_rss_mb", "MiB")]

PER_LAYER = (
    [("mining.mine_s", "s"), ("mining.distances_s", "s"),
     ("mining.mined_share", "fraction"), ("mining.valid_share", "fraction"),
     ("tensor.backward_s", "s")]
    + [(f"tensor.backward_s.{op}", "s") for op in tr.BACKWARD_OPS]
    + [("tensor.tape_nodes_per_step", "count"),
       ("compensation.forward_s", "s"), ("compensation.compensate_s", "s"),
       ("compensation.draw_s", "s"), ("stats.layer_stats_s", "s"),
       ("losses.mixup_s", "s"), ("losses.ce_s", "s"),
       ("losses.triplet_s", "s"), ("losses.active_hinge_share", "fraction"),
       ("heads.block_apply_s", "s"), ("heads.head_forward_s", "s"),
       ("heads.save_checkpoint_s", "s"), ("heads.load_checkpoint_s", "s"),
       ("training.step_s", "s"), ("training.batches_s", "s"),
       ("training.adam_s", "s"), ("training.evaluate_s", "s"),
       ("training.predict_s", "s"), ("training.write_metrics_s", "s"),
       ("data.save_s", "s"), ("data.load_s", "s"),
       ("data.load_rows_per_s", "rows/s"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "fraction")])


class OperationFailed(Exception):
    pass


def run_cli(argv):
    """One `uqtrain` command in this process, its chatter discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"uqtrain {' '.join(argv)} exited {code}")


def percentile_ms(samples, q):
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


class Run:
    """One benchmark invocation: set-up, measured operations, checks."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.dir = workdir

        def p(name):
            return os.path.join(workdir, name)
        self.train_csv, self.test_csv = p("train.csv"), p("test.csv")
        self.heldout_csv = p("heldout.csv")
        self.run_dir = p("run")
        self.checkpoint = os.path.join(self.run_dir, "run_checkpoint.json")
        self.metrics_csv = os.path.join(self.run_dir, "run_metrics.csv")
        self.config_echo = os.path.join(self.run_dir, "run_config.txt")
        self.eval_csv, self.curve_csv = p("eval.csv"), p("curve.csv")
        self.attempted = 0
        self.setup_times, self.train_times, self.score_times = [], [], []
        self.steps = []          # (seconds, loss scalars) per train_step
        self.step_marks = []     # speed.mark() after each timed step
        self.evals = []          # (seconds, None) per training.evaluate
        self.artifacts = set()   # digests of each training run's outputs
        self.inputs = set()      # digests of each set-up's CSVs
        self.failures = []       # messages of failed output checks
        self.samples = []        # mined batches kept by a traced run
        self.speed = sp.Speed()
        self.report = {}         # raw times and speed factors, for the log

    # -- operations ---------------------------------------------------------

    def synth(self, train_out, test_out, test_rows):
        self.attempted += 1
        run_cli(["synth", "--train-out", train_out, "--test-out", test_out,
                 "--classes", str(CLASSES), "--features", str(FEATURES),
                 "--train-size", str(TRAIN_ROWS),
                 "--test-size", str(test_rows), "--seed", str(self.seed),
                 "--noise-ratio", str(NOISE_RATIO),
                 "--noise-seed", str(self.seed)])

    def set_up(self):
        """Write the CSVs; returns their paths."""
        files = [self.train_csv, self.test_csv]
        self.synth(self.train_csv, self.test_csv, TEST_ROWS)
        if self.w.heldout_rows:
            self.synth(os.path.join(self.dir, "heldout_train.csv"),
                       self.heldout_csv, self.w.heldout_rows)
            files.append(self.heldout_csv)
        return files

    def record_inputs(self, files):
        self.inputs.add(tuple(checks.digest(f) for f in files))

    def train(self, timed=True):
        argv = ["train", "--data-train", self.train_csv,
                "--data-test", self.test_csv, "--out", self.run_dir,
                "--seed", str(self.seed), "--epochs", str(EPOCHS),
                "--batch-size", str(BATCH_SIZE), *self.w.variant]
        self.attempted += 1
        first_step = len(self.steps)

        def between_steps():
            self.step_marks.append(self.speed.mark())
            if (len(self.steps) - first_step) % sp.STEPS_PER_CHUNK == 0:
                self.speed.sample()
        timers = ([tr.time_calls(training, "train_step", self.steps,
                                 lambda b: b.scalars(), between_steps),
                   tr.time_calls(training, "evaluate", self.evals,
                                 lambda r: None)]
                  if timed else [])
        chunks = self.speed.total
        t0 = time.perf_counter()
        try:
            run_cli(argv)
        finally:
            elapsed = (time.perf_counter() - t0
                       - (self.speed.total - chunks))
            for patches in reversed(timers):
                patches.restore()
        self.artifacts.add((checks.digest(self.checkpoint),
                            checks.digest(self.metrics_csv),
                            checks.digest(self.config_echo)))
        return elapsed

    def score(self, timed=True):
        data = self.heldout_csv if self.w.heldout_rows else self.test_csv
        self.attempted += 2
        t0 = time.perf_counter()
        run_cli(["eval", "--checkpoint", self.checkpoint, "--data", data,
                 "--out", self.eval_csv])
        run_cli(["reject-curve", "--checkpoint", self.checkpoint,
                 "--data", data, "--out", self.curve_csv])
        elapsed = time.perf_counter() - t0
        if timed:
            self.speed.sample(SCORE_CHUNKS)
        return elapsed

    def operation(self, timed=True):
        """One measured round; returns the time of its main call."""
        if self.w.heldout_rows:
            t = self.score(timed)
            self.score_times.append(t)
            return t
        # repeating the set-up in every round samples it at moments spread
        # over the run, not all at its start
        for _ in range(SETUP_REPEATS):
            self.prepare()
        t = self.train(timed)
        self.train_times.append(t)
        self.score(timed=False)      # for the output checks
        return t

    # -- the two kinds of run -----------------------------------------------

    def prepare(self):
        """Set up and record the time; score-large also trains its
        checkpoint, which is what its train_s and step_ms_p50 measure."""
        chunks = self.speed.total
        t0 = time.perf_counter()
        files = self.set_up()
        if self.w.heldout_rows:
            self.train_times.append(self.train())
        self.setup_times.append(time.perf_counter() - t0
                                - (self.speed.total - chunks))
        self.record_inputs(files)
        self.speed.sample(SETUP_CHUNKS)

    def measure(self, seconds):
        if self.w.heldout_rows:   # training rounds set up for themselves
            self.prepare()
        loop = self.speed.mark()
        rounds = 1 if self.w.heldout_rows else 2   # two runs to compare
        start = time.perf_counter()
        while rounds > 0 or time.perf_counter() - start < seconds:
            self.operation()
            rounds -= 1
        self.verify(self.check_outputs)
        step_s = [s for s, _ in self.steps]
        report = checks.read_eval_csv(self.eval_csv)
        # train and score times are means, not medians: the cores switch
        # between two speeds, and a median flips with whichever speed held
        # for most of a run; the step median is taken only after each step
        # is scaled by the speed around it
        raw = {
            "setup_s": statistics.median(self.setup_times),
            "train_s": statistics.mean(self.train_times),
            "step_ms_p50": percentile_ms(step_s, 50),
            "score_s": statistics.mean(self.score_times if self.w.heldout_rows
                                       else [s for s, _ in self.evals]),
        }
        # score-large sets up and trains before its loop, the training
        # workloads inside it; each time is scaled by its own phase
        run = self.speed.factor(loop if self.w.heldout_rows else 0)
        setup = self.speed.factor(0, loop) if self.w.heldout_rows else run
        scale = {"setup_s": setup, "train_s": setup, "score_s": run}
        steps = np.asarray(step_s) / self.speed.local_factors(self.step_marks)
        self.report = {"raw": raw, "speed_factor_setup": setup,
                       "speed_factor_loop": run,
                       "reference_chunks": len(self.speed.times),
                       "steps": len(step_s)}
        return {
            **{name: raw[name] / f for name, f in scale.items()},
            "step_ms_p50": percentile_ms(steps, 50),
            "test_acc": report["accuracy"],
            "rej30_acc": report["accuracy_reject_30"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def trace(self, seconds, trace_path):
        """Alternate untraced and traced rounds; per-layer figures are
        per traced round (score-large's data.save_s: per set-up)."""
        t = tr.Tracer()
        hooks = self.trace_hooks(t)
        if self.w.heldout_rows:
            patches = tr.install(t, hooks)
            try:
                files = self.set_up()
            finally:
                patches.restore()
            self.record_inputs(files)
            self.train_times.append(self.train())
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(self.operation())
            patches = tr.install(t, hooks)
            checked = t.check_s
            t.begin(tr.OP)
            try:
                main = self.operation(timed=False)
            finally:
                t.end()
                patches.restore()
            traced.append(main - (t.check_s - checked))
        self.verify(self.check_outputs)
        self.verify(lambda: self.check_traced(t.counts))
        t.write(trace_path, {"workload": self.w.name, "seed": self.seed})
        overhead = statistics.median(traced) - statistics.median(plain)
        return self.per_layer(t, len(traced), overhead,
                              statistics.median(plain))

    # -- checks ---------------------------------------------------------------

    def verify(self, check):
        try:
            check()
        except checks.CheckFailed as e:
            self.failures.append(str(e))

    def check_outputs(self):
        checks.require(len(self.inputs) == 1,
                       "synth wrote different CSVs for one seed")
        checks.require(len(self.artifacts) == 1,
                       "training runs of one seed wrote different artifacts")
        for _, losses in self.steps:
            checks.require(all(math.isfinite(v) for v in losses),
                           f"non-finite loss {losses}")
        data = self.heldout_csv if self.w.heldout_rows else self.test_csv
        net, _ = load_checkpoint(self.checkpoint)
        preds, scores = training.predict(net, load_dataset(data).features,
                                         TrainConfig())
        accuracies = checks.check_scoring(
            self.checkpoint, data, preds, scores, self.eval_csv,
            self.curve_csv)
        # the last metrics row scores the test CSV, which score-large
        # does not score in its operations
        checks.check_metrics_history(
            self.metrics_csv, EPOCHS,
            None if self.w.heldout_rows else accuracies)

    def trace_hooks(self, t):
        c = t.counts

        def mined(plan, u, p, seed, epoch, batch_index, mine_positives=True,
                  mine_negatives=True):
            c["mine_calls"] += 1
            c["mine_rows"] += len(plan.mined_mask)
            c["mined_rows"] += int(plan.mined_mask.sum())
            c["valid_rows"] += int(plan.valid_mask.sum())
            if c["mine_calls"] % MINING_SAMPLE_EVERY == 1:
                self.samples.append((u.mean.values.copy(), u.labels.copy(),
                                     plan, mine_positives, mine_negatives))

        def mixed(out, u, plan, **kwargs):
            total = out.w_self.values + out.w_pos.values + out.w_neg.values
            c["mixup_bad_rows"] += int(np.sum(
                np.max(np.abs(total - 1.0), axis=1) > 1e-9))

        def hinged(loss, u, plan, margin):
            mu = u.mean.values
            gap = (np.sum((mu - mu[plan.pos_index]) ** 2, axis=1)
                   - np.sum((mu - mu[plan.neg_index]) ** 2, axis=1) + margin)
            c["hinge_rows"] += int(plan.valid_mask.sum())
            c["hinge_active"] += int(np.sum((gap > 0) & plan.valid_mask))

        def stepped(breakdown, *args):
            c["nonfinite_losses"] += not all(
                math.isfinite(v) for v in breakdown.scalars())

        def swept(result, loss, tape=None):
            c["backward_calls"] += 1
            c["tape_nodes"] += len(tape.nodes)

        def loaded(ds, path):
            c["load_rows"] += len(ds)

        return {"mining.mine": mined, "losses.mixup": mixed,
                "losses.triplet": hinged, "training.step": stepped,
                "tensor.backward": swept, "data.load": loaded}

    def check_traced(self, c):
        checks.require(c["mixup_bad_rows"] == 0,
                       f"{c['mixup_bad_rows']} mixup rows do not sum to 1")
        checks.require(c["nonfinite_losses"] == 0, "a traced loss is not finite")
        for mu, labels, plan, pos, neg in self.samples:
            checks.check_mining(mu, labels, plan, pos, neg)
        checks.require(bool(self.samples) == (c["mine_calls"] > 0),
                       "no mined batch was sampled for the check")

    # -- per-layer figures ------------------------------------------------------

    def per_layer(self, t, n_ops, overhead, plain):
        self_s = t.self_times()
        c = t.counts

        def per_op(name):
            return self_s.get(name, 0.0) / n_ops

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {f"{name}_s": per_op(name) for _, _, name in tr.TRACED}
        if self.w.heldout_rows:   # its one save is the traced set-up
            out["data.save_s"] = self_s.get("data.save", 0.0)
        out.update({f"tensor.backward_s.{op}": t.backward_op_s[op] / n_ops
                    for op in tr.BACKWARD_OPS})
        load_s = self_s.get("data.load", 0.0)
        out.update({
            "mining.mined_share": share("mined_rows", "mine_rows"),
            "mining.valid_share": share("valid_rows", "mine_rows"),
            "tensor.tape_nodes_per_step": share("tape_nodes",
                                                "backward_calls"),
            "losses.active_hinge_share": share("hinge_active", "hinge_rows"),
            "data.load_rows_per_s": c["load_rows"] / load_s if load_s else 0.0,
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / plain,
        })
        return out
