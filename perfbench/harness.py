"""One benchmark run: set-up, interleaved timed phases, output checks.

A run is a closed loop with one caller: each operation starts when the
previous one has returned. Set-up is repeated `setup_repeats` times. The
measuring loop then interleaves rounds of the phases, each getting its
workload share of the time (and at least its share of MIN_ROUNDS):

  gen      write_dataset of N_GEN frames, then read_dataset of the file
  aapd     one AAPD train step: forward, BCE, backward, Adam
  se       one SE train step on ZF inputs from the frozen (checkpointed) AAPD
  ml/somp  run_classical over the N_TEST test frames
  nn       run_nn over the test frames
  latency  detect_frames on one test frame (a batch of 1)

Every operation and every output check counts once in `attempted`; an
exception, a non-finite loss or a failed check counts in `failed`.

In a traced run the rounds of each phase alternate: even rounds untraced,
odd rounds traced, so tracing overhead is measured within the run.

An untraced run is split into `parts` worker processes run one after the
other (see run.py); each is one Bench with part index `part`. The training
state (net weights and Adam moments) is handed from one part to the next
through the `handover` file, so the parts together train one net, and the
training checks (`check_training`) are made over all parts.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from immimo import config, cvnn, dataset, modulation, phy, runner, twostage

import reference
from workloads import BATCH, SNR_DB, Workload

N_TRAIN = 400        # training frames, cycled in batches of BATCH
N_TEST = 512         # eval frames: two detect_frames chunks of 256
N_NN = 256           # frames per nn round: half the test set
N_GEN = 512          # frames per gen-data round
SETUP_REPEATS = 3
PHASES = ("gen", "aapd", "se", "ml", "somp", "nn", "latency")
MIN_ROUNDS = {"gen": 3, "aapd": 3, "se": 5, "ml": 3, "somp": 3, "nn": 3,
              "latency": 30}
FALL_MIN_STEPS = 9
GEN_SAMPLE = 8       # frames per gen round re-derived with generate_arrays
TAIL = 90            # percentile of the round times the end-to-end metrics use


class Ledger:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        """fn(*args) as one operation; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as e:  # a failed operation must not stop the run
            self.failed += 1
            self.notes.append(f"{what}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return False, None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok


@dataclass
class SetUp:
    cfg: config.ExperimentConfig
    table: object
    constellation: modulation.QamConstellation
    aapd: twostage.AapdModel
    se: twostage.SeModel
    aapd_eval: twostage.AapdModel
    se_eval: twostage.SeModel
    train: dict
    test: dict
    se_x: np.ndarray           # SE inputs: ZF on the checkpointed AAPD's TACs
    se_target: np.ndarray
    se_loss_before: float = 0.0
    nn_batched: tuple = ()     # (bits, tacs) of one batched detect_frames call


@dataclass
class Samples:
    """Per-round measurements of one phase: seconds, units, traced flag."""
    seconds: list = field(default_factory=list)
    units: list = field(default_factory=list)
    traced: list = field(default_factory=list)

    def add(self, seconds: float, units: int, traced: bool) -> None:
        self.seconds.append(seconds)
        self.units.append(units)
        self.traced.append(traced)

    def per_unit(self, traced: bool) -> np.ndarray:
        s = np.array(self.seconds)
        u = np.array(self.units, dtype=float)
        m = np.array(self.traced, dtype=bool) == traced
        return s[m] / u[m]


def _quantized(a: np.ndarray) -> np.ndarray:
    return a.astype(np.complex64 if np.iscomplexobj(a) else np.float32)


def _same_tensors(net, loaded) -> bool:
    a, b = net.tensor_items(), loaded.tensor_items()
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(_quantized(x), y)
        for (_, x), (_, y) in zip(a, b))


def _same_frames(read: dict, ref: dict, lo: int = 0) -> bool:
    """read[lo:lo+n] equals ref at the .imds f32 precision."""
    n = len(ref["y"])
    part = {k: v[lo:lo + n] for k, v in read.items()}
    return (all(np.array_equal(part[k], ref[k].astype(np.complex64))
                for k in ("y", "h", "h_est", "s"))
            and np.array_equal(part["bits"], ref["bits"])
            and np.array_equal(part["g"], ref["g"]))


class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, workdir: str,
                 tracer=None, *, setup_repeats: int = SETUP_REPEATS, part: int = 0,
                 parts: int = 1, handover: str | None = None):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.setup_repeats = setup_repeats
        self.part = part
        self.parts = parts
        self.handover = handover
        self.se_loss = (math.nan, math.nan)
        self.ledger = Ledger()
        self.samples = {p: Samples() for p in PHASES}
        self.setup_s: list[float] = []
        self.ckpt_bytes = 0
        self.losses = {"aapd": [], "se": []}
        self.skipped: list[str] = []
        self.rng = np.random.default_rng(seed)

    # -- set-up -----------------------------------------------------------

    def _set_up_once(self) -> SetUp:
        wl, seed, wd = self.wl, self.seed, self.workdir
        cfg = config.ExperimentConfig(**wl.config_fields(), frames_train=N_TRAIN,
                                      frames_val=0, frames_test=N_TEST, seed=seed)
        table = dataset.table_for(cfg)
        constellation = modulation.QamConstellation(cfg.m)
        aapd = twostage.build_aapd(cfg.n_r, cfg.t, cfg.n_t, "complex",
                                   conv_channels=tuple(cfg.conv_channels),
                                   dense_units=tuple(cfg.dense_units), seed=seed)
        se = twostage.build_se(cfg.n_u, cfg.t, "complex",
                               channels=tuple(cfg.se_channels), seed=seed)
        train = dataset.generate_arrays(cfg, SNR_DB, N_TRAIN, 0)
        aapd_path, se_path = runner.checkpoint_paths(wd, "complex", SNR_DB)
        aapd.net.save(aapd_path)
        se.net.save(se_path)
        aapd_eval, se_eval = runner.load_detector(wd, "complex", SNR_DB)
        test_path = os.path.join(wd, "test.imds")
        dataset.write_dataset(test_path, cfg, SNR_DB, N_TEST, N_TRAIN,
                              threads=cfg.threads)
        header, test = dataset.read_dataset(test_path)
        dataset.check_header_matches(header, cfg, test_path)
        s_zf, _ = twostage.build_zf_dataset(aapd_eval, train["y"], train["h_est"], table)
        return SetUp(cfg, table, constellation, aapd, se, aapd_eval, se_eval,
                     train, test, s_zf[:, None], train["s"][:, None])

    def set_up(self) -> SetUp | None:
        su = None
        for k in range(self.setup_repeats):
            if self.tracer is not None:
                self.tracer.set_phase("setup")
                self.tracer.on = True
            with self._span("bench.setup"):
                t0 = perf_counter()
                ok, su = self.ledger.run(f"set-up {k}", self._set_up_once)
                self.setup_s.append(perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.on = False
            if not ok:
                return None
        self.ledger.check(_same_tensors(su.aapd.net, su.aapd_eval.net)
                          and _same_tensors(su.se.net, su.se_eval.net),
                          "checkpoint round trip keeps the f32 tensors")
        ref = dataset.generate_arrays(su.cfg, SNR_DB, N_TEST, N_TRAIN)
        self.ledger.check(_same_frames(su.test, ref),
                          "test .imds read-back equals generate_arrays")
        self.ckpt_bytes = sum(os.path.getsize(p) for p in runner.checkpoint_paths(
            self.workdir, "complex", SNR_DB))
        su.se_loss_before = self._se_training_set_loss(su)
        ok, batched = self.ledger.run(
            "batched detect_frames", twostage.detect_frames, su.test["y"],
            su.test["h_est"], su.aapd_eval, su.se_eval, su.table, su.constellation)
        if not ok:
            return None
        su.nn_batched = batched
        if self.tracer is not None:
            for prefix, model in (("cvnn.aapd", su.aapd), ("cvnn.aapd", su.aapd_eval),
                                  ("cvnn.se", su.se), ("cvnn.se", su.se_eval)):
                self.tracer.instrument_net(model.net, prefix)
        return su

    # -- measuring loop ---------------------------------------------------

    def measure(self, su: SetUp) -> None:
        """Interleave the phases' rounds until the measuring time is spent.

        The next round always goes to the phase furthest below its share
        of the time used so far, so every phase samples the whole run and
        a slow stretch of the machine hits all metrics alike. After the
        time is up, phases short of MIN_ROUNDS finish their rounds.
        """
        tr = self.tracer
        opts = {"aapd": cvnn.Adam(su.aapd.net, lr=su.cfg.lr),
                "se": cvnn.Adam(su.se.net, lr=su.cfg.lr)}
        nets = {"aapd": su.aapd.net, "se": su.se.net}
        if self.handover and os.path.exists(self.handover):
            with open(self.handover, "rb") as f:
                state = pickle.load(f)
            for k in opts:
                nets[k].load_state_arrays(state[k]["net"])
                opts[k].load_state(state[k]["adam"])
        ops = {"gen": self._gen_op(su), "aapd": self._aapd_op(su, opts["aapd"]),
               "se": self._se_op(su, opts["se"]), "ml": self._classical_op(su, "ml"),
               "somp": self._classical_op(su, "somp"), "nn": self._nn_op(su),
               "latency": self._latency_op(su)}
        shares = self.wl.shares
        minimum = {p: math.ceil(MIN_ROUNDS[p] / self.parts) * (2 if tr is not None else 1)
                   for p in PHASES}
        spent = dict.fromkeys(PHASES, 0.0)
        rounds = dict.fromkeys(PHASES, 0)
        end = perf_counter() + self.seconds
        while True:
            short = [p for p in PHASES if rounds[p] < minimum[p]]
            if perf_counter() >= end:
                if not short:
                    break
                phase = short[0]
            else:
                phase = min(PHASES, key=lambda p: spent[p] / shares[p])
            r = rounds[phase]
            traced = tr is not None and r % 2 == 1
            if tr is not None:
                tr.set_phase(phase)
                tr.on = traced
            t0 = perf_counter()
            ops[phase](r, traced)
            spent[phase] += perf_counter() - t0
            rounds[phase] = r + 1
            if tr is not None:
                tr.on = False
                tr.set_phase("checks")
        self.se_loss = (su.se_loss_before, self._se_training_set_loss(su))
        if self.handover:
            with open(self.handover, "wb") as f:
                pickle.dump({k: {"net": nets[k].state_arrays(), "adam": opts[k].state()}
                             for k in opts}, f)
        if self.parts == 1:
            check_training(self.ledger, self.losses["aapd"], *self.se_loss, self.skipped)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _units(self, phase: str, n: int, traced: bool) -> None:
        if traced:
            self.tracer.count(f"units.{phase}", n)

    # -- one round of each phase ------------------------------------------

    def _gen_op(self, su: SetUp):
        cfg = su.cfg
        path = os.path.join(self.workdir, "gen.imds")
        base = N_TRAIN + N_TEST

        def op(r, traced):
            start = base + r * N_GEN
            with self._span("bench.gen.round"):
                t0 = perf_counter()
                ok, _ = self.ledger.run("gen-data", dataset.write_dataset, path, cfg,
                                        SNR_DB, N_GEN, start, threads=cfg.threads)
                dt = perf_counter() - t0
                if ok:
                    ok, read = self.ledger.run("read-back", dataset.read_dataset, path)
            if not ok:
                return
            self.samples["gen"].add(dt, N_GEN, traced)
            self._units("gen", N_GEN, traced)
            if traced:
                self.tracer.count("dataset.write.bytes", os.path.getsize(path))
                self.tracer.on = False
            header, arrays = read
            lo = int(self.rng.integers(0, N_GEN - GEN_SAMPLE + 1))
            ref = dataset.generate_arrays(cfg, SNR_DB, GEN_SAMPLE, start + lo)
            self.ledger.check(header.count == N_GEN and _same_frames(arrays, ref, lo),
                              f"gen round {r}: read-back equals generate_arrays")

        return op

    def _batches(self, n: int, phase: str):
        rng = np.random.default_rng([self.seed, PHASES.index(phase), self.part])
        while True:
            perm = rng.permutation(n)
            for lo in range(0, n - BATCH + 1, BATCH):
                yield perm[lo:lo + BATCH]

    def _train_op(self, phase: str, net, opt, x, target, loss, loss_backward):
        """One train step per round: forward, loss, backward, Adam."""
        if self.tracer is not None:
            opt.step = self.tracer.wrap(f"cvnn.adam.{phase}_step", opt.step)
        batches = self._batches(len(x), phase)

        def step(xb, tb):
            out = net.forward(xb, train=True)
            value = loss(out, tb)
            net.backward(loss_backward(out, tb))
            opt.step()
            return value

        def op(r, traced):
            sel = next(batches)
            xb, tb = x[sel], target[sel]
            with self._span(f"bench.{phase}.step"):
                t0 = perf_counter()
                ok, value = self.ledger.run(f"{phase} step", step, xb, tb)
                dt = perf_counter() - t0
            if ok:
                self.samples[phase].add(dt, 1, traced)
                self._units(phase, 1, traced)
                self.losses[phase].append(value)
                self.ledger.check(bool(np.isfinite(value)), f"{phase} step {r}: finite loss")

        return op

    def _aapd_op(self, su: SetUp, opt):
        x = su.train["y"][:, None].astype(np.complex128)
        return self._train_op("aapd", su.aapd.net, opt, x, su.train["g"],
                              cvnn.bce, cvnn.bce_backward)

    def _se_op(self, su: SetUp, opt):
        return self._train_op("se", su.se.net, opt, su.se_x, su.se_target,
                              cvnn.mse, cvnn.mse_backward)

    def _se_training_set_loss(self, su: SetUp) -> float:
        # the SE net has no batch norm, so inference mode is the trained map
        return cvnn.mse(su.se.net.forward(su.se_x, train=False), su.se_target)

    def _classical_op(self, su: SetUp, method: str):
        ref_fn = reference.ml_reference if method == "ml" else reference.somp_reference
        ref = ref_fn(su.test, su.table.tacs, su.constellation.points)
        first = []

        def op(r, traced):
            with self._span(f"bench.{method}.round"):
                ok, res = self.ledger.run(f"eval {method}", runner.run_classical, method,
                                          su.test, su.table, su.constellation,
                                          threads=su.cfg.threads)
            if not ok:
                return
            self.samples[method].add(res["wall_time_s"], res["frames"], traced)
            self._units(method, res["frames"], traced)
            if not first:
                first.append(res)
                self.ledger.check(reference.agrees(res, ref, res["frames"]),
                                  f"{method} BER/TAC accuracy {res['ber']:.6f}/"
                                  f"{res['aap_accuracy']:.6f} vs reference "
                                  f"{ref['ber']:.6f}/{ref['aap_accuracy']:.6f}")
            else:
                self.ledger.check(_scores(res) == _scores(first[0]),
                                  f"{method} round {r} repeats round 0")

        return op

    def _nn_op(self, su: SetUp):
        """run_nn over one half of the test set per round, the halves in
        turn: twice the rounds of whole-set calls, each one inference chunk."""
        bits_b, tacs_b = su.nn_batched
        halves, expected = [], []
        for lo in (0, N_NN):
            half = {k: v[lo:lo + N_NN] for k, v in su.test.items()}
            halves.append(half)
            expected.append({"ber": phy.ber(half["bits"], bits_b[lo:lo + N_NN]),
                             "aap_accuracy": phy.aap_accuracy(
                                 [tuple(np.flatnonzero(g) + 1) for g in half["g"]],
                                 [su.table.tacs[int(t)] for t in tacs_b[lo:lo + N_NN]])})

        def op(r, traced):
            with self._span("bench.nn.round"):
                ok, res = self.ledger.run("eval nn", runner.run_nn, su.aapd_eval,
                                          su.se_eval, halves[r % 2], su.table,
                                          su.constellation)
            if ok:
                self.samples["nn"].add(res["wall_time_s"], res["frames"], traced)
                self._units("nn", res["frames"], traced)
                self.ledger.check(_scores(res) == expected[r % 2],
                                  f"nn round {r} matches batched detect_frames")

        return op

    def _latency_op(self, su: SetUp):
        test = su.test
        bits_b, tacs_b = su.nn_batched

        def op(r, traced):
            i = r % N_TEST
            with self._span("bench.latency.trial"):
                t0 = perf_counter()
                ok, one = self.ledger.run(
                    "detect_frames batch of 1", twostage.detect_frames,
                    test["y"][i:i + 1], test["h_est"][i:i + 1], su.aapd_eval,
                    su.se_eval, su.table, su.constellation)
                dt = perf_counter() - t0
            if ok:
                self.samples["latency"].add(dt, 1, traced)
                self._units("latency", 1, traced)
                self.ledger.check(int(one[1][0]) == int(tacs_b[i])
                                  and np.array_equal(one[0][0], bits_b[i]),
                                  f"frame {i}: batch of 1 equals the batched call")

        return op

    # -- whole run --------------------------------------------------------

    def run(self) -> SetUp | None:
        su = self.set_up()
        if su is None:
            return None
        self.measure(su)
        return su

    def raw(self, import_s: float) -> dict:
        """This part's untraced rounds (seconds per unit), set-up times,
        ledger and training losses, as JSON for the parent run."""
        return {"import_s": import_s, "setup_s": self.setup_s,
                "per_unit_s": {p: self.samples[p].per_unit(False).tolist() for p in PHASES},
                "attempted": self.ledger.attempted, "failed": self.ledger.failed,
                "notes": self.ledger.notes, "skipped": self.skipped,
                "aapd_losses": [float(v) for v in self.losses["aapd"]],
                "se_loss": [float(v) for v in self.se_loss],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def check_training(ledger: Ledger, aapd_losses, se_before: float, se_after: float,
                   skipped: list) -> None:
    """The training losses fall over the run.

    AAPD: the mean loss of the last third of the steps is below that of the
    first third. Adam's first steps overshoot, so fewer than FALL_MIN_STEPS
    steps cannot show the fall; then only finiteness (checked per step)
    counts. SE: the training-set loss after the run is below the one
    before it.
    """
    v = aapd_losses
    if len(v) < FALL_MIN_STEPS:
        skipped.append(f"aapd loss-fall check: {len(v)} steps < {FALL_MIN_STEPS}")
    else:
        k = len(v) // 3
        ledger.check(np.mean(v[-k:]) < np.mean(v[:k]), "aapd training loss falls over the run")
    ledger.check(bool(np.isfinite(se_after)) and se_after < se_before,
                 f"se training-set loss falls over the run ({se_before:.4f} -> {se_after:.4f})")


def end_to_end(parts: list[dict]) -> dict:
    """End-to-end metric values from the untraced rounds of all parts,
    pooled. Set-up time is the median over the parts of import plus
    set-up; peak RSS is the largest part's.

    Every timing is the TAIL-th percentile of its phase's round times; a
    throughput is the frames of a round over that time, the rate that 90%
    of rounds met. Other tenants of a shared host speed it up and slow it
    down in stretches of a fraction of a second to minutes, so round times
    fall in a fast and a slow cluster. How much of a run the fast one
    covers differs from run to run, and some runs have none of it, so the
    median and the fastest round swing by up to 1.4x. The slow cluster is
    present in almost every run and moves far less.
    """
    pooled = {p: np.concatenate([np.asarray(r["per_unit_s"][p], dtype=float) for r in parts])
              for p in PHASES}

    def rate(phase):
        return float(1.0 / np.percentile(pooled[phase], TAIL))

    def tail_ms(phase):
        return float(np.percentile(pooled[phase], TAIL) * 1e3)

    return {
        "setup_s": float(np.median([r["import_s"] + float(np.median(r["setup_s"]))
                                    for r in parts])),
        "gen_frames_per_s": rate("gen"),
        "ml_frames_per_s": rate("ml"),
        "somp_frames_per_s": rate("somp"),
        "nn_frames_per_s": rate("nn"),
        "nn_latency_ms_p90": tail_ms("latency"),
        "aapd_step_ms_p90": tail_ms("aapd"),
        "se_step_ms_p90": tail_ms("se"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in parts),
    }


def _scores(res: dict) -> dict:
    return {"ber": res["ber"], "aap_accuracy": res["aap_accuracy"]}

