"""Per-layer metrics of a traced run, by package module.

Instrumentation (`instrument`) wraps the package's public functions and
the passes of each network; `metrics` turns the recorded spans into the
per-layer figures. Busy times and call counts are normalized by the frames
that the phases producing them processed in traced rounds, so runs of
different length compare. Layer pass times are medians per call at a fixed
batch. Figures marked `computed` come from array shapes, not from timing:
FLOPs follow `count_flops` (8 per complex MAC, 2 per real MAC; a backward
pass costs twice its forward), bytes are input + output + parameters.
"""

from __future__ import annotations

import math

import numpy as np

from immimo import cvnn, dataset, detectors, linalg, modulation, phy, runner, twostage
from immimo.cvnn import Model, count_flops

from tracer import SpanStats, Tracer, leaf_layers
from workloads import BATCH

INFER_CHUNK = 256                 # detect_frames' default chunk
MAC_KINDS = ("complex_conv2d", "real_conv2d", "complex_dense", "real_dense",
             "real_head_dense")
SKIP_KINDS = ("flatten",)         # a reshape; no optimization moves it

GEN = ("gen",)
EVAL = ("ml", "somp", "nn")
RNG_METHODS = ("__init__", "derive", "raw", "uniform", "normals", "bits",
               "permutation", "symmetric_uniform")


def _observe_topn(tracer: Tracer, args, result) -> None:
    p, table = args[0], args[1]
    top = np.argsort(-p, axis=1, kind="stable")[:, :table.n_u]
    mask = np.zeros(p.shape, dtype=np.int64)
    np.put_along_axis(mask, top, 1, axis=1)
    legal = np.zeros((table.n_l, table.n_t), dtype=np.int64)
    for i, tac in enumerate(table.tacs):
        legal[i, [a - 1 for a in tac]] = 1
    illegal = ~((mask @ legal.T) == table.n_u).any(axis=1)
    tracer.count("twostage.illegal_topn", int(illegal.sum()))
    tracer.count("twostage.topn_sets", len(p))


def instrument(tracer: Tracer, table) -> None:
    """Wrap the package's public functions and methods (not the nets)."""
    def observe_somp(tr, args, support):
        tr.count("detectors.somp_nonlegal", int(tuple(support) not in table))

    for module, attr, name, group, observe in (
        (linalg, "complex_gaussian", "linalg.complex_gaussian", None, None),
        (linalg, "ls_solve", "linalg.ls_solve", None, None),
        (phy, "assemble_frame", "phy.assemble_frame", None, None),
        (phy, "corrupt_csi", "phy.corrupt_csi", None, None),
        (phy, "apply_channel", "phy.apply_channel", None, None),
        (phy, "demap_frame", "phy.demap_frame", None, None),
        (detectors, "ml_detect", "detectors.ml_detect", None, None),
        (detectors, "somp_detect", "detectors.somp_detect", None, observe_somp),
        (detectors, "zf_estimate", "detectors.zf_estimate", None, None),
        (dataset, "generate_frame_data", "dataset.generate_frame", None, None),
        (dataset, "write_dataset", "dataset.write", None, None),
        (dataset, "read_dataset", "dataset.read", None, None),
        (runner, "run_classical", "runner.run_classical", None, None),
        (runner, "run_nn", "runner.run_nn", None, None),
        (twostage, "detect_frames", "twostage.detect_frames", None, None),
        (twostage, "tacs_from_probabilities", "twostage.legalize", None, _observe_topn),
        (cvnn, "bce", "cvnn.bce", None, None),
        (cvnn, "bce_backward", "cvnn.bce_backward", "cvnn.bce", None),
        (cvnn, "mse", "cvnn.mse", None, None),
        (cvnn, "mse_backward", "cvnn.mse_backward", "cvnn.mse", None),
    ):
        tracer.patch_function(module, attr, name, group, observe)
    for method in RNG_METHODS:
        tracer.patch_method(linalg.Rng, method, f"linalg.rng.{method}", "linalg.rng")
    tracer.patch_method(modulation.QamConstellation, "modulate", "modulation.modulate")
    tracer.patch_method(modulation.QamConstellation, "demodulate", "modulation.demodulate")
    tracer.patch_method(Model, "save", "cvnn.checkpoint.save")
    tracer.patch_method(Model, "load", "cvnn.checkpoint.load")


def layer_shapes(net, frame_shape) -> list[dict]:
    """Per leaf layer: name stem, kind, computed FLOPs and bytes per frame."""
    leaves = leaf_layers(net)
    x = np.zeros((1,) + tuple(frame_shape), dtype=np.complex128)
    out = []
    for i, layer in enumerate(leaves):
        y = layer.forward(x, train=False)
        flops = (count_flops(Model(leaves[:i + 1]), frame_shape)
                 - count_flops(Model(leaves[:i]), frame_shape))
        params = sum(a.nbytes for _, a in layer.param_items())
        out.append({"stem": f"{i:02d}_{layer.kind}", "kind": layer.kind,
                    "flops": flops, "act_bytes": x.nbytes + y.nbytes,
                    "param_bytes": params})
        x = y
    return out


def metrics(st: SpanStats, tracer: Tracer, bench, su) -> dict:
    units = {p: tracer.counts.get((f"units.{p}", p), 0.0) for p in tracer.phases}

    def frames(phases):
        # nan (reported as not measured) when no traced round completed
        return sum(units.get(p, 0.0) for p in phases) or math.nan

    def per_kframe(group, phases):
        return st.busy_s(group, phases) * 1e3 / frames(phases) * 1e3

    def per_frame(name, phases):
        return st.calls(name, phases) / frames(phases)

    out = {}
    nets = (("aapd", su.aapd.net, (1, su.cfg.n_r, su.cfg.t)),
            ("se", su.se.net, (1, su.cfg.n_u, su.cfg.t)))
    for net_name, net, frame_shape in nets:
        for layer in layer_shapes(net, frame_shape):
            if layer["kind"] in SKIP_KINDS:
                continue
            base = f"cvnn.{net_name}.{layer['stem']}"
            fwd = st.median_s(base + ".fwd", tag=BATCH)
            bwd = st.median_s(base + ".bwd", tag=BATCH)
            out[base + ".fwd_ms"] = fwd * 1e3
            out[base + ".bwd_ms"] = bwd * 1e3
            out[base + ".infer_ms"] = st.median_s(base + ".infer", tag=INFER_CHUNK) * 1e3
            if layer["kind"] in MAC_KINDS:
                flop = BATCH * layer["flops"]
                out[base + ".fwd_flop_computed"] = float(flop)
                out[base + ".fwd_bytes_computed"] = float(
                    BATCH * layer["act_bytes"] + layer["param_bytes"])
                out[base + ".fwd_gflops"] = flop / fwd / 1e9
                out[base + ".bwd_gflops"] = 2 * flop / bwd / 1e9
    out["cvnn.adam.aapd_step_ms"] = st.median_s("cvnn.adam.aapd_step") * 1e3
    out["cvnn.adam.se_step_ms"] = st.median_s("cvnn.adam.se_step") * 1e3
    out["cvnn.bce_ms"] = st.per_round_median_s(
        st.group_names("cvnn.bce"), "bench.aapd.step", ("aapd",)) * 1e3
    out["cvnn.mse_ms"] = st.per_round_median_s(
        st.group_names("cvnn.mse"), "bench.se.step", ("se",)) * 1e3
    out["cvnn.checkpoint.save_ms"] = st.per_round_median_s(
        ["cvnn.checkpoint.save"], "bench.setup", ("setup",)) * 1e3
    out["cvnn.checkpoint.load_ms"] = st.per_round_median_s(
        ["cvnn.checkpoint.load"], "bench.setup", ("setup",)) * 1e3
    out["cvnn.checkpoint.bytes"] = float(bench.ckpt_bytes)

    nn = ("nn",)
    out["twostage.aapd_forward_ms"] = per_kframe("cvnn.aapd.infer", nn)
    out["twostage.legalize_ms"] = per_kframe("twostage.legalize", nn)
    out["twostage.zf_ms"] = per_kframe("detectors.zf_estimate", nn)
    out["twostage.se_forward_ms"] = per_kframe("cvnn.se.infer", nn)
    out["twostage.demap_ms"] = per_kframe("phy.demap_frame", nn)
    out["twostage.illegal_topn_frac"] = (tracer.counts.get(("twostage.illegal_topn", "nn"), 0)
                                         / max(tracer.counts.get(("twostage.topn_sets", "nn"), 0), 1))

    for name, phases in (("ml_detect", ("ml",)), ("somp_detect", ("somp",)),
                         ("zf_estimate", ("somp", "nn"))):
        out[f"detectors.{name}.busy_ms"] = per_kframe(f"detectors.{name}", phases)
        out[f"detectors.{name}.calls"] = per_frame(f"detectors.{name}", phases)
    out["detectors.somp_nonlegal_frac"] = (tracer.counts.get(("detectors.somp_nonlegal", "somp"), 0)
                                           / max(st.calls("detectors.somp_detect", ("somp",)), 1))

    solve = ("somp", "nn")
    out["linalg.ls_solve.calls"] = per_frame("linalg.ls_solve", solve)
    out["linalg.ls_solve.busy_ms"] = per_kframe("linalg.ls_solve", solve)
    out["linalg.ls_solve.failed"] = float(sum(
        v for (k, p), v in tracer.counts.items() if k == "linalg.ls_solve.failed"))
    out["linalg.rng.busy_ms"] = per_kframe("linalg.rng", GEN)
    out["linalg.rng.derive_calls"] = per_frame("linalg.rng.derive", GEN)
    out["linalg.complex_gaussian.busy_ms"] = per_kframe("linalg.complex_gaussian", GEN)
    for name, phases in (("assemble_frame", GEN), ("corrupt_csi", GEN),
                         ("apply_channel", GEN), ("demap_frame", EVAL)):
        out[f"phy.{name}.busy_ms"] = per_kframe(f"phy.{name}", phases)
        out[f"phy.{name}.calls"] = per_frame(f"phy.{name}", phases)
    out["modulation.modulate.busy_ms"] = per_kframe("modulation.modulate", GEN)
    out["modulation.demodulate.busy_ms"] = per_kframe("modulation.demodulate", EVAL)
    out["dataset.generate_frame.busy_ms"] = per_kframe("dataset.generate_frame", GEN)
    out["dataset.write.busy_ms"] = per_kframe("dataset.write", GEN)
    out["dataset.write.bytes"] = tracer.counts.get(("dataset.write.bytes", "gen"), 0) / frames(GEN)
    out["dataset.read.busy_ms"] = per_kframe("dataset.read", GEN)
    classical = ("ml", "somp")
    out["runner.run_classical.self_ms"] = (st.self_s("runner.run_classical", classical)
                                           * 1e3 / frames(classical) * 1e3)
    out["runner.run_nn.self_ms"] = st.self_s("runner.run_nn", nn) * 1e3 / frames(nn) * 1e3

    out.update(_overhead(bench))
    return out


def _overhead(bench) -> dict:
    """Tracing overhead from the alternating traced/untraced rounds."""
    traced_total = est_untraced = 0.0
    for phase, s in bench.samples.items():
        on, off = s.per_unit(True), s.per_unit(False)
        if len(on) and len(off):
            units = np.array(s.units, dtype=float)[np.array(s.traced, dtype=bool)]
            traced_total += float((on * units).sum())
            est_untraced += float(np.median(off) * units.sum())
    on, off = bench.samples["aapd"].per_unit(True), bench.samples["aapd"].per_unit(False)
    return {"trace.overhead_frac": traced_total / est_untraced - 1.0 if est_untraced else math.nan,
            "trace.aapd_step_overhead_ms": float(np.median(on) - np.median(off)) * 1e3
            if len(on) and len(off) else math.nan}


def step_accounting(st: SpanStats, out: dict, bench) -> dict:
    """The AAPD step taken apart: the sum of its traced parts, the traced
    step's own time outside them (model plumbing and wrapper cost), and the
    traced and untraced step medians."""
    parts = sum(v for k, v in out.items()
                if k.startswith("cvnn.aapd.") and k.endswith((".fwd_ms", ".bwd_ms")))
    parts += out["cvnn.adam.aapd_step_ms"] + out["cvnn.bce_ms"]
    steps = st.mask(["bench.aapd.step"], ("aapd",))
    a = bench.samples["aapd"]
    return {"layer_sum_ms": parts,
            "traced_step_self_ms": float(np.median(st.self_time[steps])) * 1e3,
            "traced_step_p50_ms": float(np.median(a.per_unit(True))) * 1e3,
            "untraced_step_p50_ms": float(np.median(a.per_unit(False))) * 1e3}
