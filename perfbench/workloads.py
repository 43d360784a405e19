"""Benchmark workloads: the system each one simulates and how it splits its
measuring time between the timed phases.

Every workload runs every phase, because every end-to-end metric is
reported on every workload; the two differ in the system simulated, so the
same layers are used differently.
Phases: gen (write .imds), aapd / se (train steps), ml / somp / nn (eval
over the test set) and latency (one frame through detect_frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field

SNR_DB = 15.0
BATCH = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: dict
    csi_error_var: float
    threads: int
    shares: dict = field(default_factory=dict)

    def config_fields(self) -> dict:
        return dict(self.system, csi_error_var=self.csi_error_var,
                    threads=self.threads, snr_db=[SNR_DB], batch=BATCH)


_SYSTEM_4X1 = {"n_t": 4, "n_u": 1, "n_r": 4, "t": 16, "m": 4}
_SYSTEM_8X2 = {"n_t": 8, "n_u": 2, "n_r": 8, "t": 16, "m": 4}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="4x1-static",
        why=("n_t=4 n_u=1 n_r=4 t=16 4-QAM, 15 dB, csi_error_var=0, 1 thread, batch "
             "100: the default system; every frame shares one H_est; most time in "
             "AAPD train steps"),
        system=_SYSTEM_4X1, csi_error_var=0.0, threads=1,
        shares={"gen": 0.08, "aapd": 0.36, "se": 0.08, "ml": 0.08, "somp": 0.08,
                "nn": 0.18, "latency": 0.14}),
    Workload(
        name="8x2-csi",
        why=("n_t=8 n_u=2 n_r=8 t=16 4-QAM, 15 dB, csi_error_var=0.01, 1 thread: "
             "H_est differs per frame, 12 of 28 top-2 sets illegal, 16x the ML "
             "hypotheses"),
        system=_SYSTEM_8X2, csi_error_var=0.01, threads=1,
        shares={"gen": 0.07, "aapd": 0.36, "se": 0.07, "ml": 0.12, "somp": 0.08,
                "nn": 0.18, "latency": 0.12}),
)}
