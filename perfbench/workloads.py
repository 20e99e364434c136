"""The benchmark's workloads: one `lorafreq synth` input and the commands run on it.

Sizes are fixed; only the synth seed comes from the benchmark's --seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

# What the benchmark asks of the CLI: mask's k, analyze's default energy
# target, and correlate's documented exit code for a constant k90 series.
MASK_K = 10.0
ENERGY_TARGET = 0.9
DEGENERATE_EXIT = 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    m: int
    n: int
    count: int
    commands: tuple[str, ...]
    why: str
    r: int | None = None
    noise_level: float | None = None
    rank_ramp: bool = False
    sweep_k: str = "1,5,10,25,50"

    def synth_args(self, seed: int, out: str) -> list[str]:
        args = ["synth", "--kind", self.kind, "--m", str(self.m), "--n", str(self.n)]
        if self.r is not None:
            args += ["--r", str(self.r)]
        if self.noise_level is not None:
            args += ["--noise-level", repr(self.noise_level)]
        if self.rank_ramp:
            args.append("--rank-ramp")
        return args + ["--count", str(self.count), "--seed", str(seed), "--out", out]

    def fixture_specs(self, lf, seed: int):
        """The FixtureSpec list `synth` builds for this workload.

        `lf` is the lorafreq package, passed in because run.py imports this
        module and must not load numpy.
        """
        noise = self.noise_level or 0.0
        if self.rank_ramp:
            return lf.ramp_specs(self.kind, self.m, self.n, self.count, seed, noise)
        base = lf.FixtureSpec(
            kind=self.kind, m=self.m, n=self.n, r=self.r or 1, seed=seed,
            noise_level=noise,
        )
        return lf.repeat_specs(base, self.count)

    def scaled(self, m: int, n: int, count: int) -> "Workload":
        """Same shape of work at another size; the smoke tests use this."""
        r = None if self.r is None else min(self.r, m, n)
        return dataclasses.replace(self, m=m, n=n, count=count, r=r)


# Every workload runs analyze, mask, decompress and sweep, so the end-to-end
# metrics of those commands exist everywhere. correlate runs only where the
# hand-built Jacobi SVD finishes in seconds: on the BERT-like set it takes
# about 390 s per run and on 4096^2 far longer.
WORKLOADS = (
    Workload(
        name="bert-768x12-r8",
        kind="mixed", m=768, n=768, r=8, noise_level=0.3, count=12,
        commands=("analyze", "mask", "decompress", "sweep"),
        why="BERT-base-like set: 12 mid-size rank-8 updates, so per-matrix "
        "overhead, the thread pool and sweep's per-k sort and inverse DCT dominate",
    ),
    Workload(
        name="wide-4096x2-r16",
        kind="gaussian_iid", m=4096, n=4096, r=16, count=2,
        commands=("analyze", "mask", "decompress", "sweep"),
        sweep_k="5,25",
        why="two 128 MB 4096^2 updates with a diffuse spectrum, so copies, "
        "full-size sorts, output writes and peak memory dominate",
    ),
    Workload(
        name="svd-ramp-128x12",
        kind="mixed", m=128, n=128, noise_level=0.3, rank_ramp=True, count=12,
        commands=("analyze", "mask", "decompress", "sweep", "correlate"),
        why="ranks 1..12 on 128^2: correlate's Jacobi SVD is over 90% of the "
        "work and both k90 series vary, the case a factor-based SVD exploits",
    ),
    Workload(
        name="fullrank-128x6",
        kind="dense_gaussian", m=128, n=128, count=6,
        commands=("analyze", "mask", "decompress", "sweep", "correlate"),
        why="full-rank updates (r = n) through the same code, so low-rank "
        "DCT/SVD shortcuts save nothing; guards them against slowing this case",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
