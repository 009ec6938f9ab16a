"""The benchmark's four workloads: seeded inputs, program builds,
sequential references and output checks.

Every workload runs with 2 workers, batch 32 and vectorized bodies (the
CLI defaults apart from the worker count).  Inputs are generated from
the benchmark seed before any clock starts and reach the program only
through ``frames=`` / ``jpegs=`` or, for the live encoder, the
benchmark's own :class:`SeededCamera`.  ``build_kmeans`` takes only a
seed, so its 2,000-point dataset is generated inside the build and
therefore inside ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.media.yuv import synthetic_sequence
from repro.stream import FrameSource
from repro.workloads.kmeans import build_kmeans, kmeans_baseline
from repro.workloads.mjpeg import (
    MJPEGConfig,
    build_mjpeg,
    build_mjpeg_stream,
    mjpeg_baseline,
)
from repro.workloads.ops_transcode import (
    TranscodeConfig,
    build_transcode,
    make_input_jpegs,
    transcode_baseline,
)

WORKERS = 2
BATCH = 32

#: Live encoder pacing: open loop, no deadline (nothing is shed).  The
#: encoder's capacity on the 2-core development host ranged from 2.1 to
#: 3.4 fps as other load on the machine came and went; 1.5 fps stays
#: under it throughout, so latency measures service, not a growing
#: backlog.
LIVE_FPS = 1.5
LIVE_LAG_WINDOW = 8
#: Distinct frames the live camera loops over (the reference is
#: computed once per distinct frame).
LIVE_CLIP = 16
#: Latency limit behind ``late_frac``.
LATE_LIMIT_MS = 1000.0


@dataclass
class Built:
    """One program ready to run: ``outputs()`` reads what it produced,
    ``item_key`` is the ``ctx.output`` key whose delivery completes an
    item, and ``binding`` is set for live programs."""

    program: Any
    outputs: Callable[[], Any]
    item_key: str
    binding: Any = None


class SeededCamera(FrameSource):
    """The live workload's source: a seeded clip looped forever, so
    frame ``t`` is ``clip[t % len(clip)]``.  The stream driver paces it;
    this class only supplies pixels."""

    def __init__(self, clip) -> None:
        self.clip = list(clip)

    def frames(self):
        t = 0
        while True:
            yield self.clip[t % len(self.clip)]
            t += 1


class Workload:
    """Interface of one benchmark workload."""

    name = ""
    backend = "threads"
    live = False
    first_item_age = 0

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def make_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def items(self, inputs) -> int:
        """Items one program run completes."""
        raise NotImplementedError

    def reference(self, inputs) -> Any:
        """The sequential reference output on the same inputs."""
        raise NotImplementedError

    def build(self, inputs, seconds: float = 0.0) -> Built:
        raise NotImplementedError

    def matches(self, output, expected) -> bool:
        return output == expected


class MjpegCif(Workload):
    """Paper headline: batch MJPEG of CIF frames; 2,376 DCT instances and
    one serial vlc per frame load dispatch, analyzer fan-in, vectorized
    DCT and Huffman coding."""

    name = "mjpeg-cif"

    def make_inputs(self, seed: int):
        w, h, n = (64, 64, 2) if self.smoke else (352, 288, 8)
        cfg = MJPEGConfig(width=w, height=h, frames=n, seed=seed)
        return cfg, synthetic_sequence(n, w, h, seed)

    def items(self, inputs) -> int:
        return len(inputs[1])

    def reference(self, inputs):
        cfg, frames = inputs
        return mjpeg_baseline(frames, cfg)

    def build(self, inputs, seconds: float = 0.0) -> Built:
        cfg, frames = inputs
        program, sink = build_mjpeg(frames=frames, config=cfg)
        return Built(program, sink.stream, "frame")


class KmeansPaper(Workload):
    """Paper K-means n=2000 K=100, 10 iterations, point granularity: tiny
    bodies and a reduction barrier per age, so analyzer and dispatch
    dominate; runs no media code."""

    name = "kmeans-paper"
    #: Age 0 carries the initial means; iterations are ages 1..n.
    first_item_age = 1

    def make_inputs(self, seed: int):
        if self.smoke:
            return dict(n=200, k=10, iterations=3, seed=seed)
        return dict(n=2000, k=100, iterations=10, seed=seed)

    def items(self, inputs) -> int:
        return inputs["iterations"]

    def reference(self, inputs):
        return kmeans_baseline(**inputs).history

    def build(self, inputs, seconds: float = 0.0) -> Built:
        program, result = build_kmeans(granularity="point", **inputs)
        return Built(program, lambda: result.history, "centroids")

    def matches(self, output, expected) -> bool:
        return sorted(output) == sorted(expected) and all(
            np.array_equal(output[a], expected[a]) for a in expected
        )


class TranscodeCif(Workload):
    """The repro.ops decode, 2x downscale, re-encode of CIF JPEGs: the only
    workload through ops compile and media decode, a 10-kernel chain
    with a 2x2 stencil fetch."""

    name = "transcode-cif"

    def make_inputs(self, seed: int):
        w, h, n = (64, 64, 2) if self.smoke else (352, 288, 4)
        cfg = TranscodeConfig(width=w, height=h, frames=n, seed=seed)
        return cfg, make_input_jpegs(cfg)

    def items(self, inputs) -> int:
        return len(inputs[1])

    def reference(self, inputs):
        cfg, jpegs = inputs
        return transcode_baseline(cfg, jpegs)

    def build(self, inputs, seconds: float = 0.0) -> Built:
        cfg, jpegs = inputs
        pipeline = build_transcode(cfg, jpegs)
        return Built(
            pipeline.program, lambda: pipeline.collector().values(),
            "frame",
        )


class MjpegCifLive(Workload):
    """Live CIF encoder on processes: open loop at 1.5 fps, lag window 8,
    no deadline; the only workload for stream/ and IPC, measured by
    latency."""

    name = "mjpeg-cif-live"
    backend = "processes"
    live = True

    @property
    def fps(self) -> float:
        return 20.0 if self.smoke else LIVE_FPS

    def make_inputs(self, seed: int):
        w, h = (64, 64) if self.smoke else (352, 288)
        n = 4 if self.smoke else LIVE_CLIP
        cfg = MJPEGConfig(width=w, height=h, frames=n, seed=seed)
        return cfg, synthetic_sequence(n, w, h, seed)

    def items(self, inputs) -> int:
        return len(inputs[1])

    def reference(self, inputs):
        """Per-frame reference bytes of the clip."""
        cfg, clip = inputs
        return [mjpeg_baseline([f], cfg) for f in clip]

    def build(self, inputs, seconds: float = 0.0) -> Built:
        from repro.stream import StreamConfig

        cfg, clip = inputs
        program, sink, binding = build_mjpeg_stream(
            cfg,
            StreamConfig(
                fps=self.fps,
                duration=max(seconds, 1e-3),
                lag_window=LIVE_LAG_WINDOW,
            ),
            source=SeededCamera(clip),
        )
        return Built(program, lambda: dict(sink.frames), "frame", binding)

    def frame_ok(self, outputs, expected, age: int) -> bool:
        return outputs.get(age) == expected[age % len(expected)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (MjpegCif, KmeansPaper, MjpegCifLive, TranscodeCif)
}
