"""The benchmark's workloads: inputs made from a seed, one op through the
public CLI entry point, and the correctness check of that op.

Scenes come from a fixed pool of scene seeds so that every scene has its
per-method ERGAS (and, for `fuse-envi`, SAM) recorded in `reference.json`.
The run seed picks the scenes; the program only sees the generated inputs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import random
import shutil

import numpy as np

# Program functions that set-up calls go through their modules, so that a
# traced run's rebinding of those module attributes sees the calls.
from hspansharp.harness import cli, envi, scene
from hspansharp.harness.registry import MethodContext, get_method
from hspansharp.imgcore import DynamicRange, SpectralImage
from hspansharp.sensorsim import SensorModel, default_pan_response, kernel_from_mtf

# A scored value may exceed its recorded value by this share: float rounding
# from a reordered sum, never an accuracy loss that matters.
TOLERANCE = 1e-6
WALD_METHODS = (
    "SFIM", "MTF-GLP", "MTF-GLP-HPM", "GS", "GSA",
    "PCA", "GFPCA", "CNMF", "BayesNaive", "HySure",
)
FUSE_METHODS = WALD_METHODS[:7]


class CheckFailed(Exception):
    """An op's output is missing, malformed, or less accurate than recorded."""


def compare(reference: dict | None, scene_seed: int, scores: dict) -> dict:
    """Fail when any score of the scene is above its recorded value; no
    comparison when `reference` is None (while recording it)."""
    if reference is None:
        return scores
    recorded = reference.get(str(scene_seed))
    if recorded is None:
        raise CheckFailed(f"scene {scene_seed} has no recorded scores")
    for method, values in scores.items():
        for key, value in values.items():
            limit = recorded[method][key] * (1.0 + TOLERANCE)
            if not value <= limit:
                raise CheckFailed(
                    f"scene {scene_seed} {method}: {key} {value!r} above recorded"
                    f" {recorded[method][key]!r}"
                )
    return scores


class WaldWorkload:
    """`hspansharp bench` over one scene per op, cycling through the pool.

    Without `crop` the op is the default bench on a synthetic scene. With
    `crop`, set-up writes the top-left `size` crop of a larger (so
    non-periodic) scene as a float64 ENVI reference, and the op runs bench on
    it with `snr-db` noise.
    """

    def __init__(self, work_dir, seed, reference, pool, crop=None, snr_db=None):
        self.work_dir = work_dir
        self.reference = reference
        self.crop = crop
        self.snr_db = snr_db
        self.order = random.Random(seed).sample(range(pool), pool)
        self.out_dir = os.path.join(work_dir, "out")
        self.cycle = 1  # ops in one round of the op mix
        self.voxels_per_op = 100 * 100 * 40 * len(WALD_METHODS)
        self.cube_mb = 100 * 100 * 40 * 8 / 1e6  # one float64 reference cube

    def scene(self, index: int) -> int:
        return self.order[index % len(self.order)]

    def _ref_path(self, index: int) -> str:
        return os.path.join(self.work_dir, f"ref{self.scene(index)}")

    def setup(self) -> None:
        self.prepare(0)

    def prepare(self, index: int) -> None:
        """Write the op's inputs (before it is timed) and clear old output."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.crop is None:
            return
        big, size = self.crop
        full = scene.synth_scene(self.scene(index), 3, big, big, 40)
        cube = full.to_cube()[:, :size, :size]
        image = SpectralImage(size, size, cube.reshape(40, -1), full.wavelengths)
        envi.save_raster(self._ref_path(index), image)

    def argv(self, index: int) -> list[str]:
        argv = ["bench", "--output-dir", self.out_dir]
        argv += ["--set", f"seed={self.scene(index)}"]
        if self.crop is not None:
            argv += ["--set", f"input={self._ref_path(index)}"]
            argv += ["--set", f"snr-db={self.snr_db:g}"]
        return argv

    def check(self, index: int, rc) -> dict:
        """Per-method ERGAS of the op, checked against the recorded values."""
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        path = os.path.join(self.out_dir, "report.csv")
        try:
            with open(path, newline="", encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise CheckFailed(f"no report: {exc}") from None
        scores = {}
        for row in rows:
            values = [float(row[k]) for k in ("CC", "SAM", "RMSE", "ERGAS", "time_s")]
            if not all(math.isfinite(v) for v in values):
                raise CheckFailed(f"{row['method']}: non-finite report row")
            scores[row["method"]] = {"ERGAS": float(row["ERGAS"])}
        if tuple(scores) != WALD_METHODS:
            raise CheckFailed(f"report lists {tuple(scores)}")
        return compare(self.reference, self.scene(index), scores)


def ergas(fused: np.ndarray, truth: np.ndarray, ratio: int) -> float:
    """100/ratio * sqrt(mean over bands of (band RMSE / band mean)^2)."""
    diff = fused - truth
    rmse = np.sqrt(np.mean(diff * diff, axis=1))
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / truth.mean(axis=1)) ** 2)))


def sam_deg(fused: np.ndarray, truth: np.ndarray) -> float:
    """Mean spectral angle over pixels, in degrees."""
    dot = np.einsum("bp,bp->p", fused, truth)
    norms = np.sqrt(np.einsum("bp,bp->p", fused, fused) * np.einsum("bp,bp->p", truth, truth))
    return float(np.degrees(np.arccos(np.clip(dot / norms, -1.0, 1.0)).mean()))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


class FuseWorkload:
    """`hspansharp fuse --dtype float32` on one ENVI scene made by `synth`
    and `degrade`, cycling through the non-iterative methods."""

    height, width, bands, ratio = 480, 320, 120, 4
    snr_db = 30

    def __init__(self, work_dir, seed, reference, pool):
        self.reference = reference
        self.pool = pool
        self.scene_seed = random.Random(seed).randrange(pool)
        self.cycle = len(FUSE_METHODS)
        self.voxels_per_op = self.height * self.width * self.bands
        self.cube_mb = self.voxels_per_op * 8 / 1e6  # one float64 cube in memory
        self._paths = {k: os.path.join(work_dir, k) for k in ("truth", "hs", "pan", "out")}
        self._verified = {}  # method -> (sha256 of the payload, scores)
        self._inputs = None

    def method(self, index: int) -> str:
        return FUSE_METHODS[index % len(FUSE_METHODS)]

    def scene(self, index: int) -> int:
        return self.scene_seed

    def setup(self) -> None:
        seed = str(self.scene_seed)
        p = self._paths
        commands = (
            ["synth", "--out", p["truth"], "--height", str(self.height),
             "--width", str(self.width), "--bands", str(self.bands),
             "--seed", seed, "--dtype", "float32"],
            ["degrade", "--truth", p["truth"], "--out-hs", p["hs"], "--out-pan", p["pan"],
             "--ratio", str(self.ratio), "--snr-db", str(self.snr_db),
             "--seed", seed, "--dtype", "float32"],
        )
        for argv in commands:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {rc}")
        self._verified.clear()
        self._inputs = None

    def prepare(self, index: int) -> None:
        for ext in (".hdr", ".dat"):
            with_ext = self._paths["out"] + ext
            if os.path.exists(with_ext):
                os.remove(with_ext)

    def argv(self, index: int) -> list[str]:
        p = self._paths
        return ["fuse", "--method", self.method(index), "--hs", p["hs"],
                "--pan", p["pan"], "--out", p["out"], "--dtype", "float32"]

    def _reference_fuse(self, method: str) -> np.ndarray:
        """The same fusion called in-process on the same loaded rasters, with
        the sensor model `hspansharp fuse` assembles from its defaults."""
        if self._inputs is None:
            self._inputs = (envi.load_raster(self._paths["hs"]), envi.load_raster(self._paths["pan"]))
        y_h, pan = self._inputs
        ratio = pan.height // y_h.height
        response = default_pan_response(y_h.bands, y_h.wavelengths)
        model = SensorModel(
            ratio=ratio, blur=kernel_from_mtf(ratio, 0.3),
            spectral_response=response[np.newaxis, :],
        )
        lo, hi = float(y_h.data.min()), float(y_h.data.max())
        ctx = MethodContext(
            y_h=y_h, pan=pan, model=model,
            range=DynamicRange(lo, hi if hi > lo else lo + 1.0),
            gnyq=0.3, seed=0, subspace_dim=None, params={},
        )
        return get_method(method)(ctx).data

    def _check_output_file(self) -> str:
        """The payload path, once the header and payload size are right."""
        hdr, dat = self._paths["out"] + ".hdr", self._paths["out"] + ".dat"
        try:
            with open(hdr, encoding="ascii") as fh:
                header = {k.strip(): v.strip() for k, sep, v in
                          (line.partition("=") for line in fh) if sep}
            size = os.path.getsize(dat)
        except OSError as exc:
            raise CheckFailed(f"no output raster: {exc}") from None
        want = {"samples": self.width, "lines": self.height, "bands": self.bands, "data type": 4}
        for key, value in want.items():
            if header.get(key) != str(value):
                raise CheckFailed(f"output header {key} = {header.get(key)!r}, want {value}")
        if size != self.voxels_per_op * 4:
            raise CheckFailed(f"output payload is {size} bytes, want {self.voxels_per_op * 4}")
        return dat

    def check(self, index: int, rc) -> dict:
        """Shape, dtype and pixels of the written raster, then its ERGAS and
        SAM against the truth, checked against the recorded values.

        Arrays are loaded one after another so that the check's own peak
        memory stays below the op's."""
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        method = self.method(index)
        dat = self._check_output_file()
        digest = _sha256(dat)
        known = self._verified.get(method)
        if known is not None and known[0] == digest:
            return {method: known[1]}
        expected = self._reference_fuse(method)
        fused = np.fromfile(dat, dtype="<f4").astype(np.float64).reshape(self.bands, -1)
        # One float32 ulp of the in-process result, plus slack near zero.
        magnitude = np.abs(expected)
        worst = float(np.max(np.abs(fused - expected) - magnitude * 2.0**-23))
        worst -= float(magnitude.max()) * 2.0**-40
        del expected, magnitude
        if not worst <= 0.0:
            raise CheckFailed(f"{method}: pixels differ from the in-process call by {worst!r}")
        truth = envi.load_raster(self._paths["truth"]).data
        scores = {"ERGAS": ergas(fused, truth, self.ratio), "SAM": sam_deg(fused, truth)}
        self._verified[method] = (digest, scores)
        return compare(self.reference, self.scene_seed, {method: scores})


WORKLOADS = {
    "wald-100": functools.partial(WaldWorkload, pool=64),
    "wald-crop": functools.partial(WaldWorkload, pool=64, crop=(125, 100), snr_db=30.0),
    "fuse-envi": functools.partial(FuseWorkload, pool=16),
}


def make_workload(name: str, work_dir: str, seed: int, reference: dict | None):
    """`reference` is the workload's recorded scores, or None to skip that
    comparison (used only while recording them)."""
    return WORKLOADS[name](work_dir, seed, reference)
