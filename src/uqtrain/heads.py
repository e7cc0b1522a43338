"""Network definition, the two-branch uncertainty head, and checkpoints.

A Network is a short stack of affine blocks.  Each block's flat output
is read as a small (C, H, W) grid, so channel statistics exist even for
vector inputs; the grid is metadata the block carries, not an op on the
tape.  Two affine heads follow: one predicts an embedding mean, the
other a per-dimension sigma through softplus.  A bias-free classifier
matrix maps embeddings to class logits.  Sigma is built only where it is
read: by the train steps whose mixup blends partners, and by the scoring
pass that ranks samples by it.

Checkpoints are a single JSON file.  Parameter buffers are embedded as
base64 little-endian float64 bytes, so save/load round-trips bitwise.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DataFormatError
from .files import atomic_open
from .rng import STREAM_INIT, keyed_rng

# additive floor keeping every predicted sigma strictly positive
SIGMA_FLOOR = 1e-6

CHECKPOINT_FORMAT = "uqtrain-checkpoint"
CHECKPOINT_VERSION = 1


class DenseGridBlock:
    """Affine layer whose flat (B, C * H * W) output is read as a (C, H, W)
    grid by the statistics that compensation takes."""

    def __init__(self, weight: T.DiffArray, bias: T.DiffArray,
                 grid: tuple[int, int, int]):
        self.weight = weight
        self.bias = bias
        self.grid = tuple(grid)

    def apply(self, x: T.DiffArray) -> T.DiffArray:
        return T.affine(x, self.weight, self.bias)


@dataclass
class UncertainBatch:
    """Head outputs for one batch: embedding means, sigmas, and labels."""

    mean: T.DiffArray            # (B, d)
    sigma: T.DiffArray | None    # (B, d), strictly positive; None if unbuilt
    labels: np.ndarray           # (B,) int64


class Network:
    """Backbone blocks plus uncertainty heads and classifier, built from an
    arch and one array for each name param_shapes(arch) lists."""

    def __init__(self, arch: dict, arrays: dict):
        self.arch = dict(arch)
        self.params = {name: T.parameter(arrays[name])
                       for name, _ in param_shapes(arch)}
        p = self.params
        self.blocks = [DenseGridBlock(p[f"block{i}.weight"],
                                      p[f"block{i}.bias"], grid)
                       for i, grid in enumerate(arch["grids"])]
        self.mean_w, self.mean_b = p["mean_w"], p["mean_b"]
        self.sigma_w, self.sigma_b = p["sigma_w"], p["sigma_b"]
        self.classifier = p["classifier"]   # (num_classes, d), bias-free

    def parameters(self) -> list[tuple[str, T.DiffArray]]:
        """Stable (name, array) listing; order is part of the format."""
        return list(self.params.items())

    def head_param_names(self) -> set[str]:
        return {name for name in self.params if not name.startswith("block")}


def head_forward(net: Network, feats: T.DiffArray, labels: np.ndarray,
                 with_sigma: bool = True) -> UncertainBatch:
    """Map flat (B, feature_dim) activations to means and, unless
    with_sigma is False, sigmas."""
    mean = T.affine(feats, net.mean_w, net.mean_b)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (feats.shape[0],):
        raise ContractError(f"labels shape {labels.shape} does not match "
                            f"batch {feats.shape[0]}")
    sigma = None
    if with_sigma:
        sigma = T.softplus(T.affine(feats, net.sigma_w, net.sigma_b),
                           SIGMA_FLOOR)
    return UncertainBatch(mean=mean, sigma=sigma, labels=labels)


def class_logits(net: Network, embeddings: np.ndarray) -> np.ndarray:
    return embeddings @ net.classifier.values.T


def uncertainty_score(u: UncertainBatch) -> np.ndarray:
    """Scalar uncertainty per sample, used for ranking at evaluation:
    sigma averaged over the embedding dimensions."""
    return u.sigma.values.mean(axis=1)


# ---------------------------------------------------------------------------
# construction


def _count(value, what: str, least: int = 1) -> int:
    # type(), not isinstance: a JSON true must not pass as the integer 1
    if type(value) is not int or value < least:
        raise ContractError(f"{what} must be an integer of at least {least}, "
                            f"got {value!r}")
    return value


def param_shapes(arch: dict) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter of the network arch describes, in
    Network.parameters() order, without allocating any.  The one statement
    of the layout: building, loading and the arch checks all go here."""
    if arch.get("family") != "vector":
        raise ContractError(f"unknown network family {arch.get('family')!r}")
    fan_in = _count(arch["input_dim"], "input_dim")
    embed_dim = _count(arch["embed_dim"], "embed_dim")
    num_classes = _count(arch["num_classes"], "num_classes", 2)
    shapes = []
    for i, grid in enumerate(arch["grids"]):
        c, h, w = (_count(g, f"grid {i} dim") for g in grid)
        shapes += [(f"block{i}.weight", (fan_in, c * h * w)),
                   (f"block{i}.bias", (c * h * w,))]
        fan_in = c * h * w
    return shapes + [("mean_w", (fan_in, embed_dim)),
                     ("mean_b", (embed_dim,)),
                     ("sigma_w", (fan_in, embed_dim)),
                     ("sigma_b", (embed_dim,)),
                     ("classifier", (num_classes, embed_dim))]


def build_vector_network(input_dim: int, num_classes: int,
                         embed_dim: int = 64,
                         grids=((16, 2, 2), (16, 2, 2)),
                         seed: int = 0) -> Network:
    """Backbone for flat feature vectors: affine blocks read as grids.
    Block i draws from (seed, INIT, i), the heads from (seed, INIT, 100)."""
    arch = {"family": "vector", "input_dim": int(input_dim),
            "grids": [[int(g) for g in grid] for grid in grids],
            "embed_dim": int(embed_dim), "num_classes": int(num_classes)}
    head_rng = keyed_rng(seed, STREAM_INIT, 100)
    arrays = {}
    for name, shape in param_shapes(arch):
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
        elif name.startswith("block"):
            # He scaling for the ReLU that follows each block
            i = int(name.removeprefix("block").removesuffix(".weight"))
            rng = keyed_rng(seed, STREAM_INIT, i)
            arrays[name] = rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])
        else:
            # 1/sqrt(fan-in); the classifier's rows are embedding-wide
            fan_in = shape[1] if name == "classifier" else shape[0]
            arrays[name] = head_rng.standard_normal(shape) / np.sqrt(fan_in)
    return Network(arch, arrays)


# ---------------------------------------------------------------------------
# checkpoint IO


def _encode(arr: np.ndarray) -> dict:
    buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape),
            "data": base64.b64encode(buf).decode("ascii")}


def _decode(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(entry["shape"])


def save_checkpoint(net: Network, path: str, rng_state: dict | None = None):
    """Write the network (and optional trainer state) as one JSON file,
    atomically: an interrupted write leaves the previous file."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": net.arch,
        "params": {name: _encode(arr.values)
                   for name, arr in net.parameters()},
        "rng": rng_state or {},
    }
    with atomic_open(path, encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[Network, dict]:
    """Rebuild a network bitwise-identically from save_checkpoint output,
    from its buffers alone: no initialisation is drawn.  Any payload that
    does not rebuild, or holds a non-finite parameter, raises
    DataFormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(payload, dict) \
            or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path} is not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version "
                              f"{payload.get('version')}")
    try:
        # decode and check every buffer against the shapes the arch
        # implies: an arch asking for a huge network must fail on its
        # shapes, not on allocating them
        params = payload["params"]
        loaded = {}
        for name, shape in param_shapes(payload["arch"]):
            if name not in params:
                raise DataFormatError(f"checkpoint missing parameter {name}")
            loaded[name] = _decode(params[name])
            if loaded[name].shape != shape:
                raise DataFormatError(
                    f"parameter {name}: shape {loaded[name].shape} does not "
                    f"match architecture {shape}")
            # scoring would rank by a NaN sigma or argmax a NaN logit
            if not np.isfinite(loaded[name]).all():
                raise DataFormatError(f"{path}: parameter {name} holds NaN "
                                      f"or inf")
        net = Network(payload["arch"], loaded)
    # binascii.Error (bad base64) is a ValueError
    except (AttributeError, ContractError, KeyError, TypeError,
            ValueError) as e:
        raise DataFormatError(f"malformed checkpoint {path}: "
                              f"{type(e).__name__}: {e}") from e
    return net, payload.get("rng", {})
