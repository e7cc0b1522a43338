"""Network definition, the two-branch uncertainty head, and checkpoints.

A Network is a short stack of blocks whose outputs are viewed as small
(C, H, W) grids (so channel statistics exist even for vector inputs),
followed by two affine heads on the flattened features: one predicts an
embedding mean, the other a per-dimension sigma through softplus.  A
bias-free classifier matrix maps embeddings to class logits.

Checkpoints are a single JSON file.  Parameter buffers are embedded as
base64 little-endian float64 bytes, so save/load round-trips bitwise.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DataFormatError, ShapeError
from .rng import STREAM_INIT, keyed_rng

# additive floor keeping every predicted sigma strictly positive
SIGMA_FLOOR = 1e-6

CHECKPOINT_FORMAT = "uqtrain-checkpoint"
CHECKPOINT_VERSION = 1


class DenseGridBlock:
    """Affine layer whose output is read as a (C, H, W) grid."""

    def __init__(self, weight: T.DiffArray, bias: T.DiffArray,
                 grid: tuple[int, int, int]):
        c, h, w = (int(g) for g in grid)
        if weight.ndim != 2 or weight.shape[1] != c * h * w:
            raise ShapeError(f"weight {weight.shape} does not fill grid "
                             f"{(c, h, w)}")
        if bias.shape != (c * h * w,):
            raise ShapeError(f"bias {bias.shape} does not fill grid {(c, h, w)}")
        self.weight = weight
        self.bias = bias
        self.grid = (c, h, w)

    def apply(self, x: T.DiffArray) -> T.DiffArray:
        if x.ndim == 4:
            x = T.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        z = T.add(T.matmul(x, self.weight), self.bias)
        c, h, w = self.grid
        return T.reshape(z, (x.shape[0], c, h, w))


@dataclass
class UncertainBatch:
    """Head outputs for one batch: embedding means, sigmas, and labels."""

    mean: T.DiffArray     # (B, d)
    sigma: T.DiffArray    # (B, d), strictly positive
    labels: np.ndarray    # (B,) int64


class Network:
    """Backbone blocks plus uncertainty heads and classifier."""

    def __init__(self, blocks, mean_w, mean_b, sigma_w, sigma_b,
                 classifier, arch: dict):
        self.blocks = list(blocks)
        self.mean_w = mean_w
        self.mean_b = mean_b
        self.sigma_w = sigma_w
        self.sigma_b = sigma_b
        self.classifier = classifier   # (num_classes, d), bias-free
        self.arch = dict(arch)

    def parameters(self) -> list[tuple[str, T.DiffArray]]:
        """Stable (name, array) listing; order is part of the format."""
        out = []
        for i, blk in enumerate(self.blocks):
            out.append((f"block{i}.weight", blk.weight))
            out.append((f"block{i}.bias", blk.bias))
        out.extend([("mean_w", self.mean_w), ("mean_b", self.mean_b),
                    ("sigma_w", self.sigma_w), ("sigma_b", self.sigma_b),
                    ("classifier", self.classifier)])
        return out

    def head_param_names(self) -> set[str]:
        return {"mean_w", "mean_b", "sigma_w", "sigma_b", "classifier"}


def head_forward(net: Network, feats: T.DiffArray,
                 labels: np.ndarray) -> UncertainBatch:
    """Map flat (B, feature_dim) activations to means and sigmas."""
    if feats.ndim != 2:
        raise ShapeError(f"head_forward needs 2-d features, got {feats.shape}")
    if feats.shape[1] != net.mean_w.shape[0]:
        raise ShapeError(f"feature dim {feats.shape[1]} does not match head "
                         f"input {net.mean_w.shape[0]}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (feats.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match batch "
                         f"{feats.shape[0]}")
    mean = T.add(T.matmul(feats, net.mean_w), net.mean_b)
    raw = T.add(T.matmul(feats, net.sigma_w), net.sigma_b)
    sigma = T.add(T.softplus(raw), T.constant(SIGMA_FLOOR))
    return UncertainBatch(mean=mean, sigma=sigma, labels=labels)


def class_logits(net: Network, embeddings: T.DiffArray) -> T.DiffArray:
    return T.matmul(embeddings, T.transpose(net.classifier))


def uncertainty_score(u: UncertainBatch) -> np.ndarray:
    """Scalar uncertainty per sample, used for ranking at evaluation:
    sigma averaged over the embedding dimensions."""
    return u.sigma.values.mean(axis=1)


# ---------------------------------------------------------------------------
# construction


def _parse_grid(grid) -> tuple[int, int, int]:
    c, h, w = (int(g) for g in grid)
    if c < 1 or h < 1 or w < 1:
        raise ContractError(f"grid dims must be positive, got {(c, h, w)}")
    return c, h, w


def build_vector_network(input_dim: int, num_classes: int,
                         embed_dim: int = 64,
                         grids=((16, 2, 2), (16, 2, 2)),
                         seed: int = 0) -> Network:
    """Backbone for flat feature vectors: affine blocks viewed as grids."""
    if num_classes < 2:
        raise ContractError("need at least 2 classes")
    grids = [_parse_grid(g) for g in grids]
    blocks = []
    fan_in = int(input_dim)
    for i, grid in enumerate(grids):
        out_elems = grid[0] * grid[1] * grid[2]
        rng = keyed_rng(seed, STREAM_INIT, i)
        w = rng.standard_normal((fan_in, out_elems)) * np.sqrt(2.0 / fan_in)
        blocks.append(DenseGridBlock(T.parameter(w),
                                     T.parameter(np.zeros(out_elems)),
                                     grid))
        fan_in = out_elems
    arch = {"family": "vector", "input_dim": int(input_dim),
            "grids": [list(g) for g in grids],
            "embed_dim": int(embed_dim), "num_classes": int(num_classes)}

    rng = keyed_rng(seed, STREAM_INIT, 100)
    mean_w = rng.standard_normal((fan_in, embed_dim)) / np.sqrt(fan_in)
    sigma_w = rng.standard_normal((fan_in, embed_dim)) / np.sqrt(fan_in)
    classifier = rng.standard_normal((num_classes, embed_dim))
    classifier /= np.sqrt(embed_dim)
    return Network(blocks,
                   T.parameter(mean_w), T.parameter(np.zeros(embed_dim)),
                   T.parameter(sigma_w), T.parameter(np.zeros(embed_dim)),
                   T.parameter(classifier), arch)


def build_network_from_arch(arch: dict, seed: int = 0) -> Network:
    family = arch.get("family")
    if family == "vector":
        return build_vector_network(arch["input_dim"], arch["num_classes"],
                                    arch["embed_dim"],
                                    [tuple(g) for g in arch["grids"]], seed)
    raise ContractError(f"unknown network family {family!r}")


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
    """Write the network (and optional trainer state) as one JSON file."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": net.arch,
        "params": {name: _encode(arr.values)
                   for name, arr in net.parameters()},
        "rng": rng_state or {},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[Network, dict]:
    """Rebuild a network bitwise-identically from save_checkpoint output.
    Any payload that does not rebuild raises DataFormatError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise DataFormatError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(payload, dict) \
            or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path} is not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version "
                              f"{payload.get('version')}")
    try:
        net = build_network_from_arch(payload["arch"])
        params = payload["params"]
        for name, arr in net.parameters():
            if name not in params:
                raise DataFormatError(f"checkpoint missing parameter {name}")
            loaded = _decode(params[name])
            if loaded.shape != arr.values.shape:
                raise DataFormatError(
                    f"parameter {name}: shape {loaded.shape} does not match "
                    f"architecture {arr.values.shape}")
            arr.values = loaded
    # binascii.Error (bad base64) is a ValueError
    except (AttributeError, ContractError, KeyError, TypeError,
            ValueError) as e:
        raise DataFormatError(f"malformed checkpoint {path}: "
                              f"{type(e).__name__}: {e}") from e
    return net, payload.get("rng", {})
