"""Two-branch head, network builders, and checkpoint round-trips."""

import json
import os

import numpy as np
import pytest

import uqtrain.heads as heads
import uqtrain.tensor as T
from uqtrain.errors import ContractError, DataFormatError
from uqtrain.gradcheck import weighted_sum
from uqtrain.heads import (
    SIGMA_FLOOR,
    build_vector_network,
    head_forward,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    uncertainty_score,
)


def make_net(seed=0):
    return build_vector_network(6, 3, embed_dim=8,
                                grids=((4, 2, 2), (4, 2, 2)), seed=seed)


def test_zero_sigma_branch_gives_softplus_of_zero():
    net = make_net()
    net.sigma_w.values[:] = 0.0
    net.sigma_b.values[:] = 0.0
    feats = T.constant(np.random.default_rng(0).standard_normal((5, 16)))
    u = head_forward(net, feats, np.zeros(5, dtype=np.int64))
    expect = np.log(2.0) + SIGMA_FLOOR
    np.testing.assert_allclose(u.sigma.values, expect, atol=1e-12)


def test_zero_mean_weights_give_constant_bias_rows():
    net = make_net()
    net.mean_w.values[:] = 0.0
    net.mean_b.values[:] = np.arange(8.0)
    feats = T.constant(np.random.default_rng(1).standard_normal((4, 16)))
    u = head_forward(net, feats, np.zeros(4, dtype=np.int64))
    for row in u.mean.values:
        np.testing.assert_allclose(row, np.arange(8.0), atol=1e-12)


def test_sigma_strictly_positive():
    net = make_net()
    net.sigma_b.values[:] = -50.0      # drive softplus toward zero
    feats = T.constant(np.zeros((3, 16)))
    u = head_forward(net, feats, np.zeros(3, dtype=np.int64))
    assert np.all(u.sigma.values > 0)
    np.testing.assert_allclose(u.sigma.values, SIGMA_FLOOR, rtol=1e-6)


def test_head_gradients_match_fd():
    net = make_net()
    rng = np.random.default_rng(2)
    arrays = [T.parameter(rng.standard_normal((4, 16))),
              net.mean_w, net.mean_b, net.sigma_w, net.sigma_b]

    def f(ars):
        probe = make_net()
        probe.mean_w, probe.mean_b = ars[1], ars[2]
        probe.sigma_w, probe.sigma_b = ars[3], ars[4]
        u = head_forward(probe, ars[0], np.zeros(4, dtype=np.int64))
        ones = np.ones(u.mean.shape)
        return T.add(weighted_sum(u.mean, ones), weighted_sum(u.sigma, ones))

    assert T.check_gradients(f, arrays) < 1e-4


def test_uncertainty_score_mean_and_max():
    net = make_net()
    u = head_forward(net, T.constant(np.zeros((2, 16))),
                     np.zeros(2, dtype=np.int64))
    u.sigma.values[:] = [[1.0, 3.0] + [2.0] * 6, [4.0] * 8]
    np.testing.assert_allclose(uncertainty_score(u),
                               [np.mean([1, 3] + [2] * 6), 4.0])


def test_score_ranking_matches_sort_oracle():
    rng = np.random.default_rng(3)
    net = make_net()
    u = head_forward(net, T.constant(rng.standard_normal((10, 16))),
                     np.zeros(10, dtype=np.int64))
    scores = uncertainty_score(u)
    oracle = np.array([row.mean() for row in u.sigma.values])
    assert list(np.argsort(scores)) == list(np.argsort(oracle))


def test_head_forward_shape_errors():
    net = make_net()
    with pytest.raises(ContractError,
                       match=r"affine: \(2, 5\) @ \(16, 8\) \+ \(8,\) does "
                             r"not fit"):
        head_forward(net, T.constant(np.zeros((2, 5))),
                     np.zeros(2, dtype=np.int64))
    with pytest.raises(ContractError,
                       match=r"labels shape \(3,\) does not match batch 2"):
        head_forward(net, T.constant(np.zeros((2, 16))),
                     np.zeros(3, dtype=np.int64))


def test_builders_are_seed_deterministic():
    a = make_net(seed=4)
    b = make_net(seed=4)
    for (name_a, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), name_a
    c = make_net(seed=5)
    assert any(not np.array_equal(pa.values, pc.values)
               for (_, pa), (_, pc) in zip(a.parameters(), c.parameters()))


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = make_net(seed=6)
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(net, path, rng_state={"seed": 6})
    loaded, rng_state = load_checkpoint(path)
    assert rng_state == {"seed": 6}
    for (name, pa), (_, pb) in zip(net.parameters(), loaded.parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), name

    second = os.path.join(tmp_path, "ck2.json")
    save_checkpoint(loaded, second, rng_state={"seed": 6})
    with open(path) as fa, open(second) as fb:
        assert fa.read() == fb.read()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path,
                                                     monkeypatch):
    """A write that dies half way leaves the old checkpoint's bytes and
    no temp file."""
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(make_net(seed=1), path)
    with open(path, "rb") as fh:
        before = fh.read()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(make_net(seed=2), path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["ck.json"]


def test_checkpoint_rebuilds_from_arch(tmp_path):
    net = build_vector_network(5, 3, embed_dim=4,
                               grids=((2, 2, 3), (5, 2, 2), (3, 3, 1)),
                               seed=7)
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(net, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.arch == net.arch
    x = np.random.default_rng(8).standard_normal((2, 5))

    def forward(n):
        h = T.constant(x)
        for block in n.blocks:
            h = T.relu(block.apply(h))
        return head_forward(n, h, np.zeros(2, dtype=np.int64))

    a, b = forward(loaded), forward(net)
    assert a.mean.values.tobytes() == b.mean.values.tobytes()
    assert a.sigma.values.tobytes() == b.sigma.values.tobytes()


def test_checkpoint_rejects_malformed_files(tmp_path):
    net = make_net()
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(net, path)
    with open(path) as f:
        blob = json.load(f)

    bad = dict(blob, format="other")
    p1 = os.path.join(tmp_path, "bad1.json")
    with open(p1, "w") as f:
        json.dump(bad, f)
    with pytest.raises(DataFormatError):
        load_checkpoint(p1)

    bad = dict(blob, version=99)
    p2 = os.path.join(tmp_path, "bad2.json")
    with open(p2, "w") as f:
        json.dump(bad, f)
    with pytest.raises(DataFormatError):
        load_checkpoint(p2)

    bad = dict(blob)
    bad["params"] = dict(blob["params"])
    del bad["params"]["classifier"]
    p3 = os.path.join(tmp_path, "bad3.json")
    with open(p3, "w") as f:
        json.dump(bad, f)
    with pytest.raises(DataFormatError):
        load_checkpoint(p3)

    # a buffer holding NaN or inf rebuilds, but would score NaN
    for bad in (np.nan, np.inf, -np.inf):
        net.params["mean_b"].values[1] = bad
        save_checkpoint(net, path)
        with pytest.raises(DataFormatError,
                           match="parameter mean_b holds NaN or inf"):
            load_checkpoint(path)


def test_parameters_follow_param_shapes():
    """The network holds exactly the parameters param_shapes lists, in its
    order, each in a buffer of its own; heads are the non-block names."""
    net = build_vector_network(5, 3, embed_dim=4,
                               grids=((2, 2, 3), (5, 2, 2)), seed=9)
    listed = net.parameters()
    assert [(n, p.shape) for n, p in listed] == param_shapes(net.arch)
    buffers = [p.values for _, p in listed]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(buffers) for b in buffers[i + 1:])
    assert net.head_param_names() == {"mean_w", "mean_b", "sigma_w",
                                      "sigma_b", "classifier"}


@pytest.mark.parametrize("change", [
    {"family": "transformer"}, {"input_dim": 0}, {"embed_dim": 0},
    {"num_classes": 1}, {"grids": [[4, 0, 2]]}, {"input_dim": "6"},
    {"grids": [[4, 2.0, 2]]}, {"embed_dim": True}],
    ids=["family", "input_dim", "embed_dim", "classes", "grid", "str-dim",
         "float-grid", "bool-dim"])
def test_param_shapes_rejects_bad_arch(change):
    arch = dict(make_net().arch, **change)
    with pytest.raises(ContractError):
        param_shapes(arch)


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    net = make_net(seed=3)
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(net, path)

    def no_draws(*args):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(heads, "keyed_rng", no_draws)
    loaded, _ = load_checkpoint(path)
    for (name, pa), (_, pb) in zip(net.parameters(), loaded.parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), name
