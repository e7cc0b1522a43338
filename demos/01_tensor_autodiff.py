"""A tour of the reverse-mode tape.

Builds a few expressions out of the differentiable ops, runs backward,
and checks the gradients against central finite differences.  Nothing
here is training-specific; the point is that the tape gives correct
gradients for every op the rest of the package composes.  Scalars come
from gradcheck.weighted_sum, sum(x * w) as one tape node of the audit's.
"""

import numpy as np

import uqtrain.tensor as T
from uqtrain.compensation import compensate, draw_perturbation
from uqtrain.gradcheck import weighted_sum
from uqtrain.heads import build_vector_network
from uqtrain.stats import layer_stats


def scalar_chain():
    # f(x) = sum(relu(x W + b) / 3), a little two-op pipeline
    rng = np.random.default_rng(0)
    x = T.parameter(rng.standard_normal((4, 5)))
    w = T.parameter(rng.standard_normal((5, 3)))
    b = T.parameter(rng.standard_normal(3))
    ones = np.ones((4, 3))

    def f(arrays):
        xx, ww, bb = arrays
        return T.scalar_mul(1.0 / 3.0,
                            weighted_sum(T.relu(T.affine(xx, ww, bb)), ones))

    err = T.check_gradients(f, [x, w, b])
    print(f"affine/relu chain, worst relative gradient error: {err:.2e}")


def gradient_accumulation():
    # using a value twice must add both contributions
    x = T.parameter(np.array([2.0, -1.0]))
    with T.Tape() as tape:
        y = T.add(weighted_sum(x, x), weighted_sum(x, np.ones(2)))  # x^2 + x
    T.backward(y, tape)
    print(f"d/dx sum(x^2 + x) at {x.values}: {x.grad} (expect 2x + 1)")


def grid_statistics():
    # the backbone's blocks are affine layers whose flat output is read as
    # a (C, H, W) grid; compensation jitters its channel statistics in one
    # tape node whose backward runs through those statistics
    net = build_vector_network(input_dim=5, num_classes=3, embed_dim=4,
                               grids=((2, 2, 3), (2, 2, 3)), seed=1)
    block = net.blocks[0]
    rng = np.random.default_rng(1)
    x = T.constant(rng.standard_normal((4, 5)))
    draw = draw_perturbation(4, 2, seed=1, epoch=0, batch_index=0,
                             layer_index=1)
    w = rng.standard_normal((4, 12))

    def f(arrays):
        flat = block.apply(x)
        grid = flat.values.reshape(4, *block.grid)
        return weighted_sum(compensate(flat, layer_stats(grid), draw), w)

    with T.Tape() as tape:
        f(None)
    err = T.check_gradients(f, [block.weight, block.bias])
    print(f"compensated block: {len(tape.nodes)} tape nodes (affine, "
          f"perturb_stats, weighted_sum), worst relative gradient error "
          f"of the block's weights: {err:.2e}")


def stability_check():
    # the classification loss survives logits far outside the exp range:
    # one sample, logits 1000, 999 and 998, labelled with the middle class
    feats = T.constant(np.array([[1.0]]))
    classifier = T.constant(np.array([[1000.0], [999.0], [998.0]]))
    ce = T.class_cross_entropy(feats, classifier, [[0.0, 1.0, 0.0]])
    print(f"cross entropy at logits ~1000: {float(ce.values):.4f} "
          f"(expect 1 + log(1 + e^-1 + e^-2) = "
          f"{1 + np.log(1 + np.exp(-1) + np.exp(-2)):.4f})")


if __name__ == "__main__":
    scalar_chain()
    gradient_accumulation()
    grid_statistics()
    stability_check()
