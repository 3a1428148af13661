"""A close look at the magnet minibatch loss on a four-point example.

The batch holds one seed cluster (two points of class A at 0 and 2) and
one impostor cluster (class B at 1 and 3) on a line, with margin alpha=2.
Everything is small enough to follow by hand: cluster means are 1 and 2,
the pooled variance about them is 4/3, and the per-example hinge terms
work out to 0.875, 2.375, 2.375, 0.875.

The script also shows two structural properties: rescaling all
representations leaves the loss unchanged (the variance normalization
absorbs the scale), and the M=2, D=2 special case collapses onto the
familiar symmetrized triplet hinge.

Run:  python3 demos/loss_anatomy.py
"""

import numpy as np

from magnetdml import magnet_as_triplet, magnet_minibatch_loss


def main():
    reps = np.array([[0.0], [2.0], [1.0], [3.0]])
    clusters = np.array([0, 0, 1, 1])
    cluster_classes = np.array([0, 1])
    alpha = 2.0

    result = magnet_minibatch_loss(reps, clusters, cluster_classes, alpha)
    print("four-point example")
    print("  per-example losses:", np.round(result.example_losses, 6))
    print("  mean loss:         ", result.mean_loss)
    print("  batch variance:    ", result.batch_variance)

    print("\nscale invariance (variance normalization on)")
    for t in (0.5, 2.0, 10.0):
        scaled = magnet_minibatch_loss(t * reps, clusters, cluster_classes, alpha)
        print(f"  scale {t:5.1f}: mean loss {scaled.mean_loss}")

    print("\nreduction to the symmetrized triplet hinge (M=2, D=2)")
    rng = np.random.default_rng(0)
    for _ in range(3):
        pair = rng.standard_normal((2, 3))
        neg = rng.standard_normal(3)
        direct = magnet_as_triplet(pair, neg, alpha=1.0)
        by_hand = sum(
            max(np.sum((pair[d] - pair[1 - d]) ** 2)
                - np.sum((pair[d] - neg) ** 2) + 1.0, 0.0)
            for d in (0, 1)
        )
        print(f"  magnet_as_triplet {direct:.6f}  vs  two hinges {by_hand:.6f}")


if __name__ == "__main__":
    main()
