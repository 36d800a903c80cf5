"""Networks written out by hand, for tests that need exact parameters."""

import numpy as np

from wann.nn import AdamState, ArchSpec, FitConfig, Mlp


def hand_net(layers, clip):
    """The ``Mlp`` with the given ``(weights, biases)`` layers, weights
    [inputs x outputs], in the class of their hidden widths and ``clip``."""
    weights = [np.asarray(w, dtype=float) for w, _ in layers]
    arch = ArchSpec(tuple(w.shape[1] for w in weights[:-1]), clip)
    return Mlp(arch, weights[0].shape[0],
               np.concatenate([np.append(w, b) for (_, b), w
                               in zip(layers, weights)]))


def adam_states(model, lr=FitConfig.lr):
    """Fresh Adam states of a model's h, h' and q, in ``wann_step``'s
    order, as ``fit_wann`` makes them."""
    return tuple(AdamState.for_net(net, lr=lr)
                 for net in (model.task, model.adversary, model.weighter))
