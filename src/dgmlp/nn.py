"""Residual MLP classifier with analytic gradients and a full-batch Adam loop.

The transformation stack is

    input projection -> ReLU -> [h = ReLU(h W) + h] * (L-2) -> output layer,

bias-free by default. A one-layer configuration is plain multinomial
logistic regression, which doubles as the propagate-then-regress baseline.
"""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.npyio import NpzFile

from .data import Splits
from .errors import ConfigurationError, DimensionError, ParameterError, ValidationError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ResidualMlp:
    """Weights of the residual transformation stack, input projection first.

    weights[0] (the input projection) and weights[-1] (the output layer)
    never carry a skip connection; every layer between them is square and
    applied as h <- ReLU(h W) + h, so a model whose middle weights are all
    zero is the identity between projection and output. The output layer
    has no ReLU. biases is None for a bias-free model, else one vector per
    weight.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None
    dropout_rate: float = 0.0

    @classmethod
    def create(cls, in_dim: int, num_classes: int, *, num_layers: int = 1,
               hidden_dim: int = 64, use_bias: bool = False,
               dropout_rate: float = 0.0, seed: int = 0) -> "ResidualMlp":
        """Glorot-uniform initialized model with num_layers weight matrices."""
        if num_layers < 1:
            raise ParameterError(f"num_layers must be >= 1, got {num_layers}")
        if hidden_dim < 1:
            raise ParameterError(f"hidden_dim must be >= 1, got {hidden_dim}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        rng = np.random.default_rng(seed)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        weights = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases = [np.zeros(d) for d in dims[1:]] if use_bias else None
        return cls(weights, biases, dropout_rate)

    @property
    def use_bias(self) -> bool:
        return self.biases is not None

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays in forward order: each layer's weight,
        then its bias."""
        if self.biases is None:
            return list(self.weights)
        return [p for wb in zip(self.weights, self.biases) for p in wb]


def _masked(a: np.ndarray, keep: np.ndarray, scale: float, out=None) -> np.ndarray:
    """Inverted dropout a * keep * scale with a bool keep mask.

    Multiplying by the mask, then by scale = 1 / (1 - rate), gives the same
    bits, signed zeros included, as one multiply by the float mask
    keep / (1 - rate).
    """
    out = np.multiply(a, keep, out=out)
    out *= scale
    return out


def _forward(model: ResidualMlp, x: np.ndarray, rate: float, rng, caches=None,
             hidden_out=None, before_layer=None):
    """Logits for the rows of x, with inverted dropout at rate.

    ReLU and the residual add run in place. When caches is a list, it gets
    (hd, z > 0, keep) per layer, where hd is the layer's dropped-out input
    and both masks are bool (z > 0 is None for the output layer, keep is
    None without dropout). hidden_out, a pair of (rows, hidden) arrays,
    takes the hidden activations in turn in place of new arrays.
    before_layer, if given, is called with i before layer i reads its
    weight and bias (after its dropout mask is drawn).
    """
    scale = 1.0 / (1.0 - rate)
    last = model.num_layers - 1
    h = x
    for i, w in enumerate(model.weights):
        keep = None if rate <= 0.0 else rng.random(h.shape) >= rate
        hd = h if keep is None else _masked(h, keep, scale)
        if before_layer is not None:
            before_layer(i)
        if hidden_out is not None and i < last:
            z = np.matmul(hd, w, out=hidden_out[i % 2])
        else:
            z = hd @ w
        if model.biases is not None:
            z += model.biases[i]
        if caches is not None:
            caches.append((hd, z > 0.0 if i < last else None, keep))
        if i < last:
            np.maximum(z, 0.0, out=z)
            if i > 0:
                z += h
        h = z
    return h


def forward(model: ResidualMlp, features: np.ndarray, training: bool = False, rng=None,
            hidden_out=None) -> np.ndarray:
    """Logits for every row of features; dropout only when training.

    hidden_out, two C-contiguous float64 arrays of shape (rows, hidden),
    receives the hidden activations in turn, so a repeated call makes
    only its logits.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.in_dim:
        raise DimensionError(
            f"model expects width {model.in_dim}, features have shape {features.shape}"
        )
    rate = model.dropout_rate if training else 0.0
    if rate > 0.0 and rng is None:
        raise ParameterError("an rng is required for dropout in training mode")
    return _forward(model, features, rate, rng, hidden_out=hidden_out)


def loss_and_grad(model: ResidualMlp, features: np.ndarray, labels: np.ndarray,
                  train_indices, weight_decay: float = 0.0,
                  training: bool = True, rng=None, before_layer=None):
    """Mean cross-entropy over the labeled rows plus weight_decay * sum ||W||^2.

    Returns (loss, grads) with grads aligned to model.parameters(). The L2
    penalty covers weight matrices only, never biases. train_indices None
    makes every row of features (and of labels) a training row, read in
    place. before_layer, if given, is called with i before the forward
    pass reads layer i; every other read of the parameters comes after the
    forward pass.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if train_indices is not None:
        train_indices = np.asarray(train_indices, dtype=np.int64)
        x, y = x[train_indices], y[train_indices]
    if len(x) == 0:
        raise ConfigurationError("the labeled training set is empty")
    if x.shape[1] != model.in_dim:
        raise DimensionError(
            f"model expects width {model.in_dim}, features have shape {x.shape}"
        )
    rate = model.dropout_rate if training else 0.0
    if rate > 0.0 and rng is None:
        raise ParameterError("an rng is required for dropout in training mode")

    caches: list = []
    logits = _forward(model, x, rate, rng, caches, before_layer=before_layer)
    probs = softmax(logits)
    batch = x.shape[0]
    picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
    loss = float(-np.log(picked).mean())
    if weight_decay:
        loss += weight_decay * sum(float((w * w).sum()) for w in model.weights)

    g = probs
    g[np.arange(batch), y] -= 1.0
    g /= batch

    # walk the layers backwards with dh = d loss / d (layer output);
    # grads are collected output-first, each bias before its weight, so
    # reversed they are in model.parameters() order
    scale = 1.0 / (1.0 - rate)
    last = model.num_layers - 1
    grads = []
    dh = g
    for i in range(last, -1, -1):
        w = model.weights[i]
        # layer i's input and masks are read for the last time here: once
        # these names let go of them too, they are freed while the next
        # layers' gradients are made
        hd, relu, keep = caches[i]
        caches[i] = None
        dz = dh if relu is None else dh * relu
        del relu
        gw = hd.T @ dz
        del hd
        if weight_decay:
            # into the fresh product in place: the same add, with one
            # weight-sized array fewer. At 0 it could only turn a -0.0
            # entry into +0.0, so it is skipped
            gw += 2.0 * weight_decay * w
        if model.biases is not None:
            grads.append(dz.sum(axis=0))
        grads.append(gw)
        if i == 0:
            break
        branch = dz @ w.T
        del dz
        if keep is not None:
            _masked(branch, keep, scale, out=branch)
        if i < last:  # residual layer: the skip passes dh through
            dh += branch
        else:
            dh = branch
        del branch

    return loss, grads[::-1]


# Values per block of an Adam update (512 KB): each parameter is updated a
# run of whole rows at a time through two scratch buffers of this size, so
# the scratch does not grow with the largest parameter
_ADAM_BLOCK_VALUES = 1 << 16


def _block_rows(p: np.ndarray) -> int:
    """Rows of p per Adam block: about _ADAM_BLOCK_VALUES values, at least one row."""
    return max(1, _ADAM_BLOCK_VALUES // max(1, p[:1].size))


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    Each parameter (an array of at least one dimension) is updated in
    blocks of whole rows through two scratch buffers of about
    _ADAM_BLOCK_VALUES values, in the same operations and order as the
    textbook p -= lr * (m / c1) / (sqrt(v / c2) + eps). Every value goes
    through the same operations whatever its block, so it gives the same
    bits without allocating per step. Each parameter's update reads only
    its own gradient and state, so the order of params changes no bits.
    """

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        size = max((p[:_block_rows(p)].size for p in params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params, grads, done=None) -> None:
        """One update of every parameter in place; done, if given, is
        called with j once params[j] has been written. grads is a list
        aligned with params; once done(j) is called, this step holds no
        reference to grads[j]."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for j, (p, m, v) in enumerate(zip(params, self.m, self.v)):
            self._update(p, grads[j], m, v, c1, c2)
            if done is not None:
                done(j)

    def _update(self, p, g, m, v, c1: float, c2: float) -> None:
        """p, m and v updated in place from the gradient g, a block of rows
        at a time."""
        rows = _block_rows(p)
        for start in range(0, len(p), rows):
            part = slice(start, start + rows)
            pb, gb, mb, vb = p[part], g[part], m[part], v[part]
            a, b = (s[:pb.size].reshape(pb.shape) for s in self._scratch)
            mb *= self.beta1
            mb += np.multiply(1.0 - self.beta1, gb, out=a)
            vb *= self.beta2
            np.multiply(1.0 - self.beta2, gb, out=a)
            vb += np.multiply(a, gb, out=a)
            np.divide(mb, c1, out=a)
            a *= self.lr
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            pb -= np.divide(a, b, out=a)


# Bytes of one evaluation batch of a one-layer model: its block of weight
# snapshots plus their product with the evaluated rows (its logits). With BLAS on one
# thread of a 2-vCPU Intel Xeon, one epoch's 1,560x500 @ 500x3 product
# took 0.83-0.98 ms (about 5 GFLOP/s: it streams all the rows for three
# columns), and one 1,560x500 @ 500x600 product for all 200 epochs took
# 19-23 ms.
# 4 MiB gives 84 epochs a batch on those shapes.
_EVAL_BATCH_BYTES = 4 << 20

_UNIT = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1074  # smallest subnormal float64


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * _UNIT / (1.0 - n * _UNIT)


def _norms(a: np.ndarray, axis: int) -> np.ndarray:
    """2-norms of the rows (axis 1) or columns (axis 0) of a, rounded up
    for squares that underflowed: each loses less than _TINY. inf where a
    sum of squares overflows."""
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", a, a)
    return np.sqrt(sq + a.shape[axis] * _TINY)


def _certified_hits(logits: np.ndarray, labels: np.ndarray, x_norms: np.ndarray,
                    w_norms: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each row's label is its argmax, and where that is certified.

    logits (rows, classes, epochs) holds x_r . W_k[:, c] (+ b_k[c]): a
    depth-term dot product computed in some order, then the bias added.
    x_norms (rows,) and w_norms (classes, epochs) are the 2-norms of the
    rows x_r and of the columns of W_k. Returns two (rows, epochs) bool
    arrays, hit and certified. Where certified, the top logit is the only
    one within the bound below, so every other evaluation of the same
    logits, whatever the order of its sums, has the same argmax, and hit
    says whether it is the label.

    Higham, "Accuracy and Stability of Numerical Algorithms", section 3.1:
    any evaluation of a K-term dot product is within gamma_K sum|x_i w_i|
    <= gamma_K |x| |w| of the exact one (Cauchy-Schwarz), so two
    evaluations differ by at most 2 gamma_K |x| |w|. Each then adds the
    bias in one rounding, at most u |value|; gamma_{K+1} on the product
    and gamma_2 |logit| on the sum cover both evaluations' adds. A product
    term that underflows errs by at most _TINY / 2 absolutely instead, an
    add does not err in the subnormal range, and four dot products (two
    evaluations of two logits) hold 4K terms. So logits a and c keep their
    order in every evaluation when
        l_a - l_c > 2 gamma_{K+1} |x| (|w_a| + |w_c|)
                    + gamma_2 (|l_a| + |l_c|) + 2K _TINY.
    The test asks the top logit to beat every other by twice that, taken
    with |w_a| + |w_c| <= 2 max_c |w_c| and |l| <= the largest magnitude
    of the row's logits; the doubling covers the rounding of the test
    itself (a few operations, each within u or _TINY / 2). A tie, a
    non-finite logit or a bound that overflows is never certified.
    """
    cols = logits.transpose(1, 0, 2)
    top, low = cols[0].copy(), cols[0].copy()
    second = np.full_like(top, -np.inf)
    for col in cols[1:]:
        np.maximum(second, np.minimum(top, col), out=second)
        np.maximum(top, col, out=top)
        np.minimum(low, col, out=low)
    with np.errstate(over="ignore", invalid="ignore"):
        # the largest magnitude, top or -low; inf or nan when a logit is
        bound = np.negative(low, out=low)
        np.maximum(bound, top, out=bound)
        bound *= 4.0 * _gamma(2)
        bound += np.multiply.outer(x_norms, (8.0 * _gamma(depth + 1)) * w_norms.max(axis=0))
        bound += 8.0 * (depth + 2) * _TINY
        threshold = np.subtract(top, bound, out=bound)
        certified = second < threshold
        hit = logits[np.arange(len(labels)), labels] >= threshold
    return hit, certified


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # chained comparisons: NaN fails both, like inf
        if not 0.0 < self.learning_rate < np.inf:
            raise ParameterError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ParameterError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Metrics:
    """Per-epoch curves plus the test accuracy at the best validation epoch."""

    train_loss: list[float]
    train_accuracy: list[float]
    val_accuracy: list[float]
    test_accuracy_per_epoch: list[float]
    best_epoch: int
    best_val_accuracy: float
    test_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


def train(model: ResidualMlp, features: np.ndarray, labels: np.ndarray,
          splits, config: TrainConfig):
    """Full-batch Adam training; deterministic given config.seed.

    The recorded loss is the pre-update training loss of each epoch;
    accuracies are measured after the update with dropout off. Test
    accuracy is reported at the epoch with the best validation accuracy
    (first epoch wins ties).

    Epochs are pipelined over one worker thread. Epoch t's Adam update and
    then the evaluation of the updated weights run on the worker, while this
    thread starts epoch t+1's gradient at once. The update writes the layers
    in forward order and resolves one future per layer; the gradient pass
    waits on layer i's future before it reads that layer, and reads no
    weight before its forward pass is done. The evaluation only reads the
    weights, and it is collected before the next update is submitted. The
    dropout stream is drawn on this thread only, and each parameter's update
    is independent of the others, so the results are bit for bit those of
    running gradient, update and evaluation one after the other. A failed
    update puts its exception on every layer it has not resolved, so a
    waiting gradient pass raises it. The update frees each gradient once it
    has written its parameter, so one gradient set at most is alive.

    A one-layer model is evaluated in batches of epochs: each update's
    weights are copied into a block, and a full block (or the last epoch's)
    is evaluated as one wide product, one forward of the model whose weight
    is the block. An epoch whose argmax
    _certified_hits certifies for every row takes its accuracies from that
    product; any other epoch is evaluated again by forward, so the
    accuracies are those of one forward per epoch.
    """
    splits = Splits(splits.train, splits.val, splits.test)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    tr, va, te = splits.train, splits.val, splits.test
    if tr.size == 0:
        raise ConfigurationError("the labeled training set is empty")

    drop_rng = np.random.default_rng(config.seed)
    num_layers = model.num_layers
    params = model.parameters()
    per_layer = len(params) // num_layers
    opt = Adam(params, config.learning_rate)

    union = np.concatenate([tr, va, te])
    n_tr, n_va = tr.size, va.size
    union_feats, union_labels = features[union], labels[union]
    # the training rows, gathered once: the leading rows of union_feats
    train_feats, train_labels = union_feats[:n_tr], union_labels[:n_tr]

    def accuracies(pred_ok: np.ndarray) -> list[tuple[float, float, float]]:
        """(train, val, test) accuracy of each column of pred_ok, a
        (rows, epochs) bool array; 0.0 for an empty split."""
        parts = np.split(pred_ok, [n_tr, n_tr + n_va])
        cols = [part.sum(axis=0) / len(part) if len(part) else np.zeros(pred_ok.shape[1])
                for part in parts]
        return [tuple(map(float, accs)) for accs in zip(*cols)]

    if num_layers > 1:
        # the evaluation's hidden activations, made once here: made on the
        # worker at each epoch, they moved the traced peak with the thread
        # timing
        hidden_out = tuple(np.empty((union.size, model.weights[0].shape[1]))
                           for _ in range(min(2, num_layers - 1)))

        def evaluate(epoch: int) -> list[tuple[float, float, float]]:
            logits = forward(model, union_feats, training=False, hidden_out=hidden_out)
            return accuracies((logits.argmax(axis=1) == union_labels)[:, None])
    else:
        rows, classes, depth = union.size, model.num_classes, model.in_dim
        per_epoch = rows * classes * 8 + sum(p.nbytes for p in params)
        batch = max(1, min(config.epochs, _EVAL_BATCH_BYTES // per_epoch))
        # a batch of nb epochs keeps its (depth, classes, nb) weight
        # snapshots and its (classes, nb) bias snapshots at the start of
        # these, made once here
        w_buf, b_buf = np.empty(depth * classes * batch), np.empty(classes * batch)
        x_norms = _norms(union_feats, axis=1)
        # a label outside the classes is never an argmax
        labeled = (union_labels >= 0) & (union_labels < classes)
        label_cols = np.where(labeled, union_labels, 0)

        def evaluate(epoch: int) -> list[tuple[float, float, float]]:
            j = epoch % batch
            nb = min(batch, config.epochs - (epoch - j))
            w_snap = w_buf[:depth * classes * nb].reshape(depth, classes, nb)
            b_snap = b_buf[:classes * nb].reshape(classes, nb)
            w_snap[:, :, j] = params[0]
            if model.biases is not None:
                b_snap[:, j] = params[1]
            if j < nb - 1:
                return []
            # one forward of the model whose weight holds every snapshot
            stacked = ResidualMlp([w_snap.reshape(depth, classes * nb)],
                                  None if model.biases is None else [b_snap.reshape(-1)])
            logits = forward(stacked, union_feats)
            hit, certified = _certified_hits(
                logits.reshape(rows, classes, nb), label_cols, x_norms,
                _norms(stacked.weights[0], axis=0).reshape(classes, nb), depth)
            hit &= labeled[:, None]
            for k in np.flatnonzero(~certified.all(axis=0)):
                snapshot = ResidualMlp([np.ascontiguousarray(w_snap[:, :, k])],
                                       None if model.biases is None else [b_snap[:, k].copy()])
                hit[:, k] = forward(snapshot, union_feats).argmax(axis=1) == union_labels
            return accuracies(hit)

    def update_then_evaluate(grads: list, ready: list[Future],
                             epoch: int) -> list[tuple[float, float, float]]:
        def layer_done(j: int) -> None:
            # the list is the only holder of its gradients left, so each is
            # freed once its parameter is written: all of them before the
            # next gradient pass reads the last layer, and so before it
            # builds the next set
            grads[j] = None
            if j % per_layer == per_layer - 1:
                ready[j // per_layer].set_result(None)

        try:
            opt.step(params, grads, done=layer_done)
        except BaseException as exc:
            for fut in ready:
                if not fut.done():
                    fut.set_exception(exc)
            raise
        return evaluate(epoch)

    losses, accs = [], []
    ready: list[Future] = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for epoch in range(config.epochs):
            wait = (lambda i, ready=ready: ready[i].result()) if ready else None
            loss, grads = loss_and_grad(
                model, train_feats, train_labels, None,
                weight_decay=config.weight_decay, training=True, rng=drop_rng,
                before_layer=wait,
            )
            if pending is not None:
                accs += pending.result()
            losses.append(loss)
            ready = [Future() for _ in range(num_layers)]
            pending = worker.submit(update_then_evaluate, grads, ready, epoch)
            del grads  # the update frees them (see layer_done)
        accs += pending.result()

    tr_accs, va_accs, te_accs = (list(col) for col in zip(*accs))
    best_epoch = va_accs.index(max(va_accs))
    metrics = Metrics(losses, tr_accs, va_accs, te_accs,
                      best_epoch, va_accs[best_epoch], te_accs[best_epoch])
    return model, metrics


# ---------------------------------------------------------------------------
# Checkpointing: an .npz archive with a JSON metadata entry plus one array
# per weight/bias (layout documented in the README).
# ---------------------------------------------------------------------------

def _entry_names(i: int, num_layers: int) -> tuple[str, str]:
    """Archive names of layer i's weight and bias."""
    if i == num_layers - 1:
        return "output", "output_bias"
    if i == 0:
        return "input_proj", "input_bias"
    return f"hidden_{i - 1}", f"hidden_bias_{i - 1}"


def save_checkpoint(model: ResidualMlp, path) -> None:
    num_layers = model.num_layers
    meta = {
        "format": "dgmlp-checkpoint-v1",
        "use_bias": model.use_bias,
        "dropout_rate": model.dropout_rate,
        "has_input_proj": num_layers > 1,
        "num_hidden": max(num_layers - 2, 0),
    }
    names = [_entry_names(i, num_layers) for i in range(num_layers)]
    # v1 entry order: the output weight, the other weights in layer order,
    # then every bias in layer order
    order = [num_layers - 1, *range(num_layers - 1)]
    arrays = {names[i][0]: model.weights[i] for i in order}
    if model.biases is not None:
        arrays.update((bias_name, b) for (_, bias_name), b in zip(names, model.biases))
    # an open file, so np.savez writes path as given (a name without
    # .npz would otherwise gain the suffix)
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)


def _read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta entry and the arrays of a checkpoint archive."""
    try:
        # np.load(path) would leave its own handle open on a truncated zip
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, NpzFile):
                raise ValidationError(f"cannot read checkpoint {path}: not an .npz archive")
            with archive:
                arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays.pop("meta")))
    except ValidationError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != "dgmlp-checkpoint-v1":
        raise ValidationError(f"unrecognized checkpoint format in {path}")
    return meta, arrays


def _check_layer_shapes(model: ResidualMlp, path) -> None:
    """Weights must be matrices that chain, residual ones square, biases match."""
    ws = model.weights
    if any(w.ndim != 2 for w in ws):
        raise ValidationError(f"checkpoint {path}: every weight must be a matrix")
    for a, b in zip(ws, ws[1:]):
        if a.shape[1] != b.shape[0]:
            raise ValidationError(
                f"checkpoint {path}: layer shapes {a.shape} and {b.shape} do not chain"
            )
    if any(w.shape[0] != w.shape[1] for w in ws[1:-1]):
        raise ValidationError(f"checkpoint {path}: residual hidden weights must be square")
    for bias, w in zip(model.biases or [], ws):
        if bias.shape != (w.shape[1],):
            raise ValidationError(
                f"checkpoint {path}: bias shape {bias.shape} does not match "
                f"weight shape {w.shape}"
            )


def load_checkpoint(path) -> ResidualMlp:
    """Restore a model written by save_checkpoint.

    Raises ValidationError naming path when the file cannot be read, is
    not a checkpoint, lacks an entry, or holds layer shapes that do not
    chain.
    """
    meta, data = _read_checkpoint(path)
    try:
        num_layers = 1 + meta["has_input_proj"] + meta["num_hidden"]
        if num_layers < 1 or meta["has_input_proj"] != (num_layers > 1):
            raise ValidationError(
                f"checkpoint {path}: has_input_proj and num_hidden do not describe a model"
            )
        names = [_entry_names(i, num_layers) for i in range(num_layers)]
        model = ResidualMlp(
            weights=[data[w] for w, _ in names],
            biases=[data[b] for _, b in names] if meta["use_bias"] else None,
            dropout_rate=meta["dropout_rate"],
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"checkpoint {path}: missing or malformed entry {exc}") from None
    _check_layer_shapes(model, path)
    return model
