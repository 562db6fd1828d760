"""Residual MLP classifier with analytic gradients and a full-batch Adam loop.

The transformation stack is

    input projection -> ReLU -> [h = ReLU(h W) + h] * (L-2) -> output layer,

bias-free by default. A one-layer configuration is plain multinomial
logistic regression, which doubles as the propagate-then-regress baseline.
"""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.npyio import NpzFile

from .data import check_disjoint
from .errors import ConfigurationError, DimensionError, ParameterError, ValidationError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


@dataclass
class ResidualMlp:
    """Weights of the residual transformation stack.

    input_proj and output never carry a skip connection; every hidden
    matrix is square and applied as h <- ReLU(h W) + h, so a model whose
    hidden weights are all zero is the identity between projection and
    output.
    """

    input_proj: np.ndarray | None
    hidden: list[np.ndarray]
    output: np.ndarray
    input_bias: np.ndarray | None = None
    hidden_biases: list[np.ndarray] = field(default_factory=list)
    output_bias: np.ndarray | None = None
    use_bias: bool = False
    dropout_rate: float = 0.0

    @classmethod
    def create(cls, in_dim: int, num_classes: int, *, num_layers: int = 1,
               hidden_dim: int = 64, use_bias: bool = False,
               dropout_rate: float = 0.0, seed: int = 0) -> "ResidualMlp":
        """Glorot-uniform initialized model with num_layers weight matrices."""
        if num_layers < 1:
            raise ParameterError(f"num_layers must be >= 1, got {num_layers}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        rng = np.random.default_rng(seed)

        def glorot(fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=(fan_in, fan_out))

        if num_layers == 1:
            input_proj, hidden = None, []
            output = glorot(in_dim, num_classes)
        else:
            input_proj = glorot(in_dim, hidden_dim)
            hidden = [glorot(hidden_dim, hidden_dim) for _ in range(num_layers - 2)]
            output = glorot(hidden_dim, num_classes)

        model = cls(input_proj=input_proj, hidden=hidden, output=output,
                    use_bias=use_bias, dropout_rate=dropout_rate)
        if use_bias:
            model.input_bias = None if input_proj is None else np.zeros(hidden_dim)
            model.hidden_biases = [np.zeros(hidden_dim) for _ in hidden]
            model.output_bias = np.zeros(num_classes)
        return model

    @property
    def in_dim(self) -> int:
        first = self.input_proj if self.input_proj is not None else self.output
        return first.shape[0]

    @property
    def num_classes(self) -> int:
        return self.output.shape[1]

    @property
    def num_layers(self) -> int:
        return len(self.hidden) + 1 + (0 if self.input_proj is None else 1)

    def weight_matrices(self) -> list[np.ndarray]:
        mats = [] if self.input_proj is None else [self.input_proj]
        return mats + list(self.hidden) + [self.output]

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays in a fixed order (weights, then biases)."""
        params = self.weight_matrices()
        if self.use_bias:
            if self.input_bias is not None:
                params.append(self.input_bias)
            params.extend(self.hidden_biases)
            params.append(self.output_bias)
        return params


def _layers(model: ResidualMlp) -> list[tuple[np.ndarray, np.ndarray | None, bool]]:
    """(weight, bias or None, residual) for each ReLU layer, input first."""
    layers = [] if model.input_proj is None else [(model.input_proj, model.input_bias, False)]
    for idx, w in enumerate(model.hidden):
        layers.append((w, model.hidden_biases[idx] if model.use_bias else None, True))
    return layers


def _masked(a: np.ndarray, keep: np.ndarray, scale: float, out=None) -> np.ndarray:
    """Inverted dropout a * keep * scale with a bool keep mask.

    Multiplying by the mask, then by scale = 1 / (1 - rate), gives the same
    bits, signed zeros included, as one multiply by the float mask
    keep / (1 - rate).
    """
    out = np.multiply(a, keep, out=out)
    out *= scale
    return out


def _forward(model: ResidualMlp, x: np.ndarray, rate: float, rng, caches=None):
    """Logits for the rows of x, with inverted dropout at rate.

    ReLU and the residual add run in place. When caches is a list, it gets
    what backprop needs: (hd, z > 0, keep) per ReLU layer, then (hd, keep)
    for the output layer, where hd is the layer's dropped-out input and both
    masks are bool (keep is None without dropout).
    """
    scale = 1.0 / (1.0 - rate)

    def drop(h):
        if rate <= 0.0:
            return h, None
        keep = rng.random(h.shape) >= rate
        return _masked(h, keep, scale), keep

    h = x
    for w, b, residual in _layers(model):
        hd, keep = drop(h)
        z = hd @ w
        if b is not None:
            z += b
        if caches is not None:
            caches.append((hd, z > 0.0, keep))
        np.maximum(z, 0.0, out=z)
        if residual:
            z += h
        h = z

    hd, keep = drop(h)
    if caches is not None:
        caches.append((hd, keep))
    logits = hd @ model.output
    if model.output_bias is not None:
        logits += model.output_bias
    return logits


def forward(model: ResidualMlp, features: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
    """Logits for every row of features; dropout only when training."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.in_dim:
        raise DimensionError(
            f"model expects width {model.in_dim}, features have shape {features.shape}"
        )
    rate = model.dropout_rate if training else 0.0
    if rate > 0.0 and rng is None:
        raise ParameterError("an rng is required for dropout in training mode")
    return _forward(model, features, rate, rng)


def loss_and_grad(model: ResidualMlp, features: np.ndarray, labels: np.ndarray,
                  train_indices, weight_decay: float = 0.0,
                  training: bool = True, rng=None):
    """Mean cross-entropy over the labeled rows plus weight_decay * sum ||W||^2.

    Returns (loss, grads) with grads aligned to model.parameters(). The L2
    penalty covers weight matrices only, never biases.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ConfigurationError("the labeled training set is empty")
    x = np.asarray(features, dtype=np.float64)[train_indices]
    y = np.asarray(labels)[train_indices]
    if x.shape[1] != model.in_dim:
        raise DimensionError(
            f"model expects width {model.in_dim}, features have shape {x.shape}"
        )
    rate = model.dropout_rate if training else 0.0
    if rate > 0.0 and rng is None:
        raise ParameterError("an rng is required for dropout in training mode")

    caches: list = []
    logits = _forward(model, x, rate, rng, caches)
    probs = softmax(logits)
    batch = x.shape[0]
    picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
    loss = float(-np.log(picked).mean())
    if weight_decay:
        loss += weight_decay * sum(float((w * w).sum()) for w in model.weight_matrices())

    g = probs
    g[np.arange(batch), y] -= 1.0
    g /= batch

    scale = 1.0 / (1.0 - rate)
    h_out, keep = caches.pop()
    grad_w = [h_out.T @ g + 2.0 * weight_decay * model.output]
    grad_b = [g.sum(axis=0)] if model.output_bias is not None else []
    dh = g @ model.output.T
    if keep is not None:
        _masked(dh, keep, scale, out=dh)

    # walk the ReLU layers backwards; grads are collected output-first
    for (w, b, residual), (hd, relu, keep) in zip(_layers(model)[::-1], caches[::-1]):
        dz = dh * relu
        grad_w.append(hd.T @ dz + 2.0 * weight_decay * w)
        if b is not None:
            grad_b.append(dz.sum(axis=0))
        if residual:
            branch = dz @ w.T
            if keep is not None:
                _masked(branch, keep, scale, out=branch)
            dh += branch

    grads = grad_w[::-1]
    if model.use_bias:
        grads += grad_b[::-1]
    return loss, grads


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    The update runs through two scratch buffers sized for the largest
    parameter, in the same operations and order as the textbook
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), so it gives the same bits
    without allocating per step.
    """

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        size = max((p.size for p in params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            a, b = (s[:p.size].reshape(p.shape) for s in self._scratch)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            p -= np.divide(a, b, out=a)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    weight_decay: float = 0.0
    dropout_rate: float = 0.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.weight_decay < 0.0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")


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

    Epochs are pipelined: the evaluation of epoch t's updated weights runs
    on a worker thread while this thread computes epoch t+1's gradient from
    the same weights. Both only read them, and the evaluation is collected
    before the next update writes them, so the results are those of running
    the two one after the other.
    """
    check_disjoint(splits)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    tr = np.asarray(splits.train, dtype=np.int64)
    va = np.asarray(splits.val, dtype=np.int64)
    te = np.asarray(splits.test, dtype=np.int64)
    if tr.size == 0:
        raise ConfigurationError("the labeled training set is empty")

    drop_rng = np.random.default_rng(config.seed)
    params = model.parameters()
    opt = Adam(params, config.learning_rate, config.beta1, config.beta2, config.eps)

    union = np.concatenate([tr, va, te])
    union_feats = features[union]
    union_labels = labels[union]
    n_tr, n_va = tr.size, va.size

    def evaluate() -> tuple[float, float, float]:
        pred_ok = forward(model, union_feats, training=False).argmax(axis=1) == union_labels
        acc_tr = float(pred_ok[:n_tr].mean())
        acc_va = float(pred_ok[n_tr:n_tr + n_va].mean()) if n_va else 0.0
        acc_te = float(pred_ok[n_tr + n_va:].mean()) if te.size else 0.0
        return acc_tr, acc_va, acc_te

    losses, accs = [], []
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for _ in range(config.epochs):
            loss, grads = loss_and_grad(
                model, features, labels, tr,
                weight_decay=config.weight_decay, training=True, rng=drop_rng,
            )
            if pending is not None:
                accs.append(pending.result())
            opt.step(params, grads)
            losses.append(loss)
            pending = worker.submit(evaluate)
        accs.append(pending.result())

    tr_accs, va_accs, te_accs = (list(col) for col in zip(*accs))
    best_epoch = va_accs.index(max(va_accs))
    metrics = Metrics(losses, tr_accs, va_accs, te_accs,
                      best_epoch, va_accs[best_epoch], te_accs[best_epoch])
    return model, metrics


# ---------------------------------------------------------------------------
# Checkpointing: an .npz archive with a JSON metadata entry plus one array
# per weight/bias (layout documented in the README).
# ---------------------------------------------------------------------------

def save_checkpoint(model: ResidualMlp, path) -> None:
    meta = {
        "format": "dgmlp-checkpoint-v1",
        "use_bias": model.use_bias,
        "dropout_rate": model.dropout_rate,
        "has_input_proj": model.input_proj is not None,
        "num_hidden": len(model.hidden),
    }
    arrays = {"output": model.output}
    if model.input_proj is not None:
        arrays["input_proj"] = model.input_proj
    for i, w in enumerate(model.hidden):
        arrays[f"hidden_{i}"] = w
    if model.use_bias:
        if model.input_bias is not None:
            arrays["input_bias"] = model.input_bias
        for i, b in enumerate(model.hidden_biases):
            arrays[f"hidden_bias_{i}"] = b
        arrays["output_bias"] = model.output_bias
    # an open file, so np.savez writes path as given (a name without
    # .npz would otherwise gain the suffix)
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)


def _read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta entry and the arrays of a checkpoint archive."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(archive, NpzFile):
        raise ValidationError(f"cannot read checkpoint {path}: not an .npz archive")
    with archive:
        try:
            arrays = {name: archive[name] for name in archive.files}
            meta = json.loads(str(arrays.pop("meta")))
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != "dgmlp-checkpoint-v1":
        raise ValidationError(f"unrecognized checkpoint format in {path}")
    return meta, arrays


def _check_layer_shapes(model: ResidualMlp, path) -> None:
    """input_proj -> hidden -> output must chain, hidden square, biases match."""
    mats = model.weight_matrices()
    if any(w.ndim != 2 for w in mats):
        raise ValidationError(f"checkpoint {path}: every weight must be a matrix")
    for a, b in zip(mats, mats[1:]):
        if a.shape[1] != b.shape[0]:
            raise ValidationError(
                f"checkpoint {path}: layer shapes {a.shape} and {b.shape} do not chain"
            )
    if any(w.shape[0] != w.shape[1] for w in model.hidden):
        raise ValidationError(f"checkpoint {path}: residual hidden weights must be square")
    if model.use_bias:
        pairs = [(model.input_bias, model.input_proj)]
        pairs += list(zip(model.hidden_biases, model.hidden))
        pairs += [(model.output_bias, model.output)]
        for bias, w in pairs:
            if w is not None and bias.shape != (w.shape[1],):
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
        model = ResidualMlp(
            input_proj=data["input_proj"] if meta["has_input_proj"] else None,
            hidden=[data[f"hidden_{i}"] for i in range(meta["num_hidden"])],
            output=data["output"],
            use_bias=meta["use_bias"],
            dropout_rate=meta["dropout_rate"],
        )
        if meta["use_bias"]:
            if meta["has_input_proj"]:
                model.input_bias = data["input_bias"]
            model.hidden_biases = [data[f"hidden_bias_{i}"] for i in range(meta["num_hidden"])]
            model.output_bias = data["output_bias"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"checkpoint {path}: missing or malformed entry {exc}") from None
    _check_layer_shapes(model, path)
    return model
