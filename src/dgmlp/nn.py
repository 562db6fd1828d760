"""Residual MLP classifier with analytic gradients and a full-batch Adam loop.

The transformation stack is

    input projection -> ReLU -> [h = ReLU(h W) + h] * (L-2) -> output layer,

bias-free by default. A one-layer configuration is plain multinomial
logistic regression, which doubles as the propagate-then-regress baseline.
"""

from __future__ import annotations

import json
import zipfile
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


def _dropout_mask(rng, shape, rate):
    # inverted dropout: scaling happens at train time, eval is a no-op
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _forward(model: ResidualMlp, x: np.ndarray, rate: float, rng):
    """Returns (logits, caches); caches hold what backprop needs per layer."""
    def drop(h):
        if rate <= 0.0:
            return h, None
        mask = _dropout_mask(rng, h.shape, rate)
        return h * mask, mask

    h = x
    cache_in = None
    if model.input_proj is not None:
        hd, mask = drop(h)
        z = hd @ model.input_proj
        if model.input_bias is not None:
            z = z + model.input_bias
        cache_in = (hd, z, mask)
        h = np.maximum(z, 0.0)

    cache_hidden = []
    for idx, w in enumerate(model.hidden):
        hd, mask = drop(h)
        z = hd @ w
        if model.use_bias:
            z = z + model.hidden_biases[idx]
        cache_hidden.append((hd, z, mask))
        h = np.maximum(z, 0.0) + h

    hd, mask_out = drop(h)
    logits = hd @ model.output
    if model.output_bias is not None:
        logits = logits + model.output_bias
    return logits, (cache_in, cache_hidden, (hd, mask_out))


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
    logits, _ = _forward(model, features, rate, rng)
    return logits


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

    logits, (cache_in, cache_hidden, (h_out, mask_out)) = _forward(model, x, rate, rng)
    probs = softmax(logits)
    batch = x.shape[0]
    picked = np.clip(probs[np.arange(batch), y], 1e-300, None)
    loss = float(-np.log(picked).mean())
    if weight_decay:
        loss += weight_decay * sum(float((w * w).sum()) for w in model.weight_matrices())

    g = probs
    g[np.arange(batch), y] -= 1.0
    g /= batch

    grad_output = h_out.T @ g + 2.0 * weight_decay * model.output
    grad_output_bias = g.sum(axis=0) if model.output_bias is not None else None
    dh = g @ model.output.T
    if mask_out is not None:
        dh = dh * mask_out

    grad_hidden = [None] * len(model.hidden)
    grad_hidden_biases = [None] * len(model.hidden)
    for idx in range(len(model.hidden) - 1, -1, -1):
        hd, z, mask = cache_hidden[idx]
        dz = dh * (z > 0.0)
        grad_hidden[idx] = hd.T @ dz + 2.0 * weight_decay * model.hidden[idx]
        if model.use_bias:
            grad_hidden_biases[idx] = dz.sum(axis=0)
        branch = dz @ model.hidden[idx].T
        if mask is not None:
            branch = branch * mask
        dh = dh + branch

    grad_input = None
    grad_input_bias = None
    if model.input_proj is not None:
        hd, z, mask = cache_in
        dz = dh * (z > 0.0)
        grad_input = hd.T @ dz + 2.0 * weight_decay * model.input_proj
        if model.input_bias is not None:
            grad_input_bias = dz.sum(axis=0)

    grads = [] if grad_input is None else [grad_input]
    grads += grad_hidden + [grad_output]
    if model.use_bias:
        if grad_input_bias is not None:
            grads.append(grad_input_bias)
        grads.extend(grad_hidden_biases)
        grads.append(grad_output_bias)
    return loss, grads


class Adam:
    """Standard Adam with bias correction; updates parameters in place."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
    n_tr, n_va = tr.size, va.size

    losses, tr_accs, va_accs, te_accs = [], [], [], []
    best_val, best_epoch, best_test = -1.0, -1, 0.0
    for epoch in range(config.epochs):
        loss, grads = loss_and_grad(
            model, features, labels, tr,
            weight_decay=config.weight_decay, training=True, rng=drop_rng,
        )
        opt.step(params, grads)

        logits = forward(model, union_feats, training=False)
        pred_ok = logits.argmax(axis=1) == labels[union]
        acc_tr = float(pred_ok[:n_tr].mean())
        acc_va = float(pred_ok[n_tr:n_tr + n_va].mean()) if n_va else 0.0
        acc_te = float(pred_ok[n_tr + n_va:].mean()) if te.size else 0.0

        losses.append(loss)
        tr_accs.append(acc_tr)
        va_accs.append(acc_va)
        te_accs.append(acc_te)
        if acc_va > best_val:
            best_val, best_epoch, best_test = acc_va, epoch, acc_te

    metrics = Metrics(losses, tr_accs, va_accs, te_accs,
                      best_epoch, best_val, best_test)
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
