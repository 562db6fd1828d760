"""Command-line interface: train, profile, sweep, and scale subcommands.

Single runs emit JSON, sweeps and benchmarks emit CSV; all outputs embed
enough configuration (seeds included) to reproduce the run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigurationError, DgmlpError
from .nn import save_checkpoint
from .runner import RunConfig, load_run_dataset, run_profile, run_scale, \
    run_sweep, run_train
from .smoothness import write_gsl_csv, write_node_profile_csv


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _input_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("input")
    g.add_argument("--dataset", help="dataset directory")
    g.add_argument("--feature-norm", choices=("none", "l1", "l2"),
                   help="per-row feature normalization applied before propagation")


def _propagation_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("propagation")
    g.add_argument("--dp", type=int, help="propagation depth K")
    g.add_argument("--temperature", type=float, help="softmax temperature for step weights")
    g.add_argument("--r", type=float, help="normalization exponent in [0, 1]")


def _training_options(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--dt", type=int, help="transformation depth (1 = logistic head)")
    g.add_argument("--hidden", type=int, help="hidden width of the MLP")
    g.add_argument("--seed", type=int)
    g.add_argument("--epochs", type=int)
    g.add_argument("--lr", type=float)
    g.add_argument("--dropout", type=float)
    g.add_argument("--weight-decay", type=float)
    g.add_argument("--bias", action="store_true", dest="use_bias",
                   help="enable bias terms (off by default)")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one 'error:' line (exit 2), as main()
    reports every other failure."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Subcommand parsers, each with only the options its runner reads; an
    option left out stays off the namespace, so its default comes from
    RunConfig."""
    parser = _Parser(
        prog="dgmlp",
        description="Node classification via precomputed propagation, "
                    "node-adaptive combination, and a residual MLP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", help="output path (file, or directory for profile)")
        for add_options in groups:
            add_options(p)
        return p

    everything = (_input_options, _propagation_options, _training_options)

    p = command("train", "run the full pipeline once", *everything)
    p.add_argument("--baseline", choices=("sgc",),
                   help="train the propagate-then-logistic-regression baseline instead")
    p.add_argument("--checkpoint", help="also save the trained model here (.npz)")

    p = command("profile", "smoothness curves and per-node weights",
                _input_options, _propagation_options)
    p.add_argument("--caps", type=_int_list,
                   help="comma-separated depth caps for combined-feature GSL")

    p = command("sweep", "grid sweep with mean/std over seeds", *everything)
    p.add_argument("--baseline", choices=("sgc",))
    p.add_argument("--dp-grid", type=_int_list)
    p.add_argument("--dt-grid", type=_int_list)
    p.add_argument("--keep-edges-grid", type=_float_list)
    p.add_argument("--labels-per-class-grid", type=_int_list)
    p.add_argument("--mask-features-grid", type=_float_list)
    p.add_argument("--num-seeds", type=int)

    p = command("scale", "synthetic-graph scalability benchmark",
                _propagation_options, _training_options)
    p.add_argument("--sizes", type=_int_list, help="comma-separated node counts")
    p.add_argument("--p", type=float, dest="edge_prob",
                   help="edge probability of the generated graphs")
    p.add_argument("--dim", type=int, help="synthetic feature width")
    p.add_argument("--classes", type=int)
    p.add_argument("--train-nodes", type=int)
    p.add_argument("--val-nodes", type=int)
    p.add_argument("--test-nodes", type=int)
    p.set_defaults(sizes=[10_000])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                        if f.name in given})


def write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise DgmlpError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _check_output(path, *, directory: bool = False) -> None:
    """Fail before any work when path cannot be written (or created)."""
    path = Path(path)
    if directory:
        if path.exists() and not path.is_dir():
            raise DgmlpError(f"output directory {path} exists and is not a directory")
        parent = path
        while not parent.exists():  # mkdir(parents=True) creates the rest
            parent = parent.parent
    else:
        if path.is_dir():
            raise DgmlpError(f"output file {path} is a directory")
        parent = path.parent
    if not parent.is_dir():
        problem = "is not a directory" if parent.exists() else "does not exist"
        raise DgmlpError(f"cannot write {path}: {parent} {problem}")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise DgmlpError(f"cannot write {path}: {parent} is not writable")


def _cmd_train(cfg: RunConfig, checkpoint: str | None) -> int:
    out = cfg.out or "train_result.json"
    _check_output(out)
    if checkpoint:
        _check_output(checkpoint)
        if Path(checkpoint).resolve() == Path(out).resolve():
            raise ConfigurationError(f"--checkpoint and --out name the same file: {out}")
    dataset = load_run_dataset(cfg)
    result, model, _ = run_train(dataset, cfg)
    if checkpoint:
        save_checkpoint(model, checkpoint)
        result["checkpoint"] = checkpoint
    write_json(result, out)
    print(f"test_accuracy={result['test_accuracy']:.4f} "
          f"best_epoch={result['best_epoch']} -> {out}")
    return 0


def _cmd_profile(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out or "profile_out")
    _check_output(out_dir, directory=True)
    dataset = load_run_dataset(cfg)
    result = run_profile(dataset, cfg)
    _write_profile(result, out_dir)
    print(f"wrote smoothness profile to {out_dir}/")
    return 0


def _write_profile(result: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = result.pop("profile")
    write_gsl_csv(profile, out_dir / "gsl_raw.csv")
    write_node_profile_csv(profile, out_dir / "node_profile.csv")
    write_csv(
        [{"cap": c, "gsl": g} for c, g in zip(result["caps"], result["gsl_combined"])],
        out_dir / "gsl_combined.csv",
    )
    write_csv(
        [
            {
                "step": k,
                "tercile_low": result["tercile_low"][k],
                "tercile_mid": result["tercile_mid"][k],
                "tercile_high": result["tercile_high"][k],
            }
            for k in result["steps"]
        ],
        out_dir / "nsl_by_degree.csv",
    )
    write_json(result, out_dir / "profile.json")


def _cmd_sweep(cfg: RunConfig) -> int:
    out = cfg.out or "sweep_results.csv"
    _check_output(out)
    dataset = load_run_dataset(cfg)
    rows = run_sweep(dataset, cfg)
    write_csv(rows, out)
    print(f"{len(rows)} sweep rows -> {out}")
    return 0


def _cmd_scale(cfg: RunConfig) -> int:
    out = cfg.out or "scale_results.csv"
    _check_output(out)
    rows = run_scale(cfg)
    write_csv(rows, out)
    for row in rows:
        print(f"n={row['num_nodes']} preprocess={row['preprocess_seconds']:.2f}s "
              f"train={row['train_seconds']:.2f}s peak={row['peak_traced_mb']:.0f}MB")
    print(f"-> {out}")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; 0 on success. Any failure prints one 'error:' line
    to stderr, never a traceback, and exits 2 for a rejected value or a file
    that cannot be read or written (DgmlpError, OSError), 1 for any other
    error (an allocation that fails, say)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "train":
            return _cmd_train(cfg, getattr(args, "checkpoint", None))
        if args.command == "profile":
            return _cmd_profile(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "scale":
            return _cmd_scale(cfg)
        raise DgmlpError(f"unknown command {args.command!r}")
    except (DgmlpError, OSError) as exc:
        code, message = 2, str(exc)
    except Exception as exc:
        code, message = 1, f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
