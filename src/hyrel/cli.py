"""Command-line entry point.

Subcommands: ``split`` (build an inductive bundle from a raw fact file),
``train``, ``eval``, ``graph-stats``, ``selfcheck`` (gradient and
equivariance suites) and ``predict`` (one ad-hoc query against a
checkpoint).  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal invariant failure.

Options may come from a ``key = value`` config file (``--config``);
explicit flags win over the file.  Every run prints a reproducibility
header (version, seed, config hash) before any other output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, DataError, HyrelError, ShapeError
from .evaluation import evaluate_bundle, require_finite
from .foundation import (InteractionConfig, build_entity_graph, build_relation_graph,
                         export_edge_list, graph_stats, preset)
from .io import load_bundle, load_kg, parse_fact_line
from .model import QueryFact, sequence_roles
from .config import format_value
from .predictor import ablation_overrides
from .splitting import KHOP, LOUVAIN, SplitConfig, make_bundle, write_split
from .training import Checkpoint, TrainConfig, config_hash, fit

MASK_TOKEN = "[MASK]"

_TRAIN_DEFAULTS = TrainConfig().to_dict() | {"ablation": ""}
_SPLIT_DEFAULTS = SplitConfig().to_dict()
_KNOWN_CONFIG_KEYS = set(_TRAIN_DEFAULTS) | set(_SPLIT_DEFAULTS)


class _Exit(Exception):
    def __init__(self, code: int, message: str | None = None):
        self.code = code
        self.message = message


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_CONFIG_KEYS:
            raise ConfigError(f"{path}:{no}: unknown configuration key {key!r}")
        out[key] = value
    return out


def _effective(args, defaults: dict[str, str]) -> dict[str, str]:
    """Defaults, overridden by the config file's keys among them (one file
    may serve ``split`` and ``train``), overridden by the flags given."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    file_cfg = {k: v for k, v in file_cfg.items() if k in defaults}
    flag_cfg = {k: format_value(v) for k, v in vars(args).items()
                if k in defaults and v is not None}
    return defaults | file_cfg | flag_cfg


def _print_header(effective: dict[str, str]) -> None:
    digest = config_hash(effective)
    seed = effective.get("seed", "0")
    print(f"# hyrel {__version__} seed={seed} config={digest[:12]}")
    for key in sorted(effective):
        print(f"# {key} = {effective[key]}")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value options file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyrel", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="build an inductive bundle from a raw fact file")
    _add_config_flag(p)
    p.add_argument("--input", required=True, help="raw TSV/JSONL fact file")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--method", choices=(KHOP, LOUVAIN), default=None)
    p.add_argument("--seed-count", type=int, default=None, dest="seed_count")
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--ratios", default=None, help="inference,valid,test e.g. 0.6,0.2,0.2")
    p.add_argument("--relation-disjoint", action="store_true", default=None,
                   dest="relation_disjoint")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train on a bundle and write checkpoints")
    _add_config_flag(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--step-size", type=float, default=None, dest="step_size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--encoder-depth", type=int, default=None, dest="encoder_depth")
    p.add_argument("--head-count", type=int, default=None, dest="head_count")
    p.add_argument("--decoder-depth", type=int, default=None, dest="decoder_depth")
    p.add_argument("--checkpoint-every", type=int, default=None, dest="checkpoint_every")
    p.add_argument("--no-leakage-guard", action="store_false", default=None,
                   dest="leakage_guard")
    p.add_argument("--ablation", default=None,
                   help="noR2K, noPrim, addK2K, addShareV, addAllFI, noV2V, noP2V, noV "
                        "or ultra-alike")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a bundle")
    _add_config_flag(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--raw", action="store_true", help="disable filtered ranking")
    p.add_argument("--tsv", action="store_true", help="also emit metric TSV lines")

    p = sub.add_parser("graph-stats", help="foundation-graph statistics for a fact file")
    p.add_argument("--kg", required=True)
    p.add_argument("--side", choices=("relation", "entity"), default="relation")
    p.add_argument("--preset", default="default", dest="preset_name")
    p.add_argument("--dump", help="write the edge list (src TAB type TAB dst) here")

    p = sub.add_parser("selfcheck", help="run gradient and equivariance suites")
    p.add_argument("--quick", action="store_true", help="smaller case counts")

    p = sub.add_parser("predict", help="score one masked query against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bundle", help="bundle directory (uses its inference graph)")
    p.add_argument("--kg", help="fact file to use as the inference graph")
    p.add_argument("--query", required=True,
                   help=f"space-separated h r t (k v)* with {MASK_TOKEN} in one entity slot")
    p.add_argument("--topk", type=int, default=10)
    return parser


def cmd_split(args) -> int:
    effective = _effective(args, _SPLIT_DEFAULTS)
    _print_header(effective)
    cfg = SplitConfig.from_dict(effective)
    raw = load_kg(args.input)
    print(f"loaded {raw!r}")
    bundle, report = make_bundle(raw, cfg)
    write_split(bundle, report, args.out)
    for line in report.lines():
        print(line)
    for line in bundle.diagnostics().report_lines():
        print(line)
    print(f"bundle written to {args.out}")
    return 0


def cmd_train(args) -> int:
    effective = _effective(args, _TRAIN_DEFAULTS)
    ablation = effective["ablation"].strip()
    if ablation:
        effective |= ablation_overrides(ablation)
    _print_header(effective)
    cfg = TrainConfig.from_dict(effective)
    bundle = load_bundle(args.bundle)
    for line in bundle.diagnostics().report_lines():
        print(line)
    checkpoint = fit(bundle, cfg, out_dir=args.out, log=print)
    print(f"best checkpoint epoch: {checkpoint.epoch}")
    print(f"checkpoints written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.config:  # eval reads none of its keys, but a bad file is still an error
        _read_config_file(args.config)
    checkpoint = Checkpoint.load(args.checkpoint)
    predictor = checkpoint.predictor()
    _print_header(checkpoint.train_config.to_dict())
    bundle = load_bundle(args.bundle)
    metrics = evaluate_bundle(predictor, bundle, split=args.split, filtered=not args.raw)
    print(metrics.table())
    if args.tsv:
        for line in metrics.tsv_lines():
            print(line)
    return 0


def cmd_graph_stats(args) -> int:
    kg = load_kg(args.kg)
    cfg: InteractionConfig = preset(args.preset_name)
    _print_header({"side": args.side, "preset": args.preset_name, "kg": args.kg})
    print(f"loaded {kg!r}")
    if args.side == "relation":
        g = build_relation_graph(kg, cfg)
        names = kg.relations
    else:
        g = build_entity_graph(kg, cfg)
        names = kg.entities
    for line in graph_stats(g).lines():
        print(line)
    if args.dump:
        Path(args.dump).write_text(
            "\n".join(export_edge_list(g, names)) + "\n", encoding="utf-8")
        print(f"edge list written to {args.dump}")
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck
    _print_header({"quick": str(bool(args.quick)), "seed": "0"})
    ok = run_selfcheck(quick=bool(args.quick), log=print)
    if not ok:
        raise _Exit(3, "selfcheck found invariant failures")
    return 0


def _parse_query(text: str) -> QueryFact:
    tokens = text.split()
    masked_slots = [i for i, t in enumerate(tokens) if t == MASK_TOKEN]
    if len(masked_slots) != 1:
        raise DataError(f"query must contain exactly one {MASK_TOKEN}")
    fact = parse_fact_line("\t".join(tokens))
    role = sequence_roles(fact.arity)[masked_slots[0]]
    if not role.is_entity:
        raise DataError(f"{MASK_TOKEN} must sit in an entity slot (head, tail or a value)")
    return QueryFact(fact, role, answer=None)


def cmd_predict(args) -> int:
    if bool(args.bundle) == bool(args.kg):
        raise ConfigError("provide exactly one of --bundle or --kg")
    if args.topk < 1:
        raise ConfigError(f"--topk must be at least 1, got {args.topk}")
    checkpoint = Checkpoint.load(args.checkpoint)
    predictor = checkpoint.predictor()
    kg = load_bundle(args.bundle).inference if args.bundle else load_kg(args.kg)
    query = _parse_query(args.query)
    scores = predictor.entity_scores(predictor.prepare(kg), query)
    require_finite(scores)  # NaN sorts anywhere: never print it as a ranking
    _print_header(checkpoint.train_config.to_dict() | {"topk": str(args.topk)})
    order = np.argsort(-scores)[:args.topk]
    print("rank\tentity\tprobability")
    for rank, idx in enumerate(order, start=1):
        print(f"{rank}\t{kg.entities[int(idx)]}\t{scores[int(idx)]:.6f}")
    return 0


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return 0 if e.code in (0, None) else 1
    handlers = {
        "split": cmd_split,
        "train": cmd_train,
        "eval": cmd_eval,
        "graph-stats": cmd_graph_stats,
        "selfcheck": cmd_selfcheck,
        "predict": cmd_predict,
    }
    try:
        return handlers[args.command](args)
    except _Exit as e:
        if e.message:
            print(e.message, file=sys.stderr)
        return e.code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ShapeError, ContractError) as e:  # they guard the program's own calls
        failure = e
    except (HyrelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a broken internal invariant
        failure = e
    print(f"internal invariant failure: {type(failure).__name__}: {failure}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
