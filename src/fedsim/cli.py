"""Command-line experiment runner.

    fedsim run --config exp.yaml --out runs/exp1 [--seed N] [--threads N]
    fedsim validate --config exp.yaml
    fedsim compare runs/exp1 runs/exp2 [...]
    fedsim shape runs/exp1/model.bin

`run` writes into the output directory:

    manifest.json   resolved config, seeds, version, host facts (written
                    before round 1, finalized with status and wall-clock)
    rounds.csv      one row per evaluated round, fixed column order
    rounds.jsonl    structured per-round records with per-client scores
    model.bin       final server model (absent for local-only or a failed run)
    shape.txt       final model shape dump (likewise)

A run first deletes an earlier run's model.bin and shape.txt.  It is
reproducible from its manifest: `fedsim run --config manifest.json`
replays the embedded resolved config and produces byte-identical CSV.  The
replay warns on stderr for each `host` fact that differs on this host.
"""

from __future__ import annotations

import argparse
import csv as csvmod
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ConfigError, config_to_dict, parse_config, parse_config_dict, read_config
from .container import deserialize_model, serialize_model
from .data import CsvDataSpec
from .fabric import shape_lines
from .metrics import CSV_COLUMNS
from .scheduler import client_datasets, host_facts, run_experiment
from .seeds import derivation


def _write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _warn_host_changes(recorded: dict, host: dict) -> None:
    """Warn once for each host fact that a replayed manifest recorded otherwise."""
    for key, value in host.items():
        if recorded.get(key) != value:
            print(f"warning: host {key} was {recorded.get(key)!r} in the manifest, "
                  f"is {value!r} here; outputs may differ", file=sys.stderr)


def cmd_run(args) -> int:
    try:
        raw, recorded = read_config(args.config)
        if args.seed is not None:
            # Set before data.synthetic.seed defaults to the seed, so an
            # explicit data seed, or the one a manifest recorded, stays.
            raw = {**raw, "seed": args.seed}
        cfg = parse_config_dict(raw)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest_path = out / "manifest.json"
    csv_path = out / "rounds.csv"
    jsonl_path = out / "rounds.jsonl"
    model_path = out / "model.bin"
    shape_path = out / "shape.txt"

    manifest = {
        "resolved_config": config_to_dict(cfg),
        "seeds": {"experiment": cfg.seed, "derivation": derivation()},
        "code_version": __version__,
        "host": host_facts(),
        "outputs": {"csv": csv_path.name, "jsonl": jsonl_path.name,
                    "model": model_path.name, "shape": shape_path.name},
        "started_at": datetime.now(timezone.utc).isoformat(),
        "status": "running",
    }
    _write_manifest(manifest_path, manifest)
    if recorded is not None:  # a replayed manifest
        _warn_host_changes(recorded, manifest["host"])
    model_path.unlink(missing_ok=True)
    shape_path.unlink(missing_ok=True)

    start = time.monotonic()
    try:
        with open(csv_path, "w") as csv_fh, open(jsonl_path, "w") as jsonl_fh:
            csv_fh.write(",".join(CSV_COLUMNS) + "\n")

            def on_report(report):
                csv_fh.write(",".join(report.csv_row()) + "\n")
                jsonl_fh.write(json.dumps(report.record(), sort_keys=True) + "\n")
                csv_fh.flush()
                jsonl_fh.flush()

            result = run_experiment(cfg, on_report=on_report)
    except Exception as exc:  # noqa: BLE001 - partial outputs stay flushed
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["duration_sec"] = time.monotonic() - start
        manifest["outputs"].update(model=None, shape=None)
        _write_manifest(manifest_path, manifest)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result.final_model is not None:
        model_path.write_bytes(serialize_model(result.final_model))
        shape_path.write_text("\n".join(shape_lines(result.final_model)) + "\n")
    else:
        manifest["outputs"].update(model=None, shape=None)

    manifest["status"] = "completed"
    manifest["duration_sec"] = time.monotonic() - start
    manifest["rounds_evaluated"] = len(result.reports)
    _write_manifest(manifest_path, manifest)
    print(f"completed {len(result.reports)} evaluated rounds -> {out}")
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The files are checked here, not in CsvDataSpec: a spec only names
    # them, and a path resolves against the directory a command runs in.
    paths = cfg.data.paths if isinstance(cfg.data, CsvDataSpec) else ()
    for i, path in enumerate(paths):
        if not Path(path).is_file():
            print(f"error: data.csv.paths[{i}]: {path} is not a file", file=sys.stderr)
            return 2
    try:
        client_datasets(cfg)
    except (ValueError, OSError) as exc:  # a CsvFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {cfg.algorithm}, {cfg.rounds} rounds, {cfg.data.clients} clients, "
          f"scenario {cfg.scenario.kind}, seed {cfg.seed}")
    return 0


def _load_run(run_dir: Path) -> dict:
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    with open(run_dir / "rounds.csv") as fh:
        reader = csvmod.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns {reader.fieldnames}")
        rows = list(reader)
    return {"dir": run_dir, "manifest": manifest, "rows": rows}


def _number(row, column):
    """The row's cell in column as a float; None when it is empty."""
    cell = row[column]
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"rounds.csv: {column} {cell!r} is not a number") from None


def _best(rows, column):
    best_val, best_round = None, None
    for row in rows:
        value = _number(row, column)
        if value is not None and (best_val is None or value > best_val):
            best_val, best_round = value, int(row["round"])
    return best_val, best_round


def summarize_run(run: dict) -> dict:
    """Best global/personalization scores with their rounds, plus the
    final-round generalization view.  Malformed data raises ValueError."""
    try:
        algorithm = run["manifest"]["resolved_config"]["algorithm"]
    except (KeyError, TypeError):
        raise ValueError("manifest.json has no resolved_config.algorithm") from None
    rows = run["rows"]
    g_val, g_round = _best(rows, "global_f1")
    p_val, p_round = _best(rows, "pers_mean")
    gen_mean = gen_std = None
    for row in reversed(rows):
        if row["gen_mean"]:
            gen_mean, gen_std = _number(row, "gen_mean"), _number(row, "gen_std")
            break
    return {
        "name": run["dir"].name,
        "algorithm": algorithm,
        "global_best": g_val, "global_best_round": g_round,
        "pers_best": p_val, "pers_best_round": p_round,
        "gen_mean": gen_mean, "gen_std": gen_std,
    }


def cmd_compare(args) -> int:
    summaries = []
    for run_dir in args.run_dirs:
        try:
            summaries.append(summarize_run(_load_run(Path(run_dir))))
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            print(f"error: {run_dir}: {exc}", file=sys.stderr)
            return 2

    def fmt(v, digits=4):
        return "n/a" if v is None else f"{v:.{digits}f}"

    header = (f"{'run':<20} {'algorithm':<12} {'global F1':>10} {'rnd':>5} "
              f"{'pers F1':>10} {'rnd':>5} {'gen F1':>10} {'± std':>8}")
    print(header)
    print("-" * len(header))
    for s in summaries:
        print(f"{s['name']:<20} {s['algorithm']:<12} {fmt(s['global_best']):>10} "
              f"{s['global_best_round'] or 'n/a':>5} {fmt(s['pers_best']):>10} "
              f"{s['pers_best_round'] or 'n/a':>5} {fmt(s['gen_mean']):>10} "
              f"{fmt(s['gen_std']):>8}")
    return 0


def cmd_shape(args) -> int:
    try:
        model = deserialize_model(Path(args.container).read_bytes())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(shape_lines(model)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated learning simulator with dynamic model growth")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment")
    run_p.add_argument("--config", required=True, help="YAML config or manifest.json")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed (an explicit data seed stays)")
    run_p.add_argument("--threads", type=int, default=None,
                       help="client-update worker threads (2 slows a small model: "
                            "dense-32 FedAvg on 10 clients took 4.6-5.0 s "
                            "against 2.7-3.3 s at 1)")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=cmd_validate)

    cmp_p = sub.add_parser("compare", help="summarize completed runs side by side")
    cmp_p.add_argument("run_dirs", nargs="+", help="two or more run directories")
    cmp_p.set_defaults(func=cmd_compare)

    shape_p = sub.add_parser("shape", help="print a weight container's shape dump")
    shape_p.add_argument("container", help="path to a model container file")
    shape_p.set_defaults(func=cmd_shape)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.run_dirs) < 2:
        parser.error("compare needs at least two run directories")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
