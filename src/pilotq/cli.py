"""`pq`: the benchmark command line.

Subcommands: throughput, circuits, gradients, cut, vqc, status. Common
flags: --out (CSV path), --log (JSONL event log), --config (JSON file
supplying defaults for unset flags), --seed. Precedence: explicit flag >
config file > built-in default. Exit codes: 0 success, 1 validation error,
2 runtime failure.
"""

from __future__ import annotations

import json
import sys

import click

from pilotq.bench.runners import (
    SESSION_FILE,
    cmd_circuits,
    cmd_cut,
    cmd_gradients,
    cmd_status,
    cmd_throughput,
    cmd_vqc,
)
from pilotq.bench.vqc import VqcConfig
from pilotq.errors import PilotQError, ValidationError


def parse_int_list(spec) -> list[int]:
    """Accept 7, "7", "1,4,8", or inclusive ranges "2:16" / "2:16:2"."""
    if isinstance(spec, int):
        return [spec]
    try:
        if isinstance(spec, (list, tuple)):
            return [int(x) for x in spec]
        text = str(spec).strip()
        if ":" not in text:
            return [int(p) for p in text.split(",") if p.strip() != ""]
        parts = [int(p) for p in text.split(":")]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad integer list: {spec!r}") from exc
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 1
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise ValidationError(f"bad range: {text!r} (use start:stop[:step])")
    if step < 1 or stop < start:
        raise ValidationError(f"bad range: {text!r}")
    return list(range(start, stop + 1, step))


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    return cfg


def _cfg(config: dict, key: str, flag, default, convert=None):
    """Flag, else the config value (null counts as unset), else default.

    A value other than None goes through `convert`; a config value that
    `convert` rejects is a ValidationError, not a traceback.
    """
    if flag is not None:
        value = flag
    elif config.get(key) is not None:
        value = config[key]
    else:
        value = default
    if convert is None or value is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from exc


def _name_list(value) -> list[str]:
    """A comma-separated string, or a JSON list of strings."""
    if isinstance(value, str):
        return [name.strip() for name in value.split(",") if name.strip()]
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        return value
    raise TypeError(f"expected a comma-separated string or a list of strings, got {value!r}")


def _json_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def common_options(fn):
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="CSV output path.")(fn)
    fn = click.option("--log", "log_path", type=click.Path(dir_okay=False), default=None,
                      help="JSONL event-log path.")(fn)
    fn = click.option("--config", "config_path", type=click.Path(exists=False), default=None,
                      help="JSON file with defaults for unset flags.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Deterministic seed.")(fn)
    return fn


@click.group(name="pq")
def cli():
    """Pilot-job quantum benchmark harness."""


@cli.command("throughput")
@common_options
@click.option("--tasks", default=None, help="Task counts, e.g. '256,1024,8192'.")
@click.option("--pilots", type=int, default=None, help="Local pilots to create.")
@click.option("--workers", type=int, default=None, help="Workers per pilot.")
def throughput_command(out, log_path, config_path, seed, tasks, pilots, workers):
    """Zero-compute task storm measuring middleware overhead."""
    cfg = _load_config(config_path)
    metrics = cmd_throughput(
        tasks_list=parse_int_list(_cfg(cfg, "tasks", tasks, "256,1024,8192")),
        pilots=_cfg(cfg, "pilots", pilots, 1, int),
        workers=_cfg(cfg, "workers", workers, 8, int),
        out_path=_cfg(cfg, "out", out, "throughput.csv"),
        log_path=_cfg(cfg, "log", log_path, None),
        seed=_cfg(cfg, "seed", seed, 0, int),
    )
    click.echo(
        f"throughput: {metrics.tasks_done}/{metrics.tasks_total} tasks done, "
        f"{metrics.throughput_tasks_per_s:.1f} tasks/s overall"
    )


@cli.command("circuits")
@common_options
@click.option("--qubits", default=None, help="Qubit counts, e.g. '2:16:2'.")
@click.option("--count", type=int, default=None, help="Circuits per qubit count.")
@click.option("--backends", default=None, help="Comma list from {local,qpu_sim}.")
@click.option("--depth", type=int, default=None, help="Random-circuit layer count.")
@click.option("--shots", type=int, default=None, help="Shots per qpu_sim task.")
@click.option("--qpu-latency", type=float, default=None, help="qpu_sim per-task latency (s).")
@click.option("--workers", type=int, default=None, help="Workers per pilot.")
def circuits_command(
    out, log_path, config_path, seed, qubits, count, backends, depth, shots, qpu_latency, workers
):
    """Random-circuit execution scaling across backends."""
    cfg = _load_config(config_path)
    metrics = cmd_circuits(
        qubits_list=parse_int_list(_cfg(cfg, "qubits", qubits, "2:16:2")),
        count=_cfg(cfg, "count", count, 16, int),
        backends=tuple(_cfg(cfg, "backends", backends, "local,qpu_sim", _name_list)),
        depth=_cfg(cfg, "depth", depth, 10, int),
        shots=_cfg(cfg, "shots", shots, 256, int),
        qpu_latency_s=_cfg(cfg, "qpu_latency", qpu_latency, 0.2, float),
        workers=_cfg(cfg, "workers", workers, 4, int),
        out_path=_cfg(cfg, "out", out, "circuits.csv"),
        log_path=_cfg(cfg, "log", log_path, None),
        seed=_cfg(cfg, "seed", seed, 0, int),
    )
    click.echo(
        f"circuits: {metrics.tasks_done} done, {metrics.tasks_failed} failed "
        f"across {metrics.params['backends']}"
    )


@cli.command("gradients")
@common_options
@click.option("--qubits", default=None, help="Qubit counts, e.g. '2:8'.")
@click.option("--layers", type=int, default=None, help="SEL layers.")
@click.option("--fd/--no-fd", "fd_check", default=None,
              help="Check the adjoint result against central differences.")
def gradients_command(out, log_path, config_path, seed, qubits, layers, fd_check):
    """Adjoint-gradient timing and finite-difference verification."""
    del log_path  # runs in-process; no event log
    cfg = _load_config(config_path)
    metrics = cmd_gradients(
        qubits_list=parse_int_list(_cfg(cfg, "qubits", qubits, "2:8")),
        layers=_cfg(cfg, "layers", layers, 2, int),
        out_path=_cfg(cfg, "out", out, "gradients.csv"),
        seed=_cfg(cfg, "seed", seed, 0, int),
        fd_check=_cfg(cfg, "fd", fd_check, True, _json_bool),
    )
    click.echo(f"gradients: wrote rows for qubits {metrics.params['qubits']}")


@cli.command("cut")
@common_options
@click.option("--sizes", default=None, help="Cluster sizes, e.g. '6,6'.")
@click.option("--reps", type=int, default=None, help="Block repetitions per cluster.")
@click.option("--max-width", type=int, default=None, help="Widest allowed fragment.")
@click.option("--shots", type=int, default=None, help="0 = exact fragments.")
@click.option("--workers", default=None, help="Worker counts to sweep, e.g. '1,4'.")
@click.option("--task-latency", type=float, default=None, help="Pilot per-task latency (s).")
def cut_command(
    out, log_path, config_path, seed, sizes, reps, max_width, shots, workers, task_latency
):
    """Cut a clustered circuit and reconstruct the observable."""
    cfg = _load_config(config_path)
    metrics = cmd_cut(
        cluster_sizes=parse_int_list(_cfg(cfg, "sizes", sizes, "6,6")),
        reps=_cfg(cfg, "reps", reps, 1, int),
        max_width=_cfg(cfg, "max_width", max_width, None, int),
        shots=_cfg(cfg, "shots", shots, 0, int),
        workers_list=parse_int_list(_cfg(cfg, "workers", workers, "1,4")),
        task_latency_s=_cfg(cfg, "task_latency", task_latency, 0.1, float),
        out_path=_cfg(cfg, "out", out, "cut.csv"),
        log_path=_cfg(cfg, "log", log_path, None),
        seed=_cfg(cfg, "seed", seed, 0, int),
    )
    click.echo(f"cut: config [{metrics.params['config']}], "
               f"{metrics.tasks_done} subexperiments executed")


@cli.command("vqc")
@common_options
@click.option("--qubits", type=int, default=None, help="Feature/qubit count.")
@click.option("--layers", type=int, default=None, help="Ansatz layers.")
@click.option("--samples", type=int, default=None, help="Dataset size.")
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None, help="Learning rate.")
@click.option("--optimizer", type=click.Choice(["gd", "momentum"]), default=None)
@click.option("--workers", type=int, default=None, help="Workers on the pilot.")
def vqc_command(
    out, log_path, config_path, seed, qubits, layers, samples, epochs, batch_size, lr,
    optimizer, workers,
):
    """Train the variational classifier on synthetic blobs."""
    cfg = _load_config(config_path)
    config = VqcConfig(
        n_qubits=_cfg(cfg, "qubits", qubits, 4, int),
        layers=_cfg(cfg, "layers", layers, 2, int),
        samples=_cfg(cfg, "samples", samples, 200, int),
        seed=_cfg(cfg, "seed", seed, 7, int),
        epochs=_cfg(cfg, "epochs", epochs, 50, int),
        batch_size=_cfg(cfg, "batch_size", batch_size, 25, int),
        learning_rate=_cfg(cfg, "lr", lr, 0.1, float),
        optimizer=_cfg(cfg, "optimizer", optimizer, "gd"),
    )
    metrics = cmd_vqc(
        config,
        workers=_cfg(cfg, "workers", workers, 4, int),
        out_path=_cfg(cfg, "out", out, "vqc.csv"),
        log_path=_cfg(cfg, "log", log_path, None),
    )
    click.echo(
        f"vqc: {config.epochs} epochs, {metrics.tasks_done} gradient tasks done"
    )


@cli.command("status")
@click.option("--session", "session_path", type=click.Path(), default=SESSION_FILE,
              help="Session file written by the last benchmark run.")
def status_command(session_path):
    """Print the last run's pilots, queues, and task tallies as JSON."""
    click.echo(json.dumps(cmd_status(session_path=session_path), indent=2, sort_keys=True))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(1)
    except PilotQError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
