"""`pq`: the benchmark command line.

Each benchmark subcommand is declared once, by its table in `TABLES`: rows
of (key, runner keyword, type, help). `table_command` turns a table into
click flags (`--max-width` for the key `max_width`, `--fd/--no-fd` for a
bool row) plus `--config`, a JSON object keyed by the row keys. A flag
string and a config value go through the same row type, which checks shape
only (ranges, finiteness and choices are the domain validators'), and a
config key that no row names is an error. Only keys set by a flag, else by
the config (`null` is unset), reach the runner, so each default lives once:
in its `cmd_*` signature or in `VqcConfig`. Precedence: flag > config >
runner default. Exit codes: 0 success, 1 validation or usage error,
2 runtime failure, 130 interrupted.
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
from pilotq.model import validate_seed

# --- row types: a flag string or a JSON config value in, the runner's value out ---------


def _int(value) -> int:
    """An integral number or a decimal string; never a bool or a fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _names(value) -> tuple[str, ...]:
    """A comma-separated string, or a list of strings."""
    if isinstance(value, str):
        return tuple(name.strip() for name in value.split(",") if name.strip())
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        return tuple(value)
    raise TypeError(f"expected a comma-separated string or a list of strings, got {value!r}")


def _seed(value) -> int:
    return validate_seed(_int(value))


def parse_int_list(spec) -> list[int]:
    """Accept 7, "7", "1,4,8", a list of ints, or inclusive ranges "2:16" / "2:16:2"."""
    try:
        if isinstance(spec, (list, tuple)):
            return [_int(x) for x in spec]
        if not isinstance(spec, str):
            return [_int(spec)]
        if ":" not in spec:
            return [_int(p) for p in spec.split(",") if p.strip()]
        parts = [_int(p) for p in spec.split(":")]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad integer list: {spec!r}") from exc
    if len(parts) not in (2, 3):
        raise ValidationError(f"bad range: {spec!r} (use start:stop[:step])")
    start, stop, step = (parts + [1])[:3]
    if step < 1 or stop < start:
        raise ValidationError(f"bad range: {spec!r}")
    return list(range(start, stop + 1, step))


# --- the option tables ------------------------------------------------------------------

OUT = ("out", "out_path", _str, "CSV output path.")
LOG = ("log", "log_path", _str, "JSONL event-log path.")
SEED = ("seed", "seed", _seed, "Deterministic seed, 0 <= seed < 2**64.")

TABLES = {
    "throughput": (
        ("tasks", "tasks_list", parse_int_list, "Task counts, e.g. '256,1024,8192'."),
        ("pilots", "pilots", _int, "Local pilots to create."),
        ("workers", "workers", _int, "Workers per pilot."),
        OUT, LOG, SEED,
    ),
    "circuits": (
        ("qubits", "qubits_list", parse_int_list, "Qubit counts, e.g. '2:16:2'."),
        ("count", "count", _int, "Circuits per qubit count."),
        ("backends", "backends", _names, "Comma list from {local,qpu_sim}."),
        ("depth", "depth", _int, "Random-circuit layer count."),
        ("shots", "shots", _int, "Shots per qpu_sim task."),
        ("qpu_latency", "qpu_latency_s", _float, "qpu_sim per-task latency (s)."),
        ("workers", "workers", _int, "Workers per pilot."),
        OUT, LOG, SEED,
    ),
    "gradients": (  # runs in-process, so it writes no event log
        ("qubits", "qubits_list", parse_int_list, "Qubit counts, e.g. '2:8'."),
        ("layers", "layers", _int, "SEL layers."),
        ("fd", "fd_check", _bool, "Check the adjoint result against central differences."),
        OUT, SEED,
    ),
    "cut": (
        ("sizes", "cluster_sizes", parse_int_list, "Cluster sizes, e.g. '6,6'."),
        ("reps", "reps", _int, "Block repetitions per cluster."),
        ("max_width", "max_width", _int, "Widest allowed fragment."),
        ("shots", "shots", _int, "0 = exact fragments."),
        ("workers", "workers_list", parse_int_list, "Worker counts to sweep, e.g. '1,4'."),
        ("task_latency", "task_latency_s", _float, "Pilot per-task latency (s)."),
        OUT, LOG, SEED,
    ),
    "vqc": (
        ("qubits", "n_qubits", _int, "Feature/qubit count."),
        ("layers", "layers", _int, "Ansatz layers."),
        ("samples", "samples", _int, "Dataset size."),
        ("epochs", "epochs", _int, "Training epochs."),
        ("batch_size", "batch_size", _int, "Samples per gradient task."),
        ("lr", "learning_rate", _float, "Learning rate."),
        ("optimizer", "optimizer", _str, "gd or momentum."),
        ("workers", "workers", _int, "Workers on the pilot."),
        OUT, LOG, SEED,
    ),
}


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


def resolve_options(table, flags: dict, config: dict) -> dict:
    """Runner keywords for the rows set by a flag, else by the config (None is unset)."""
    unknown = sorted(set(config) - {row[0] for row in table})
    if unknown:
        raise ValidationError(f"config key {unknown[0]!r} is not an option of this command")
    options = {}
    for key, keyword, kind, _ in table:
        flag = "--" + key.replace("_", "-")
        # the flag is parsed after the config value, so it wins
        for where, value in ((f"config key {key!r}", config.get(key)), (flag, flags.get(key))):
            if value is not None:
                try:
                    options[keyword] = kind(value)
                except (TypeError, ValueError) as exc:
                    raise ValidationError(f"{where}: {exc}") from exc
    return options


@click.group(name="pq")
def cli():
    """Pilot-job quantum benchmark harness."""


def table_command(name: str):
    """Register `run(options)` as subcommand `name`, with a flag per TABLES[name] row."""
    table = TABLES[name]

    def register(run):
        def callback(config_path, **flags):
            run(resolve_options(table, flags, _load_config(config_path)))

        params = [click.Option(["--config", "config_path"], help="JSON file of option values.")]
        for key, _, kind, help_text in table:
            flag = "--" + key.replace("_", "-")
            if kind is _bool:
                flag += "/--no-" + key.replace("_", "-")
            # default=None marks the flag unset; a bool flag would otherwise default to False
            params.append(click.Option([flag, key], default=None, help=help_text))
        cli.add_command(click.Command(name, callback=callback, params=params, help=run.__doc__))
        return run

    return register


@table_command("throughput")
def throughput_command(options):
    """Zero-compute task storm measuring middleware overhead."""
    metrics = cmd_throughput(**options)
    click.echo(
        f"throughput: {metrics.tasks_done}/{metrics.tasks_total} tasks done, "
        f"{metrics.throughput_tasks_per_s:.1f} tasks/s overall"
    )


@table_command("circuits")
def circuits_command(options):
    """Random-circuit execution scaling across backends."""
    metrics = cmd_circuits(**options)
    click.echo(
        f"circuits: {metrics.tasks_done} done, {metrics.tasks_failed} failed "
        f"across {metrics.params['backends']}"
    )


@table_command("gradients")
def gradients_command(options):
    """Adjoint-gradient timing and finite-difference verification."""
    metrics = cmd_gradients(**options)
    click.echo(f"gradients: wrote rows for qubits {metrics.params['qubits']}")


@table_command("cut")
def cut_command(options):
    """Cut a clustered circuit and reconstruct the observable."""
    metrics = cmd_cut(**options)
    click.echo(f"cut: config [{metrics.params['config']}], "
               f"{metrics.tasks_done} subexperiments executed")


@table_command("vqc")
def vqc_command(options):
    """Train the variational classifier on synthetic blobs."""
    run = {k: options.pop(k) for k in ("workers", "out_path", "log_path") if k in options}
    config = VqcConfig(**options)
    metrics = cmd_vqc(config, **run)
    click.echo(f"vqc: {config.epochs} epochs, {metrics.tasks_done} gradient tasks done")


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
