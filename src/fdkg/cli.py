"""Command-line interface for running experiments and testing key dumps."""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import click

from .errors import ConfigError, FormatError
from .keygen import read_key_dump, write_key_dump
from .pipeline import (
    SWEEP_AXES,
    ExperimentConfig,
    desk_profile,
    emit_report,
    paper_profile,
    run_pipeline,
    sweep as run_sweep,
)
from .randomness import run_battery

EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3
PROFILE_HELP = "Built-in profile to run when no --config is given.  [default: desk]"


def _load_config(config: str | None, profile: str | None, seed: int | None) -> ExperimentConfig:
    if config is not None:
        cfg = ExperimentConfig.from_json(config)
        for flag, value in (("--seed", seed), ("--profile", profile)):
            if value is not None:
                raise ConfigError(f"{flag} with --config is ambiguous; the config file alone sets the run")
        return cfg
    base = {"desk": desk_profile, "paper": paper_profile}[profile or "desk"]
    return base(seed if seed is not None else 0)


def _guarded(fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except FormatError as exc:
        click.echo(f"format error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except ArithmeticError as exc:  # NumericError, FloatingPointError, ZeroDivisionError
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC_ERROR)


@click.group()
def main() -> None:
    """Multi-environment FDD-OFDM key generation experiments."""


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", type=click.Path(file_okay=False), default="out")
@click.option("--seed", type=int, default=None, help="Seed for the built-in profiles.")
@click.option("--profile", type=click.Choice(["desk", "paper"]), default=None, help=PROFILE_HELP)
@click.option("--dump-keys", is_flag=True, help="Write per-cell ASCII key dumps for `fdkg nist`.")
def run(config: str | None, out: str, seed: int | None, profile: str | None, dump_keys: bool) -> None:
    """Run the full pipeline and write report.csv / report.json."""

    def go() -> None:
        cfg = _load_config(config, profile, seed)
        if dump_keys and len({f"{snr:g}" for snr in cfg.snr_list_db}) != len(cfg.snr_list_db):
            raise ConfigError(f"--dump-keys names key dumps by SNR in :g form; two of {cfg.snr_list_db} print alike")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)

        sink = None
        if dump_keys:

            def sink(alg, env_id, snr_db, alice_keys, bob_keys):
                name = f"keys_{alg}_env{env_id}_snr{snr_db:g}.txt"
                write_key_dump(alice_keys, out_dir / name)

        report = run_pipeline(cfg, key_sink=sink)
        emit_report(report, "csv", out_dir / "report.csv")
        emit_report(report, "json", out_dir / "report.json")
        for row in report.rows:
            click.echo(
                f"{row.algorithm:8s} env={row.env} snr={row.snr_db:g} dB  "
                f"nmse={row.nmse:.4f} ker={row.ker:.4f} kgr={row.kgr:.4f}"
            )
        click.echo(f"wrote {out_dir / 'report.csv'}")

    _guarded(go)


@main.command(name="sweep")
@click.option("--axis", required=True, type=click.Choice(SWEEP_AXES))
@click.option("--values", required=True, help="Comma-separated axis values, e.g. 1,2,4.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", type=click.Path(file_okay=False), default="out")
@click.option("--seed", type=int, default=None)
@click.option("--profile", type=click.Choice(["desk", "paper"]), default=None, help=PROFILE_HELP)
def sweep_cmd(
    axis: str, values: str, config: str | None, out: str, seed: int | None, profile: str | None
) -> None:
    """Sweep one hyper-parameter axis with shared seeds across values."""

    def go() -> None:
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep values {values!r}: {exc}") from exc
        cfg = _load_config(config, profile, seed)
        report = run_sweep(cfg, axis, parsed)
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_report(report, "csv", out_dir / f"sweep_{axis}.csv")
        emit_report(report, "json", out_dir / f"sweep_{axis}.json")
        click.echo(f"wrote {out_dir / f'sweep_{axis}.csv'}")

    _guarded(go)


@main.command()
@click.option("--keys", "keys_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def nist(keys_path: str, out_path: str) -> None:
    """Run the randomness battery over an ASCII key dump and write a CSV."""

    def go() -> None:
        keys = read_key_dump(keys_path)
        if not keys:
            raise ConfigError(f"{keys_path}: no keys found")
        rows = run_battery(keys)
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["test", "mode", "params", "n_keys", "n_applicable", "pass_ratio", "p_values"])
            for row in rows:
                params = ";".join(f"{k}={v}" for k, v in sorted(row.params.items()))
                ratio = "" if row.pass_ratio is None else f"{row.pass_ratio:.9g}"
                pvals = ";".join(f"{p:.9g}" for p in row.p_values)
                writer.writerow([row.test_name, row.mode, params, row.n_keys, row.n_applicable, ratio, pvals])
        for row in rows:
            ratio = "n/a" if row.pass_ratio is None else f"{row.pass_ratio:.4f}"
            click.echo(f"{row.test_name:22s} {row.mode:13s} pass ratio {ratio}")

    _guarded(go)


if __name__ == "__main__":
    main()
