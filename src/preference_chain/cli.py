"""Command-line entry point wiring the library into reproducible workflows.

Subcommands: gen-synth, build-graph, predict, evaluate, sweep, simulate.
Every command runs fully offline with the default mock providers and is
reproducible from (config, seed); ``gen-synth --spec`` draws with the
spec's seed unless ``--seed`` is on the command line. Each ``--out`` is
checked before any work: a file must not be a directory and must lie in one
that exists, a directory must not be a file. Every output directory
receives its data files and then a manifest recording the seed, config
hash, and provider ids.

Exit codes: 0 ok, 2 config error, 3 data error, 4 provider error (including
embeddings that cannot be compared).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .behavior_graph import BehaviorGraph, build_from_records
from .city import CityModel, grid_city
from .config import (
    RunConfig,
    apply_env_overrides,
    build_embed_provider,
    build_llm_provider,
    load_config,
    run_manifest,
)
from .errors import (
    ConfigError,
    DataError,
    EmbeddingError,
    EmptyReference,
    EmptySamples,
    GraphError,
    ProviderError,
    SchemaViolation,
)
from .evaluate import (
    DEFAULT_SWEEP_SIZES,
    ValidationTruth,
    chain_predictions,
    evaluate_predictions,
    marginal_predictions,
    sweep_reference_sizes,
    uniform_predictions,
    write_combined_csv,
    write_sweep_csv,
)
from .ingest import (
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    read_csv,
    write_csv,
)
from .mobility_sim import (
    LlmScheduleProvider,
    flow_kld,
    generate_profiles,
    generate_schedule,
    make_agents,
    run_day,
    TrafficTally,
)
from .pipeline import PreferenceChain
from .retrieval import QueryAgent
from .schema import BUNDLED_CHOICE_SETS, PROFILE_FIELDS, AgentProfile, decode_json, write_json


def _given(value: Optional[str], fallback: Optional[str]) -> Optional[str]:
    return fallback if value is None else value


def _path(value: Optional[str], flag: str) -> Path:
    """A configured path flag: unset (None) or empty, it is a ConfigError."""
    if not value:
        raise ConfigError(f"{flag} is {'required' if value is None else 'empty'}")
    return Path(value)


def _out_file(value: Optional[str]) -> Path:
    """The --out file, checked before any work: not a directory, in one that exists."""
    path = _path(value, "--out")
    if path.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {path}: no such directory {path.parent}")
    return path


def _out_dir(args, config: RunConfig) -> Path:
    """The --out directory, checked but not created: ``_write_run`` creates it."""
    path = _path(_given(args.out, config.paths.out_dir), "--out")
    if path.exists() and not path.is_dir():
        raise ConfigError(f"--out {path} exists and is not a directory")
    return path


def _read(value: Optional[str], flag: str, parse):
    """``parse`` of the UTF-8 file a flag names, read past any byte order mark.

    A DataError that ``parse`` raises names the flag.
    """
    path = _path(value, flag)
    if not path.is_file():
        raise ConfigError(f"{flag}: no such file {path}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fp:
            return parse(fp)
    except DataError as exc:
        raise DataError(f"{flag}: {exc}") from exc


def _load_records(value: Optional[str], flag: str):
    """The records of the trip CSV a flag names; EmptyReference, naming the flag, when it holds none."""
    records = _read(value, flag, lambda fp: read_csv(fp.name))  # read_csv reads the bytes itself
    if not records:
        raise EmptyReference(f"{flag}: {value} contains no records")
    return records


def _write_run(
    out: Path, config: RunConfig, command: str, providers: tuple, extra: dict, files: dict
) -> None:
    """Create ``out``, write each ``files`` name with its writer in order, then the manifest.

    ``providers`` are the (embedding, LLM) providers the run used.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest(config, command, *providers, extra)
    files = {**files, "manifest.json": lambda fp: write_json(fp, manifest)}
    for name, write in files.items():
        with open(out / name, "w", encoding="utf-8") as fp:
            write(fp)


def _build_chain(graph: BehaviorGraph, config: RunConfig) -> PreferenceChain:
    return PreferenceChain(
        graph,
        embed_provider=build_embed_provider(config),
        llm_provider=build_llm_provider(config),
        config=config.pipeline_config(),
    )


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag} expects at least one integer")
    for value in values:
        _at_least(value, flag)
    return values


def _at_least(value: int, flag: str, minimum: int = 0) -> int:
    if value < minimum:
        raise ConfigError(f"{flag} must be >= {minimum}, got {value}")
    return value


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_gen_synth(args, config: RunConfig) -> int:
    out = _out_file(args.out)
    spec, seed = default_synthetic_spec(), config.pipeline.seed
    if args.spec is not None:  # a spec file draws with its own seed unless --seed is given
        spec = _read(args.spec, "--spec", SyntheticSpec.from_json)
        seed = spec.seed if args.seed is None else seed
    size = _at_least(args.size, "--size") if args.size is not None else spec.population
    records = generate_synthetic(spec, size=size, seed=seed)
    write_csv(records, out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_build_graph(args, config: RunConfig) -> int:
    out = _out_file(args.out)
    records = _load_records(_given(args.reference, config.paths.reference_csv), "--reference")
    graph = build_from_records(records)
    write_csv(records, out)
    print(
        f"graph: {graph.node_count()} nodes, {graph.edge_count()} edges, "
        f"{len(records)} records -> {args.out}"
    )
    return 0


def _agent_from_json(fp) -> QueryAgent:
    try:
        obj = decode_json(fp.read())
    except ValueError as exc:  # malformed JSON, undecodable bytes or a huge integer
        raise DataError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError("the agent must be a JSON object")
    fields = obj.get("profile")
    if not isinstance(fields, dict):
        raise SchemaViolation(-1, "profile", fields, "missing profile object")
    profile = AgentProfile(**{name: fields.get(name) for name in PROFILE_FIELDS})
    return QueryAgent(profile, obj.get("trip_purpose"), obj.get("start_time"), obj.get("context", ""))


def cmd_predict(args, config: RunConfig) -> int:
    out = None if args.out is None else _out_file(args.out)
    agent = _read(args.agent, "--agent", _agent_from_json)
    records = _load_records(_given(args.reference, config.paths.reference_csv), "--reference")
    graph = build_from_records(records)
    output = {
        name: {
            "prior": result.prior.probabilities,
            "posterior": result.posterior.probabilities,
            "degenerate_prior": result.prior.degenerate,
            "source": result.source.value,
        }
        for name, result in _build_chain(graph, config).predict_all(agent).items()
    }
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            write_json(fp, output)
    write_json(sys.stdout, output)
    return 0


def cmd_evaluate(args, config: RunConfig) -> int:
    reference = _load_records(_given(args.reference, config.paths.reference_csv), "--reference")
    validation = _load_records(_given(args.validation, config.paths.validation_csv), "--validation")
    out = _out_dir(args, config)
    seed = config.pipeline.seed

    chain = _build_chain(build_from_records(reference), config)
    truth = ValidationTruth(validation)
    reports = {
        "chain": evaluate_predictions(
            validation, chain_predictions(chain, validation), seed, truth
        )
    }
    if args.baselines:
        choice_sets = list(BUNDLED_CHOICE_SETS.values())
        reports["uniform"] = evaluate_predictions(
            validation, uniform_predictions(choice_sets, len(validation)), seed, truth
        )
        reports["marginal"] = evaluate_predictions(
            validation,
            marginal_predictions(reference, choice_sets, len(validation)),
            seed,
            truth,
        )

    extra = {"n_reference": len(reference), "n_validation": len(validation)}
    _write_run(out, config, "evaluate", (chain.embed_provider, chain.llm_provider), extra, {
        "report.csv": lambda fp: write_combined_csv(fp, reports),
        "report.json": lambda fp: write_json(fp, {n: r.summary() for n, r in reports.items()}),
    })
    chain_report = reports["chain"]
    print(
        f"evaluate: mean kld {chain_report.mean_kld:.4f}, "
        f"mean mae {chain_report.mean_mae:.6f} -> {out}"
    )
    return 0


def cmd_sweep(args, config: RunConfig) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
    seeds = list(range(_at_least(args.seeds, "--seeds"))) or [config.pipeline.seed]
    n_validation = _at_least(args.n_validation, "--n-validation", 1)
    records = _load_records(_given(args.reference, config.paths.reference_csv), "--reference")
    out = _out_dir(args, config)
    embed, llm = build_embed_provider(config), build_llm_provider(config)
    rows = sweep_reference_sizes(
        records,
        sizes=sizes,
        seeds=seeds,
        n_validation=n_validation,
        config=config.pipeline_config(),
        embed_provider=embed,
        llm_provider=llm,
    )
    files = {"sweep.csv": lambda fp: write_sweep_csv(fp, rows)}
    _write_run(out, config, "sweep", (embed, llm), {"sizes": sizes, "seeds": seeds}, files)
    print(f"sweep: {len(rows)} rows -> {out / 'sweep.csv'}")
    return 0


def cmd_simulate(args, config: RunConfig) -> int:
    n_agents = _at_least(args.agents, "--agents", 1)
    out = _out_dir(args, config)
    city_path = _given(args.city, config.paths.city_file)
    if city_path is None:
        city = grid_city(seed=config.pipeline.seed)
    else:
        city = _read(city_path, "--city", CityModel.from_json)
    reference = _load_records(_given(args.reference, config.paths.reference_csv), "--reference")
    chain = _build_chain(build_from_records(reference), config)
    seed = config.pipeline.seed
    reference_tally = None
    if args.reference_tally is not None:
        reference_tally = _read(args.reference_tally, "--reference-tally", TrafficTally.from_csv)
        if reference_tally.total_edge_traversals() == 0:
            raise EmptySamples(f"--reference-tally: {args.reference_tally} has zero total")

    spec = default_synthetic_spec()
    profiles = generate_profiles(n_agents, spec, seed)
    agents = make_agents(profiles, city, seed)
    scheduler = LlmScheduleProvider(chain.llm_provider, config.generation)
    plans = [
        generate_schedule(agent.profile, scheduler, seed + agent.id)
        for agent in agents
    ]
    tally, trips = run_day(agents, plans, city, chain, seed, context=args.context)

    summary = {
        "agents": len(agents),
        "trips": len(trips),
        "edge_traversals": tally.total_edge_traversals(),
        "poi_visits": tally.total_visits(),
    }
    if reference_tally is not None:
        summary["flow_kld"] = flow_kld(tally, reference_tally)
    providers = (chain.embed_provider, chain.llm_provider)
    _write_run(out, config, "simulate", providers, {"agents": len(agents)}, {
        "edge_tally.csv": tally.write_edge_csv,
        "poi_tally.csv": tally.write_poi_csv,
        "summary.json": lambda fp: write_json(fp, summary),
    })
    print(
        f"simulate: {len(agents)} agents, {len(trips)} trips, "
        f"{tally.total_edge_traversals()} traversals -> {out}"
    )
    return 0


# ----------------------------------------------------------------------
# parser / dispatch
# ----------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # after-subcommand copies use SUPPRESS so they never clobber values
    # parsed at the root level.
    default = argparse.SUPPRESS if suppress else None
    flag_default = argparse.SUPPRESS if suppress else False
    parser.add_argument("--config", default=default, help="JSON run configuration file")
    parser.add_argument("--seed", type=int, default=default, help="root random seed override")
    parser.add_argument(
        "--mock-llm", action="store_true", default=flag_default,
        help="force the offline mock LLM",
    )
    parser.add_argument(
        "--mock-embed", action="store_true", default=flag_default,
        help="force the offline hash embedder",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefchain",
        description="Graph-retrieval behavioral choice modeling toolkit",
    )
    _add_common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic trip CSV", parents=[common])
    p.add_argument("--spec", help="synthetic spec JSON (default: bundled spec)")
    p.add_argument("--size", type=int, help="number of records (default: spec population)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("build-graph", help="build the behavior graph and write its trip CSV", parents=[common])
    p.add_argument("--reference", help="reference trip CSV")
    p.add_argument("--out", help="output trip CSV path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("predict", help="prior + calibrated posterior for one agent", parents=[common])
    p.add_argument("--agent", required=True, help="agent JSON (profile, purpose, hour)")
    p.add_argument("--reference", help="reference trip CSV, such as build-graph writes")
    p.add_argument("--out", help="also write the JSON result here")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against held-out records", parents=[common])
    p.add_argument("--reference", help="reference trip CSV")
    p.add_argument("--validation", help="validation trip CSV")
    p.add_argument(
        "--baselines",
        action="store_true",
        help="include uniform and marginal baseline rows",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate across reference sample sizes", parents=[common])
    p.add_argument("--reference", help="record pool CSV")
    p.add_argument("--sizes", default=",".join(map(str, DEFAULT_SWEEP_SIZES)), help="comma-separated sizes")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds (0..n-1)")
    p.add_argument("--n-validation", type=int, default=500)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the daily mobility simulation", parents=[common])
    p.add_argument("--city", help="city JSON (default: built-in grid city)")
    p.add_argument("--reference", help="reference trip CSV for the choice graph")
    p.add_argument("--agents", type=int, default=10)
    p.add_argument("--context", default="", help="conditions text passed to calibration")
    p.add_argument("--reference-tally", help="edge tally CSV to compare against")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = apply_env_overrides(config)
        config = config.with_overrides(
            seed=args.seed,
            mock_llm=True if args.mock_llm else None,
            mock_embed=True if args.mock_embed else None,
        )
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, GraphError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ProviderError, EmbeddingError) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
