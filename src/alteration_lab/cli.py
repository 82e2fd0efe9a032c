"""Command-line laboratory: density reports, copy counts, alterations, and
seeded Monte Carlo experiment drivers.

All science parameters are flags (or a JSON config file via --config);
the only environment variable honored is ALTERATION_LAB_WORKERS for the
trial worker count, which never changes results.  Logarithms in derived
parameters are natural.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import click

from .alteration import (
    disjoint_collection_alteration,
    greedy_alteration,
    independence_number,
    ramsey_certificate,
    refined_alteration,
)
from .copies import PackingInfeasibleError, enumerate_copies, k_set_stats, packing_report
from .density import density_report, minimal_balanced_core
from .experiments import (
    ExperimentResult,
    InfeasibleError,
    derive_parameters,
    dumps,
    run_concentration_experiment,
    run_copy_count_experiment,
    run_game_experiment,
    run_planted_witness,
    run_ramsey_search,
    run_tail_check,
    summary_csv,
    write_result,
)
from .graphs import Graph, load_structure, pattern_from_name


def _load(value: str, hint: str, graph: bool = False):
    """A structure from a file, or else a pattern name; bad input, or a
    hypergraph where graph asks for a graph, is a usage error."""
    try:
        structure = load_structure(value) if os.path.exists(value) else pattern_from_name(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=hint) from exc
    if graph and not isinstance(structure, Graph):
        raise click.BadParameter(
            f"this command runs on graphs, got an r={structure.r} hypergraph", param_hint=hint
        )
    return structure


def _parse_vertices(value: str) -> list[int]:
    return [int(x) for x in value.replace(",", " ").split()]


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        click.echo(summary_csv(obj), nl=False)
    else:
        click.echo(dumps(obj))


def _finish(result: ExperimentResult, out: str | None, fmt: str) -> None:
    if out:
        write_result(result, out)
    _emit(result.summary, fmt)


out_option = click.option("--out", type=click.Path(), default=None, help="Output directory for summary/trials/plot files.")
fmt_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True, help="Stdout summary format.")
seed_option = click.option("--seed", type=int, default=0, show_default=True)
trials_option = click.option("--trials", type=int, default=200, show_default=True)


class _Command(click.Command):
    """Shows the drivers' input errors without a traceback: a ValueError is
    a usage error (exit 2), a run too large to do is an error (exit 1)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except (InfeasibleError, PackingInfeasibleError) as exc:
            raise click.ClickException(str(exc)) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON file of per-subcommand option defaults.")
@click.pass_context
def main(ctx: click.Context, config: str | None) -> None:
    """Laboratory for pattern-free graph construction by random-graph alteration."""
    if config:
        try:
            defaults = json.loads(Path(config).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise click.BadParameter(f"not a JSON file: {exc}", param_hint="'--config'") from exc
        if not (isinstance(defaults, dict) and all(isinstance(v, dict) for v in defaults.values())):
            raise click.BadParameter(
                "must hold a JSON object of per-subcommand objects", param_hint="'--config'"
            )
        ctx.default_map = defaults


@main.command()
@click.argument("pattern")
@click.option("--core/--no-core", default=False, help="Also emit the minimal strictly balanced core (graphs only).")
@fmt_option
def density(pattern: str, core: bool, fmt: str) -> None:
    """Exact density report for a pattern (name like K3/C5/P4/K4r3 or a file)."""
    pat = _load(pattern, "PATTERN", graph=core)
    rep = density_report(pat)
    obj = {
        "value": str(rep.value),
        "witness": list(rep.witness),
        "strictly_balanced": rep.strictly_balanced,
        "uniformity": rep.uniformity,
    }
    if core:
        obj["minimal_core"] = minimal_balanced_core(pat).to_json_obj()
    _emit(obj, fmt)


@main.command()
@click.argument("host", type=click.Path(exists=True))
@click.option("--pattern", required=True)
@click.option("--k-set", "k_sets", multiple=True, help="Vertex list like '0,1,2'; repeatable.")
@click.option("--cap", type=int, default=5000, show_default=True, help="Exact-packing size cap.")
@fmt_option
def copies(host: str, pattern: str, k_sets: tuple[str, ...], cap: int, fmt: str) -> None:
    """Enumerate pattern copies of a host; optional per-K statistics."""
    h = _load(host, "HOST")
    pat = _load(pattern, "--pattern")
    index = enumerate_copies(h, pat)
    obj: dict = {
        "copies": len(index),
        "max_copies_per_edge": index.max_copies_per_edge,
        "max_copies_per_edge_pair": index.max_copies_per_edge_pair,
    }
    reports = []
    for raw in k_sets:
        ks = _parse_vertices(raw)
        stats = k_set_stats(index, ks)
        entry = {
            "k_set": sorted(ks),
            "edges_inside": stats.edges_inside,
            "covered_inside": stats.covered_inside,
        }
        if h.r == 2:
            packing = packing_report(index, ks, copy_cap=cap)
            entry.update(
                {
                    "touching_count": packing.touching_count,
                    "two_vertex_count": packing.two_vertex_count,
                    "max_disjoint_two_vertex": packing.max_disjoint_two_vertex,
                    "greedy_disjoint_touching": packing.greedy_disjoint_touching,
                    "greedy_disjoint_pair_unions": packing.greedy_disjoint_pair_unions,
                    "bound_rhs": packing.bound_rhs,
                    "bound_holds": packing.bound_holds,
                }
            )
        reports.append(entry)
    if reports:
        obj["k_reports"] = reports
    _emit(obj, fmt)


@main.command()
@click.argument("host", type=click.Path(exists=True))
@click.option("--pattern", required=True)
@click.option("--method", type=click.Choice(["refined", "greedy", "disjoint-collection"]), required=True)
@click.option("--order", type=click.Choice(["lex", "random"]), default="lex", show_default=True, help="Edge scan order for the greedy method.")
@seed_option
@click.option("--out", "out_file", type=click.Path(), default=None, help="Write the altered graph here instead of stdout.")
def alter(host: str, pattern: str, method: str, order: str, seed: int, out_file: str | None) -> None:
    """Apply an alteration method; prints the altered graph in text format."""
    g = _load(host, "HOST", graph=True)
    pat = _load(pattern, "--pattern", graph=True)
    if method == "refined":
        result = refined_alteration(g, pat)
    elif method == "disjoint-collection":
        result = disjoint_collection_alteration(g, pat)
    else:
        edge_order = list(g.edges)
        if order == "random":
            from .randomness import RandomSource

            stream = RandomSource(seed).stream("greedy-order")
            edge_order = [edge_order[i] for i in stream.permutation(len(edge_order))]
        result = greedy_alteration(g, pat, edge_order)
    text = result.output_graph.to_text()
    if out_file:
        Path(out_file).write_text(text, encoding="utf-8")
        click.echo(
            dumps({"method": result.method, "removed": len(result.removed), "kept": result.output_graph.num_edges})
        )
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("host", type=click.Path(exists=True))
@click.option("--budget", type=int, default=10_000_000, show_default=True)
@fmt_option
def alpha(host: str, budget: int, fmt: str) -> None:
    """Exact independence number with witness (certified bounds on budget stop)."""
    g = _load(host, "HOST", graph=True)
    res = independence_number(g, budget=budget)
    _emit(
        {
            "alpha": res.alpha,
            "lower": res.lower,
            "upper": res.upper,
            "witness": list(res.witness),
            "exact": res.exact,
        },
        fmt,
    )


def _experiment_flags(fn):
    """The flags shared by the trial drivers, passed on as one params argument."""

    @functools.wraps(fn)
    def command(pattern, family, k, big_c, little_c, delta, r, trials, k_samples, seed, n, p, **rest):
        members = [_load(f, "--family") for f in family] if family else None
        pat = _load(pattern, "--pattern") if pattern else None
        params = derive_parameters(
            pat,
            members,
            k=k,
            big_c=big_c,
            little_c=little_c,
            delta=delta,
            trials=trials,
            k_samples=k_samples,
            seed=seed,
            n_override=n,
            p_override=p,
        )
        if r is not None and params.r != r:
            raise click.UsageError(f"--r {r} disagrees with pattern uniformity {params.r}")
        return fn(params, **rest)

    for deco in (
        click.option("--pattern", default=None, help="Pattern name or file."),
        click.option("--family", multiple=True, help="Family member pattern; repeatable."),
        click.option("--k", type=int, required=True),
        click.option("--C", "big_c", type=float, default=1.0, show_default=True),
        click.option("--c", "little_c", type=float, default=1.0, show_default=True),
        click.option("--delta", type=float, default=0.5, show_default=True),
        click.option("--r", type=int, default=None, help="Expected uniformity (validation only)."),
        trials_option,
        click.option("--k-samples", type=int, default=50, show_default=True),
        seed_option,
        click.option("--n", type=int, default=None, help="Override the derived n."),
        click.option("--p", type=float, default=None, help="Override the derived p."),
        out_option,
        fmt_option,
    ):
        command = deco(command)
    return command


@main.command()
@_experiment_flags
@click.option("--policy", type=click.Choice(["mixed", "uniform", "adversarial"]), default="mixed", show_default=True)
def concentration(params, out, fmt, policy):
    """Sampled k-set thresholds for covered edges (Y) and edge counts (X)."""
    _finish(run_concentration_experiment(params, k_policy=policy), out, fmt)


@main.command()
@_experiment_flags
def lemma5(params, out, fmt):
    """Global and per-vertex copy-count concentration with the exact identity."""
    _finish(run_copy_count_experiment(params), out, fmt)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--pattern", default="K3", show_default=True)
@click.option("--k-size", type=int, default=4, show_default=True, help="K is the first k-size vertices.")
@click.option("--p", type=float, required=True)
@trials_option
@seed_option
@click.option("--x", "xs", multiple=True, type=int, help="Tail grid point; repeatable (default: all integers in (mu, packing bound]).")
@click.option("--cap", type=int, default=5000, show_default=True)
@out_option
@fmt_option
def tail(n, pattern, k_size, p, trials, seed, xs, cap, out, fmt):
    """Disjoint-packing tail bound check against (e*mu/x)^x."""
    pat = _load(pattern, "--pattern", graph=True)
    result = run_tail_check(
        n, pat, range(k_size), p, trials, seed=seed, x_grid=list(xs) or None, copy_cap=cap
    )
    _finish(result, out, fmt)


@main.command()
@click.option("--pattern", default="K3", show_default=True)
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--delta", type=float, default=0.5, show_default=True)
@out_option
@fmt_option
def witness(pattern, k, n, p, delta, out, fmt):
    """Planted multipartite construction forcing many K-touching copies."""
    pat = _load(pattern, "--pattern", graph=True)
    _finish(run_planted_witness(pat, k, n, p, delta), out, fmt)


@main.command("ramsey-search")
@click.option("--pattern", default="K3", show_default=True)
@click.option("--k", type=int, required=True)
@click.option("--C", "big_cs", type=float, multiple=True, default=(1.0,), show_default=True)
@click.option("--c", "little_cs", type=float, multiple=True, default=(1.0,), show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@seed_option
@click.option("--budget", type=int, default=10_000_000, show_default=True)
@out_option
@fmt_option
def ramsey_search(pattern, k, big_cs, little_cs, trials, seed, budget, out, fmt):
    """Grid search for certified Ramsey-witness graphs via refined alteration."""
    pat = _load(pattern, "--pattern", graph=True)
    result = run_ramsey_search(pat, k, list(big_cs), list(little_cs), trials, seed=seed, budget=budget)
    _finish(result, out, fmt)


@main.command()
@_experiment_flags
@click.option("--proposer", type=click.Choice(["random", "dense"]), default="random", show_default=True)
@click.option("--alpha-budget", type=int, default=10_000_000, show_default=True)
def rps(params, out, fmt, proposer, alpha_budget):
    """Batches of propose/decide games against the probability-p decider."""
    _finish(
        run_game_experiment("rps", params, proposer=proposer, alpha_budget=alpha_budget),
        out,
        fmt,
    )


@main.command("builder-game")
@_experiment_flags
@click.option("--builder", type=click.Choice(["random", "pump"]), default="random", show_default=True)
@click.option("--turn-cap", type=int, default=None, help="Override the derived turn budget floor(L*n/2).")
@click.option("--pool-cap", type=int, default=None)
def builder_game(params, out, fmt, builder, turn_cap, pool_cap):
    """Batches of builder/painter games against the threshold painter."""
    _finish(
        run_game_experiment("builder", params, builder=builder, turn_cap=turn_cap, pool_cap=pool_cap),
        out,
        fmt,
    )


@main.command()
@click.argument("host", type=click.Path(exists=True))
@click.option("--pattern", required=True)
@click.option("--k", type=int, required=True)
@click.option("--budget", type=int, default=10_000_000, show_default=True)
@fmt_option
def certify(host, pattern, k, budget, fmt):
    """Certify a graph as a Ramsey witness: pattern-free with alpha below k."""
    g = _load(host, "HOST", graph=True)
    pat = _load(pattern, "--pattern", graph=True)
    cert = ramsey_certificate(g, pat, k, budget=budget)
    _emit(
        {
            "holds": cert.holds,
            "status": cert.status,
            "alpha_lower": cert.independence.lower if cert.independence else None,
            "alpha_upper": cert.independence.upper if cert.independence else None,
            "alpha_witness": list(cert.independence.witness) if cert.independence else None,
            "violating_copy": sorted(cert.violating_copy.edges) if cert.violating_copy else None,
        },
        fmt,
    )


if __name__ == "__main__":
    main()
