"""The benchmark's workloads: hardylab CLI invocations at acceptance size.

BENCHMARK.json lists `fuzz-mixtures` and `duality-pairing`, whose times are
steady enough across runs on a shared machine to gate on; `sharpness-mc`
and `radial-quadrature` run by name, for their per-layer numbers.

Each workload is a list of invocations of the `hardylab` CLI.  The benchmark
appends `--seed <input seed> --output <file>` to each.  A run's input seeds
are `seeds` drawn from the run's `--seed` followed by the workload's fixed
`reference` panel, the same in every run; pass j runs input j modulo their
number.  The panel holds most of the inputs, so a run's times and errors
depend little on which random test functions its own seed draws.  `rows`
selects the report rows whose error enters `time_x_relvar_s`: a Monte Carlo
row contributes its standard error, a quadrature row (std_error 0) its
deviation from the closed form it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    rows: str  # regex on a report row's `input` for the rows that carry an error


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    passes: int  # timed passes per run
    seeds: int  # input seeds drawn from the run's --seed
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    full: tuple[Invocation, ...]
    smoke: tuple[Invocation, ...]
    reference: tuple[int, ...] = ()  # fixed input seeds, run in every run

    def invocations(self, size: str) -> tuple[Invocation, ...]:
        return self.full if size == "full" else self.smoke

    def inputs(self, seed: int) -> tuple[int, ...]:
        """A run's input seeds: `seeds` drawn from its --seed, then the panel."""
        return tuple(seed * 1000 + k for k in range(self.seeds)) + self.reference


def _inv(cmd: str, rows: str) -> Invocation:
    return Invocation(tuple(cmd.split()), rows)


_MC_QUOTIENT = r"^quotient eps="
_FUZZ_ROWS = r"^(trial=|control: centered)"
_RADIAL_QUOTIENT = r"^quotient eps=\S+$"
_WEIGHTED_QUAD = r"\(quadrature route\)$"
# <f,Pg> (mc) on the indicator has a constant integrand and a standard error
# of 0; its deviation is rounding, which would only add noise here
_PAIRING_MC = r"(<g,P\*f> \(mc\)|pairing match)$"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sharpness-mc",
            why="C1 Monte Carlo sweep at 1e5 samples, one worker: the nested power norm's draw is 96% of it",
            workers=1,
            passes=2,
            seeds=1,
            stresses=("operators.nested_power_norm", "measure.chunked_mean (serial)"),
            bypasses=("measure.integrate_1d", "operators.hardy_norm_compact", "operators.pairing",
                      "hgroup", "funcs.bump_mixture"),
            full=(_inv("sharpness --method mc --p 2 --factors 1 --samples 100000 "
                       "--inner-samples 768 --workers 1", _MC_QUOTIENT),),
            smoke=(_inv("sharpness --method mc --p 2 --factors 1 --samples 20000 "
                        "--inner-samples 64 --workers 1", _MC_QUOTIENT),),
        ),
        Workload(
            name="fuzz-mixtures",
            why="two C5 cells (m=1 and m=2) of random bump mixtures: compact estimator on ~3k-row geometry batches",
            workers=2,
            passes=8,
            seeds=2,
            stresses=("operators.hardy_norm_compact", "hgroup.koranyi_norm", "hgroup.distance",
                      "hgroup.group_law", "hgroup.sample_unit_ball", "funcs.bump_mixture"),
            bypasses=("measure.integrate_1d", "operators.nested_power_norm", "operators.pairing",
                      "measure.chunked_mean"),
            full=(
                _inv("fuzz --p 2 --factors 1 --trials 34 --samples 50000 --workers 2", _FUZZ_ROWS),
                _inv("fuzz --p 2 --factors 1,1 --trials 34 --samples 50000 --workers 2", _FUZZ_ROWS),
            ),
            smoke=(
                _inv("fuzz --p 2 --factors 1 --trials 3 --samples 5000 --workers 2", _FUZZ_ROWS),
                _inv("fuzz --p 2 --factors 1,1 --trials 2 --samples 5000 --workers 2", _FUZZ_ROWS),
            ),
            reference=(1, 2, 3, 4, 5, 6),
        ),
        Workload(
            name="radial-quadrature",
            why="radial sharpness at p=2,3 and the C7 weighted sweep: adaptive quadrature only, no Monte Carlo",
            workers=1,
            passes=4,
            seeds=1,
            stresses=("measure.integrate_1d", "operators.radial_norm"),
            bypasses=("measure.chunked_mean", "operators.nested_power_norm",
                      "operators.hardy_norm_compact", "operators.pairing", "hgroup",
                      "funcs.bump_mixture"),
            full=(
                _inv("sharpness --method radial --factors 1 --p 2", _RADIAL_QUOTIENT),
                _inv("sharpness --method radial --factors 1 --p 3", _RADIAL_QUOTIENT),
                _inv("weighted --weight monomial:3 --p 2", _WEIGHTED_QUAD),
            ),
            smoke=(
                _inv("sharpness --method radial --factors 1 --p 3 --eps 0.2,0.1", _RADIAL_QUOTIENT),
                _inv("weighted --weight monomial:3 --p 2", _WEIGHTED_QUAD),
            ),
        ),
        Workload(
            name="duality-pairing",
            why="C8 duality pairings on 20 bump pairs, two workers: threaded chunked_mean on 65k-row geometry batches",
            workers=2,
            passes=12,
            seeds=1,
            stresses=("operators.pairing", "measure.chunked_mean (threaded)", "hgroup.koranyi_norm",
                      "hgroup.distance", "funcs.bump_mixture"),
            bypasses=("operators.nested_power_norm", "operators.hardy_norm_compact",
                      "operators.radial_norm"),
            full=(_inv("cesaro-duality --weight monomial:4 --p 2 --factors 1 --pairs 20 "
                       "--samples 20000 --workers 2", _PAIRING_MC),),
            smoke=(_inv("cesaro-duality --weight monomial:4 --p 2 --factors 1 --pairs 2 "
                        "--samples 2000 --workers 2", _PAIRING_MC),),
            reference=(1, 2, 3, 4, 5),
        ),
    )
}
