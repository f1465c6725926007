"""Per-layer metrics reduced from the spans of one traced repetition.

Durations are inclusive (a span's time covers its child spans). Spans of
run_experiment's worker threads overlap, so their busy times include
waiting for the interpreter lock; parallel_ratio shows how much they
overlap. A layer the workload does not call reports 0.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from workloads import ALL_POLICIES, LARGE_N, LARGE_POLICIES, SMALL_N

MB = 2.0 ** 20
CLI_COMMANDS = ("solve-rp", "spectral", "fluid", "hitting-time", "oracle-check")
SIM_POINTS = tuple((policy, n) for n in SMALL_N for policy in ALL_POLICIES) + tuple(
    (policy, n) for n in LARGE_N for policy in LARGE_POLICIES)
SIM_N = SMALL_N + LARGE_N


def specs() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in print order."""
    rows = [("cli.run_experiment.wall_s", "s", "lower"),
            ("cli.run_experiment.parallel_ratio", "ratio", "higher"),
            ("cli.emit_plot_data.ms", "ms", "lower"),
            ("cli.output_bytes", "bytes", "lower")]
    rows += [(f"cli.main.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    rows += [("sim.simulate.calls", "count", "lower"),
             ("sim.simulate.busy_s", "s", "lower")]
    rows += [(f"sim.simulate.us_per_slot.{p}.n{n}", "us", "lower")
             for p, n in SIM_POINTS]
    rows += [(f"sim.simulate.user_slots_per_s.n{n}", "1/s", "higher") for n in SIM_N]
    rows += [(f"sim.simulate.peak_alloc_mb.n{n}", "MB", "lower") for n in SIM_N]
    rows += [("sim.hitting_time.calls", "count", "lower"),
             ("sim.hitting_time.us_per_slot", "us", "lower"),
             ("sim.hitting_time.unresolved_ratio", "ratio", "lower"),
             ("sim.fluid_deviation.calls", "count", "lower"),
             ("sim.fluid_deviation.us_per_slot", "us", "lower"),
             ("sim.make_initial_ages.ms", "ms", "lower"),
             ("relaxed.solve_rp.calls", "count", "lower"),
             ("relaxed.solve_rp.ms_p50", "ms", "lower"),
             ("relaxed.solve_rp.ms_max", "ms", "lower"),
             ("index.whittle_index_table.calls", "count", "lower"),
             ("index.whittle_index_table.busy_s", "s", "lower"),
             ("index.optimal_thresholds.calls", "count", "lower"),
             ("index.optimal_thresholds.busy_s", "s", "lower"),
             ("fluid.fluid_step.calls", "count", "lower"),
             ("fluid.fluid_step.us_per_call", "us", "lower"),
             ("fluid.in_region.calls", "count", "lower"),
             ("fluid.in_region.us_per_call", "us", "lower"),
             ("fluid.fluid_trajectory.ms", "ms", "lower"),
             ("fluid.assemble_linear.ms", "ms", "lower"),
             ("fluid.assemble_linear.peak_alloc_mb", "MB", "lower"),
             ("fluid.spectral_report.ms", "ms", "lower"),
             ("fluid.spectral_report.peak_alloc_mb", "MB", "lower"),
             ("oracle.rvi_one_dim.calls", "count", "lower"),
             ("oracle.rvi_one_dim.busy_s", "s", "lower"),
             ("oracle.rvi_one_dim.ms_p50", "ms", "lower"),
             ("oracle.rvi_one_dim.ms_p90", "ms", "lower"),
             ("oracle.joint_mdp_optimal.s", "s", "lower"),
             ("oracle.joint_mdp_optimal.peak_alloc_mb", "MB", "lower"),
             # Throughput over the untraced wall_s; per-layer because the
             # analysis workload steps no users.
             ("user_slots_per_s", "1/s", "higher"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.top_level_share", "ratio", "higher")]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


def _slots(span) -> int:
    """Slots stepped by a sim span: hitting_time stops at its result."""
    if span.name == "sim.hitting_time":
        hit = span.result
        return (span.attrs["cap"] if hit is None else hit) + 1
    return span.attrs["slots"]


def reduce(spans, body, output_bytes: int) -> dict:
    """Metrics of one repetition; body is the span around the timed body.

    user_slots_per_s and trace.overhead_s need the untraced wall time and
    are filled in by the caller, which receives the user-slot count under
    the key "user_slots".
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def per(name, scale, denominator):
        return total(name) * scale / denominator if denominator else 0.0

    def percentile(name, q):
        durations = [s.duration for s in by_name[name]]
        return float(np.percentile(durations, q)) * 1e3 if durations else 0.0

    def peak_mb(members):
        peaks = [s.peak_bytes for s in members if s.peak_bytes is not None]
        return max(peaks) / MB if peaks else 0.0

    out = {}
    experiment_s = total("cli.run_experiment")
    simulate = by_name["sim.simulate"]
    out["cli.run_experiment.wall_s"] = experiment_s
    out["cli.run_experiment.parallel_ratio"] = per("sim.simulate", 1.0, experiment_s)
    out["cli.emit_plot_data.ms"] = total("cli.emit_plot_data") * 1e3
    out["cli.output_bytes"] = output_bytes
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.s"] = sum(s.duration for s in by_name["cli.main"]
                                       if s.attrs["cmd"] == cmd)
    out["sim.simulate.calls"] = len(simulate)
    out["sim.simulate.busy_s"] = total("sim.simulate")
    for policy, n in SIM_POINTS:
        members = [s for s in simulate
                   if s.attrs["n"] == n and s.attrs["policy"] == policy]
        slots = sum(s.attrs["slots"] for s in members)
        busy = sum(s.duration for s in members)
        out[f"sim.simulate.us_per_slot.{policy}.n{n}"] = (
            busy * 1e6 / slots if slots else 0.0)
    for n in SIM_N:
        members = [s for s in simulate if s.attrs["n"] == n]
        busy = sum(s.duration for s in members)
        user_slots = n * sum(s.attrs["slots"] for s in members)
        out[f"sim.simulate.user_slots_per_s.n{n}"] = (
            user_slots / busy if busy else 0.0)
        out[f"sim.simulate.peak_alloc_mb.n{n}"] = peak_mb(members)
    for name in ("hitting_time", "fluid_deviation"):
        members = by_name[f"sim.{name}"]
        slots = sum(_slots(s) for s in members)
        out[f"sim.{name}.calls"] = len(members)
        out[f"sim.{name}.us_per_slot"] = per(f"sim.{name}", 1e6, slots)
    hits = by_name["sim.hitting_time"]
    out["sim.hitting_time.unresolved_ratio"] = (
        sum(s.result is None for s in hits) / len(hits) if hits else 0.0)
    out["sim.make_initial_ages.ms"] = total("sim.make_initial_ages") * 1e3
    out["relaxed.solve_rp.calls"] = len(by_name["relaxed.solve_rp"])
    out["relaxed.solve_rp.ms_p50"] = percentile("relaxed.solve_rp", 50)
    out["relaxed.solve_rp.ms_max"] = percentile("relaxed.solve_rp", 100)
    for name in ("index.whittle_index_table", "index.optimal_thresholds"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.busy_s"] = total(name)
    for name in ("fluid.fluid_step", "fluid.in_region"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.us_per_call"] = per(name, 1e6, len(by_name[name]))
    out["fluid.fluid_trajectory.ms"] = total("fluid.fluid_trajectory") * 1e3
    for name in ("fluid.assemble_linear", "fluid.spectral_report"):
        out[f"{name}.ms"] = total(name) * 1e3
        out[f"{name}.peak_alloc_mb"] = peak_mb(by_name[name])
    out["oracle.rvi_one_dim.calls"] = len(by_name["oracle.rvi_one_dim"])
    out["oracle.rvi_one_dim.busy_s"] = total("oracle.rvi_one_dim")
    out["oracle.rvi_one_dim.ms_p50"] = percentile("oracle.rvi_one_dim", 50)
    out["oracle.rvi_one_dim.ms_p90"] = percentile("oracle.rvi_one_dim", 90)
    out["oracle.joint_mdp_optimal.s"] = total("oracle.joint_mdp_optimal")
    out["oracle.joint_mdp_optimal.peak_alloc_mb"] = peak_mb(
        by_name["oracle.joint_mdp_optimal"])
    top_level = sum(s.duration for s in spans if s.parent == body.sid)
    out["trace.top_level_share"] = top_level / body.duration
    out["user_slots"] = sum(
        s.attrs["n"] * _slots(s)
        for name in ("sim.simulate", "sim.hitting_time", "sim.fluid_deviation")
        for s in by_name[name])
    return out
