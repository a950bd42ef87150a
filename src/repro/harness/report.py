"""Plain-text rendering of the reproduced tables and figures."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["render_table", "format_seconds", "render_bars", "render_trace_summary"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table (the harness's one output format)."""
    columns = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(str(cell)) for cell in col) for col in columns]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("-+-".join("-" * w for w in widths))
    for row in rows:
        out.append(line(row))
    return "\n".join(out)


def format_seconds(seconds: float) -> str:
    """Render a duration with the unit the paper's plot for it uses."""
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def _format_bytes(nbytes: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if nbytes >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{int(nbytes)} B"


def render_trace_summary(records: Sequence[Dict[str, Any]]) -> str:
    """``nvprof``-style summary of :meth:`repro.trace.Tracer.to_records` output.

    Three sections, each present only when it has data: a per-kernel
    table (calls, total/mean/min/max, time share — the classic nvprof
    "GPU activities" block — plus the engine each kernel ran on, marked
    ``lowered`` when it ran the body of :mod:`repro.compiler.lower`), a
    memcpy rollup by direction, and a
    predicted-vs-observed comparison joining the perf model's estimates
    onto measured launch spans.  This is the embedding point the harness
    report uses for traces; :meth:`repro.trace.Tracer.summary` calls it.
    """
    out: List[str] = ["==== repro.trace profile summary ===="]

    kernels: Dict[str, List[float]] = {}
    engines: Dict[str, List[str]] = {}
    predicted: Dict[str, float] = {}
    for rec in records:
        if rec.get("cat") == "kernel":
            name = rec["name"][len("kernel:"):]
            kernels.setdefault(name, []).append(rec["dur_us"] / 1e6)
            args = rec.get("args", {})
            if "engine" in args:
                engine = str(args["engine"])
                if args.get("lowered"):
                    engine += " (lowered)"
                seen = engines.setdefault(name, [])
                if engine not in seen:
                    seen.append(engine)
            if "predicted_per_launch_s" in rec.get("args", {}):
                predicted[name] = rec["args"]["predicted_per_launch_s"]
    if kernels:
        grand_total = sum(sum(durs) for durs in kernels.values())
        rows = []
        for name, durs in sorted(kernels.items(), key=lambda kv: -sum(kv[1])):
            total = sum(durs)
            share = 100.0 * total / grand_total if grand_total else 0.0
            rows.append([
                f"{share:.1f}%",
                format_seconds(total),
                str(len(durs)),
                format_seconds(total / len(durs)),
                format_seconds(min(durs)),
                format_seconds(max(durs)),
                ", ".join(engines.get(name, ())) or "-",
                name,
            ])
        out.append(render_table(
            ["time(%)", "total", "calls", "mean", "min", "max", "engine", "kernel"],
            rows, title="GPU activities (kernel launches)"))

    vendor: Dict[str, List[Dict[str, Any]]] = {}
    for rec in records:
        if rec.get("cat") == "vendor":
            name = rec["name"]
            if name.startswith("exec:"):
                name = name[len("exec:"):]
            if name.startswith("vendor:"):
                name = name[len("vendor:"):]
            backend = str(rec.get("args", {}).get("backend", "?"))
            vendor.setdefault(f"{name} [{backend}]", []).append(rec)
    if vendor:
        grand_total = sum(
            sum(r["dur_us"] for r in recs) for recs in vendor.values()
        )
        rows = []
        for name, recs in sorted(
            vendor.items(), key=lambda kv: -sum(r["dur_us"] for r in kv[1])
        ):
            durs = [r["dur_us"] / 1e6 for r in recs]
            total = sum(durs)
            share = 100.0 * total * 1e6 / grand_total if grand_total else 0.0
            gflops = sum(
                float(r.get("args", {}).get("flops", 0)) for r in recs
            ) / 1e9
            rows.append([
                f"{share:.1f}%",
                format_seconds(total),
                str(len(durs)),
                format_seconds(total / len(durs)),
                f"{gflops:.3g}",
                name,
            ])
        out.append("")
        out.append(render_table(
            ["time(%)", "total", "calls", "mean", "gflop", "library call"],
            rows, title="Vendor library calls (ompxblas)"))

    copies: Dict[str, List[Dict[str, Any]]] = {}
    for rec in records:
        if rec.get("cat") == "memcpy":
            direction = str(rec.get("args", {}).get("direction", "?"))
            copies.setdefault(direction, []).append(rec)
    if copies:
        rows = []
        for direction, recs in sorted(copies.items()):
            nbytes = sum(float(r.get("args", {}).get("bytes", 0)) for r in recs)
            total = sum(r["dur_us"] for r in recs) / 1e6
            rows.append([direction, str(len(recs)), _format_bytes(nbytes),
                         format_seconds(total)])
        out.append("")
        out.append(render_table(["direction", "count", "bytes", "total"],
                                rows, title="Memcpy rollup"))

    if predicted:
        rows = []
        for name, pred_s in sorted(predicted.items()):
            durs = kernels.get(name, [])
            observed = sum(durs) / len(durs) if durs else 0.0
            ratio = f"{pred_s / observed:.3g}x" if observed else "n/a"
            rows.append([name, format_seconds(pred_s),
                         format_seconds(observed), ratio])
        out.append("")
        out.append(render_table(
            ["kernel", "predicted/launch", "observed mean", "predicted/observed"],
            rows, title="Perf model vs simulator (per launch)"))

    prediction_only = [r for r in records if r.get("cat") == "prediction"]
    if prediction_only and not kernels:
        rows = [[r["name"][len("predict:"):],
                 format_seconds(float(r.get("args", {}).get("per_launch_s", 0.0))),
                 str(r.get("args", {}).get("launches", 1)),
                 format_seconds(float(r.get("args", {}).get("total_s", 0.0)))]
                for r in prediction_only]
        out.append("")
        out.append(render_table(
            ["kernel", "predicted/launch", "launches", "predicted total"],
            rows, title="Perf-model predictions (no simulated launches traced)"))

    if len(out) == 1:
        out.append("  (no trace records)")
    return "\n".join(out)


def render_bars(
    values: Mapping[str, Optional[float]],
    *,
    title: Optional[str] = None,
    width: int = 50,
    clip_ratio: float = 20.0,
) -> str:
    """ASCII bar chart in the spirit of the paper's Figure 8 panels.

    Bars scale to the largest *unclipped* value; values more than
    ``clip_ratio`` times the smallest are clipped and annotated with their
    number, exactly like the paper annotates the off-scale ``omp`` bars
    (e.g. "145.6ms").  ``None`` values render as excluded.
    """
    present = {k: v for k, v in values.items() if v is not None}
    out: List[str] = []
    if title:
        out.append(title)
    if not present:
        return "\n".join(out + ["  (no data)"])
    smallest = min(present.values())
    unclipped = {k: v for k, v in present.items() if v <= smallest * clip_ratio}
    scale_max = max(unclipped.values()) if unclipped else max(present.values())
    label_width = max(len(k) for k in values)
    for label, value in values.items():
        if value is None:
            out.append(f"  {label.ljust(label_width)} | excluded (invalid checksum)")
            continue
        if value > smallest * clip_ratio:
            bar = "#" * width
            out.append(
                f"  {label.ljust(label_width)} |{bar}> {format_seconds(value)} (off scale)"
            )
            continue
        bar = "#" * max(1, round(width * value / scale_max))
        out.append(f"  {label.ljust(label_width)} |{bar.ljust(width)}  {format_seconds(value)}")
    return "\n".join(out)
