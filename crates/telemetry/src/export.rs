//! Machine-readable exporters for [`TelemetrySnapshot`]: a JSON
//! snapshot and the Prometheus text exposition format. Both are
//! hand-rolled over `std` so the crate stays dependency-free.

use std::fmt::Write as _;

use crate::TelemetrySnapshot;

/// Which exporter renders a snapshot (the CLI's `--metrics-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The [`to_json`] snapshot (default).
    #[default]
    Json,
    /// The [`to_prometheus`] text exposition format.
    Prometheus,
}

impl MetricsFormat {
    /// Parses a `--metrics-format` value (`json` or `prom`/`prometheus`).
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "json" => Some(MetricsFormat::Json),
            "prom" | "prometheus" => Some(MetricsFormat::Prometheus),
            _ => None,
        }
    }

    /// The format's canonical flag value.
    pub fn name(self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Prometheus => "prom",
        }
    }
}

/// Renders `snapshot` in `format`.
pub fn render(snapshot: &TelemetrySnapshot, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Json => to_json(snapshot),
        MetricsFormat::Prometheus => to_prometheus(snapshot),
    }
}

/// Escapes a string for a JSON string literal (instrument names are
/// dotted ASCII paths, but the exporter must stay correct for any
/// input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (finite values only; NaN and
/// infinities become `0`, which cannot occur for histogram means).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the full snapshot as a JSON object:
///
/// ```json
/// {
///   "enabled": true,
///   "counters": { "core.refine.sims": 123 },
///   "gauges": { "serve.queue_depth": 4 },
///   "histograms": {
///     "online.repair_ns": { "count": 9, "sum": 1024, "max": 300,
///                            "mean": 113.8, "p50": 127, "p95": 511, "p99": 511 }
///   }
/// }
/// ```
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"enabled\": {},", snapshot.enabled);

    out.push_str("  \"counters\": {");
    for (i, c) in snapshot.counters.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(&c.name), c.value);
    }
    out.push_str(if snapshot.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"gauges\": {");
    for (i, g) in snapshot.gauges.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(&g.name), g.value);
    }
    out.push_str(if snapshot.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"histograms\": {");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {} }}",
            json_escape(&h.name),
            h.count,
            h.sum,
            h.max,
            json_f64(h.mean),
            h.p50,
            h.p95,
            h.p99
        );
    }
    out.push_str(if snapshot.histograms.is_empty() {
        "}\n"
    } else {
        "\n  }\n"
    });

    out.push_str("}\n");
    out
}

/// Maps an instrument name onto a valid Prometheus metric name:
/// prefixed with `kiff_`, with every character outside
/// `[a-zA-Z0-9_:]` replaced by `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("kiff_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the snapshot in the Prometheus text exposition format:
/// counters and gauges as single samples, histograms as summaries
/// (quantile samples plus `_sum`, `_count` and a `_max` gauge).
pub fn to_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = prom_name(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = prom_name(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for h in &snapshot.histograms {
        let name = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
        let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", h.p95);
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", h.p99);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        let _ = writeln!(out, "# TYPE {name}_max gauge");
        let _ = writeln!(out, "{name}_max {}", h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> TelemetrySnapshot {
        let registry = Registry::new();
        registry.counter("core.refine.sims").add(42);
        registry.gauge("shard.0.queue_depth").set(-3);
        let h = registry.histogram("online.repair_ns");
        h.record(100);
        h.record(900);
        registry.snapshot()
    }

    #[test]
    fn json_contains_every_instrument() {
        let json = to_json(&sample());
        assert!(json.contains("\"core.refine.sims\": 42"), "{json}");
        assert!(json.contains("\"shard.0.queue_depth\": -3"), "{json}");
        assert!(json.contains("\"online.repair_ns\""), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"max\": 900"), "{json}");
        assert!(json.contains("\"enabled\": true"), "{json}");
    }

    #[test]
    fn json_of_empty_snapshot_is_well_formed() {
        let json = to_json(&Registry::new().snapshot());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
    }

    #[test]
    fn json_escapes_names() {
        let registry = Registry::new();
        registry.counter("weird\"name\\").add(1);
        let json = to_json(&registry.snapshot());
        assert!(json.contains("\"weird\\\"name\\\\\": 1"), "{json}");
    }

    #[test]
    fn prometheus_sanitises_names_and_types() {
        let prom = to_prometheus(&sample());
        assert!(
            prom.contains("# TYPE kiff_core_refine_sims counter"),
            "{prom}"
        );
        assert!(prom.contains("kiff_core_refine_sims 42"), "{prom}");
        assert!(
            prom.contains("# TYPE kiff_shard_0_queue_depth gauge"),
            "{prom}"
        );
        assert!(prom.contains("kiff_shard_0_queue_depth -3"), "{prom}");
        assert!(
            prom.contains("# TYPE kiff_online_repair_ns summary"),
            "{prom}"
        );
        assert!(
            prom.contains("kiff_online_repair_ns{quantile=\"0.99\"}"),
            "{prom}"
        );
        assert!(prom.contains("kiff_online_repair_ns_count 2"), "{prom}");
        assert!(prom.contains("kiff_online_repair_ns_max 900"), "{prom}");
    }

    #[test]
    fn format_parsing() {
        assert_eq!(MetricsFormat::parse("json"), Some(MetricsFormat::Json));
        assert_eq!(
            MetricsFormat::parse("prom"),
            Some(MetricsFormat::Prometheus)
        );
        assert_eq!(
            MetricsFormat::parse("prometheus"),
            Some(MetricsFormat::Prometheus)
        );
        assert_eq!(MetricsFormat::parse("yaml"), None);
        assert_eq!(MetricsFormat::default(), MetricsFormat::Json);
    }

    #[test]
    fn render_dispatches_on_format() {
        let snap = sample();
        assert_eq!(render(&snap, MetricsFormat::Json), to_json(&snap));
        assert_eq!(
            render(&snap, MetricsFormat::Prometheus),
            to_prometheus(&snap)
        );
    }
}
