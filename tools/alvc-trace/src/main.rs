//! Renders causal trace trees and SLO summaries from an AL-VC
//! flight-recorder dump (JSON lines, one record per line — see
//! DESIGN.md §14).
//!
//! ```text
//! alvc-trace <dump.jsonl>                 # summary + SLO breaches
//! alvc-trace <dump.jsonl> --trace 42      # render one trace tree
//! alvc-trace <dump.jsonl> --slowest 3     # render the N slowest intents
//! ```
//!
//! A dump is produced by `ControlPlane::dump_flight_recorder()` or by the
//! e10 control-plane experiment (`results/trace_dump.jsonl`).

use std::collections::BTreeMap;
use std::process::ExitCode;

use alvc_bench::Json;

/// One parsed span line, with whatever extra fields the span carried.
struct Span {
    trace: u64,
    span: u64,
    parent: u64,
    name: String,
    start_us: f64,
    duration_us: f64,
    status: String,
    code: String,
    fields: Vec<(String, String)>,
}

/// Keys every span record carries; anything else is a user field.
const SPAN_KEYS: [&str; 9] = [
    "kind",
    "trace",
    "span",
    "parent",
    "name",
    "start_us",
    "duration_us",
    "status",
    "code",
];

fn render_json(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Bool(b) => format!("{b}"),
        other => format!("{other:?}"),
    }
}

fn parse_span(obj: &Json) -> Option<Span> {
    let num = |key: &str| obj.get(key).and_then(Json::as_f64);
    let text = |key: &str| {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_default()
    };
    let fields = obj
        .as_object()?
        .iter()
        .filter(|(k, _)| !SPAN_KEYS.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), render_json(v)))
        .collect();
    Some(Span {
        trace: num("trace")? as u64,
        span: num("span")? as u64,
        parent: num("parent")? as u64,
        name: text("name"),
        start_us: num("start_us").unwrap_or(0.0),
        duration_us: num("duration_us").unwrap_or(0.0),
        status: text("status"),
        code: text("code"),
        fields,
    })
}

struct Dump {
    /// Spans grouped by trace id.
    traces: BTreeMap<u64, Vec<Span>>,
    /// Raw breach records, in dump order.
    breaches: Vec<Json>,
    skipped: usize,
}

fn parse_dump(text: &str) -> Dump {
    let mut dump = Dump {
        traces: BTreeMap::new(),
        breaches: Vec::new(),
        skipped: 0,
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(obj) = Json::parse(line) else {
            dump.skipped += 1;
            continue;
        };
        match obj.get("kind").and_then(Json::as_str) {
            Some("span") => match parse_span(&obj) {
                Some(span) => dump.traces.entry(span.trace).or_default().push(span),
                None => dump.skipped += 1,
            },
            Some("breach") => dump.breaches.push(obj),
            _ => dump.skipped += 1,
        }
    }
    dump
}

/// The root span of a trace, when the dump still holds it (ring-buffer
/// overwrites can orphan old traces).
fn root_of(spans: &[Span]) -> Option<&Span> {
    spans.iter().find(|s| s.parent == 0)
}

fn format_span(span: &Span) -> String {
    let mut out = format!(
        "{} ({}, {:.1} us)",
        span.name, span.status, span.duration_us
    );
    if !span.code.is_empty() {
        out.push_str(&format!(" code={}", span.code));
    }
    for (k, v) in &span.fields {
        out.push_str(&format!(" {k}={v}"));
    }
    out
}

fn render_subtree(spans: &[Span], parent: u64, prefix: &str, out: &mut String) {
    let mut children: Vec<&Span> = spans.iter().filter(|s| s.parent == parent).collect();
    children.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.span.cmp(&b.span))
    });
    let last = children.len().saturating_sub(1);
    for (i, child) in children.iter().enumerate() {
        let (tee, pad) = if i == last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        out.push_str(&format!("{prefix}{tee}{}\n", format_span(child)));
        render_subtree(spans, child.span, &format!("{prefix}{pad}"), out);
    }
}

fn render_trace(trace: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    match root_of(spans) {
        Some(root) => {
            out.push_str(&format!("trace {trace} — {}\n", format_span(root)));
            render_subtree(spans, root.span, "", &mut out);
        }
        None => {
            out.push_str(&format!(
                "trace {trace} — (root overwritten, {} surviving spans)\n",
                spans.len()
            ));
        }
    }
    out
}

fn summarize(dump: &Dump) {
    let mut by_status: BTreeMap<&str, usize> = BTreeMap::new();
    let mut intents = 0usize;
    for spans in dump.traces.values() {
        if let Some(root) = root_of(spans) {
            if root.name == "intent" {
                intents += 1;
                *by_status.entry(root.status.as_str()).or_default() += 1;
            }
        }
    }
    println!(
        "{} traces ({} intent roots), {} SLO breach records{}",
        dump.traces.len(),
        intents,
        dump.breaches.len(),
        if dump.skipped > 0 {
            format!(", {} unparseable lines skipped", dump.skipped)
        } else {
            String::new()
        }
    );
    for (status, n) in &by_status {
        println!("  {status}: {n}");
    }
    if !dump.breaches.is_empty() {
        println!("\nSLO breaches:");
        let mut per_slo: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for b in &dump.breaches {
            let slo = b
                .get("slo")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let subject = b.get("subject").and_then(Json::as_str).unwrap_or("");
            let key = if subject.is_empty() {
                slo
            } else {
                format!("{slo}[{subject}]")
            };
            let observed = b.get("observed").and_then(Json::as_f64).unwrap_or(0.0);
            let threshold = b.get("threshold").and_then(Json::as_f64).unwrap_or(0.0);
            let entry = per_slo.entry(key).or_insert((0, f64::MIN, threshold));
            entry.0 += 1;
            entry.1 = entry.1.max(observed);
        }
        for (slo, (count, worst, threshold)) in per_slo {
            println!("  {slo}: {count} window(s), worst {worst:.1} vs threshold {threshold:.1}");
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args
        .first()
        .ok_or("usage: alvc-trace <dump.jsonl> [--trace <id> | --slowest <n>]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let dump = parse_dump(&text);

    match args.get(1).map(String::as_str) {
        Some("--trace") => {
            let id: u64 = args
                .get(2)
                .ok_or("--trace needs a trace id")?
                .parse()
                .map_err(|e| format!("--trace id: {e}"))?;
            let spans = dump
                .traces
                .get(&id)
                .ok_or_else(|| format!("trace {id} not in dump"))?;
            print!("{}", render_trace(id, spans));
        }
        Some("--slowest") => {
            let n: usize = args
                .get(2)
                .ok_or("--slowest needs a count")?
                .parse()
                .map_err(|e| format!("--slowest count: {e}"))?;
            let mut intents: Vec<(u64, &Vec<Span>, f64)> = dump
                .traces
                .iter()
                .filter_map(|(&id, spans)| {
                    let root = root_of(spans)?;
                    (root.name == "intent").then_some((id, spans, root.duration_us))
                })
                .collect();
            intents.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            for (id, spans, _) in intents.into_iter().take(n) {
                print!("{}", render_trace(id, spans));
            }
        }
        Some(other) => return Err(format!("unknown option {other:?}")),
        None => summarize(&dump),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("alvc-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
{"kind":"span","trace":7,"span":10,"parent":0,"name":"intent","start_us":100,"duration_us":900.0,"status":"completed","code":"","tenant":"t1","kind_label":"deploy_chain"}
{"kind":"span","trace":7,"span":11,"parent":10,"name":"intent.admission","start_us":101,"duration_us":2.0,"status":"ok","code":""}
{"kind":"span","trace":7,"span":12,"parent":10,"name":"intent.execute","start_us":110,"duration_us":800.0,"status":"completed","code":""}
{"kind":"breach","slo":"intent_p99","subject":"","observed":1500.0,"threshold":1000.0,"window":3,"ts_us":999}
"#;

    #[test]
    fn parses_and_groups_by_trace() {
        let dump = parse_dump(SAMPLE);
        assert_eq!(dump.traces.len(), 1);
        assert_eq!(dump.traces[&7].len(), 3);
        assert_eq!(dump.breaches.len(), 1);
        assert_eq!(dump.skipped, 0);
    }

    #[test]
    fn renders_a_tree_with_both_children() {
        let dump = parse_dump(SAMPLE);
        let out = render_trace(7, &dump.traces[&7]);
        assert!(out.starts_with("trace 7 — intent (completed"), "{out}");
        assert!(out.contains("├─ intent.admission (ok, 2.0 us)"), "{out}");
        assert!(out.contains("└─ intent.execute (completed"), "{out}");
    }

    #[test]
    fn orphaned_trace_renders_placeholder() {
        let dump = parse_dump(
            r#"{"kind":"span","trace":3,"span":5,"parent":4,"name":"x","start_us":0,"duration_us":1,"status":"ok","code":""}"#,
        );
        let out = render_trace(3, &dump.traces[&3]);
        assert!(out.contains("root overwritten"), "{out}");
    }
}
