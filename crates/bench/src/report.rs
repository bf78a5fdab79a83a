//! The one result envelope every `results/BENCH_*.json` is written in
//! (DESIGN.md §19), and the gates that decide a run's exit status.
//!
//! ```json
//! {"bench": "...", "experiment": "...", "config": {...},
//!  "rows": [{"table": "...", ...}],
//!  "gates": [{"name": "...", "observed": 0, "op": "==", "bound": 0, "pass": true}],
//!  "telemetry": {...}}
//! ```
//!
//! An acceptance invariant is a [`Report::gate`]: one measured scalar
//! against a bound. [`Report::finish`] writes the file first and fails the
//! process afterwards, so a failing run still leaves its evidence behind.
//! The `validate` bin re-evaluates every gate from the file and holds each
//! bench to its required-gate table.

use crate::json::{fmt_number, Json};
use crate::{print_table, telemetry_json, write_results};

/// A gate's comparison, `observed op bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `observed < bound`
    Lt,
    /// `observed <= bound`
    Le,
    /// `observed == bound`
    Eq,
    /// `observed >= bound`
    Ge,
    /// `observed > bound`
    Gt,
}

impl Op {
    const ALL: [Op; 5] = [Op::Lt, Op::Le, Op::Eq, Op::Ge, Op::Gt];

    /// The operator as written in the envelope.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }

    /// Parses an envelope operator; `None` for anything else.
    pub fn parse(symbol: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.symbol() == symbol)
    }

    /// Whether `observed op bound` holds (never for a NaN).
    pub fn holds(self, observed: f64, bound: f64) -> bool {
        match self {
            Op::Lt => observed < bound,
            Op::Le => observed <= bound,
            Op::Eq => observed == bound,
            Op::Ge => observed >= bound,
            Op::Gt => observed > bound,
        }
    }
}

/// One experiment run's result, accumulated by the producing bin.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    experiment: &'static str,
    config: Json,
    rows: Vec<Json>,
    gates: Vec<Gate>,
}

#[derive(Debug)]
struct Gate {
    name: String,
    observed: f64,
    op: Op,
    bound: f64,
}

impl Gate {
    fn pass(&self) -> bool {
        self.op.holds(self.observed, self.bound)
    }
}

impl Report {
    /// A report for `results/BENCH_<bench>.json`, produced by the bin
    /// `experiment`.
    pub fn new(bench: &'static str, experiment: &'static str) -> Report {
        Report {
            bench,
            experiment,
            config: Json::object(),
            rows: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Sets the run's configuration object (scale, seeds, sizes).
    pub fn config(&mut self, config: Json) {
        self.config = config;
    }

    /// Appends result rows, each tagged with the `table` it belongs to.
    pub fn rows(&mut self, table: &str, rows: impl IntoIterator<Item = Json>) {
        for row in rows {
            let Json::Object(mut fields) = row else {
                panic!("result rows are objects, got {row:?}")
            };
            fields.insert(0, ("table".to_string(), table.into()));
            self.rows.push(Json::Object(fields));
        }
    }

    /// Records the acceptance gate `observed op bound`.
    pub fn gate(&mut self, name: &str, observed: f64, op: Op, bound: f64) {
        self.gates.push(Gate {
            name: name.to_string(),
            observed,
            op,
            bound,
        });
    }

    /// The envelope, with the current telemetry snapshot embedded.
    fn to_json(&self) -> Json {
        let gates: Vec<Json> = self
            .gates
            .iter()
            .map(|g| {
                Json::object()
                    .field("name", g.name.as_str())
                    .field("observed", g.observed)
                    .field("op", g.op.symbol())
                    .field("bound", g.bound)
                    .field("pass", g.pass())
            })
            .collect();
        Json::object()
            .field("bench", self.bench)
            .field("experiment", self.experiment)
            .field("config", self.config.clone())
            .field("rows", self.rows.clone())
            .field("gates", gates)
            .field("telemetry", telemetry_json())
    }

    /// Writes `results/<filename>`, prints the gate verdicts, and exits
    /// non-zero if any gate failed.
    pub fn finish(self, filename: &str) {
        write_results(filename, &self.to_json().pretty());
        println!("\nwrote results/{filename}");
        if self.gates.is_empty() {
            return;
        }
        let table: Vec<Vec<String>> = self
            .gates
            .iter()
            .map(|g| {
                vec![
                    g.name.clone(),
                    fmt_number(g.observed),
                    g.op.symbol().to_string(),
                    fmt_number(g.bound),
                    if g.pass() { "PASS" } else { "FAIL" }.to_string(),
                ]
            })
            .collect();
        print_table(&["gate", "observed", "op", "bound", "verdict"], &table);
        let failed = self.gates.iter().filter(|g| !g.pass()).count();
        if failed > 0 {
            eprintln!("{}: {failed} gate(s) failed", self.experiment);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_round_trip_and_compare() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.symbol()), Some(op));
            assert!(!op.holds(f64::NAN, 0.0), "{op:?} must not hold for NaN");
        }
        assert_eq!(Op::parse("=<"), None);
        assert!(Op::Lt.holds(999.9, 1000.0) && !Op::Lt.holds(1000.0, 1000.0));
        assert!(Op::Le.holds(64.0, 64.0) && !Op::Le.holds(65.0, 64.0));
        assert!(Op::Eq.holds(0.0, 0.0) && !Op::Eq.holds(1.0, 0.0));
        assert!(Op::Ge.holds(0.9, 0.9) && !Op::Ge.holds(0.89, 0.9));
        assert!(Op::Gt.holds(1.0, 0.0) && !Op::Gt.holds(0.0, 0.0));
    }

    #[test]
    fn envelope_carries_tagged_rows_and_evaluated_gates() {
        let mut report = Report::new("scalability", "e8_scalability");
        report.config(Json::object().field("seed", 19usize));
        report.rows("flat", [Json::object().field("mean_al_size", 5.0)]);
        report.gate("failed_clusters", 0.0, Op::Eq, 0.0);
        report.gate("label_clones", 2.0, Op::Eq, 0.0);
        let doc = report.to_json();
        for key in ["bench", "experiment", "config", "telemetry"] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("table").and_then(Json::as_str), Some("flat"));
        let verdicts: Vec<bool> = doc
            .get("gates")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|g| g.get("pass").and_then(Json::as_bool).unwrap())
            .collect();
        assert_eq!(verdicts, [true, false]);
    }
}
