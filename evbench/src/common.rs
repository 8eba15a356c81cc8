//! Pieces every workload shares: result accounting, answer checking,
//! numeric model names, and the host block.

use evprop_potential::VarId;
use evprop_registry::ModelNames;
use evprop_serve::{parse_json, Json};
use std::time::Duration;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints on its last line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (`null` is not a number, so non-finite
/// values, which no metric should produce, are written as -1).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "-1.0".to_string()
    }
}

/// Per-phase request accounting: every request sent is answered
/// correctly, answered wrongly, answered with an error, refused, or
/// never answered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub wrong: u64,
    pub errors: u64,
    pub refused: u64,
    pub missing: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.refused + self.missing
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.refused += other.refused;
        self.missing += other.missing;
    }

    /// Files one response (or its absence) under its class.
    pub fn record(&mut self, verdict: Verdict) {
        self.sent += 1;
        match verdict {
            Verdict::Ok => self.ok += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Refused => self.refused += 1,
            Verdict::Missing => self.missing += 1,
        }
    }

    pub fn line(&self, phase: &str) -> String {
        format!(
            "# accounting {phase}: sent={} answered_ok={} wrong={} errors={} refused={} missing={}",
            self.sent, self.ok, self.wrong, self.errors, self.refused, self.missing
        )
    }
}

/// How one response compares with its oracle answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Wrong,
    Error,
    Refused,
    Missing,
}

/// How close an answer must be to its oracle.
#[derive(Clone, Copy, Debug)]
pub enum Tolerance {
    /// Every probability within this absolute distance.
    Abs(f64),
    /// Bit-for-bit equal.
    Bitwise,
}

/// Checks one response line against the expected marginal.
pub fn check_response(response: Option<&str>, expected: &[f64], tol: Tolerance) -> Verdict {
    let Some(line) = response else {
        return Verdict::Missing;
    };
    let Ok(json) = parse_json(line) else {
        return Verdict::Wrong;
    };
    if let Some(Json::Str(msg)) = json.get("error") {
        return if msg.contains("overloaded") || msg.contains("connection limit") {
            Verdict::Refused
        } else {
            Verdict::Error
        };
    }
    let Some(Json::Arr(values)) = json.get("marginal") else {
        return Verdict::Wrong;
    };
    if values.len() != expected.len() {
        return Verdict::Wrong;
    }
    let matches = values.iter().zip(expected).all(|(v, &e)| match (v, tol) {
        (Json::Num(x), Tolerance::Abs(eps)) => (x - e).abs() <= eps,
        (Json::Num(x), Tolerance::Bitwise) => x.to_bits() == e.to_bits(),
        _ => false,
    });
    if matches {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Positional names (`v0`, `v1`, … with states `0`, `1`, …) for the
/// generated junction trees, which have no network to name them.
#[derive(Clone, Debug)]
pub struct TreeNames {
    cardinalities: Vec<usize>,
}

impl TreeNames {
    pub fn of(shape: &evprop_jtree::TreeShape) -> TreeNames {
        let mut cardinalities = Vec::new();
        for d in shape.domains() {
            for v in d.vars() {
                let i = v.id().index();
                if cardinalities.len() <= i {
                    cardinalities.resize(i + 1, 0);
                }
                cardinalities[i] = v.cardinality();
            }
        }
        TreeNames { cardinalities }
    }
}

impl ModelNames for TreeNames {
    fn num_vars(&self) -> usize {
        self.cardinalities.len()
    }

    fn var_id(&self, name: &str) -> Option<VarId> {
        let i: usize = name.strip_prefix('v').unwrap_or(name).parse().ok()?;
        (i < self.cardinalities.len()).then_some(VarId(i as u32))
    }

    fn var_name(&self, var: VarId) -> String {
        format!("v{}", var.index())
    }

    fn num_states(&self, var: VarId) -> usize {
        self.cardinalities[var.index()]
    }

    fn state_index(&self, var: VarId, state: &str) -> Option<usize> {
        let i: usize = state.parse().ok()?;
        (i < self.cardinalities[var.index()]).then_some(i)
    }

    fn state_name(&self, _var: VarId, state: usize) -> String {
        state.to_string()
    }
}

/// Worker budget of the load generator and the multi-threaded servers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block printed with every result, so figures can be
/// compared across hosts.
pub fn host_block(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{{\"host\": {{\"cores\": {}, \"kernel_backend\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}}}}}",
        nproc(),
        evprop_potential::simd::active().name(),
        env!("EVBENCH_RUSTC"),
        env!("EVBENCH_COMMIT"),
    )
}

/// A printed-only figure, or `n/a` when there are too few samples.
pub fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_check_rejects_a_perturbed_marginal() {
        let expected = [0.25, 0.75];
        let good = r#"{"target":"v1","states":["0","1"],"marginal":[0.25,0.75]}"#;
        assert_eq!(
            check_response(Some(good), &expected, Tolerance::Bitwise),
            Verdict::Ok
        );
        assert_eq!(
            check_response(Some(good), &expected, Tolerance::Abs(1e-9)),
            Verdict::Ok
        );
        // One ulp off fails the bitwise check but passes 1e-9.
        let nudged = format!(
            r#"{{"target":"v1","states":["0","1"],"marginal":[{:?},0.75]}}"#,
            f64::from_bits(0.25f64.to_bits() + 1)
        );
        assert_eq!(
            check_response(Some(&nudged), &expected, Tolerance::Bitwise),
            Verdict::Wrong
        );
        assert_eq!(
            check_response(Some(&nudged), &expected, Tolerance::Abs(1e-9)),
            Verdict::Ok
        );
        let perturbed = r#"{"target":"v1","states":["0","1"],"marginal":[0.2500001,0.7499999]}"#;
        assert_eq!(
            check_response(Some(perturbed), &expected, Tolerance::Abs(1e-9)),
            Verdict::Wrong
        );
        let short = r#"{"target":"v1","states":["0"],"marginal":[1.0]}"#;
        assert_eq!(
            check_response(Some(short), &expected, Tolerance::Abs(1e-9)),
            Verdict::Wrong
        );
        assert_eq!(
            check_response(Some(r#"{"error":"boom"}"#), &expected, Tolerance::Bitwise),
            Verdict::Error
        );
        assert_eq!(
            check_response(None, &expected, Tolerance::Bitwise),
            Verdict::Missing
        );
    }
}
