//! Turning runs into named metrics, correctness checks and the one-line
//! JSON result.

use std::collections::BTreeSet;

use sieve_core::propagate_labels;
use sieve_datasets::LabelSet;

use crate::inputs::Camera;
use crate::pipeline::RunOutput;
use crate::stats::Summary;

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        // JSON has no NaN or infinity; an undefined ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }

    /// `<name>.p50`, `<name>.p99` (in `unit`) and `<name>.n` of `samples`.
    pub fn summary(&mut self, name: &str, samples: &mut [f64], unit: &'static str) {
        let s = Summary::of(samples);
        self.put(format!("{name}.p50"), s.p50, unit);
        self.put(format!("{name}.p99"), s.p99, unit);
        self.put(format!("{name}.n"), s.n as f64, "count");
    }

    /// The `metrics` object of the result line.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named pass/fail correctness checks.
#[derive(Debug, Default)]
pub struct Checks(Vec<(String, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }

    pub fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }

    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(name, ok, detail)| {
            format!(
                "check {name}: {} ({detail})",
                if *ok { "ok" } else { "FAILED" }
            )
        })
    }

    /// Every correctness check of one run. `iframes_only` adds the
    /// I-frame selection check; `closed` the no-shed check.
    pub fn of_run(
        &mut self,
        tag: &str,
        run: &RunOutput,
        cams: &[Camera],
        iframes_only: bool,
        closed: bool,
    ) {
        let agg = &run.snapshot.aggregate;
        let offered = run.total_offered();
        let decided = agg.kept + agg.dropped + agg.failed + agg.shed;
        self.check(
            &format!("{tag}.frame_conservation"),
            offered == decided && agg.shed == run.shed.iter().map(|s| s.len() as u64).sum(),
            format!(
                "offered {offered} = kept {} + dropped {} + failed {} + shed {}",
                agg.kept, agg.dropped, agg.failed, agg.shed
            ),
        );
        let c = &run.counts;
        let sink_calls: u64 = run.kept.iter().map(|k| k.len() as u64).sum();
        self.check(
            &format!("{tag}.block_conservation"),
            c.blocks_sent == c.blocks_delivered + c.blocks_recovered + c.blocks_lost
                && c.blocks_sent == agg.kept
                && c.blocks_sent == sink_calls
                && run.usable == c.blocks_usable()
                && run.lost == c.blocks_lost
                && run.unresolved == 0
                && run.unknown == 0,
            format!(
                "sent {} = delivered {} + recovered {} + lost {}; kept {} sink calls {sink_calls}",
                c.blocks_sent, c.blocks_delivered, c.blocks_recovered, c.blocks_lost, agg.kept
            ),
        );
        let labelled: u64 = run.labelled.iter().map(|l| l.len() as u64).sum();
        self.check(
            &format!("{tag}.every_usable_block_labelled"),
            labelled == run.usable && labelled + run.lost == agg.kept,
            format!(
                "labelled {labelled} + lost {} of kept {}",
                run.lost, agg.kept
            ),
        );
        self.check(
            &format!("{tag}.payloads_bit_exact"),
            run.mismatches == 0,
            format!("{} of {} usable blocks differ", run.mismatches, run.usable),
        );
        if iframes_only {
            // Every offered I-frame the fleet did not shed, and nothing else.
            let wrong = (0..cams.len())
                .filter(|&s| {
                    let n_clip = cams[s].video.frame_count() as u64;
                    let iframes: BTreeSet<u64> =
                        cams[s].iframes.iter().map(|&i| i as u64).collect();
                    let shed: BTreeSet<u32> = run.shed[s].iter().copied().collect();
                    let expected: Vec<u32> = (0..run.offered[s])
                        .filter(|i| iframes.contains(&(i % n_clip)))
                        .map(|i| i as u32)
                        .filter(|i| !shed.contains(i))
                        .collect();
                    expected != run.kept[s]
                })
                .count();
            self.check(
                &format!("{tag}.kept_set_is_iframe_index"),
                wrong == 0,
                format!("{wrong} streams kept another set than their I-frames"),
            );
        }
        if closed {
            self.check(
                &format!("{tag}.closed_loop_no_shed"),
                agg.shed == 0,
                format!("{} frames shed", agg.shed),
            );
        }
    }
}

/// The paper's accuracy: labels of the labelled frames propagated forward
/// to every offered frame, scored against ground truth.
pub fn accuracy(cams: &[Camera], offered: &[u64], labelled: &[Vec<u32>]) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for ((cam, &n), labelled) in cams.iter().zip(offered).zip(labelled) {
        let n = n as usize;
        let clip = cam.truth.len();
        let truth = |i: usize| cam.truth[i % clip];
        let picks: Vec<(usize, LabelSet)> = labelled
            .iter()
            .map(|&i| (i as usize, truth(i as usize)))
            .collect();
        let predicted = propagate_labels(n, &picks);
        correct += predicted
            .iter()
            .enumerate()
            .filter(|&(i, p)| *p == truth(i))
            .count();
        total += n;
    }
    correct as f64 / total.max(1) as f64
}

/// Sum of a per-clip-frame quantity over `offered` frames that replay the
/// clip in laps.
pub fn lap_sum(per_frame: &[f64], offered: u64) -> f64 {
    let n = per_frame.len() as u64;
    if n == 0 {
        return 0.0;
    }
    let lap: f64 = per_frame.iter().sum();
    let rest: f64 = per_frame[..(offered % n) as usize].iter().sum();
    (offered / n) as f64 * lap + rest
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_sum_counts_whole_laps_and_the_partial_one() {
        let per = [1.0, 2.0, 3.0];
        assert_eq!(lap_sum(&per, 0), 0.0);
        assert_eq!(lap_sum(&per, 2), 3.0);
        assert_eq!(lap_sum(&per, 3), 6.0);
        assert_eq!(lap_sum(&per, 7), 13.0);
        assert_eq!(lap_sum(&[], 7), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("nan", f64::NAN, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"nan\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
