//! The per-frame time ledger: end-to-end CPU time per camera frame, split
//! into the self time of each layer a frame crosses, plus the residual no
//! layer accounts for.
//!
//! Layers nest (the edge session's `observe` contains the decode; the
//! uplink send contains packetize, channel and depacketize), so every entry
//! names its parent. A layer's self time is its total minus its children's
//! totals; the top-level totals, and equally the sum of every self time,
//! are what the layers explain. `residual = e2e − Σ self`.

/// One layer's total time over a run (its children included).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub total_us: f64,
}

/// A run's ledger over `frames` camera frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    frames: f64,
    e2e_us: f64,
    entries: Vec<Entry>,
}

impl Ledger {
    /// A ledger for a run that spent `e2e_total_us` of system time on
    /// `frames` camera frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: u64, e2e_total_us: f64) -> Self {
        assert!(frames > 0, "a ledger needs at least one frame");
        Self {
            frames: frames as f64,
            e2e_us: e2e_total_us,
            entries: Vec::new(),
        }
    }

    /// Books `total_us` of time to layer `name`, nested under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is booked twice or `parent` is not booked yet.
    pub fn add(&mut self, name: &'static str, parent: Option<&'static str>, total_us: f64) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "layer {name} booked twice"
        );
        if let Some(p) = parent {
            assert!(
                self.entries.iter().any(|e| e.name == p),
                "parent {p} of {name} not booked"
            );
        }
        self.entries.push(Entry {
            name,
            parent,
            total_us,
        });
    }

    /// End-to-end time per frame.
    pub fn e2e_us(&self) -> f64 {
        self.e2e_us / self.frames
    }

    /// Self time of `name` per frame: its total minus its children's.
    pub fn self_us(&self, name: &str) -> f64 {
        let total = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .map_or(0.0, |e| e.total_us);
        let children: f64 = self
            .entries
            .iter()
            .filter(|e| e.parent == Some(name))
            .map(|e| e.total_us)
            .sum();
        (total - children) / self.frames
    }

    /// Time per frame the layers explain (the top-level totals).
    pub fn layers_us(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.total_us)
            .sum::<f64>()
            / self.frames
    }

    /// Time per frame no layer explains.
    pub fn residual_us(&self) -> f64 {
        self.e2e_us() - self.layers_us()
    }

    /// Every booked layer with its per-frame self time, in booking order.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        self.entries
            .iter()
            .map(|e| (e.name, self.self_us(e.name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut l = Ledger::new(100, 10_000.0);
        l.add("push", None, 500.0);
        l.add("observe", None, 4_000.0);
        l.add("decode", Some("observe"), 3_000.0);
        l.add("select", Some("observe"), 500.0);
        l.add("send", None, 1_500.0);
        l.add("packetize", Some("send"), 400.0);
        l.add("fec", Some("packetize"), 100.0);
        l
    }

    #[test]
    fn residual_plus_self_times_reconcile_to_e2e() {
        let l = sample();
        let selves: f64 = l.self_times().iter().map(|(_, v)| v).sum();
        assert!((selves - l.layers_us()).abs() < 1e-9);
        assert!((l.residual_us() + selves - l.e2e_us()).abs() < 1e-9);
        assert_eq!(l.e2e_us(), 100.0);
        assert_eq!(l.layers_us(), 60.0);
        assert_eq!(l.residual_us(), 40.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let l = sample();
        assert_eq!(l.self_us("observe"), 5.0);
        assert_eq!(l.self_us("send"), 11.0);
        assert_eq!(l.self_us("packetize"), 3.0);
        assert_eq!(l.self_us("fec"), 1.0);
        assert_eq!(l.self_us("absent"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not booked")]
    fn orphan_child_is_refused() {
        let mut l = Ledger::new(1, 1.0);
        l.add("decode", Some("observe"), 1.0);
    }
}
