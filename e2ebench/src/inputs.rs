//! Seeded input generation. One seed fixes every input a run sends:
//! the random netlists, the `chip_ip` lane/MUX draws and the order of
//! every round. The service only ever sees the generated text.

use columba_prng::Rng;
use columba_s::netlist::{generators, MuxCount};

/// One design submission: the route it is posted to and its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Short label for reports (`chip4ip`, `random5`, `chip77ip/2`, ...).
    pub label: String,
    /// `true` for behavioral assays (`POST /synthesize-assay`).
    pub assay: bool,
    /// The submitted text.
    pub text: String,
}

impl Input {
    fn netlist(label: impl Into<String>, text: impl Into<String>) -> Input {
        Input {
            label: label.into(),
            assay: false,
            text: text.into(),
        }
    }

    /// The HTTP route this input is submitted to.
    pub fn route(&self) -> &'static str {
        if self.assay {
            "/synthesize-assay"
        } else {
            "/synthesize"
        }
    }

    /// The same design under another chip (or assay) name: a distinct
    /// cache key, so the resubmission is a cold solve, with identical
    /// geometry because names do not enter the layout.
    pub fn renamed(&self, suffix: &str) -> Input {
        let mut out = String::with_capacity(self.text.len() + suffix.len());
        let mut done = false;
        for line in self.text.lines() {
            let statement = line.split('#').next().unwrap_or("").trim();
            let keyword = if self.assay { "assay " } else { "chip " };
            if !done && statement.starts_with(keyword) {
                out.push_str(statement);
                out.push('_');
                out.push_str(suffix);
                done = true;
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "input {} has no name statement", self.label);
        Input {
            label: self.label.clone(),
            assay: self.assay,
            text: out,
        }
    }
}

/// The five bundled small netlists and the two bundled assays, in the
/// order a `solve_small` round submits them (heavy and light alternate
/// so the two clients share the load evenly).
pub fn small_cases() -> Vec<Input> {
    let assay = |label: &str, text: &str| Input {
        label: label.into(),
        assay: true,
        text: text.into(),
    };
    vec![
        Input::netlist("chip4ip", include_str!("../../cases/chip4ip.netlist")),
        assay(
            "library_prep",
            include_str!("../../cases/library_prep.assay"),
        ),
        Input::netlist(
            "kinase_activity",
            include_str!("../../cases/kinase_activity.netlist"),
        ),
        Input::netlist(
            "columba2_21u",
            include_str!("../../cases/columba2_21u.netlist"),
        ),
        Input::netlist(
            "mrna_isolation",
            include_str!("../../cases/mrna_isolation.netlist"),
        ),
        assay(
            "pooled_capture",
            include_str!("../../cases/pooled_capture.assay"),
        ),
        Input::netlist(
            "nucleic_acid_processor",
            include_str!("../../cases/nucleic_acid_processor.netlist"),
        ),
    ]
}

/// The bundled ChIP64 netlist (129 units, heuristic mode).
pub fn chip64() -> Input {
    Input::netlist("chip64ip", include_str!("../../cases/chip64ip.netlist"))
}

/// The bundled ChIP128 netlist (257 units, heuristic mode).
pub fn chip128() -> Input {
    Input::netlist("chip128ip", include_str!("../../cases/chip128ip.netlist"))
}

/// Smallest and largest random netlist drawn. Random netlists of 7 and
/// 8 units solve in anywhere from 0.5 s to 6 s at the pinned node budget,
/// so one draw alone would swing a run's throughput.
const RANDOM_UNITS: std::ops::RangeInclusive<usize> = 3..=6;

/// `count` seeded random netlists with [`RANDOM_UNITS`] units each.
pub fn random_netlists(rng: &mut Rng, count: usize) -> Vec<Input> {
    (0..count)
        .map(|i| {
            let units = rng.gen_range(RANDOM_UNITS);
            let mut netlist = generators::random_netlist(rng, units);
            netlist.name = format!("random{i}");
            Input::netlist(format!("random{units}"), netlist.canonical_text())
        })
        .collect()
}

/// Lane counts `scale_large` draws from: 49 to 257 units, all above the
/// 24-unit auto-scale threshold, so every design runs in heuristic mode.
const SCALE_LANES: std::ops::RangeInclusive<usize> = 24..=128;

/// Rounds in the `scale_large` pool, and lane-count strata per round.
/// The lane range is cut into `SCALE_POOL * SCALE_STRATA` strata of equal
/// width and one lane count is drawn from each; pool round `j` takes
/// strata `j`, `j + SCALE_POOL`, ..., so every round spans the whole
/// size range and the pool's size mix barely moves between seeds.
const SCALE_POOL: usize = 3;
const SCALE_STRATA: usize = 7;

/// The `scale_large` inputs: the bundled ChIP64 and ChIP128 (indices 0
/// and 1), then `chip_ip(n, mux)` under both MUX counts for one lane
/// count drawn from each stratum. Returns them with the indices each
/// pool round submits: both bundled chips and its strata.
pub fn scale_pool(rng: &mut Rng) -> (Vec<Input>, Vec<Vec<usize>>) {
    let (lo, hi) = (*SCALE_LANES.start(), *SCALE_LANES.end());
    let strata = SCALE_POOL * SCALE_STRATA;
    let width = (hi - lo + 1).div_ceil(strata);
    let mut inputs = vec![chip64(), chip128()];
    let mut rounds = vec![vec![0, 1]; SCALE_POOL];
    for s in 0..strata {
        let from = lo + s * width;
        let lanes = rng.gen_range(from..=(from + width - 1).min(hi));
        for (mux, tag) in [(MuxCount::One, 1), (MuxCount::Two, 2)] {
            rounds[s % SCALE_POOL].push(inputs.len());
            let text = generators::chip_ip(lanes, mux).canonical_text();
            inputs.push(Input::netlist(format!("chip{lanes}ip/{tag}"), text));
        }
    }
    (inputs, rounds)
}

/// Round `k` of a `scale_large` run: pool round `k mod SCALE_POOL`, in
/// seeded order.
pub fn scale_round(rng: &mut Rng, pool: &[Vec<usize>], k: usize) -> Vec<usize> {
    let mut round = pool[k % pool.len()].clone();
    for i in (1..round.len()).rev() {
        round.swap(i, rng.gen_range(0..=i));
    }
    round
}

/// What an open-loop generator does at one due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Resubmit design `n`, poll it to completion, fetch its SVG.
    Resubmit(usize),
    /// `POST /batch` of the designs listed (duplicates included).
    Batch([usize; BATCH_MEMBERS]),
}

/// Members of one batch.
pub const BATCH_MEMBERS: usize = 4;

/// One scheduled operation of an open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts at which the operation is due.
    pub due_s: f64,
    /// The operation.
    pub op: Op,
}

/// Every input a workload's run derives from its seed, rendered as one
/// string: the determinism tests compare these byte for byte.
#[cfg(test)]
pub fn fingerprint(workload: &str, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut rng = Rng::seed_from_u64(seed);
    let mut s = String::new();
    if workload == "solve_small" {
        for input in random_netlists(&mut rng, 3) {
            s.push_str(&input.text);
        }
    } else {
        let (inputs, pool) = scale_pool(&mut rng);
        for input in &inputs {
            s.push_str(&input.text);
        }
        for k in 0..6 {
            let _ = writeln!(s, "{:?}", scale_round(&mut rng, &pool, k));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in ["solve_small", "scale_large"] {
            assert_eq!(fingerprint(workload, 7), fingerprint(workload, 7));
            assert_ne!(fingerprint(workload, 7), fingerprint(workload, 8));
        }
    }

    #[test]
    fn renaming_changes_only_the_name() {
        for input in small_cases() {
            let renamed = input.renamed("p3");
            assert_ne!(renamed.text, input.text);
            let diff: Vec<_> = input
                .text
                .lines()
                .zip(renamed.text.lines())
                .filter(|(a, b)| a != b)
                .collect();
            assert_eq!(diff.len(), 1, "{}", input.label);
            assert!(diff[0].1.ends_with("_p3"));
        }
    }

    #[test]
    fn random_netlists_stay_in_range_and_parse() {
        let mut rng = Rng::seed_from_u64(1);
        for input in random_netlists(&mut rng, 20) {
            let n = columba_s::Netlist::parse(&input.text).expect("parses");
            assert!(RANDOM_UNITS.contains(&n.functional_unit_count()));
        }
    }

    #[test]
    fn scale_rounds_span_the_sizes_above_the_threshold() {
        let mut rng = Rng::seed_from_u64(3);
        let (inputs, pool) = scale_pool(&mut rng);
        assert_eq!(inputs.len(), 2 + 2 * SCALE_POOL * SCALE_STRATA);
        let units = |i: usize| {
            columba_s::Netlist::parse(&inputs[i].text)
                .expect("parses")
                .functional_unit_count()
        };
        assert!((0..inputs.len()).all(|i| units(i) > 24));
        for k in 0..SCALE_POOL {
            let mut round = scale_round(&mut rng, &pool, k);
            assert_eq!(round.len(), 2 + 2 * SCALE_STRATA);
            round.sort_unstable();
            // every round reaches from the small strata to the large
            let sizes: Vec<usize> = round[2..].iter().map(|&i| units(i)).collect();
            assert!(sizes.iter().any(|&u| u < 90), "{sizes:?}");
            assert!(sizes.iter().any(|&u| u > 220), "{sizes:?}");
        }
    }
}
