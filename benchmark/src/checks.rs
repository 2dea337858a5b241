//! Output checks, failure accounting and simulated-statistics fingerprints.

use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::figures::{fig5, fig6, fig7, fig8};
use imobif_experiments::runner::{run_batch, CaseResult, InstanceResult, StrategyChoice};
use imobif_obs::fnv1a64;

/// The ROADMAP's fig6 CSV pin, as `scripts/ci.sh` checks it:
/// `scenario run fig6 --flows 8 --seed 2025`.
const FIG6_PIN: u64 = 0x67fd_e585_6d82_96c6;

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// One operation whose checks all passed iff `ok`.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.into_iter().take(20));
    }
}

/// Incremental FNV-1a over everything a run's output depends on.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

fn check_instance(i: &InstanceResult) -> Result<(), String> {
    let parts = [i.data_energy, i.mobility_energy, i.notification_energy];
    if parts.iter().chain([&i.total_energy]).any(|e| !e.is_finite() || *e < 0.0) {
        return Err(format!("{:?}: negative or non-finite energy", i.mode));
    }
    let sum: f64 = parts.iter().sum();
    if (i.total_energy - sum).abs() > 1e-9 * i.total_energy.max(1.0) {
        return Err(format!("{:?}: total {} != category sum {sum}", i.mode, i.total_energy));
    }
    if i.delivered_bits > i.flow_bits {
        return Err(format!("{:?}: delivered {} > flow {}", i.mode, i.delivered_bits, i.flow_bits));
    }
    Ok(())
}

/// Checks one flow case (one operation) and folds it into `fp`.
pub fn case(tally: &mut Tally, fp: &mut Fingerprint, c: &CaseResult) {
    let modes = [&c.no_mobility, &c.cost_unaware, &c.informed];
    tally.op(modes
        .iter()
        .try_for_each(|i| check_instance(i))
        .map_err(|e| format!("case {}: {e}", c.draw_index)));
    fp.u64(c.draw_index);
    fp.u64(c.flow_bits);
    fp.u64(c.path_len as u64);
    for i in modes {
        fp.f64(i.total_energy);
        fp.f64(i.data_energy);
        fp.f64(i.mobility_energy);
        fp.f64(i.notification_energy);
        fp.u64(i.delivered_bits);
        fp.u64(i.notifications);
        fp.u64(i.status_changes);
        fp.f64(i.lifetime_secs);
    }
}

fn require(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// The paper-shape thresholds of `tests/reproduction.rs` (same seed and
/// batch sizes) and the fig6 pin; one operation each.
pub fn paper_shape_and_pin(tally: &mut Tally) {
    const FLOWS: u64 = 10;
    const SEED: u64 = 424_242;
    let base = ScenarioConfig { seed: SEED, ..ScenarioConfig::paper_default() };
    let batch = |cfg: ScenarioConfig| run_batch(&cfg, FLOWS, StrategyChoice::MinEnergy);

    let short = batch(ScenarioConfig { mean_flow_bits: 8e5, ..base });
    let cu = mean(short.iter().map(CaseResult::cost_unaware_energy_ratio));
    let inf = mean(short.iter().map(CaseResult::informed_energy_ratio));
    let completed = short
        .iter()
        .all(|c| c.no_mobility.completed && c.cost_unaware.completed && c.informed.completed);
    tally.op(require(cu > 1.5 && inf < 1.05 && completed, "paper shape: short flows (fig6a)"));

    let long = batch(base);
    let inf = mean(long.iter().map(CaseResult::informed_energy_ratio));
    let each = long.iter().all(|c| c.informed_energy_ratio() < 1.05);
    let moved = long.iter().any(|c| c.informed.mobility_energy > 0.0);
    tally.op(require(inf <= 1.0 && each && moved, "paper shape: long flows (fig6c-f)"));

    let cheap = batch(ScenarioConfig { k: 0.1, ..base });
    let cu = mean(cheap.iter().map(CaseResult::cost_unaware_energy_ratio));
    let inf = mean(cheap.iter().map(CaseResult::informed_energy_ratio));
    tally.op(require(cu < 1.1 && inf < 1.0, "paper shape: cheap mobility (fig6e)"));

    let r7 = fig7::run(FLOWS, SEED);
    tally.op(require(r7.summary.mean <= 3.0 && r7.summary.max <= 6.0, "paper shape: fig7"));

    let r5 = fig5::run(SEED);
    let pb: Vec<_> = r5.min_energy.nodes.iter().map(|n| n.position).collect();
    let pc: Vec<_> = r5.max_lifetime.nodes.iter().map(|n| n.position).collect();
    tally.op(require(
        r5.min_energy.chord_deviation < 1.0
            && r5.min_energy.spacing_spread < 0.05
            && r5.max_lifetime.chord_deviation < r5.original.chord_deviation
            && r5.lifetime_ratio_spread < 0.75
            && pb != pc,
        "paper shape: fig5",
    ));

    let r8 = fig8::run(16, SEED);
    tally.op(require(
        r8.cost_unaware.mean < 1.0
            && r8.informed.mean >= 0.99
            && r8.informed.min > 0.9
            && r8.informed.mean > r8.cost_unaware.mean,
        "paper shape: fig8",
    ));

    let csv = fig6::run(8, 2025).to_csv();
    tally.op(require(fnv1a64(csv.as_bytes()) == FIG6_PIN, "fig6 pin 0x67fde5856d8296c6 moved"));
}
