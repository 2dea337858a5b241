//! Every zero-allocation gate, in one test binary.
//!
//! A single test: the counting allocator's totals are process-global, so
//! any concurrently running test would pollute a measured window. The
//! steps run in sequence, each counting allocations across its own window:
//!
//! 1. a warmed Fig. 6 instance delivers packets with 0 allocations;
//! 2. a warmed HELLO-dense world beacons with 0 allocation growth
//!    (calendar buckets recycle their storage);
//! 3. arena-backed replicates after the first allocate fewer times than
//!    one fresh-world instance did before the arena existed;
//! 4. a warmed sharded HELLO-dense world runs its epochs with 0
//!    allocations, spans disabled (the shipping default: no clock reads,
//!    no span construction) and enabled (ring pre-sized, aggregate table
//!    saturated during warmup);
//! 5. parsing and compiling the `fig6` spec allocates the same number of
//!    times at 8 and at 24 flows: the spec layer is O(spec), not O(flows).

use std::sync::Arc;

use imobif::{MobilityMode, StrategyRegistry};
use imobif_bench::alloc_track::{self, CountingAlloc};
use imobif_bench::instances::{build_fig6, build_hello_dense, build_sharded_hello_dense, Variant};
use imobif_experiments::config::ScenarioConfig;
use imobif_experiments::runner::{
    build_strategy, clear_memos, run_instance_in, InstanceArena, StrategyChoice,
};
use imobif_experiments::scenario::{self, ScenarioSpec};
use imobif_experiments::topology::draw_scenario;
use imobif_netsim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations for one fresh-world Fig. 6 instance before arena reuse
/// (813–815 per run). Arena-backed replicates after the first must come in
/// below this.
const FRESH_INSTANCE_ALLOCS: u64 = 813;

fn secs(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

/// Allocations made while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let snap = alloc_track::snapshot();
    let out = f();
    (alloc_track::snapshot().allocs_since(&snap), out)
}

#[test]
fn steady_state_paths_allocate_nothing() {
    // 1. Packet hot path: warm an informed instance for 120 simulated
    // seconds (relay convergence, scratch buffers, queue buckets), then
    // count across the next 120.
    let mut run = build_fig6(MobilityMode::Informed, Variant::after(), 0);
    run.run_until_time(secs(120));
    let packets_before = run.delivered_bits() / 8_000;
    let (allocs, ()) = allocs_during(|| run.run_until_time(secs(240)));
    let packets = run.delivered_bits() / 8_000 - packets_before;
    assert!(packets > 0, "steady-state window must deliver packets");
    assert_eq!(allocs, 0, "steady state allocated {allocs} times over {packets} delivered packets");

    // 2. Beacon path: a warmed HELLO-dense world must not regrow cold
    // calendar buckets.
    let mut w = build_hello_dense(Variant::after());
    w.run_while(|w| w.time() < secs(5));
    let (allocs, events) = allocs_during(|| w.run_while(|w| w.time() < secs(65)));
    assert!(events > 0, "warmed hello_dense must process events");
    assert_eq!(allocs, 0, "warmed hello_dense allocated {allocs} times over 60 sim-secs");

    // 3. Arena reuse: world, apps, queue storage and neighbor tables are
    // recycled between replicates.
    clear_memos();
    let cfg = ScenarioConfig::paper_default();
    let strategy = build_strategy(&cfg, StrategyChoice::MinEnergy);
    let registry = Arc::new(StrategyRegistry::single(Arc::clone(&strategy)));
    let mut arena = InstanceArena::new();
    let replicates = 6;
    let mut later = 0;
    for index in 0..replicates {
        let draw = draw_scenario(&cfg, index);
        let (allocs, result) = allocs_during(|| {
            run_instance_in(&mut arena, &cfg, &draw, MobilityMode::Informed, &strategy, &registry)
        });
        assert!(result.delivered_bits > 0, "replicate must make progress");
        if index > 0 {
            later += allocs;
        }
    }
    let mean = later / (replicates - 1);
    assert!(
        mean < FRESH_INSTANCE_ALLOCS,
        "arena replicates allocate {mean}/run, not below a fresh world's {FRESH_INSTANCE_ALLOCS}"
    );

    // 4. Sharded epoch pipeline: stationary nodes, beacons only, so
    // application state saturates during warmup and the window isolates
    // the scheduler, outboxes, merge and replica patching.
    for spans in [false, true] {
        let mut w = build_sharded_hello_dense(16);
        if spans {
            // A small ring so steady state exercises eviction too.
            w.enable_spans(1 << 10);
        }
        w.run_until(secs(5));
        let (allocs, ()) = allocs_during(|| w.run_until(secs(25)));
        assert_eq!(allocs, 0, "warmed sharded epochs allocated {allocs} times (spans: {spans})");
        if spans {
            assert!(w.spans().expect("spans enabled").recorded() > 0, "window records spans");
        }
    }

    // 5. Spec layer: parse + compile cost does not depend on the flow count.
    let source = scenario::builtin_source("fig6").expect("fig6 is a builtin");
    let spec_allocs = |flows: u64| {
        allocs_during(|| {
            let spec = ScenarioSpec::parse(source).expect("shipped spec parses");
            spec.compile_with(Some(2025), Some(flows)).expect("shipped spec compiles")
        })
        .0
    };
    let (small, large) = (spec_allocs(8), spec_allocs(24));
    assert_eq!(
        small, large,
        "fig6 parse+compile allocates {small} times at 8 flows, {large} at 24"
    );
}
