//! Shape assertions for every reproduced artifact: not the paper's
//! absolute numbers (our substrate is a simulator), but who wins, by
//! roughly what factor, and where the crossover falls.

use ps_harness::experiments::{fig2, oscillation, overhead, table1, table2};
use ps_harness::ledger::fnv1a;
use ps_simnet::SimTime;

fn small_fig2() -> fig2::Fig2Config {
    fig2::Fig2Config {
        senders: vec![2, 5, 8],
        warmup: SimTime::from_millis(300),
        measure: SimTime::from_millis(900),
        ..fig2::Fig2Config::default()
    }
}

#[test]
fn fig2_crossover_and_envelope() {
    let r = fig2::run(&small_fig2());
    let by_k = |k: u16| r.points.iter().find(|p| p.senders == k).unwrap();

    // Low load: the sequencer wins by a clear margin (paper: "low
    // latency (basically twice the network latency)").
    let p2 = by_k(2);
    assert!(
        p2.latency[0].mean < p2.latency[1].mean,
        "sequencer must beat token at 2 senders: {:?} vs {:?}",
        p2.latency[0].mean,
        p2.latency[1].mean
    );

    // High load: the token wins by a large factor (paper: "the sequencer
    // may become a bottleneck").
    let p8 = by_k(8);
    assert!(
        p8.latency[1].mean.mul(4) < p8.latency[0].mean,
        "token must beat the saturated sequencer at 8 senders by >4x"
    );

    // The crossover falls strictly between those loads (paper: between 5
    // and 6 with the full sweep).
    let (a, b) = r.crossover.expect("a crossover must exist");
    assert!(a >= 2 && b <= 8, "crossover ({a},{b}) out of range");

    // The hybrid tracks the winner at both extremes.
    assert_eq!(by_k(2).hybrid_final, 0);
    assert_eq!(by_k(8).hybrid_final, 1);
    assert!(by_k(8).hybrid_switches >= 1);
    let settled = by_k(8).hybrid_settled.mean;
    assert!(settled < p8.latency[0].mean, "settled hybrid must beat the protocol it abandoned");
}

#[test]
fn table2_matches_paper() {
    let rows = table2::run(&table2::Table2Config::quick());
    let (agree, pinned) = table2::agreement(&rows);
    assert_eq!((agree, pinned), (25, 25), "all paper-pinned cells must agree");
    // Render paths don't panic and contain the matrix.
    let rendered = table2::render(&rows).to_string();
    assert!(rendered.contains("Total Order"));
    assert!(rendered.contains("✗"));
    let cx = table2::render_counterexamples(&rows);
    assert!(cx.contains("below"), "negative cells must carry witnesses");
}

#[test]
fn table1_every_property_demonstrated() {
    let demos = table1::run();
    assert_eq!(demos.len(), 8);
    for d in &demos {
        assert!(d.with_protocol, "{} must hold with its protocol", d.property);
        assert!(!d.baseline, "{} must fail on the baseline", d.property);
    }
    let rendered = table1::render(&demos).to_string();
    assert!(rendered.contains("Virtual Synchrony"));
}

#[test]
fn overhead_is_bounded_and_direction_sensitive() {
    let r = overhead::run(&overhead::OverheadConfig { senders: vec![4] });
    assert_eq!(r.costs.len(), 2, "both directions must complete");
    for c in &r.costs {
        assert!(c.max_duration > SimTime::ZERO);
        assert!(
            c.max_duration < SimTime::from_millis(500),
            "switch at moderate load must finish promptly, took {}",
            c.max_duration
        );
        assert!(c.initiator_duration <= c.max_duration);
    }
    // Paper: overhead depends on the latency of the protocol being
    // switched away from — the token (high-latency at k=4) costs at least
    // as much to leave as the sequencer.
    let fwd = r.costs.iter().find(|c| c.direction == (0, 1)).unwrap();
    let back = r.costs.iter().find(|c| c.direction == (1, 0)).unwrap();
    assert!(
        back.max_duration.as_micros() * 2 >= fwd.max_duration.as_micros(),
        "leaving the token protocol ({}) should not be drastically cheaper than leaving the sequencer ({})",
        back.max_duration,
        fwd.max_duration
    );
}

#[test]
fn oscillation_damped_by_hysteresis() {
    let r = oscillation::run(&oscillation::OscillationConfig::quick());
    let aggressive = r.iter().find(|p| p.hysteresis == 0).unwrap();
    let damped = r.iter().find(|p| p.hysteresis == 2).unwrap();
    assert!(
        aggressive.switches > damped.switches,
        "hysteresis must reduce switching ({} vs {})",
        aggressive.switches,
        damped.switches
    );
    assert!(aggressive.switches >= 3, "aggressive policy must oscillate");
    // The quick render, digest recorded before runs went through
    // `ps_harness::scenario`.
    let render = oscillation::render(&r).to_string();
    assert_eq!(
        fnv1a(render.as_bytes()),
        0x70807f379579c8f0,
        "oscillation --quick moved:\n{render}"
    );
}

#[test]
fn overhead_quick_render_is_pinned() {
    // Digest recorded before runs went through `ps_harness::scenario`.
    let render = overhead::render(&overhead::run(&overhead::OverheadConfig::quick())).to_string();
    assert_eq!(fnv1a(render.as_bytes()), 0x5bd80ee9b2f89958, "overhead --quick moved:\n{render}");
}

#[test]
fn ablation_both_variants_complete_and_token_scales_with_ring() {
    use ps_harness::experiments::ablation;
    let r = ablation::run(&ablation::AblationConfig::quick());
    assert_eq!(r.len(), 4, "2 group sizes x 2 variants");
    for p in &r {
        assert!(p.worst > SimTime::ZERO);
        assert!(p.worst < SimTime::from_millis(200), "{p:?}");
    }
    // The token variant's worst-member duration grows with the ring; the
    // broadcast variant's stays roughly flat.
    let token_small = r.iter().find(|p| p.variant == "token-ring" && p.group == 4).unwrap();
    let token_large = r.iter().find(|p| p.variant == "token-ring" && p.group == 10).unwrap();
    assert!(token_large.worst >= token_small.worst, "{token_large:?} vs {token_small:?}");
}
