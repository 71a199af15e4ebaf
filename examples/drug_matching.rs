//! The in-house deployment scenario of Section 11.1: matching drug
//! descriptions with a "crowd" of one domain expert (sensitive data, no
//! public crowdsourcing allowed).
//!
//! With an expert crowd, labeling latency collapses (~12 s per round
//! instead of 1.5 min), so *machine* time becomes a large share of total
//! time — the regime where Falcon's masking optimizations matter most.
//! The example runs the same workload with optimizations off and on and
//! reports the reduction (the paper observed 49%).
//!
//! ```sh
//! cargo run --release -p falcon --example drug_matching
//! ```

use falcon::prelude::*;

/// The dedicated drugs generator: two hospital systems' medication
/// tables with cross-system format drift (full salt names vs
/// abbreviations, spaced vs fused doses).
fn drug_tables(scale: f64) -> EmDataset {
    falcon::datagen::drugs::generate(scale, 77)
}

fn run(opt: OptFlags, data: &EmDataset) -> Result<RunReport, FalconError> {
    let truth = GroundTruth::new(data.truth.iter().copied());
    let expert = ExpertCrowd::new(truth, 5);
    let config = FalconConfig {
        sample_size: 15_000,
        opt,
        ..FalconConfig::default()
    };
    Falcon::new(config).try_run(&data.a, &data.b, expert)
}

fn main() -> Result<(), FalconError> {
    let data = drug_tables(0.008);
    println!(
        "Drug matching: {} x {} descriptions, {} true matches, expert crowd of 1",
        data.a.len(),
        data.b.len(),
        data.truth.len()
    );

    let unopt = run(OptFlags::none(), &data)?;
    let opt = run(OptFlags::default(), &data)?;

    let uq = unopt.quality(&data.truth);
    let oq = opt.quality(&data.truth);
    println!("\n== Unoptimized ==");
    println!(
        "P {:.1}% R {:.1}% F1 {:.1}% | machine {:?} crowd {:?} total {:?}",
        uq.precision * 100.0,
        uq.recall * 100.0,
        uq.f1 * 100.0,
        unopt.machine_time(),
        unopt.crowd_time(),
        unopt.total_time()
    );
    println!("== Optimized (masking on) ==");
    println!(
        "P {:.1}% R {:.1}% F1 {:.1}% | machine {:?} (unmasked {:?}) crowd {:?} total {:?}",
        oq.precision * 100.0,
        oq.recall * 100.0,
        oq.f1 * 100.0,
        opt.machine_time(),
        opt.unmasked_machine_time(),
        opt.crowd_time(),
        opt.total_time()
    );

    let u = unopt.unmasked_machine_time().as_secs_f64();
    let o = opt.unmasked_machine_time().as_secs_f64();
    if u > 0.0 {
        println!(
            "\nMasking reduced critical-path machine time by {:.0}% (paper: 49% on its drug deployment)",
            (1.0 - o / u) * 100.0
        );
    }
    println!(
        "Expert labeled {} pairs at $0 crowd cost.",
        opt.ledger.questions
    );
    Ok(())
}
