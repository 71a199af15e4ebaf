//! CLI subcommands: `match`, `profile`, `demo`, `serve`.

use falcon::core::features::generate_features;
use falcon::crowd::interactive::InteractiveCrowd;
use falcon::prelude::*;
use falcon::table::csv;
use falcon::table::TableProfile;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
falcon — hands-off crowdsourced entity matching

USAGE:
    falcon match <a.csv> <b.csv> [OPTIONS]   run end-to-end EM over two CSV tables
    falcon plan check <a.csv> <b.csv> [OPTIONS]  pre-flight plan analysis, no execution
    falcon profile <table.csv>               show inferred attribute characteristics
    falcon demo [products|songs|citations|drugs]  run on a synthetic dataset with ground truth
    falcon serve <manifest>                  run many EM jobs on one shared node pool
    falcon help                              show this message

MATCH / PLAN CHECK OPTIONS:
    --sample <n>         sampler target |S| (default 10000)
    --budget <pairs>     enumeration guard for the baselines (default 50000000)
    --out <path>         match: write matched pairs as CSV (default: stdout
                         summary only)
    --interactive        match: you answer the crowd questions at the
                         terminal (y/n)
    --workflow <k>       match: run k iterative Matcher/Estimator rounds
                         (default 1)
    --resume <journal>   match: checkpoint crowd labels to <journal> and
                         resume a crashed run from it without re-asking
                         questions
    --nodes <n>          plan check: simulated cluster size (default 10)
    --explain            plan check: list blocking features and print the
                         rationale behind every verifier diagnostic
    --force-filter <i:t> plan check: override blocking feature i's index
                         filter with threshold/width t (repeatable); the
                         static verifier proves the override recall-safe
                         or rejects the plan

DEMO OPTIONS:
    --scale <f>          dataset scale multiplier (default laptop-sized)
    --error <p>          simulated crowd error rate in [0, 1] (default 0.05)
    --seed <n>           RNG seed (default 1)
    --fault-rate <p>     inject task failures at rate p (deterministic, seeded)
    --straggler-rate <p> make a fraction p of tasks stragglers (a speculative
                         backup finishes each at twice the task's price)
    --resume <journal>   checkpoint / resume, as in `falcon match`

SERVE OPTIONS:
    --policy <p>         fifo | fair | priority | random (default fair)
    --nodes <n>          shared pool size in nodes (default 10); each
                         tenant's stages are priced on at most its own
                         cluster's nodes
    --threads <n>        concurrent tenant drivers; virtual results are
                         identical at any setting (default 4)
    --seed <n>           scheduler seed for --policy random (default 0)
    --journal <path>     commit every scheduler decision to a service
                         journal so a crashed service can be resumed
    --resume <path>      resume a crashed service from its journal: the
                         committed schedule is replayed and verified, and
                         no crowd question is ever re-asked
    --deadline <secs>    default per-job virtual-clock deadline (a job's
                         own deadline= key takes precedence)
    --admission <p>      reject | shed | queue (queue-overflow policy)
    --max-active <n>     max concurrently active tenants (0 = unbounded)
    --max-queue <n>      max tenants waiting beyond the active set
    --queue-deadline <s> deadline stamped on overflow admissions under
                         --admission queue

    Exit status: 0 when every tenant succeeded; 3 when the service ran but
    some tenant failed (deadline / quarantined / shed / rejected — see the
    per-tenant status= lines); 1 when the service itself failed.

    The manifest lists one tenant job per line as key=value pairs
    (blank lines and '#' comments ignored):
        dataset=products scale=1.0 seed=1 error=0.05 priority=0
        dataset=songs latency=900 workflow=2 arrival=60 journal=b.journal
    Keys: dataset (required), scale, seed, error, latency (crowd secs),
    priority, arrival (secs), deadline (secs), workflow (outer rounds),
    journal, name.

Every subcommand rejects a flag it does not take, and a value flag given
no value.
";

/// Check a subcommand's `args` before reading any of them: every `--flag`
/// must be one of `values`, followed by a value, or one of `switches`
/// (each a space-separated list). An unknown or retired flag is an error
/// naming it, never silently ignored.
fn check_flags(args: &[String], values: &str, switches: &str) -> Result<(), String> {
    let listed = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") || listed(switches, arg) {
            continue;
        }
        if !listed(values, arg) {
            return Err(format!("unknown flag {arg} (see `falcon help`)"));
        }
        if rest.next().is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{arg} expects a value"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of `flag` parsed as a `T`, or `default` when `args` lacks
/// the flag; `"{flag} expects {what}"` when the value does not parse.
fn flag_num<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    what: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("{flag} expects {what}")),
        None => Ok(default),
    }
}

/// A probability — a crowd error rate, a fault or straggler rate — or
/// what the value must be.
fn checked_rate(rate: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err("a number in [0, 1]".into())
    }
}

/// A `scale` multiplier of a dataset's `default_scale` as the fraction of
/// the paper's full size datagen is asked for, or what the multiplier must
/// be. Past the full size datagen would be asked for more tuples than
/// memory holds.
fn checked_scale(scale: f64, default_scale: f64) -> Result<f64, String> {
    let full = scale * default_scale;
    if !(full.is_finite() && full > 0.0) {
        return Err("a finite positive number".into());
    }
    if full > 1.0 {
        return Err(format!(
            "at most {} (the paper's full size)",
            1.0 / default_scale
        ));
    }
    Ok(full)
}

fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn load(path: &str) -> Result<Table, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    csv::read_table(path, BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"))
}

fn print_report(report: &falcon::core::driver::RunReport) {
    println!("plan           : {:?}", report.plan);
    if let Some(op) = report.physical {
        println!("physical op    : {}", op.name());
    }
    if let Some(c) = report.candidate_size {
        println!("candidates     : {c}");
    }
    println!(
        "blocking rules : {} extracted, {} retained, {} in sequence",
        report.rules_extracted,
        report.rules_retained,
        report.rule_sequence.len()
    );
    println!("matches        : {}", report.matches.len());
    println!(
        "crowd          : {} questions / {} answers / ${:.2}",
        report.ledger.questions, report.ledger.answers, report.ledger.cost
    );
    println!(
        "time           : machine {:?}, crowd {:?}, total {:?}",
        report.machine_time(),
        report.crowd_time(),
        report.total_time()
    );
    if let Some(bs) = &report.blocking {
        println!(
            "probes         : {} examined / {} pruned by signature / {} pruned exact / {} survived",
            bs.pairs_examined(),
            bs.pruned_by_signature(),
            bs.pruned_by_exact(),
            bs.survived()
        );
        for c in &bs.conjuncts {
            println!(
                "  conjunct[{:>2}] : modes [{}], {} examined, {} sig-pruned, {} exact-pruned, {} survived",
                c.conjunct,
                c.modes.iter().map(|m| m.name()).collect::<Vec<_>>().join(", "),
                c.pairs_examined,
                c.pruned_by_signature,
                c.pruned_by_exact,
                c.survived
            );
        }
        println!(
            "  (apply-all probes conjuncts most selective first, each within the candidates \
             of those before it: there exact-pruned includes ids an earlier conjunct \
             refuted, survived is what the conjunct re-admitted)"
        );
    }
    let f = &report.faults;
    if f.attempts > 0 {
        println!(
            "faults         : {} attempts / {} retries / {} node-loss / {} speculative ({} won), {:?} lost",
            f.attempts, f.retries, f.node_loss_failures, f.speculative, f.speculative_wins, f.time_lost
        );
    }
    if let Some(e) = &report.journal_error {
        println!("journal        : FAILED mid-run ({e}); this run cannot be resumed");
    }
}

/// The run attachments the command line can name: the crash-recovery
/// journal at `--resume <path>`, opened (or created) here.
fn resume_ctl(args: &[String]) -> Result<RunCtl, String> {
    let journal = flag_value(args, "--resume")
        .map(CrowdJournal::open)
        .transpose()
        .map_err(|e| FalconError::from(e).to_string())?;
    Ok(RunCtl {
        journal,
        gate: None,
    })
}

/// `falcon match a.csv b.csv [...]`.
pub fn cmd_match(args: &[String]) -> Result<(), String> {
    let [a_path, b_path, ..] = args else {
        return Err(format!("match needs two CSV paths\n\n{USAGE}"));
    };
    let values = "--sample --budget --out --workflow --resume";
    check_flags(args, values, "--interactive")?;
    let a = load(a_path)?;
    let b = load(b_path)?;
    println!(
        "loaded {} ({} rows) and {} ({} rows)",
        a.name(),
        a.len(),
        b.name(),
        b.len()
    );

    let sample = flag_num(args, "--sample", "a number", 10_000)?;
    let budget = flag_num(args, "--budget", "a number", 50_000_000)?;
    let workflow = flag_num(args, "--workflow", "a number", 1)?;

    if !has_flag(args, "--interactive") {
        return Err(
            "without ground truth only --interactive labeling is possible; \
             pass --interactive (or use `falcon demo` for simulated crowds)"
                .into(),
        );
    }
    let config = FalconConfig {
        sample_size: sample,
        max_pairs: budget,
        al: falcon::core::ops::al_matcher::AlConfig {
            max_iterations: 8, // human sessions should stay short
            ..Default::default()
        },
        ..FalconConfig::default()
    };
    let crowd = InteractiveCrowd::new(
        a.clone(),
        b.clone(),
        BufReader::new(std::io::stdin()),
        std::io::stdout(),
    );
    let falcon = Falcon::new(config);
    // `--workflow 1` (the default) is the plain single-pass run.
    let rounds = if workflow > 1 { workflow } else { 0 };
    let report = falcon
        .try_run_with(&a, &b, crowd, rounds, resume_ctl(args)?)
        .map_err(|e| e.to_string())?;
    for (i, est) in report.estimates.iter().enumerate() {
        println!(
            "round {}: est P {:.1}% ±{:.1}, est R {:.1}% ±{:.1}",
            i + 1,
            est.precision * 100.0,
            est.precision_margin * 100.0,
            est.recall * 100.0,
            est.recall_margin * 100.0
        );
    }
    print_report(&report);

    if let Some(out_path) = flag_value(args, "--out") {
        let f = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
        let mut w = BufWriter::new(f);
        writeln!(w, "a_id,b_id").map_err(|e| e.to_string())?;
        for (aid, bid) in &report.matches {
            writeln!(w, "{aid},{bid}").map_err(|e| e.to_string())?;
        }
        println!("wrote {} matches to {out_path}", report.matches.len());
    }
    Ok(())
}

/// `falcon plan check a.csv b.csv [...]`: run the pre-flight analyzer the
/// driver uses as its execution gate, without touching the crowd.
pub fn cmd_plan(args: &[String]) -> Result<(), String> {
    let [sub, a_path, b_path, ..] = args else {
        return Err(format!(
            "plan needs a subcommand and two CSV paths\n\n{USAGE}"
        ));
    };
    if sub != "check" {
        return Err(format!(
            "unknown plan subcommand {sub:?} (expected `check`)\n\n{USAGE}"
        ));
    }
    let values = "--sample --budget --nodes --force-filter";
    check_flags(args, values, "--explain")?;
    let a = load(a_path)?;
    let b = load(b_path)?;

    let mut config = FalconConfig {
        sample_size: flag_num(args, "--sample", "a number", 10_000)?,
        max_pairs: flag_num(args, "--budget", "a number", 50_000_000)?,
        ..FalconConfig::default()
    };
    config.cluster.nodes = flag_num(args, "--nodes", "a number", config.cluster.nodes)?;
    let explain = has_flag(args, "--explain");

    let blocking = generate_features(&a, &b).blocking;
    config.force_filters = force_filters(args, &blocking)?;

    let analysis = falcon::core::analyze(&a, &b, &config);
    println!(
        "tables         : {} ({} rows) x {} ({} rows) = {} pairs",
        a.name(),
        a.len(),
        b.name(),
        b.len(),
        analysis.pairs
    );
    println!("plan           : {:?}", analysis.plan);
    if explain {
        if let Some(op) = config.force_physical {
            println!("physical op    : {} — {}", op.name(), op.describe());
        }
        println!(
            "features       : {} blocking / {} matching",
            analysis.blocking_features, analysis.matching_features
        );
        for (i, f) in blocking.features.iter().enumerate() {
            println!("  blocking[{i:>2}] : {}", f.name);
        }
    } else {
        println!(
            "features       : {} blocking / {} matching",
            analysis.blocking_features, analysis.matching_features
        );
    }
    for d in &analysis.diagnostics {
        println!("{d}");
        if explain {
            println!("  explain      : {}", d.explain());
        }
    }
    if analysis.is_ok() {
        println!(
            "plan check     : ok ({} warning(s))",
            analysis.warnings().count()
        );
        Ok(())
    } else {
        Err(format!(
            "plan check failed with {} error(s)",
            analysis.errors().count()
        ))
    }
}

/// Every `--force-filter IDX:THRESHOLD` (repeatable) in `args`: override
/// the index filter of blocking feature IDX. Deliberately constructed
/// without domain guards so recall-unsafe values are *rejected by the
/// verifier*, with a diagnostic, rather than silently dropped.
fn force_filters(
    args: &[String],
    blocking: &falcon::core::FeatureSet,
) -> Result<Vec<falcon::core::ForcedFilter>, String> {
    let mut filters = Vec::new();
    let mut i = 0;
    while let Some(pos) = args[i..].iter().position(|s| s == "--force-filter") {
        let at = i + pos;
        let value = args
            .get(at + 1)
            .ok_or("--force-filter expects IDX:THRESHOLD")?;
        let (idx, threshold) = value
            .split_once(':')
            .ok_or("--force-filter expects IDX:THRESHOLD")?;
        let idx: usize = idx
            .parse()
            .map_err(|_| "--force-filter IDX must be a feature index")?;
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| "--force-filter THRESHOLD must be a number")?;
        let ff =
            falcon::core::ForcedFilter::for_feature(blocking, idx, threshold).ok_or_else(|| {
                format!(
                    "--force-filter references feature {idx} but only {} blocking features exist",
                    blocking.len()
                )
            })?;
        filters.push(ff);
        i = at + 2;
    }
    Ok(filters)
}

/// `falcon profile table.csv`: the Section 8 attribute analysis.
pub fn cmd_profile(args: &[String]) -> Result<(), String> {
    let [path, ..] = args else {
        return Err(format!("profile needs a CSV path\n\n{USAGE}"));
    };
    check_flags(args, "", "")?;
    let t = load(path)?;
    let p = TableProfile::scan(&t);
    println!(
        "{path}: {} rows, {} attributes",
        t.len(),
        t.schema().arity()
    );
    println!(
        "{:<20} {:>8} {:>18} {:>7} {:>10}",
        "attribute", "type", "characteristic", "fill%", "avg words"
    );
    for attr in &p.attrs {
        println!(
            "{:<20} {:>8} {:>18} {:>6.1} {:>10.2}",
            attr.name,
            format!("{:?}", attr.ty),
            format!("{:?}", attr.characteristic),
            attr.fill_rate * 100.0,
            attr.avg_words
        );
    }
    // Preview what feature generation would produce against itself.
    let lib = generate_features(&t, &t);
    println!(
        "\nfeature generation (vs an identically-shaped table): {} blocking / {} matching",
        lib.blocking.len(),
        lib.matching.len()
    );
    Ok(())
}

/// `falcon demo`'s arguments with every value checked and nothing
/// generated yet.
#[derive(Debug)]
struct DemoArgs {
    dataset: String,
    /// Fraction of the paper's full size: `--scale` times the dataset's
    /// default scale.
    scale: f64,
    error: f64,
    seed: u64,
    fault_rate: f64,
    straggler_rate: f64,
}

/// Parse and validate `falcon demo`'s arguments: an error naming the flag
/// for any value datagen, the crowd or the fault plan could not honour,
/// before any of them runs.
fn parse_demo_args(args: &[String]) -> Result<DemoArgs, String> {
    let values = "--scale --error --seed --fault-rate --straggler-rate --resume";
    check_flags(args, values, "")?;
    let dataset = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map_or("products", String::as_str);
    let default_scale = falcon::datagen::default_scale(dataset)
        .ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let scale = flag_num(args, "--scale", "a number", 1.0)?;
    let rate = |flag: &str, default: f64| {
        let rate = flag_num(args, flag, "a number", default)?;
        checked_rate(rate).map_err(|what| format!("{flag} expects {what}"))
    };
    Ok(DemoArgs {
        scale: checked_scale(scale, default_scale)
            .map_err(|what| format!("--scale expects {what}"))?,
        error: rate("--error", 0.05)?,
        seed: flag_num(args, "--seed", "a number", 1)?,
        fault_rate: rate("--fault-rate", 0.0)?,
        straggler_rate: rate("--straggler-rate", 0.0)?,
        dataset: dataset.to_string(),
    })
}

/// `falcon demo [dataset]`: simulated end-to-end run with quality report.
pub fn cmd_demo(args: &[String]) -> Result<(), String> {
    let DemoArgs {
        dataset,
        scale,
        error,
        seed,
        fault_rate,
        straggler_rate,
    } = parse_demo_args(args)?;
    let d = falcon::datagen::generate(&dataset, scale, seed);
    println!(
        "demo {dataset}: {} x {} tuples, {} true matches, crowd error {:.0}%",
        d.a.len(),
        d.b.len(),
        d.truth.len(),
        error * 100.0
    );
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, error, seed);
    let fault = (fault_rate > 0.0 || straggler_rate > 0.0).then(|| {
        FaultPlan::seeded(seed)
            .with_failure_rate(fault_rate)
            .with_straggler_rate(straggler_rate)
    });
    let config = FalconConfig {
        sample_size: 8_000,
        sample_fanout: 20,
        fault,
        ..FalconConfig::default()
    };
    let falcon = Falcon::new(config);
    let report = falcon
        .try_run_with(&d.a, &d.b, crowd, 0, resume_ctl(args)?)
        .map_err(|e| e.to_string())?;
    print_report(&report);
    let q = report.quality(&d.truth);
    println!(
        "quality        : P {:.1}%  R {:.1}%  F1 {:.1}%",
        q.precision * 100.0,
        q.recall * 100.0,
        q.f1 * 100.0
    );
    Ok(())
}

/// One manifest line for `falcon serve` with every value checked and
/// nothing generated yet.
#[derive(Debug, Clone, PartialEq)]
struct ManifestLine {
    dataset: String,
    name: String,
    /// Fraction of the paper's full size: `scale=` times the dataset's
    /// default scale.
    scale: f64,
    seed: u64,
    error: f64,
    latency: Option<Duration>,
    priority: i32,
    arrival: Duration,
    deadline: Option<Duration>,
    workflow: usize,
    journal: Option<String>,
}

/// Longest time `falcon serve` takes as an argument (about 32 years): the
/// crowd ledger and the scheduler's clocks add up many such times, and
/// the sums must still fit a `Duration` and `u64` nanoseconds.
const MAX_SECS: Duration = Duration::from_secs(1_000_000_000);

/// A number of seconds as a `Duration`, negative clamped to zero; `None`
/// when `value` is not a number or is past [`MAX_SECS`] (infinite
/// included).
fn parse_secs(value: &str) -> Option<Duration> {
    let secs: f64 = value.parse().ok()?;
    Duration::try_from_secs_f64(secs.max(0.0))
        .ok()
        .filter(|d| *d <= MAX_SECS)
}

/// Parse and validate one manifest line (`idx` is its 0-based line
/// number): a typed, line-numbered error for any value datagen or the
/// scheduler could not honour, before either runs.
fn parse_manifest_fields(line: &str, idx: usize) -> Result<ManifestLine, String> {
    let mut dataset = None;
    let mut name = None;
    let mut scale = 1.0f64;
    let mut seed = 1u64;
    let mut error = 0.05f64;
    let mut latency = None;
    let mut priority = 0i32;
    let mut arrival = Duration::ZERO;
    let mut deadline = None;
    let mut workflow = 0usize;
    let mut journal: Option<String> = None;
    for field in line.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key=value, got {field:?}", idx + 1))?;
        let bad = |what: &str| format!("line {}: {key}= expects {what}", idx + 1);
        let secs = || parse_secs(value).ok_or_else(|| bad("seconds (at most 1e9)"));
        match key {
            "dataset" => dataset = Some(value.to_string()),
            "name" => name = Some(value.to_string()),
            "scale" => scale = value.parse().map_err(|_| bad("a number"))?,
            "seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "error" => {
                let rate = value.parse().map_err(|_| bad("a number"))?;
                error = checked_rate(rate).map_err(|what| bad(&what))?;
            }
            "latency" => latency = Some(secs()?),
            "priority" => priority = value.parse().map_err(|_| bad("an integer"))?,
            "arrival" => arrival = secs()?,
            "deadline" => deadline = Some(secs()?),
            "workflow" => workflow = value.parse().map_err(|_| bad("an integer"))?,
            "journal" => journal = Some(value.to_string()),
            other => return Err(format!("line {}: unknown key {other:?}", idx + 1)),
        }
    }
    let dataset = dataset.ok_or_else(|| format!("line {}: missing dataset=", idx + 1))?;
    let default_scale = falcon::datagen::default_scale(&dataset)
        .ok_or_else(|| format!("line {}: unknown dataset {dataset:?}", idx + 1))?;
    let scale = checked_scale(scale, default_scale)
        .map_err(|what| format!("line {}: scale= expects {what}", idx + 1))?;
    Ok(ManifestLine {
        name: name.unwrap_or_else(|| format!("{dataset}-{}", idx + 1)),
        dataset,
        scale,
        seed,
        error,
        latency,
        priority,
        arrival,
        deadline,
        workflow,
        journal,
    })
}

/// One manifest line for `falcon serve` as a job: validated, then its
/// dataset generated.
fn parse_manifest_line(line: &str, idx: usize) -> Result<JobSpec, String> {
    let m = parse_manifest_fields(line, idx)?;
    let d = falcon::datagen::generate(&m.dataset, m.scale, m.seed);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let mut crowd = RandomWorkerCrowd::new(truth, m.error, m.seed);
    if let Some(latency) = m.latency {
        crowd = crowd.with_latency(latency);
    }
    let config = FalconConfig {
        sample_size: 2_000,
        sample_fanout: 20,
        seed: m.seed,
        ..FalconConfig::default()
    };
    let mut spec = JobSpec::new(m.name, d.a, d.b, config, std::sync::Arc::new(crowd))
        .with_priority(m.priority)
        .with_arrival(m.arrival);
    if m.workflow > 0 {
        spec = spec.with_workflow(m.workflow);
    }
    if let Some(p) = m.journal {
        spec = spec.with_journal(p);
    }
    if let Some(deadline) = m.deadline {
        spec = spec.with_deadline(deadline);
    }
    Ok(spec)
}

/// Run `falcon serve`. `Ok(code)` means the service ran: exit 0 when
/// every tenant succeeded, exit 3 when some tenant failed (partial
/// result). `Err` means the service itself failed (exit 1 in `main`).
pub fn cmd_serve(args: &[String]) -> Result<std::process::ExitCode, String> {
    let values = "--policy --nodes --threads --seed --journal --resume --deadline \
                  --admission --max-active --max-queue --queue-deadline";
    check_flags(args, values, "")?;
    let manifest_path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: falcon serve <manifest> [OPTIONS]")?;
    let text =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("read {manifest_path}: {e}"))?;
    let mut jobs: Vec<JobSpec> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .map(|(i, l)| parse_manifest_line(l, i))
        .collect::<Result<_, _>>()?;
    if jobs.is_empty() {
        return Err(format!("{manifest_path}: no jobs in manifest"));
    }

    let policy = match flag_value(args, "--policy") {
        Some(p) => Policy::parse(p).ok_or_else(|| format!("unknown policy {p:?}"))?,
        None => Policy::FairShare,
    };
    let admission = falcon::serve::AdmissionConfig {
        policy: match flag_value(args, "--admission") {
            Some(p) => falcon::serve::AdmissionPolicy::parse(p)
                .ok_or_else(|| format!("unknown admission policy {p:?}"))?,
            None => falcon::serve::AdmissionPolicy::Reject,
        },
        max_active: flag_num(args, "--max-active", "an integer", 0)?,
        max_queue: flag_num(args, "--max-queue", "an integer", 0)?,
        queue_deadline: flag_value(args, "--queue-deadline")
            .map(|v| parse_secs(v).ok_or("--queue-deadline expects seconds (at most 1e9)"))
            .transpose()?,
        quota: falcon::serve::TenantQuota::default(),
    };
    // --resume implies --journal at the same path; the committed schedule
    // is replayed and verified before any new decision is made.
    let resume_path = flag_value(args, "--resume");
    let journal = resume_path
        .or(flag_value(args, "--journal"))
        .map(std::path::PathBuf::from);
    let cfg = ServeConfig {
        pool_nodes: flag_num(args, "--nodes", "an integer", 10)?,
        threads: flag_num(args, "--threads", "an integer", 4)?,
        seed: flag_num(args, "--seed", "an integer", 0)?,
        policy,
        admission,
        journal,
        ..ServeConfig::default()
    };
    if let Some(secs) = flag_value(args, "--deadline") {
        let d = parse_secs(secs).ok_or("--deadline expects seconds (at most 1e9)")?;
        for job in jobs.iter_mut() {
            if job.deadline.is_none() {
                job.deadline = Some(d);
            }
        }
    }

    println!(
        "serving {} jobs on {} nodes ({:?}, {} driver threads{})",
        jobs.len(),
        cfg.pool_nodes,
        cfg.policy,
        cfg.threads,
        if resume_path.is_some() {
            ", resuming from journal"
        } else {
            ""
        }
    );
    let rep = if resume_path.is_some() {
        falcon::serve::resume(jobs, &cfg)
    } else {
        falcon::serve::serve(jobs, &cfg)
    }
    .map_err(|e| e.to_string())?;
    let mut failed = 0usize;
    for o in &rep.outcomes {
        let status = o.status.as_str();
        match &o.result {
            Ok(r) => println!(
                "tenant {:<16} status={status:<11} prio {:>3}  latency {:>12}  \
                 service {:>12}  matches {:>6}  ${:.2}",
                o.name,
                o.priority,
                fmt_short(o.latency),
                fmt_short(o.machine_service),
                r.matches.len(),
                r.ledger.cost
            ),
            Err(e) => {
                failed += 1;
                let detail = o
                    .service_error
                    .as_ref()
                    .map_or_else(|| e.to_string(), |se| se.to_string());
                println!("tenant {:<16} status={status:<11} {detail}", o.name);
            }
        }
    }
    if rep.replayed_rounds > 0 {
        println!(
            "resumed: {} of {} rounds replayed from the journal",
            rep.replayed_rounds, rep.rounds
        );
    }
    println!(
        "aggregate: makespan {} (serial {}), speedup {:.2}x, \
         utilization {:.1}% (serial {:.1}%), p50 {} p99 {}, {} rounds",
        fmt_short(rep.makespan),
        fmt_short(rep.serial_makespan),
        rep.throughput_speedup(),
        rep.utilization * 100.0,
        rep.serial_utilization * 100.0,
        fmt_short(rep.latency_percentile(50.0)),
        fmt_short(rep.latency_percentile(99.0)),
        rep.rounds
    );
    if failed > 0 {
        eprintln!(
            "{failed} of {} tenants failed; exiting 3 (partial result)",
            rep.outcomes.len()
        );
        return Ok(std::process::ExitCode::from(3));
    }
    Ok(std::process::ExitCode::SUCCESS)
}

/// Render a duration compactly (`2h07m`, `31m52s`, `4.2s`).
fn fmt_short(d: std::time::Duration) -> String {
    let s = d.as_secs();
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{:.1}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["a.csv", "b.csv", "--sample", "500", "--interactive"]);
        assert_eq!(flag_value(&args, "--sample"), Some("500"));
        assert_eq!(flag_value(&args, "--out"), None);
        assert!(has_flag(&args, "--interactive"));
        assert!(!has_flag(&args, "--workflow"));
    }

    #[test]
    fn match_requires_two_paths() {
        assert!(cmd_match(&s(&["only_one.csv"])).is_err());
    }

    #[test]
    fn match_requires_interactive_or_demo() {
        // Write two tiny CSVs.
        let dir = std::env::temp_dir();
        let pa = dir.join("falcon_cli_test_a.csv");
        let pb = dir.join("falcon_cli_test_b.csv");
        std::fs::write(&pa, "name\nx\n").unwrap();
        std::fs::write(&pb, "name\nx\n").unwrap();
        let err = cmd_match(&s(&[pa.to_str().unwrap(), pb.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("--interactive"), "{err}");
    }

    #[test]
    fn manifest_line_parses_all_keys() {
        let spec = parse_manifest_line(
            "dataset=products scale=0.2 seed=3 error=0.1 latency=120 \
             priority=2 arrival=30 workflow=2 journal=/tmp/x.journal name=acme",
            0,
        )
        .unwrap();
        assert_eq!(spec.name, "acme");
        assert_eq!(spec.priority, 2);
        assert_eq!(spec.arrival, std::time::Duration::from_secs(30));
        assert_eq!(spec.workflow_rounds, 2);
        assert!(spec.journal.is_some());
    }

    #[test]
    fn manifest_line_rejects_garbage() {
        assert!(parse_manifest_line("scale=1.0", 0)
            .unwrap_err()
            .contains("missing dataset"));
        assert!(parse_manifest_line("dataset=products nope", 4)
            .unwrap_err()
            .contains("line 5"));
        assert!(parse_manifest_line("dataset=products bogus=1", 0)
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse_manifest_line("dataset=nothere", 0)
            .unwrap_err()
            .contains("unknown dataset"));
    }

    #[test]
    fn seconds_clamp_below_and_are_bounded_above() {
        assert_eq!(parse_secs("-1"), Some(Duration::ZERO));
        assert_eq!(parse_secs("1.5"), Some(Duration::from_millis(1500)));
        assert_eq!(parse_secs("1e9"), Some(MAX_SECS));
        for v in ["inf", "-", "1e10", "2e19", "ten"] {
            assert_eq!(parse_secs(v), None, "{v}");
        }
    }

    /// The `bad(..)` error of `line`, parsed as line 3.
    fn rejection(line: &str) -> String {
        parse_manifest_fields(line, 2).unwrap_err()
    }

    #[test]
    fn manifest_rejects_a_latency_no_duration_holds() {
        for v in ["inf", "1e20", "1.85e19", "1.8e19", "1000000001"] {
            let err = rejection(&format!("dataset=products latency={v}"));
            assert!(
                err.starts_with("line 3: latency= expects seconds"),
                "{v}: {err}"
            );
        }
        let ok = parse_manifest_fields("dataset=products latency=-5", 0).unwrap();
        assert_eq!(ok.latency, Some(Duration::ZERO));
    }

    #[test]
    fn manifest_rejects_an_arrival_no_duration_holds() {
        for v in ["inf", "+inf", "1.85e19", "2e9"] {
            let err = rejection(&format!("dataset=songs arrival={v}"));
            assert!(
                err.starts_with("line 3: arrival= expects seconds"),
                "{v}: {err}"
            );
        }
        let ok = parse_manifest_fields("dataset=songs arrival=1e9", 0).unwrap();
        assert_eq!(ok.arrival, MAX_SECS);
    }

    #[test]
    fn manifest_rejects_a_deadline_no_duration_holds() {
        for v in ["inf", "1e300", "x", ""] {
            let err = rejection(&format!("dataset=citations deadline={v}"));
            assert!(
                err.starts_with("line 3: deadline= expects seconds"),
                "{v}: {err}"
            );
        }
    }

    #[test]
    fn manifest_rejects_a_scale_datagen_cannot_honour() {
        for v in ["inf", "-inf", "NaN", "0", "-1", "1e300"] {
            let err = rejection(&format!("dataset=products scale={v}"));
            assert!(err.starts_with("line 3: scale= expects"), "{v}: {err}");
        }
        // 20 × products' default 0.05 is the paper's full size.
        assert_eq!(
            parse_manifest_fields("dataset=products scale=20", 0)
                .unwrap()
                .scale,
            1.0
        );
        assert!(rejection("scale=20.5 dataset=products").contains("at most 20"));
    }

    #[test]
    fn manifest_rejects_a_crowd_error_rate_outside_the_unit_interval() {
        for v in ["-1", "2", "NaN", "inf", "-inf", "1e300"] {
            let err = rejection(&format!("dataset=products scale=0.01 error={v}"));
            assert_eq!(err, "line 3: error= expects a number in [0, 1]", "{v}");
        }
        for v in ["0", "0.5", "1"] {
            let line = format!("dataset=products error={v}");
            assert!(parse_manifest_fields(&line, 0).is_ok(), "{v}");
        }
    }

    #[test]
    fn demo_rejects_values_datagen_or_the_crowd_cannot_honour() {
        let err = |args: &[&str]| parse_demo_args(&s(args)).unwrap_err();
        for v in ["-1", "0", "NaN", "inf", "-inf", "1e300"] {
            assert!(
                err(&["products", "--scale", v]).starts_with("--scale expects"),
                "{v}"
            );
        }
        assert!(err(&["products", "--scale", "20.5"]).contains("at most 20"));
        for flag in ["--error", "--fault-rate", "--straggler-rate"] {
            for v in ["2", "-1", "NaN", "inf", "-inf", "1e300"] {
                assert_eq!(
                    err(&["products", flag, v]),
                    format!("{flag} expects a number in [0, 1]"),
                    "{v}"
                );
            }
        }
        let demo = parse_demo_args(&s(&["songs", "--error", "1", "--seed", "7"])).unwrap();
        assert_eq!(
            (demo.dataset.as_str(), demo.error, demo.seed),
            ("songs", 1.0, 7)
        );
        assert_eq!(demo.scale, falcon::datagen::default_scale("songs").unwrap());
    }

    fn manifest_token() -> impl Strategy<Value = String> {
        const KEYS: [&str; 11] = [
            "dataset", "name", "scale", "seed", "error", "latency", "priority", "arrival",
            "deadline", "workflow", "journal",
        ];
        const VALUES: [&str; 7] = [
            "products",
            "songs",
            "inf",
            "-inf",
            "NaN",
            "1.8e19",
            "18446744073709551616",
        ];
        let key = prop_oneof![
            (0..KEYS.len()).prop_map(|i| KEYS[i].to_string()),
            "[a-z]{1,8}",
        ];
        let value = prop_oneof![
            (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
            any::<f64>().prop_map(|x| x.to_string()),
            any::<i64>().prop_map(|x| x.to_string()),
            "[ -~]{0,12}",
        ];
        prop_oneof![
            (key, value).prop_map(|(k, v)| format!("{k}={v}")),
            "[ -~]{0,12}",
        ]
    }

    proptest! {
        /// No manifest line makes the parser panic: every one parses or
        /// gets a line-numbered error.
        #[test]
        fn manifest_parser_never_panics(
            tokens in proptest::collection::vec(manifest_token(), 0..8),
            idx in 0usize..1000,
        ) {
            match parse_manifest_fields(&tokens.join(" "), idx) {
                Ok(m) => prop_assert!(m.scale.is_finite() && m.scale > 0.0 && m.scale <= 1.0),
                Err(e) => prop_assert!(e.starts_with(&format!("line {}:", idx + 1)), "{}", e),
            }
        }
    }

    /// Hostile `--force-filter` values and policy names: numbers no
    /// threshold can hold, empty parts, extra colons, and arbitrary bytes.
    fn hostile_word() -> impl Strategy<Value = String> {
        const WORDS: [&str; 14] = [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "1e308",
            "1e309",
            "-0",
            "0",
            "1",
            "",
            "18446744073709551616",
            "fair",
            "shed",
            "queue-with-deadline",
        ];
        prop_oneof![
            (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            any::<f64>().prop_map(|x| x.to_string()),
            any::<i64>().prop_map(|x| x.to_string()),
            "[ -~]{0,10}",
        ]
    }

    fn hostile_spec() -> impl Strategy<Value = String> {
        prop_oneof![
            proptest::collection::vec(hostile_word(), 0..4).prop_map(|parts| parts.join(":")),
            hostile_word(),
        ]
    }

    /// Two blocking features: a set measure and an edit measure.
    fn two_features() -> falcon::core::FeatureSet {
        use falcon::textsim::{SimFunction, Tokenizer};
        let feature = |sim: SimFunction| falcon::core::Feature {
            name: sim.name(),
            a_attr: "title".into(),
            b_attr: "title".into(),
            sim,
            a_idx: 0,
            b_idx: 0,
        };
        falcon::core::FeatureSet {
            features: vec![
                feature(SimFunction::Jaccard(Tokenizer::Word)),
                feature(SimFunction::Levenshtein),
            ],
        }
    }

    proptest! {
        /// No `--force-filter` list, flag name, policy name or admission
        /// name makes its parser panic: each gives a typed error or a
        /// value, and a parsed filter names an existing feature, one per
        /// flag. The flag check passes only when every `--` argument is a
        /// known flag and a value follows `--force-filter`; its errors
        /// name the offending flag.
        #[test]
        fn hostile_flags_never_panic(
            specs in proptest::collection::vec(hostile_spec(), 0..4),
            trailing in any::<bool>(),
            name in hostile_word(),
            flags in proptest::collection::vec(hostile_word(), 0..3),
        ) {
            let blocking = two_features();
            let mut args = s(&["a.csv", "b.csv"]);
            for spec in &specs {
                args.push("--force-filter".into());
                args.push(spec.clone());
            }
            if trailing {
                args.push("--force-filter".into());
            }
            match force_filters(&args, &blocking) {
                Ok(filters) => {
                    prop_assert!(!trailing);
                    prop_assert_eq!(filters.len(), specs.len());
                    prop_assert!(filters.iter().all(|f| f.feature < blocking.len()));
                }
                Err(e) => prop_assert!(e.starts_with("--force-filter"), "{}", e),
            }
            let mut flagged = args.clone();
            flagged.extend(flags.iter().map(|f| format!("--{f}")));
            let known = |a: &String| a == "--force-filter" || a == "--explain";
            match check_flags(&flagged, "--force-filter", "--explain") {
                Ok(()) => {
                    prop_assert!(flagged.iter().filter(|a| a.starts_with("--")).all(known));
                    prop_assert!(flagged.last().is_none_or(|a| a != "--force-filter"));
                }
                Err(e) => prop_assert!(
                    flagged.iter().any(|a| a.starts_with("--") && e.starts_with(a.as_str())
                        || e.starts_with(&format!("unknown flag {a} "))),
                    "{}", e
                ),
            }
            let _ = Policy::parse(&name);
            if let Some(p) = falcon::serve::AdmissionPolicy::parse(&name) {
                prop_assert_eq!(falcon::serve::AdmissionPolicy::parse(p.name()), Some(p));
            }
        }
    }

    /// Values no `falcon demo` flag can hold, and a few it can.
    fn demo_value() -> impl Strategy<Value = String> {
        const VALUES: [&str; 12] = [
            "NaN", "inf", "-inf", "-1", "1e300", "-0", "0", "0.5", "1", "2", "20", "",
        ];
        prop_oneof![
            (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
            any::<f64>().prop_map(|x| x.to_string()),
            any::<i64>().prop_map(|x| x.to_string()),
            "[ -~]{0,10}",
        ]
    }

    proptest! {
        /// No value of a `falcon demo` flag makes its parser panic: each
        /// argument list gives an error naming a flag or the dataset, or a
        /// config datagen, the crowd and the fault plan accept. Nothing is
        /// generated.
        #[test]
        fn hostile_demo_flags_never_panic(
            dataset in prop_oneof![Just("products"), Just("songs"), Just("drugs"), Just("nope")],
            values in proptest::collection::vec((0usize..5, demo_value()), 0..6),
        ) {
            const FLAGS: [&str; 5] =
                ["--scale", "--error", "--seed", "--fault-rate", "--straggler-rate"];
            let mut args = s(&[dataset]);
            for (flag, value) in &values {
                args.push(FLAGS[*flag].to_string());
                args.push(value.clone());
            }
            match parse_demo_args(&args) {
                Ok(d) => {
                    prop_assert!(d.scale.is_finite() && d.scale > 0.0 && d.scale <= 1.0);
                    for rate in [d.error, d.fault_rate, d.straggler_rate] {
                        prop_assert!((0.0..=1.0).contains(&rate), "{}", rate);
                    }
                }
                Err(e) => prop_assert!(
                    e.starts_with("--") || e.starts_with("unknown "),
                    "{}", e
                ),
            }
        }
    }

    #[test]
    fn force_filter_values_parse_or_name_their_part() {
        let blocking = two_features();
        let parse = |v: &str| force_filters(&s(&["--force-filter", v]), &blocking);
        for ok in ["0:0.5", "1:NaN", "0:inf", "1:1e308", "0:-0"] {
            assert_eq!(parse(ok).map(|f| f.len()), Ok(1), "{ok}");
        }
        for (bad, part) in [
            ("", "expects IDX:THRESHOLD"),
            ("0", "expects IDX:THRESHOLD"),
            (":0.5", "IDX must be"),
            ("-1:0.5", "IDX must be"),
            ("0:", "THRESHOLD must be"),
            ("0:0.5:1", "THRESHOLD must be"),
            ("2:0.5", "only 2 blocking features"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(part), "{bad:?}: {err}");
        }
    }

    #[test]
    fn serve_runs_a_tiny_manifest() {
        let dir = std::env::temp_dir();
        let p = dir.join("falcon_cli_serve.manifest");
        std::fs::write(
            &p,
            "# two small tenants\n\
             dataset=products scale=0.3 seed=1\n\
             dataset=products scale=0.3 seed=2 priority=1\n",
        )
        .unwrap();
        assert!(cmd_serve(&s(&[p.to_str().unwrap(), "--threads", "2"])).is_ok());
    }

    #[test]
    fn serve_requires_manifest() {
        assert!(cmd_serve(&s(&["--policy", "fair"])).is_err());
        assert!(cmd_serve(&s(&["/nonexistent/jobs.manifest"])).is_err());
    }

    #[test]
    fn profile_runs_on_csv() {
        let dir = std::env::temp_dir();
        let p = dir.join("falcon_cli_profile.csv");
        std::fs::write(
            &p,
            "title,price\nlong gadget name here,10\nanother item,25\n",
        )
        .unwrap();
        assert!(cmd_profile(&s(&[p.to_str().unwrap()])).is_ok());
    }

    #[test]
    fn demo_rejects_unknown_dataset() {
        assert!(cmd_demo(&s(&["nope"])).is_err());
    }

    fn plan_fixture(tag: &str) -> (String, String) {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("falcon_cli_plan_a_{tag}.csv"));
        let pb = dir.join(format!("falcon_cli_plan_b_{tag}.csv"));
        let mut rows = String::from("title,price\n");
        for i in 0..40 {
            rows.push_str(&format!("useful gadget number {i},{i}\n"));
        }
        std::fs::write(&pa, &rows).unwrap();
        std::fs::write(&pb, &rows).unwrap();
        (pa.to_str().unwrap().into(), pb.to_str().unwrap().into())
    }

    #[test]
    fn plan_check_accepts_well_formed_input() {
        let (pa, pb) = plan_fixture("ok");
        assert!(cmd_plan(&s(&["check", &pa, &pb])).is_ok());
    }

    #[test]
    fn plan_check_rejects_zero_cluster() {
        let (pa, pb) = plan_fixture("cluster");
        let err = cmd_plan(&s(&["check", &pa, &pb, "--nodes", "0"])).unwrap_err();
        assert!(err.contains("plan check failed"), "{err}");
    }

    #[test]
    fn plan_check_requires_the_check_subcommand() {
        assert!(cmd_plan(&s(&["frobnicate", "a.csv", "b.csv"])).is_err());
    }

    #[test]
    fn plan_check_rejects_a_recall_unsafe_forced_filter() {
        let (pa, pb) = plan_fixture("unsafe_filter");
        // Threshold 0 on any similarity filter violates ThresholdPositive.
        let err = cmd_plan(&s(&[
            "check",
            &pa,
            &pb,
            "--explain",
            "--force-filter",
            "0:0",
        ]))
        .unwrap_err();
        assert!(err.contains("plan check failed"), "{err}");
    }

    #[test]
    fn plan_check_accepts_a_safe_forced_filter_with_explain() {
        let (pa, pb) = plan_fixture("safe_filter");
        assert!(cmd_plan(&s(&[
            "check",
            &pa,
            &pb,
            "--explain",
            "--force-filter",
            "0:0.2",
        ]))
        .is_ok());
    }

    #[test]
    fn plan_check_force_filter_validates_its_syntax() {
        let (pa, pb) = plan_fixture("filter_syntax");
        let err = cmd_plan(&s(&["check", &pa, &pb, "--force-filter", "nope"])).unwrap_err();
        assert!(err.contains("IDX:THRESHOLD"), "{err}");
        let err = cmd_plan(&s(&["check", &pa, &pb, "--force-filter", "999:0.5"])).unwrap_err();
        assert!(err.contains("blocking features exist"), "{err}");
    }
}
