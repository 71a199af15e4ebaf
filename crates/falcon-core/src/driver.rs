//! The end-to-end Falcon driver: plan generation, execution and
//! optimization over two input tables and a crowd.

use crate::analyze;
use crate::error::FalconError;
use crate::features::{generate_features, FeatureLibrary, FeatureSet};
use crate::indexing::{BuiltIndexes, ConjunctSpecs};
use crate::metrics::em_quality;
use crate::ops::accuracy_estimator::{estimate_accuracy, AccuracyEstimate};
use crate::ops::al_matcher::{al_matcher, AlConfig, BATCH};
use crate::ops::apply_matcher::apply_matcher;
use crate::ops::difficult_pairs::locate_difficult_pairs;
use crate::ops::eval_rules::{eval_rules, EvaluatedRule};
use crate::ops::gen_fvs::gen_fvs_in;
use crate::ops::get_blocking_rules::{get_blocking_rules, TOP_K_RULES};
use crate::ops::sample_pairs::{sample_pairs_in, word_columns};
use crate::ops::select_opt_seq::select_opt_seq;
use crate::optimizer::{prebuild_for_rules, prebuild_generic, speculate_rules, OptFlags};
use crate::physical::{self, estimate_table_bytes, BlockingError, BlockingStats, PhysicalOp};
use crate::plan::PlanKind;
use crate::rules::RuleSequence;
use crate::stage::{StageCost, StageGate};
use crate::timeline::{check_cancel, Timeline};
use crate::tokens::{self, TokenStore};
use falcon_crowd::{Crowd, CrowdJournal, CrowdSession, Ledger};
use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan, FaultStats};
use falcon_index::FilterSpec;
use falcon_table::{IdPair, Table};
use falcon_textsim::DetMap;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A user-forced index-filter override for one blocking feature.
///
/// During `apply_blocking_rules`, the filter derived from a rule
/// predicate on `feature` is replaced by `spec` — but only when the
/// substitution is provably recall-safe (a weaker threshold / wider
/// range, i.e. a superset of candidates; see
/// [`ConjunctSpecs::derive_with`]). Ill-formed specs are rejected by the
/// static verifier ([`crate::analyze::analyze`]) before any MapReduce job
/// or crowd question is issued.
#[derive(Debug, Clone, PartialEq)]
pub struct ForcedFilter {
    /// Blocking-feature index the override attaches to.
    pub feature: usize,
    /// The replacement filter spec.
    pub spec: FilterSpec,
}

impl ForcedFilter {
    /// Build an override for blocking feature `feature` with the given
    /// threshold (set/edit similarity) or width (ranges), of the kind
    /// [`FilterSpec::for_sim`] maps the feature's similarity function to —
    /// deliberately without [`FilterSpec::from_predicate`]'s domain
    /// guards, so out-of-domain configurations reach the static verifier
    /// (and are rejected with a typed diagnostic) instead of being
    /// silently dropped. Returns `None` only when `feature` is out of
    /// range.
    pub fn for_feature(
        features: &FeatureSet,
        feature: usize,
        threshold: f64,
    ) -> Option<ForcedFilter> {
        let f = features.features.get(feature)?;
        let spec = FilterSpec::for_sim(f.sim, &f.a_attr, threshold);
        Some(ForcedFilter { feature, spec })
    }
}

/// Full Falcon configuration (paper defaults, scaled where noted).
#[derive(Debug, Clone)]
pub struct FalconConfig {
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Sample size `|S|` (paper: 1M; default here is laptop-scaled).
    pub sample_size: usize,
    /// Sampler fan-out `y` (paper: 100).
    pub sample_fanout: usize,
    /// Active learning settings (both stages; the matching stage masks
    /// pair selection per the optimizer flags).
    pub al: AlConfig,
    /// Masking optimizations.
    pub opt: OptFlags,
    /// Pair budget for Cartesian-enumeration baselines and the
    /// matcher-only plan.
    pub max_pairs: u128,
    /// Candidate-set size above which pair selection is masked (paper:
    /// 50M pairs; scaled default).
    pub mask_selection_threshold: usize,
    /// Force a physical blocking operator (benchmarks).
    pub force_physical: Option<PhysicalOp>,
    /// Force a plan template.
    pub force_plan: Option<PlanKind>,
    /// Per-feature index-filter overrides, verified recall-safe
    /// statically before any job runs.
    pub force_filters: Vec<ForcedFilter>,
    /// Deterministic fault plan for the simulated cluster: injected task
    /// failures, stragglers and node loss (`None` = fault-free run).
    pub fault: Option<FaultPlan>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FalconConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            sample_size: 100_000,
            sample_fanout: 100,
            al: AlConfig::default(),
            opt: OptFlags::default(),
            max_pairs: 50_000_000,
            mask_selection_threshold: 500_000,
            force_plan: None,
            force_physical: None,
            force_filters: Vec::new(),
            fault: None,
            seed: 42,
        }
    }
}

/// Everything a run produces (the raw material for Tables 2-5).
#[derive(Debug)]
pub struct RunReport {
    /// Predicted matching pairs.
    pub matches: Vec<IdPair>,
    /// The Accuracy Estimator's verdict per workflow round, in round
    /// order; empty for a plain (`rounds = 0`) run.
    pub estimates: Vec<AccuracyEstimate>,
    /// Plan template used.
    pub plan: PlanKind,
    /// Physical blocking operator (blocking plans only).
    pub physical: Option<PhysicalOp>,
    /// Candidate pairs surviving blocking (blocking plans only).
    pub candidate_size: Option<usize>,
    /// The selected blocking rule sequence.
    pub rule_sequence: RuleSequence,
    /// Candidate rules extracted / retained after crowd evaluation.
    pub rules_extracted: usize,
    /// Rules retained by `eval_rules`.
    pub rules_retained: usize,
    /// Sample size actually drawn.
    pub sample_size: usize,
    /// Execution timeline (crowd/machine/masked segments).
    pub timeline: Timeline,
    /// Crowd cost/latency ledger.
    pub ledger: Ledger,
    /// Feature counts (blocking / matching), as in Table 1's commentary.
    pub feature_counts: (usize, usize),
    /// Fault-injection totals across every job of the run (all zero when
    /// no [`FalconConfig::fault`] plan was configured).
    pub faults: FaultStats,
    /// Set when a checkpoint journal was attached but failed mid-run; the
    /// run completed unjournaled and cannot be resumed from that journal.
    pub journal_error: Option<String>,
    /// Per-conjunct blocking probe counters (pairs examined / pruned by
    /// the signature pre-filter / pruned by exact filters / survived).
    /// `None` when no index probing ran (match-only plans, or a blocking
    /// stage resolved entirely from a speculated rule output).
    pub blocking: Option<BlockingStats>,
}

impl RunReport {
    /// Machine time `t_m`.
    pub fn machine_time(&self) -> Duration {
        self.timeline.machine_time()
    }

    /// Crowd time `t_c`.
    pub fn crowd_time(&self) -> Duration {
        self.timeline.crowd_time()
    }

    /// Unmasked machine time `t_u`.
    pub fn unmasked_machine_time(&self) -> Duration {
        self.timeline.unmasked_machine_time()
    }

    /// Total run time `t_c + t_u`.
    pub fn total_time(&self) -> Duration {
        self.timeline.total_time()
    }

    /// Per-operator time breakdown (Table 4).
    pub fn op_times(&self) -> BTreeMap<String, Duration> {
        self.timeline.by_operator()
    }

    /// Convenience: quality against ground truth.
    pub fn quality(&self, truth: &[IdPair]) -> crate::metrics::EmQuality {
        em_quality(&self.matches, truth)
    }
}

/// What a caller may attach to a run without changing what it computes.
#[derive(Default)]
pub struct RunCtl {
    /// Crash-recovery journal. Every labeled batch is checkpointed to it
    /// before its labels are used, and a journal left behind by a crashed
    /// run *resumes* it: journaled batches are replayed from disk
    /// (recorded labels, recorded cost/latency, **zero** live crowd
    /// questions) and the run goes live exactly where the crash happened.
    /// With a seeded simulated crowd the resumed run's output is
    /// bit-identical to an uninterrupted one. A completed run's journal
    /// should be deleted before reusing the path for a different input.
    pub journal: Option<CrowdJournal>,
    /// Stage gate: the run notifies (and, at machine-stage boundaries,
    /// blocks on) it after every recorded segment, turning the monolithic
    /// driver loop into a resumable stage iterator a multi-tenant
    /// scheduler can interleave with other runs (`falcon-serve`). The
    /// returned report's timeline has the gate detached.
    pub gate: Option<Arc<dyn StageGate>>,
}

/// The Falcon system.
pub struct Falcon {
    /// Configuration.
    pub config: FalconConfig,
}

impl Falcon {
    /// Create with a configuration.
    pub fn new(config: FalconConfig) -> Self {
        Self { config }
    }

    /// The simulated cluster for one run, with the configured fault plan
    /// (if any) attached.
    fn build_cluster(&self) -> Cluster {
        let cluster = Cluster::new(self.config.cluster.clone());
        match &self.config.fault {
            Some(plan) => cluster.with_faults(plan.clone()),
            None => cluster,
        }
    }

    /// Hands-off crowdsourced EM over `A × B` using `crowd`: a plain
    /// single-pass run, [`Falcon::try_run_with`] at `rounds = 0` with no
    /// journal and no gate.
    pub fn try_run<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
    ) -> Result<RunReport, FalconError> {
        self.try_run_with(a, b, crowd, 0, RunCtl::default())
    }

    /// [`Falcon::try_run`] under a [`StageGate`], optionally journaled:
    /// [`Falcon::try_run_with`] at `rounds = 0`.
    pub fn try_run_gated<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        journal: Option<CrowdJournal>,
        gate: Arc<dyn StageGate>,
    ) -> Result<RunReport, FalconError> {
        let gate = Some(gate);
        self.try_run_with(a, b, crowd, 0, RunCtl { journal, gate })
    }

    /// The one way into a run: Figure 1's Blocker, then up to `rounds`
    /// Matcher → Accuracy Estimator → Difficult Pairs' Locator rounds,
    /// stopping early once the crowd-estimated accuracy stops improving
    /// (Corleone's workflow; Section 12). `rounds = 0` is the plain
    /// single-pass run of Figure 3 — the workflow cut after its first
    /// Matcher, with no estimator and an empty [`RunReport::estimates`] —
    /// and the only one that may take the match-only plan; `rounds ≥ 1`
    /// always blocks.
    ///
    /// A statically malformed plan is rejected by the pre-flight
    /// [`analyze`](crate::analyze::analyze) gate as [`FalconError::Plan`]
    /// before any MapReduce job or crowd question is issued. `ctl` attaches
    /// the optional [`RunCtl::journal`] and [`RunCtl::gate`].
    pub fn try_run_with<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        rounds: usize,
        ctl: RunCtl,
    ) -> Result<RunReport, FalconError> {
        self.run_on(&self.build_cluster(), a, b, crowd, rounds, ctl)
    }

    /// The run behind [`Falcon::try_run_with`], on a given cluster handle
    /// (the tests inject one per worker-thread count).
    fn run_on<C: Crowd>(
        &self,
        cluster: &Cluster,
        a: &Table,
        b: &Table,
        crowd: C,
        rounds: usize,
        ctl: RunCtl,
    ) -> Result<RunReport, FalconError> {
        // Feature generation: driver-local scans of both tables, shared
        // with the pre-flight gate, which also decides the plan.
        let lib = generate_features(a, b);
        let analysis = analyze::analyze_with(a, b, &self.config, &lib, rounds);
        if !analysis.is_ok() {
            return Err(FalconError::Plan(analysis.errors().cloned().collect()));
        }
        let plan = analysis.plan;
        let cfg = &self.config;
        let mut session = CrowdSession::new(crowd);
        if let Some(j) = ctl.journal {
            session = session.with_journal(j);
        }
        let mut timeline = match ctl.gate {
            Some(g) => Timeline::with_gate(g),
            None => Timeline::new(),
        };

        timeline.machine("gen_features", StageCost::local(a.len() + b.len()));

        let mut run = Run {
            cfg,
            a,
            b,
            lib: &lib,
            cluster,
            store: TokenStore::default(),
            session,
            timeline,
        };
        let mut block = BlockingOutcome::default();
        let (matches, estimates) = match plan {
            PlanKind::MatchOnly => (run.match_only_stage()?, Vec::new()),
            PlanKind::BlockAndMatch => {
                block = run.blocking_stage()?;
                run.matching_rounds(&block.candidates, rounds)?
            }
        };
        // Reports are plain records: never leak a scheduler handle.
        run.timeline.detach_gate();
        Ok(RunReport {
            matches,
            estimates,
            plan,
            physical: block.physical_op,
            candidate_size: (plan == PlanKind::BlockAndMatch).then_some(block.candidates.len()),
            rule_sequence: block.seq,
            rules_extracted: block.rules_extracted,
            rules_retained: block.rules_retained,
            sample_size: block.sample_len,
            timeline: run.timeline,
            ledger: run.session.ledger(),
            feature_counts: (lib.blocking.len(), lib.matching.len()),
            faults: cluster.fault_stats().unwrap_or_default(),
            journal_error: run.session.journal_error().map(ToString::to_string),
            blocking: block.blocking,
        })
    }
}

/// One run in flight: what every stage reads (config, tables, features,
/// cluster) and the state they share — the run's token store, which every
/// operator of both stages borrows, its crowd session and its timeline.
struct Run<'r, C: Crowd> {
    cfg: &'r FalconConfig,
    a: &'r Table,
    b: &'r Table,
    lib: &'r FeatureLibrary,
    cluster: &'r Cluster,
    store: TokenStore,
    session: CrowdSession<C>,
    timeline: Timeline,
}

impl<C: Crowd> Run<'_, C> {
    /// The match-only plan (Figure 3.b): `gen_fvs` over all of `A × B`,
    /// crowdsourced active learning, `apply_matcher`. Returns the matches.
    fn match_only_stage(&mut self) -> Result<Vec<IdPair>, FalconError> {
        let (cfg, a, b, lib, cluster) = (self.cfg, self.a, self.b, self.lib, self.cluster);
        let (store, session, timeline) = (&mut self.store, &mut self.session, &mut self.timeline);
        session.mark_op("match_only_stage");
        check_cancel(timeline, session)?;
        // Cartesian product of ids.
        let pairs: Vec<IdPair> = (0..a.len() as u32)
            .flat_map(|x| (0..b.len() as u32).map(move |y| (x, y)))
            .collect();
        // Nothing after `gen_fvs` reads a token column: the run's store is
        // freed before the forests and votes of active learning are
        // allocated on top.
        let fv_out = gen_fvs_in(cluster, a, b, pairs, &lib.matching, store)?;
        *store = TokenStore::default();
        timeline.machine("gen_fvs_m", fv_out.cost(&cfg.cluster));
        check_cancel(timeline, session)?;
        let higher: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_m",
            &fv_out.fvs,
            &higher,
            &cfg.al,
            false,
            &[],
            cfg.seed,
        )?;
        let applied = apply_matcher(cluster, &al.forest, &fv_out.fvs)?;
        timeline.machine(
            "apply_matcher",
            StageCost::of([&applied.stats], &cfg.cluster),
        );
        Ok(applied.matches)
    }

    /// The blocking stage (Figure 3.a up to `apply_blocking_rules`).
    #[allow(clippy::too_many_lines)]
    fn blocking_stage(&mut self) -> Result<BlockingOutcome, FalconError> {
        let (cfg, a, b, lib, cluster) = (self.cfg, self.a, self.b, self.lib, self.cluster);
        let (store, session, timeline) = (&mut self.store, &mut self.session, &mut self.timeline);
        session.mark_op("blocking_stage");
        check_cancel(timeline, session)?;

        // ---- sample_pairs ----
        // Everything the blocking stage reads of the tables is tokenized
        // here, once: the sampler's word columns and the blocking
        // features' columns, which `gen_fvs`, the index builds, the probes
        // and the rule evaluators below all borrow.
        let strings = (&lib.a_strings[..], &lib.b_strings[..]);
        let mut needs = tokens::requirements(&lib.blocking.features);
        needs.0.merge(&word_columns(strings.0));
        needs.1.merge(&word_columns(strings.1));
        let tokenized = store.require(cluster, a, b, &needs, None)?;
        let (n, y) = (cfg.sample_size, cfg.sample_fanout);
        let sample = sample_pairs_in(cluster, a, b, strings, store, n, y, cfg.seed)?;
        timeline.machine(
            "sample_pairs",
            StageCost::of(&tokenized, &cfg.cluster) + sample.cost,
        );
        check_cancel(timeline, session)?;
        let sample_len = sample.pairs.len();

        // ---- gen_fvs (blocking features) ----
        let s_fvs = gen_fvs_in(cluster, a, b, sample.pairs, &lib.blocking, store)?;
        timeline.machine("gen_fvs_b", s_fvs.cost(&cfg.cluster));
        check_cancel(timeline, session)?;
        // The store is complete for this stage: the index cache borrows it.
        let store = &*store;
        let mut built = BuiltIndexes::over(store);

        // ---- al_matcher (blocking stage) ----
        let higher_b: Vec<bool> = lib
            .blocking
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al_b = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_b",
            &s_fvs.fvs,
            &higher_b,
            &cfg.al,
            false,
            &[],
            cfg.seed,
        )?;

        // Masking 1a: generic index prebuild during the AL crowd rounds.
        if cfg.opt.prebuild_indexes {
            prebuild_generic(cluster, a, &lib.blocking, &mut built, timeline)?;
        }
        check_cancel(timeline, session)?;

        // ---- get_blocking_rules ---- (driver-local pass over the sample)
        let ranked = get_blocking_rules(&al_b.forest, &s_fvs.fvs, TOP_K_RULES, &higher_b);
        timeline.machine("get_block_rules", StageCost::local(s_fvs.fvs.len()));
        let rules_extracted = ranked.len();
        // The vectors' last reader: `eval_rules` reads the sample's pairs,
        // `select_opt_seq` the rules' coverage. Free them before the
        // masked index builds allocate.
        let sample_pairs = s_fvs.fvs.pairs;
        drop(s_fvs.fvs.fvs);
        check_cancel(timeline, session)?;

        // Masking 1b + 2: while eval_rules crowdsources, prebuild the
        // candidate rules' indexes and speculatively execute them.
        // (Capacity accumulates from eval_rules' rounds; we interleave the
        // accounting by running eval first, then charging the masked work
        // against its accumulated capacity — equivalent under the capacity
        // model.)
        let eval = eval_rules(session, timeline, &ranked, &sample_pairs, cfg.seed);
        if cfg.opt.prebuild_indexes {
            prebuild_for_rules(
                cluster,
                a,
                &ranked.rules,
                &lib.blocking,
                &mut built,
                timeline,
            )?;
        }
        let speculated = if cfg.opt.speculative_execution {
            let rules_with_sel: Vec<_> = ranked
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| (r.clone(), ranked.selectivity(i)))
                .collect();
            speculate_rules(
                cluster,
                a,
                b,
                &rules_with_sel,
                &lib.blocking,
                &mut built,
                timeline,
                cfg.max_pairs,
            )?
        } else {
            Default::default()
        };
        check_cancel(timeline, session)?;

        // Fallback: if nothing was retained, keep the top-ranked rule so
        // the pipeline can still block (documented pragmatic choice).
        let retained: Vec<EvaluatedRule> = if eval.retained.is_empty() && !ranked.is_empty() {
            vec![EvaluatedRule {
                rule: ranked.rules[0].clone(),
                rank_idx: 0,
                precision: 0.0,
                epsilon: 1.0,
                iterations: 0,
            }]
        } else {
            eval.retained.clone()
        };
        let rules_retained = eval.retained.len();

        // ---- select_opt_seq ---- (driver-local pass over the sample)
        let seq_out = select_opt_seq(&ranked, &retained);
        timeline.machine("sel_opt_seq", StageCost::local(sample_len));
        // The pairs' last reader was `eval_rules`.
        drop(sample_pairs);

        // Static verification: the optimizer's sequence must be
        // well-formed against the blocking arity AND every filter derived
        // from it must discharge its recall-safety obligations before
        // anything is built from it (warnings — dead predicates,
        // unreachable rules — do not block the run).
        let seq_errors: Vec<_> = analyze::verify_rule_sequence(&seq_out.seq, &lib.blocking)
            .into_iter()
            .filter(|d| d.severity() == analyze::Severity::Error)
            .collect();
        if !seq_errors.is_empty() {
            return Err(FalconError::Plan(seq_errors));
        }

        // ---- apply_blocking_rules ----
        let conjuncts = ConjunctSpecs::derive_with(&seq_out.seq, &lib.blocking, &cfg.force_filters);
        // Build whatever probed index is still missing (unmasked).
        for spec in conjuncts.probed_specs() {
            let cost = built.build_spec(cluster, a, &spec)?;
            timeline.machine("index_build", cost);
        }
        // No build follows, and nothing below reads an index outside the
        // filterable conjuncts.
        built.keep_probed(&conjuncts);
        check_cancel(timeline, session)?;
        // Reuse a speculated single-rule output when possible.
        let spec_hit: Option<(usize, &Vec<IdPair>)> = seq_out
            .seq
            .rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| speculated.get(&r.canonical_key()).map(|o| (i, o)))
            .min_by_key(|(_, o)| o.len());
        let (candidates, physical_op, blocking) = if let Some((_, base)) = spec_hit {
            // Apply the full sequence to the smallest speculated output in
            // a map-only job (rules are idempotent on survivors).
            let evaluator = physical::PairEvaluator::over(store, a, b, &lib.blocking, &seq_out.seq);
            let (c, stats) = physical::run_evaluate(cluster, &evaluator, base)?;
            timeline.machine("apply_block_rules", StageCost::of([&stats], &cfg.cluster));
            (c, cfg.force_physical.unwrap_or(PhysicalOp::ApplyAll), None)
        } else {
            let op = cfg.force_physical.unwrap_or_else(|| {
                physical::select_physical(
                    &conjuncts,
                    &built,
                    &seq_out.rule_selectivities,
                    seq_out.selectivity,
                    cfg.cluster.mapper_memory_bytes,
                    estimate_table_bytes(a),
                )
            });
            let run = |op| {
                physical::execute(
                    op,
                    cluster,
                    a,
                    b,
                    &lib.blocking,
                    &seq_out.seq,
                    &conjuncts,
                    &built,
                    &seq_out.rule_selectivities,
                    cfg.max_pairs,
                )
            };
            let res = match run(op) {
                // An enumeration operator over its pair budget: the index
                // probe may still fit. Every other failure — a dataflow
                // job out of attempts, nothing to filter on — is the
                // run's, with the failing job's coordinates intact.
                Err(BlockingError::TooManyPairs { .. }) if op != PhysicalOp::ApplyAll => {
                    run(PhysicalOp::ApplyAll)?
                }
                other => other?,
            };
            timeline.machine("apply_block_rules", res.cost(&cfg.cluster));
            (res.candidates, res.op, Some(res.blocking))
        };

        Ok(BlockingOutcome {
            candidates,
            physical_op: Some(physical_op),
            seq: seq_out.seq,
            rules_extracted,
            rules_retained,
            sample_len,
            blocking,
        })
    }

    /// The matching stage: `gen_fvs` over the candidates, crowdsourced
    /// active learning, and `apply_matcher` (speculated when AL
    /// converged). `priority` seeds the first labeling round (the
    /// Difficult Pairs' Locator feeds this in the iterative workflow);
    /// `last_round` frees the token store once the vectors exist.
    fn matching_stage(
        &mut self,
        candidates: &[IdPair],
        priority: Vec<usize>,
        seed_salt: u64,
        last_round: bool,
    ) -> Result<MatchStageOutcome, FalconError> {
        let (cfg, a, b, lib, cluster) = (self.cfg, self.a, self.b, self.lib, self.cluster);
        let (store, session, timeline) = (&mut self.store, &mut self.session, &mut self.timeline);
        session.mark_op("matching_stage");
        check_cancel(timeline, session)?;
        // The blocking stage's indexes are gone: growing the store by the
        // matching-only columns must not copy the dictionary.
        debug_assert_eq!(Arc::strong_count(store.dict()), 1);
        let c_fvs = gen_fvs_in(cluster, a, b, candidates.to_vec(), &lib.matching, store)?;
        if last_round {
            // No later `gen_fvs` will ask: free the columns before active
            // learning allocates its forests and votes on top of them.
            *store = TokenStore::default();
        }
        timeline.machine("gen_fvs_m", c_fvs.cost(&cfg.cluster));
        check_cancel(timeline, session)?;
        if c_fvs.fvs.is_empty() {
            return Ok(MatchStageOutcome {
                matches: Vec::new(),
                forest: None,
                fvs: c_fvs.fvs,
                labeled: Vec::new(),
            });
        }
        let higher_m: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let masked =
            cfg.opt.mask_pair_selection && candidates.len() >= cfg.mask_selection_threshold;
        let al_m = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_m",
            &c_fvs.fvs,
            &higher_m,
            &cfg.al,
            masked,
            &priority,
            cfg.seed ^ 1 ^ seed_salt,
        )?;
        let applied = apply_matcher(cluster, &al_m.forest, &c_fvs.fvs)?;
        let cost = StageCost::of([&applied.stats], &cfg.cluster);
        if cfg.opt.speculative_execution && al_m.converged {
            timeline.masked_machine("apply_matcher", cost);
        } else {
            timeline.machine("apply_matcher", cost);
        }
        Ok(MatchStageOutcome {
            matches: applied.matches,
            forest: Some(al_m.forest),
            fvs: c_fvs.fvs,
            labeled: al_m.labeled,
        })
    }

    /// Matching rounds over the blocked `candidates`: the Matcher, then —
    /// in the workflow (`rounds ≥ 1`) only — the Accuracy Estimator and
    /// the Difficult Pairs' Locator, whose pairs seed the next round's
    /// first labeling batch. Stops when the crowd-estimated F1 stops
    /// improving, nothing difficult is left, or `rounds` is reached, and
    /// returns the matches of the best-estimated round (Corleone keeps
    /// the best matcher seen, not necessarily the last) with every
    /// round's estimate.
    fn matching_rounds(
        &mut self,
        candidates: &[IdPair],
        rounds: usize,
    ) -> Result<(Vec<IdPair>, Vec<AccuracyEstimate>), FalconError> {
        let mut estimates: Vec<AccuracyEstimate> = Vec::new();
        let mut best: Option<(f64, MatchStageOutcome)> = None;
        let mut priority: Vec<usize> = Vec::new();
        let mut known: DetMap<usize, bool> = DetMap::new();
        for round in 0..rounds.max(1) {
            let last_round = round + 1 >= rounds;
            let first_batch = std::mem::take(&mut priority);
            let outcome = self.matching_stage(candidates, first_batch, round as u64, last_round)?;
            // A plain run is the workflow's first Matcher with no
            // estimator; neither is there one without a trained matcher.
            let Some(forest) = outcome.forest.as_ref().filter(|_| rounds >= 1) else {
                best = Some((0.0, outcome));
                break;
            };
            known.extend(outcome.labeled.iter().copied());
            self.session.mark_op("accuracy_estimator");
            check_cancel(&self.timeline, &mut self.session)?;
            let est = estimate_accuracy(
                &mut self.session,
                &mut self.timeline,
                forest,
                &outcome.fvs,
                self.cfg.seed ^ round as u64,
            );
            let improved = estimates.last().is_none_or(|prev| est.f1 > prev.f1 + 0.01);
            let difficult = locate_difficult_pairs(forest, &outcome.fvs, &known, BATCH);
            priority = difficult.into_iter().map(|d| d.index).collect();
            let keep_going = improved && !priority.is_empty() && !last_round;
            if best.as_ref().is_none_or(|(f1, _)| est.f1 >= *f1) {
                best = Some((est.f1, outcome));
            }
            estimates.push(est);
            if !keep_going {
                break;
            }
        }
        // The loop body always runs at least once and every path sets
        // `best`; guard anyway so a run cannot panic.
        let Some((_, matched)) = best else {
            return Err(FalconError::EmptyInput {
                what: "matching rounds",
            });
        };
        Ok((matched.matches, estimates))
    }
}

/// Output of the blocking stage (Figure 3.a up to `apply_blocking_rules`);
/// the default is what a match-only run reports of it.
#[derive(Default)]
struct BlockingOutcome {
    candidates: Vec<IdPair>,
    physical_op: Option<PhysicalOp>,
    seq: RuleSequence,
    rules_extracted: usize,
    rules_retained: usize,
    sample_len: usize,
    /// Probe counters from `physical::execute`; `None` when the stage
    /// resolved from a speculated single-rule output without probing.
    blocking: Option<BlockingStats>,
}

/// Output of one matching stage.
struct MatchStageOutcome {
    matches: Vec<IdPair>,
    forest: Option<falcon_forest::Forest>,
    fvs: crate::fv::FvSet,
    labeled: Vec<(usize, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Segment;
    use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};

    /// §3.4's cost cap, rebuilt from the constants a run actually uses:
    /// if one of them drifts, the asserted $349.60 no longer holds.
    #[test]
    fn paper_cost_cap_is_built_from_the_live_constants() {
        use crate::ops::eval_rules::{EVAL_BATCH, MAX_ITERATIONS_PER_RULE};
        use falcon_crowd::session::{
            cost_cap, paper_cost_cap, MAJORITY_VOTES, QUESTIONS_PER_HIT, STRONG_MAJORITY_MAX,
        };
        let al = AlConfig::default();
        // The first AL iteration labels the seed pairs, so `n_m` is one
        // short of the iteration cap; both stages post `h` HITs a round.
        let (n_m, h) = (al.max_iterations - 1, BATCH / QUESTIONS_PER_HIT);
        assert_eq!(h, EVAL_BATCH / QUESTIONS_PER_HIT);
        let (k, n_e) = (TOP_K_RULES, MAX_ITERATIONS_PER_RULE);
        let live = cost_cap(
            n_m,
            MAJORITY_VOTES,
            k,
            n_e,
            STRONG_MAJORITY_MAX,
            h,
            QUESTIONS_PER_HIT,
            RandomWorkerCrowd::new(GroundTruth::new([]), 0.0, 0).cost_per_answer(),
        );
        assert_eq!(live, paper_cost_cap());
    }

    /// A run is a function of inputs, config and seed, never of the
    /// host: the worker-thread count (what `Cluster::new` reads from the
    /// machine) moves nothing — not the job count, the fault schedule or
    /// a single priced segment.
    #[test]
    fn runs_do_not_depend_on_the_worker_thread_count() {
        let d = falcon_datagen::citations::generate(0.0008, 5);
        let truth = GroundTruth::new(d.truth.iter().copied());
        let plan = FaultPlan::seeded(99)
            .with_failure_rate(0.2)
            .with_straggler_rate(0.2)
            .with_max_attempts(8);
        let falcon = Falcon::new(FalconConfig {
            cluster: ClusterConfig::small(4),
            sample_size: 2_000,
            sample_fanout: 20,
            force_plan: Some(PlanKind::BlockAndMatch),
            fault: Some(plan),
            ..FalconConfig::default()
        });
        let run = |threads: usize| {
            let cluster = falcon.build_cluster().with_threads(threads);
            // 1 ms crowd rounds: the masking capacity runs out partway
            // through speculation, so where it stops is part of the result.
            let crowd = RandomWorkerCrowd::new(truth.clone(), 0.05, 8)
                .with_latency(Duration::from_millis(1));
            let report = falcon
                .run_on(&cluster, &d.a, &d.b, crowd, 0, RunCtl::default())
                .expect("run");
            (report, cluster.jobs_run())
        };
        let (one, one_jobs) = run(1);
        assert!(one.faults.retries > 0, "{:?}", one.faults);
        assert!(one.blocking.is_some());
        // The sample's vectors are freed after `get_blocking_rules`; its
        // size is still reported.
        assert_eq!(one.sample_size, 2_000);
        for threads in [2, 8] {
            let (other, jobs) = run(threads);
            assert_eq!(other.matches, one.matches, "{threads} threads");
            assert_eq!(
                other.timeline.segments(),
                one.timeline.segments(),
                "{threads} threads"
            );
            assert_eq!(other.faults, one.faults, "{threads} threads");
            assert_eq!(other.blocking, one.blocking, "{threads} threads");
            assert_eq!(jobs, one_jobs, "{threads} threads");
        }
    }
    /// Records, at every stage boundary, the stage's label and how many
    /// jobs the run's cluster has submitted so far.
    struct JobCounts(Cluster, std::sync::Mutex<Vec<(String, u64)>>);

    impl StageGate for JobCounts {
        fn on_stage(&self, event: crate::stage::StageEvent) -> crate::stage::StageControl {
            let mut seen = self.1.lock().expect("job counts");
            seen.push((event.label, self.0.jobs_run()));
            crate::stage::StageControl::Continue
        }
    }

    fn small_citations() -> (falcon_datagen::EmDataset, FalconConfig) {
        let config = FalconConfig {
            cluster: ClusterConfig::small(4),
            sample_size: 2_000,
            sample_fanout: 20,
            force_plan: Some(PlanKind::BlockAndMatch),
            // `apply_block_rules` must probe, not reuse a speculated output.
            opt: OptFlags {
                speculative_execution: false,
                ..OptFlags::default()
            },
            ..FalconConfig::default()
        };
        (falcon_datagen::citations::generate(0.0008, 5), config)
    }

    /// A dataflow failure inside `apply_block_rules` is the run's failure,
    /// with the failing job's own index — not a cue to run the blocking
    /// job a second time under fresh job numbers and fresh fault draws.
    #[test]
    fn a_failed_blocking_job_is_reported_with_its_own_coordinates() {
        let (d, config) = small_citations();
        let crowd = || {
            let truth = GroundTruth::new(d.truth.iter().copied());
            RandomWorkerCrowd::new(truth, 0.05, 8)
        };
        // A clean run tells which job `apply_block_rules` submits first.
        let falcon = Falcon::new(config.clone());
        let cluster = falcon.build_cluster();
        let counts = Arc::new(JobCounts(cluster.clone(), Default::default()));
        let ctl = RunCtl {
            journal: None,
            gate: Some(counts.clone()),
        };
        let clean = falcon.run_on(&cluster, &d.a, &d.b, crowd(), 0, ctl);
        assert_eq!(
            clean.expect("clean run").physical,
            Some(PhysicalOp::ApplyAll)
        );
        let seen = counts.1.lock().expect("job counts");
        let at = (seen.iter())
            .position(|(label, _)| label == "apply_block_rules")
            .expect("blocking ran");
        let (first_job, end_job) = (seen[at - 1].1, seen[at].1);
        assert!(first_job < end_job, "the probe is a cluster job");

        // Node 0 (which hosts task 0) dies during exactly that job, and one
        // attempt is all a task gets.
        let plan = FaultPlan::seeded(1)
            .with_node_loss(first_job, 0)
            .with_max_attempts(1);
        let falcon = Falcon::new(FalconConfig {
            fault: Some(plan),
            ..config
        });
        match falcon.try_run(&d.a, &d.b, crowd()) {
            Err(FalconError::Blocking(BlockingError::Dataflow(
                falcon_dataflow::DataflowError::AttemptsExhausted { job, task, .. },
            ))) => assert_eq!((job, task), (first_job, 0)),
            other => panic!(
                "expected the blocking job's AttemptsExhausted, got {:?}",
                other.map(|r| r.faults)
            ),
        }
    }

    /// With nothing prebuilt, blocking builds, unmasked, exactly the
    /// indexes an operator may probe: none of a conjunct with an
    /// unfilterable predicate.
    #[test]
    fn blocking_builds_only_the_probed_indexes() {
        let (d, mut config) = small_citations();
        config.opt = OptFlags::none();
        let truth = GroundTruth::new(d.truth.iter().copied());
        let report = Falcon::new(config)
            .try_run(&d.a, &d.b, RandomWorkerCrowd::new(truth, 0.05, 8))
            .expect("run");
        let features = generate_features(&d.a, &d.b).blocking;
        let conjuncts = ConjunctSpecs::derive(&report.rule_sequence, &features);
        let probed = conjuncts.probed_specs().len();
        assert!(probed > 0 && probed < conjuncts.all_specs().len());
        let unmasked_builds = (report.timeline.segments().iter())
            .filter(|s| matches!(s, Segment::Machine { label, .. } if label == "index_build"))
            .count();
        assert_eq!(unmasked_builds, probed);
    }

    /// The one fallback left: an enumeration operator over its pair
    /// budget hands over to the index probe.
    #[test]
    fn an_enumeration_operator_over_budget_falls_back_to_apply_all() {
        let (d, mut config) = small_citations();
        // No index fits a mapper, so Section 10.1 selects `ReduceSplit`;
        // `|A × B|` is far over 1 000 pairs.
        config.cluster.mapper_memory_bytes = 1;
        config.max_pairs = 1_000;
        let truth = GroundTruth::new(d.truth.iter().copied());
        let report = Falcon::new(config)
            .try_run(&d.a, &d.b, RandomWorkerCrowd::new(truth, 0.05, 8))
            .expect("run");
        assert_eq!(report.physical, Some(PhysicalOp::ApplyAll));
        assert!(report.blocking.is_some());
    }
}
