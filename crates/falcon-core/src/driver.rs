//! The end-to-end Falcon driver: plan generation, execution and
//! optimization over two input tables and a crowd.

use crate::analyze;
use crate::error::FalconError;
use crate::features::{generate_features, FeatureLibrary, FeatureSet};
use crate::indexing::{BuiltIndexes, ConjunctSpecs, PreFilterConfig};
use crate::metrics::em_quality;
use crate::ops::accuracy_estimator::{estimate_accuracy, AccuracyEstimate, EstimatorConfig};
use crate::ops::al_matcher::{al_matcher, AlConfig};
use crate::ops::apply_matcher::apply_matcher;
use crate::ops::difficult_pairs::locate_difficult_pairs;
use crate::ops::eval_rules::{eval_rules, EvalConfig, EvaluatedRule};
use crate::ops::gen_fvs::gen_fvs_in;
use crate::ops::get_blocking_rules::get_blocking_rules;
use crate::ops::sample_pairs::{sample_pairs_in, word_columns};
use crate::ops::select_opt_seq::{select_opt_seq, SeqConfig};
use crate::optimizer::{prebuild_for_rules, prebuild_generic, speculate_rules, OptFlags};
use crate::physical::{self, estimate_table_bytes, BlockingStats, PhysicalOp};
use crate::plan::{choose_plan, PlanKind};
use crate::rules::RuleSequence;
use crate::stage::{StageCost, StageGate};
use crate::timeline::{check_cancel, Timeline};
use crate::tokens::{self, TokenStore};
use falcon_crowd::{Crowd, CrowdJournal, CrowdSession, Ledger};
use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan, FaultStats};
use falcon_index::FilterSpec;
use falcon_table::{IdPair, Table};
use falcon_textsim::SimFunction;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForcedFilter {
    /// Blocking-feature index the override attaches to.
    pub feature: usize,
    /// The replacement filter spec.
    pub spec: FilterSpec,
}

impl ForcedFilter {
    /// Build an override for blocking feature `feature` with the given
    /// threshold (set/edit similarity) or width (ranges), mapping the
    /// feature's similarity function to its filter kind *directly* —
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
        let a_attr = f.a_attr.clone();
        let spec = match f.sim {
            SimFunction::ExactMatch => FilterSpec::Equals { a_attr },
            SimFunction::AbsDiff => FilterSpec::Range {
                a_attr,
                width: threshold,
                relative: false,
            },
            SimFunction::RelDiff => FilterSpec::Range {
                a_attr,
                width: threshold,
                relative: true,
            },
            SimFunction::Levenshtein => FilterSpec::EditSim { a_attr, threshold },
            sim => FilterSpec::SetSim {
                a_attr,
                sim,
                threshold,
            },
        };
        Some(ForcedFilter { feature, spec })
    }
}

/// Full Falcon configuration (paper defaults, scaled where noted).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FalconConfig {
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Sample size `|S|` (paper: 1M; default here is laptop-scaled).
    pub sample_size: usize,
    /// Sampler fan-out `y` (paper: 100).
    pub sample_fanout: usize,
    /// Active learning settings (both stages; the matching stage flips
    /// `mask_pair_selection` per the optimizer flags).
    pub al: AlConfig,
    /// Rule-evaluation settings.
    pub eval: EvalConfig,
    /// Sequence-selection settings.
    pub seq: SeqConfig,
    /// Top-k rules to crowd-evaluate (paper: 20).
    pub max_rules: usize,
    /// Masking optimizations.
    pub opt: OptFlags,
    /// Pair budget for Cartesian-enumeration baselines and the
    /// matcher-only plan.
    pub max_pairs: u128,
    /// `apply_greedy` selection ratio threshold (paper: 0.8).
    pub greedy_ratio: f64,
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
    /// Signature pre-filter layer for set-similarity blocking probes (on
    /// by default; the planner still decides per conjunct whether to use
    /// the built signatures). Unprovable widths are rejected statically.
    pub prefilter: PreFilterConfig,
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
            eval: EvalConfig::default(),
            seq: SeqConfig::default(),
            max_rules: 20,
            opt: OptFlags::default(),
            max_pairs: 50_000_000,
            greedy_ratio: 0.8,
            mask_selection_threshold: 500_000,
            force_plan: None,
            force_physical: None,
            force_filters: Vec::new(),
            prefilter: PreFilterConfig::default(),
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

    /// Hands-off crowdsourced EM over `A × B` using `crowd`, with the
    /// pre-flight [`analyze`](crate::analyze::analyze) gate: a statically
    /// malformed plan is rejected as [`FalconError::Plan`] before any
    /// MapReduce job or crowd question is issued.
    pub fn try_run<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
    ) -> Result<RunReport, FalconError> {
        self.try_run_on(&self.build_cluster(), a, b, crowd, None, None)
    }

    /// [`Falcon::try_run`] with a crash-recovery journal at `journal_path`.
    ///
    /// Every labeled batch is checkpointed to the journal before its
    /// labels are used. Starting a run against a journal left behind by a
    /// crashed run *resumes* it: journaled batches are replayed from disk
    /// (recorded labels, recorded cost/latency, **zero** live crowd
    /// questions) and the run goes live exactly where the crash happened.
    /// With a seeded simulated crowd the resumed run's output is
    /// bit-identical to an uninterrupted one. A completed run's journal
    /// should be deleted before reusing the path for a different input.
    pub fn try_run_resumable<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        journal_path: impl AsRef<Path>,
    ) -> Result<RunReport, FalconError> {
        let journal = CrowdJournal::open(journal_path)?;
        self.try_run_on(&self.build_cluster(), a, b, crowd, Some(journal), None)
    }

    /// [`Falcon::try_run`] under a [`StageGate`]: the run notifies (and,
    /// at machine-stage boundaries, blocks on) `gate` after every
    /// recorded segment, turning the monolithic driver loop into a
    /// resumable stage iterator a multi-tenant scheduler can interleave
    /// with other runs (`falcon-serve`). Pass a `journal` to make the
    /// gated run crash-recoverable exactly as in
    /// [`Falcon::try_run_resumable`]. The returned report's timeline has
    /// the gate detached.
    pub fn try_run_gated<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        journal: Option<CrowdJournal>,
        gate: Arc<dyn StageGate>,
    ) -> Result<RunReport, FalconError> {
        self.try_run_on(&self.build_cluster(), a, b, crowd, journal, Some(gate))
    }

    /// The run behind every `try_run*` entry, on a given cluster handle
    /// (the tests inject one per worker-thread count).
    fn try_run_on<C: Crowd>(
        &self,
        cluster: &Cluster,
        a: &Table,
        b: &Table,
        crowd: C,
        journal: Option<CrowdJournal>,
        gate: Option<Arc<dyn StageGate>>,
    ) -> Result<RunReport, FalconError> {
        let analysis = analyze::analyze(a, b, &self.config);
        if !analysis.is_ok() {
            return Err(FalconError::Plan(analysis.errors));
        }
        let cfg = &self.config;
        let mut session = CrowdSession::new(crowd);
        if let Some(j) = journal {
            session = session.with_journal(j);
        }
        let mut timeline = match gate {
            Some(g) => Timeline::with_gate(g),
            None => Timeline::new(),
        };

        // Feature generation: driver-local scans of both tables.
        let lib = generate_features(a, b);
        timeline.machine("gen_features", StageCost::local(a.len() + b.len()));

        let plan = cfg.force_plan.unwrap_or_else(|| {
            choose_plan(
                a,
                b,
                lib.matching.len(),
                cfg.cluster.mapper_memory_bytes,
                cfg.max_pairs,
            )
        });
        let mut report = match plan {
            PlanKind::MatchOnly => {
                self.run_match_only(a, b, &lib, cluster, &mut session, &mut timeline)
            }
            PlanKind::BlockAndMatch => {
                self.run_block_and_match(a, b, &lib, cluster, &mut session, &mut timeline)
            }
        }?;
        // Reports are plain records: never leak a scheduler handle.
        report.timeline.detach_gate();
        Ok(report)
    }

    fn run_match_only<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut CrowdSession<C>,
        timeline: &mut Timeline,
    ) -> Result<RunReport, FalconError> {
        let cfg = &self.config;
        session.mark_op("match_only_stage");
        check_cancel(timeline, session)?;
        // Cartesian product of ids.
        let pairs: Vec<IdPair> = (0..a.len() as u32)
            .flat_map(|x| (0..b.len() as u32).map(move |y| (x, y)))
            .collect();
        // Nothing after `gen_fvs` reads a token column: the run's store is
        // freed before the forests and votes of active learning are
        // allocated on top.
        let mut store = TokenStore::default();
        let fv_out = gen_fvs_in(cluster, a, b, pairs, &lib.matching, &mut store)?;
        drop(store);
        timeline.machine("gen_fvs_m", fv_out.cost(&cfg.cluster));
        check_cancel(timeline, session)?;
        let higher: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al_cfg = AlConfig {
            mask_pair_selection: false,
            seed: cfg.seed,
            ..cfg.al.clone()
        };
        let al = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_m",
            &fv_out.fvs,
            &higher,
            &al_cfg,
        )?;
        let applied = apply_matcher(cluster, &al.forest, &fv_out.fvs)?;
        timeline.machine(
            "apply_matcher",
            StageCost::of([&applied.stats], &cfg.cluster),
        );
        Ok(RunReport {
            matches: applied.matches,
            plan: PlanKind::MatchOnly,
            physical: None,
            candidate_size: None,
            rule_sequence: RuleSequence::default(),
            rules_extracted: 0,
            rules_retained: 0,
            sample_size: 0,
            timeline: std::mem::take(timeline),
            ledger: session.ledger(),
            feature_counts: (lib.blocking.len(), lib.matching.len()),
            faults: cluster.fault_stats().unwrap_or_default(),
            journal_error: session.journal_error().map(ToString::to_string),
            blocking: None,
        })
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn blocking_stage<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        store: &mut TokenStore,
        session: &mut CrowdSession<C>,
        timeline: &mut Timeline,
    ) -> Result<BlockingOutcome, FalconError> {
        let cfg = &self.config;
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
        let al_cfg = AlConfig {
            mask_pair_selection: false,
            seed: cfg.seed,
            ..cfg.al.clone()
        };
        let al_b = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_b",
            &s_fvs.fvs,
            &higher_b,
            &al_cfg,
        )?;

        // Masking 1a: generic index prebuild during the AL crowd rounds.
        if cfg.opt.prebuild_indexes {
            prebuild_generic(cluster, a, &lib.blocking, &mut built, timeline)?;
        }
        check_cancel(timeline, session)?;

        // ---- get_blocking_rules ---- (driver-local pass over the sample)
        let ranked = get_blocking_rules(&al_b.forest, &s_fvs.fvs, cfg.max_rules, &higher_b);
        timeline.machine("get_block_rules", StageCost::local(s_fvs.fvs.len()));
        let rules_extracted = ranked.len();
        check_cancel(timeline, session)?;

        // Masking 1b + 2: while eval_rules crowdsources, prebuild the
        // candidate rules' indexes and speculatively execute them.
        // (Capacity accumulates from eval_rules' rounds; we interleave the
        // accounting by running eval first, then charging the masked work
        // against its accumulated capacity — equivalent under the capacity
        // model.)
        let eval_cfg = EvalConfig {
            seed: cfg.seed,
            ..cfg.eval.clone()
        };
        let eval = eval_rules(session, timeline, &ranked, &s_fvs.fvs, &eval_cfg);
        if cfg.opt.prebuild_indexes {
            prebuild_for_rules(
                cluster,
                a,
                &ranked.rules,
                &lib.blocking,
                &cfg.prefilter,
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
                &cfg.prefilter,
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
        let seq_out = select_opt_seq(&ranked, &retained, &s_fvs.fvs, &cfg.seq);
        timeline.machine("sel_opt_seq", StageCost::local(s_fvs.fvs.len()));
        // Nothing below reads the sample's vectors: free them before the
        // unmasked index builds and `apply_block_rules` allocate.
        drop(s_fvs);

        // Static verification: the optimizer's sequence must be
        // well-formed against the blocking arity AND every filter derived
        // from it must discharge its recall-safety obligations before
        // anything is built from it (warnings — dead predicates,
        // unreachable rules — do not block the run).
        let (seq_errors, _seq_warnings) =
            analyze::verify_rule_sequence_with(&seq_out.seq, &lib.blocking, &cfg.prefilter);
        if !seq_errors.is_empty() {
            return Err(FalconError::Plan(seq_errors));
        }

        // ---- apply_blocking_rules ----
        // Forced-filter substitution happens on the base specs; the
        // signature pre-filter wraps whatever survived substitution.
        let conjuncts = ConjunctSpecs::derive_with(&seq_out.seq, &lib.blocking, &cfg.force_filters)
            .with_signatures(&cfg.prefilter);
        // Build whatever index is still missing (unmasked).
        for (spec, key) in conjuncts.all_specs_keyed() {
            let cost = built.build_spec_keyed(cluster, a, spec, key)?;
            timeline.machine("index_build", cost);
        }
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
            let evaluator = Arc::new(physical::PairEvaluator::over(
                store,
                a,
                b,
                &lib.blocking,
                &seq_out.seq,
            ));
            let (c, stats) = physical::run_evaluate(cluster, evaluator, base)?;
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
                    cfg.greedy_ratio,
                )
            });
            let result = physical::execute(
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
            );
            match result {
                Ok(res) => {
                    timeline.machine("apply_block_rules", res.cost(&cfg.cluster));
                    (res.candidates, res.op, Some(res.blocking))
                }
                Err(_) => {
                    // Forced/selected operator failed (pair budget): fall
                    // back to apply-all if possible, else empty.
                    let res = physical::execute(
                        PhysicalOp::ApplyAll,
                        cluster,
                        a,
                        b,
                        &lib.blocking,
                        &seq_out.seq,
                        &conjuncts,
                        &built,
                        &seq_out.rule_selectivities,
                        cfg.max_pairs,
                    )?;
                    timeline.machine("apply_block_rules", res.cost(&cfg.cluster));
                    (res.candidates, res.op, Some(res.blocking))
                }
            }
        };

        Ok(BlockingOutcome {
            candidates,
            physical_op,
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
    #[allow(clippy::too_many_arguments)]
    fn matching_stage<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        store: &mut TokenStore,
        session: &mut CrowdSession<C>,
        timeline: &mut Timeline,
        candidates: &[IdPair],
        priority: Vec<usize>,
        seed_salt: u64,
        last_round: bool,
    ) -> Result<MatchStageOutcome, FalconError> {
        let cfg = &self.config;
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
        let al_m_cfg = AlConfig {
            mask_pair_selection: cfg.opt.mask_pair_selection
                && candidates.len() >= cfg.mask_selection_threshold,
            seed: cfg.seed ^ 1 ^ seed_salt,
            priority_indices: priority,
            ..cfg.al.clone()
        };
        let al_m = al_matcher(
            cluster,
            session,
            timeline,
            "al_matcher_m",
            &c_fvs.fvs,
            &higher_m,
            &al_m_cfg,
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

    fn run_block_and_match<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut CrowdSession<C>,
        timeline: &mut Timeline,
    ) -> Result<RunReport, FalconError> {
        // The run's token store: every operator of both stages borrows it.
        let mut store = TokenStore::default();
        let block = self.blocking_stage(a, b, lib, cluster, &mut store, session, timeline)?;
        let matched = self.matching_stage(
            a,
            b,
            lib,
            cluster,
            &mut store,
            session,
            timeline,
            &block.candidates,
            Vec::new(),
            0,
            true,
        )?;
        Ok(RunReport {
            matches: matched.matches,
            plan: PlanKind::BlockAndMatch,
            physical: Some(block.physical_op),
            candidate_size: Some(block.candidates.len()),
            rule_sequence: block.seq,
            rules_extracted: block.rules_extracted,
            rules_retained: block.rules_retained,
            sample_size: block.sample_len,
            timeline: std::mem::take(timeline),
            ledger: session.ledger(),
            feature_counts: (lib.blocking.len(), lib.matching.len()),
            faults: cluster.fault_stats().unwrap_or_default(),
            journal_error: session.journal_error().map(ToString::to_string),
            blocking: block.blocking,
        })
    }

    /// The **full iterative EM workflow** of Figure 1: Blocker, then
    /// repeated Matcher / Accuracy Estimator / Difficult Pairs' Locator
    /// rounds until the crowd-estimated accuracy stops improving (or
    /// `max_outer` rounds). This is Corleone's default workflow, listed in
    /// the paper (Section 12) as the next extension of Falcon's plans.
    ///
    /// Returns the final report plus the per-round accuracy estimates,
    /// behind the same pre-flight [`analyze`](crate::analyze::analyze) gate
    /// as [`Falcon::try_run`].
    pub fn try_run_workflow<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        max_outer: usize,
    ) -> Result<(RunReport, Vec<AccuracyEstimate>), FalconError> {
        self.try_run_workflow_inner(a, b, crowd, max_outer, None, None)
    }

    /// [`Falcon::try_run_workflow`] with a crash-recovery journal at
    /// `journal_path` — the workflow analogue of
    /// [`Falcon::try_run_resumable`]: labeled batches checkpoint to the
    /// journal, and a journal left by a crashed run replays its batches
    /// without re-asking the crowd before going live at the crash point.
    pub fn try_run_workflow_resumable<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        max_outer: usize,
        journal_path: impl AsRef<Path>,
    ) -> Result<(RunReport, Vec<AccuracyEstimate>), FalconError> {
        let journal = CrowdJournal::open(journal_path)?;
        self.try_run_workflow_inner(a, b, crowd, max_outer, Some(journal), None)
    }

    /// [`Falcon::try_run_workflow`] under a [`StageGate`] — the workflow
    /// analogue of [`Falcon::try_run_gated`].
    pub fn try_run_workflow_gated<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        max_outer: usize,
        journal: Option<CrowdJournal>,
        gate: Arc<dyn StageGate>,
    ) -> Result<(RunReport, Vec<AccuracyEstimate>), FalconError> {
        self.try_run_workflow_inner(a, b, crowd, max_outer, journal, Some(gate))
    }

    #[allow(clippy::too_many_lines)]
    fn try_run_workflow_inner<C: Crowd>(
        &self,
        a: &Table,
        b: &Table,
        crowd: C,
        max_outer: usize,
        journal: Option<CrowdJournal>,
        gate: Option<Arc<dyn StageGate>>,
    ) -> Result<(RunReport, Vec<AccuracyEstimate>), FalconError> {
        let analysis = analyze::analyze(a, b, &self.config);
        if !analysis.is_ok() {
            return Err(FalconError::Plan(analysis.errors));
        }
        let cfg = &self.config;
        let cluster = self.build_cluster();
        let mut session = CrowdSession::new(crowd);
        if let Some(j) = journal {
            session = session.with_journal(j);
        }
        let mut timeline = match gate {
            Some(g) => Timeline::with_gate(g),
            None => Timeline::new(),
        };
        let lib = generate_features(a, b);
        timeline.machine("gen_features", StageCost::local(a.len() + b.len()));

        let mut store = TokenStore::default();
        let block = self.blocking_stage(
            a,
            b,
            &lib,
            &cluster,
            &mut store,
            &mut session,
            &mut timeline,
        )?;

        let mut estimates: Vec<AccuracyEstimate> = Vec::new();
        // Keep the round with the best crowd-estimated F1 (Corleone keeps
        // the best matcher seen, not necessarily the last).
        let mut best: Option<(f64, MatchStageOutcome)> = None;
        let mut priority: Vec<usize> = Vec::new();
        let mut known: std::collections::HashMap<usize, bool> = Default::default();
        for round in 0..max_outer.max(1) {
            let outcome = self.matching_stage(
                a,
                b,
                &lib,
                &cluster,
                &mut store,
                &mut session,
                &mut timeline,
                &block.candidates,
                std::mem::take(&mut priority),
                round as u64,
                round + 1 >= max_outer,
            )?;
            for (i, l) in &outcome.labeled {
                known.insert(*i, *l);
            }
            let Some(forest) = outcome.forest.as_ref() else {
                best = Some((0.0, outcome));
                break;
            };
            session.mark_op("accuracy_estimator");
            check_cancel(&timeline, &mut session)?;
            let est = estimate_accuracy(
                &mut session,
                &mut timeline,
                forest,
                &outcome.fvs,
                &EstimatorConfig {
                    seed: cfg.seed ^ round as u64,
                    ..EstimatorConfig::default()
                },
            );
            let improved = estimates.last().is_none_or(|prev| est.f1 > prev.f1 + 0.01);
            let difficult = locate_difficult_pairs(forest, &outcome.fvs, &known, cfg.al.batch);
            priority = difficult.into_iter().map(|d| d.index).collect();
            let keep_going = improved && !priority.is_empty() && round + 1 < max_outer;
            if best.as_ref().is_none_or(|(f1, _)| est.f1 >= *f1) {
                best = Some((est.f1, outcome));
            }
            estimates.push(est);
            if !keep_going {
                break;
            }
        }
        // The loop body always runs at least once and every path sets
        // `best`; guard anyway so the workflow cannot panic.
        let Some((_, matched)) = best else {
            return Err(FalconError::EmptyInput {
                what: "workflow rounds",
            });
        };
        timeline.detach_gate();
        let report = RunReport {
            matches: matched.matches,
            plan: PlanKind::BlockAndMatch,
            physical: Some(block.physical_op),
            candidate_size: Some(block.candidates.len()),
            rule_sequence: block.seq,
            rules_extracted: block.rules_extracted,
            rules_retained: block.rules_retained,
            sample_size: block.sample_len,
            timeline,
            ledger: session.ledger(),
            feature_counts: (lib.blocking.len(), lib.matching.len()),
            faults: cluster.fault_stats().unwrap_or_default(),
            journal_error: session.journal_error().map(ToString::to_string),
            blocking: block.blocking,
        };
        Ok((report, estimates))
    }
}

/// Output of the blocking stage (Figure 3.a up to `apply_blocking_rules`).
struct BlockingOutcome {
    candidates: Vec<IdPair>,
    physical_op: PhysicalOp,
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
    use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};

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
                .try_run_on(&cluster, &d.a, &d.b, crowd, None, None)
                .expect("run");
            (report, cluster.jobs_run())
        };
        let (one, one_jobs) = run(1);
        assert!(one.faults.retries > 0, "{:?}", one.faults);
        assert!(one.blocking.is_some());
        // The sample's vectors are freed before `apply_block_rules`; its
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
}
