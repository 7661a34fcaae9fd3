//! A served [`Bank`] is its standalone folds, each record scored once.
//!
//! For random lists of registry names (repeats allowed, with and without
//! `snips`), uniform and constant target policies, several model values,
//! records with and without propensities, zero-overlap streams, streams
//! of up to ~2,000 records and uneven batch splits, a bank — cumulative,
//! or windowed and replayed — must
//! equal one standalone fold per name, bit for bit: every estimate
//! (value, n and weight diagnostics, or the same error), every health
//! metric and every saved state, also after a save/load round trip and
//! more records. A saved bank whose shared pairs disagree with each other
//! is refused whole.

use ddn_estimators::menu::{self, MenuConfig, MENU};
use ddn_estimators::online::{BoxModel, BoxPolicy};
use ddn_estimators::{
    ActionEmbedding, AdaptiveWeights, Bank, EstimatorError, OnlineAdaptiveDr, OnlineAdaptiveIps,
    OnlineClippedIps, OnlineDm, OnlineDr, OnlineEstimate, OnlineEstimator, OnlineIps,
    OnlineMarginalizedDr, OnlineSeqDr, OnlineSnips,
};
use ddn_models::ConstantModel;
use ddn_policy::{LookupPolicy, UniformRandomPolicy};
use ddn_stats::Json;
use ddn_testkit::{prop, prop_assert, vecs};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
use std::collections::VecDeque;

const ARMS: usize = 3;
const MODEL_VALUES: [f64; 5] = [0.0, -0.0, 0.5, 2.5, -1.25];
const MAX_WEIGHTS: [f64; 3] = [0.5, 2.0, 10.0];
const EMBEDDINGS: [[usize; ARMS]; 3] = [[0, 1, 2], [0, 0, 1], [0, 0, 0]];

fn schema() -> ContextSchema {
    ContextSchema::builder().categorical("g", 2).build()
}

fn space() -> DecisionSpace {
    DecisionSpace::of(&["a", "b", "c"])
}

/// A policy that gives every context the same probabilities: uniform
/// (`None`) or constant on an arm.
type PolicyKind = Option<usize>;

fn policy(kind: PolicyKind) -> BoxPolicy {
    match kind {
        None => Box::new(UniformRandomPolicy::new(space())),
        Some(i) => Box::new(LookupPolicy::constant(space(), i)),
    }
}

fn probs(kind: PolicyKind) -> Vec<f64> {
    match kind {
        None => menu::uniform(&space()),
        Some(i) => (0..ARMS).map(|d| if d == i { 1.0 } else { 0.0 }).collect(),
    }
}

/// The knobs a bank and its folds share.
#[derive(Debug, Clone)]
struct Knobs {
    max_weight: f64,
    horizon: usize,
    groups: Vec<usize>,
    logging: PolicyKind,
}

impl MenuConfig for Knobs {
    fn max_weight(&self) -> f64 {
        self.max_weight
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn embedding(&self, _space: &DecisionSpace) -> ActionEmbedding {
        ActionEmbedding::from_groups(self.groups.clone())
    }

    fn logging(&self, _space: &DecisionSpace) -> Result<Vec<f64>, String> {
        Ok(probs(self.logging))
    }
}

/// One case's bank configuration.
#[derive(Debug, Clone)]
struct Setup {
    names: Vec<String>,
    target: PolicyKind,
    model_value: f64,
    knobs: Knobs,
}

impl Setup {
    fn bank(&self) -> Bank {
        let (space, target) = (space(), probs(self.target));
        Bank::new(&self.names, &space, target, self.model_value, &self.knobs).unwrap()
    }

    /// One standalone fold per name, built as the registry's row would.
    fn folds(&self) -> Vec<Box<dyn OnlineEstimator>> {
        self.names.iter().map(|name| self.fold(name)).collect()
    }

    fn fold(&self, name: &str) -> Box<dyn OnlineEstimator> {
        let (space, target) = (space(), policy(self.target));
        let model = || -> BoxModel { Box::new(ConstantModel::new(self.model_value)) };
        let stabilized = AdaptiveWeights::Stabilized;
        match name {
            "ips" => Box::new(OnlineIps::new(space, target).unwrap()),
            "snips" => Box::new(OnlineSnips::new(space, target).unwrap()),
            "clipped" => {
                Box::new(OnlineClippedIps::new(space, target, self.knobs.max_weight).unwrap())
            }
            "dm" => Box::new(OnlineDm::new(space, target, model()).unwrap()),
            "dr" => Box::new(OnlineDr::new(space, target, model()).unwrap()),
            "adaptive" => Box::new(OnlineAdaptiveIps::new(space, target, stabilized).unwrap()),
            "adaptive_dr" => {
                Box::new(OnlineAdaptiveDr::new(space, target, model(), stabilized).unwrap())
            }
            "mdr" => Box::new(
                OnlineMarginalizedDr::new(
                    space,
                    target,
                    policy(self.knobs.logging),
                    model(),
                    ActionEmbedding::from_groups(self.knobs.groups.clone()),
                )
                .unwrap(),
            ),
            "seqdr" => {
                Box::new(OnlineSeqDr::new(space, target, model(), self.knobs.horizon).unwrap())
            }
            other => panic!("{other} is not a registry name"),
        }
    }

    fn needs_propensity(&self, name: &str) -> bool {
        menu::lookup(name).unwrap().needs_propensity
    }
}

/// Bits of every field, so `-0.0`, `0.0` and NaN payloads stay apart.
fn estimate_bits(e: &OnlineEstimate) -> Vec<u64> {
    let d = &e.diagnostics;
    let fields = [
        e.value,
        d.mean_weight,
        d.max_weight,
        d.effective_sample_size,
        d.zero_weight_fraction,
    ];
    let mut bits: Vec<u64> = fields.iter().map(|x| x.to_bits()).collect();
    bits.extend([e.n as u64, d.n as u64]);
    bits
}

fn health_bits(m: &[(&'static str, f64)]) -> Vec<(&'static str, u64)> {
    m.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

/// The bank against its folds: estimates, health and saved states.
fn compare(
    setup: &Setup,
    bank: &Bank,
    folds: &[Box<dyn OnlineEstimator>],
    at: &str,
) -> Result<(), String> {
    let estimates = bank.estimates();
    let health: Vec<_> = bank.health().collect();
    let states = bank.state_save();
    for (i, (name, fold)) in setup.names.iter().zip(folds).enumerate() {
        let agree = match (&estimates[i], &fold.estimate()) {
            (Ok(a), Ok(b)) => estimate_bits(a) == estimate_bits(b),
            (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        };
        if !agree {
            return Err(format!(
                "{at}: {name} estimate: bank {:?}, fold {:?}",
                estimates[i],
                fold.estimate()
            ));
        }
        if health_bits(&health[i]) != health_bits(&fold.health_metrics()) {
            return Err(format!(
                "{at}: {name} health: bank {:?}, fold {:?}",
                health[i],
                fold.health_metrics()
            ));
        }
        let (saved, want) = (states[i].to_string(), fold.state_save().to_string());
        if saved != want {
            return Err(format!("{at}: {name} state: bank {saved}, fold {want}"));
        }
    }
    Ok(())
}

/// Pushes `rec` into the bank and the folds. A bank refuses a record
/// without a propensity when a member reads one, with the error each
/// such fold gives; the folds that do not read one are then left alone,
/// as the bank's members are.
fn push(
    setup: &Setup,
    bank: &mut Bank,
    folds: &mut [Box<dyn OnlineEstimator>],
    rec: &TraceRecord,
) -> Result<(), String> {
    let pushed = bank.push(rec);
    let refuses = rec.propensity.is_none() && setup.names.iter().any(|n| setup.needs_propensity(n));
    if pushed.is_err() != refuses {
        return Err(format!(
            "bank push {pushed:?}, expected a refusal: {refuses}"
        ));
    }
    for (name, fold) in setup.names.iter().zip(folds.iter_mut()) {
        match &pushed {
            Ok(()) => fold.push(rec).map_err(|e| format!("{name} refused: {e}"))?,
            Err(_) if !setup.needs_propensity(name) => {}
            Err(e) => {
                let theirs = fold.push(rec).err().map(|e| format!("{e:?}"));
                if theirs != Some(format!("{e:?}")) {
                    return Err(format!("{name}: fold {theirs:?}, bank {e:?}"));
                }
            }
        }
    }
    Ok(())
}

/// A logged record from `(g, d, r, p, hole)`; a zero `hole` drops the
/// propensity.
fn record((g, d, r, p, hole): (u32, usize, f64, f64, u32)) -> TraceRecord {
    let c = Context::build(&schema()).set_cat("g", g).finish();
    let rec = TraceRecord::new(c, Decision::from_index(d), r);
    if hole == 0 {
        rec
    } else {
        rec.with_propensity(p)
    }
}

/// The names `picks` draws from the registry: `snips` removed (mode 0),
/// one more added (mode 1), or as drawn (mode 2).
fn names(picks: &[usize], snips_mode: usize) -> Vec<String> {
    let mut names: Vec<String> = picks.iter().map(|&i| MENU[i].name.to_string()).collect();
    match snips_mode {
        0 => names.retain(|n| n != "snips"),
        1 => names.insert(picks[0] % (names.len() + 1), "snips".to_string()),
        _ => {}
    }
    if names.is_empty() {
        names.push("ips".to_string());
    }
    names
}

/// Splits `records` into chunks of the cycled `sizes`.
fn chunks<'a>(records: &'a [TraceRecord], sizes: &[usize]) -> Vec<&'a [TraceRecord]> {
    let (mut out, mut rest) = (Vec::new(), records);
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out
}

prop! {
    fn bank_equals_its_standalone_folds(
        picks in vecs(0usize..MENU.len(), 1..7),
        shape in (0usize..3, 0usize..ARMS + 1, 0usize..MODEL_VALUES.len(), 0usize..MAX_WEIGHTS.len()),
        mdr in (1usize..4, 0usize..EMBEDDINGS.len(), 0usize..ARMS + 1),
        rows in vecs((0u32..2, 0usize..ARMS, -5.0..5.0f64, 0.05..1.0f64, 0u32..10), 0..50),
        flow in (vecs(1usize..17, 1..6), 0usize..12, 0u32..4, 1usize..40),
    ) {
        let (snips_mode, target, model, max_weight) = shape;
        let (horizon, groups, logging) = mdr;
        let (sizes, window, overlap, repeat) = flow;
        let kind = |i: usize| (i < ARMS).then_some(i);
        let setup = Setup {
            names: names(&picks, snips_mode),
            target: kind(target),
            model_value: MODEL_VALUES[model],
            knobs: Knobs {
                max_weight: MAX_WEIGHTS[max_weight],
                horizon,
                groups: EMBEDDINGS[groups].to_vec(),
                logging: kind(logging),
            },
        };
        // Repeated, the stream spans many of a bank's column chunks.
        let rows = rows.iter().cycle().take(rows.len() * repeat).copied();
        let sizes: Vec<usize> = sizes.iter().map(|s| s * repeat).collect();
        let mut records: Vec<TraceRecord> = rows.map(record).collect();
        // Zero overlap: the constant target never plays a logged arm.
        if let (0, Some(t)) = (overlap, setup.target) {
            for rec in &mut records {
                rec.decision = Decision::from_index((t + 1 + rec.decision.index() % 2) % ARMS);
            }
        }
        let (mut bank, mut folds) = (setup.bank(), setup.folds());
        let result = if window == 0 {
            cumulative(&setup, &mut bank, &mut folds, &records, &sizes)
        } else {
            windowed(&setup, &mut bank, &mut folds, &records, &sizes, window)
        };
        prop_assert!(result.is_ok(), "{:?}: {}", setup, result.unwrap_err());
    }
}

/// Cumulative: compared after every batch, then after a save/load round
/// trip, then after the records once more.
fn cumulative(
    setup: &Setup,
    bank: &mut Bank,
    folds: &mut [Box<dyn OnlineEstimator>],
    records: &[TraceRecord],
    sizes: &[usize],
) -> Result<(), String> {
    compare(setup, bank, folds, "empty")?;
    for (b, batch) in chunks(records, sizes).into_iter().enumerate() {
        for rec in batch {
            push(setup, bank, folds, rec)?;
        }
        compare(setup, bank, folds, &format!("batch {b}"))?;
    }
    let mut loaded = setup.bank();
    loaded.state_load(&bank.state_save())?;
    compare(setup, &loaded, folds, "loaded")?;
    for rec in records {
        push(setup, &mut loaded, folds, rec)?;
    }
    compare(setup, &loaded, folds, "loaded, then more")
}

/// Windowed: after each batch the bank replays the ring, as a windowed
/// session's estimate does, and each fold is reset and replays it too.
fn windowed(
    setup: &Setup,
    bank: &mut Bank,
    folds: &mut [Box<dyn OnlineEstimator>],
    records: &[TraceRecord],
    sizes: &[usize],
    capacity: usize,
) -> Result<(), String> {
    let needs = setup.names.iter().any(|n| setup.needs_propensity(n));
    let mut ring = VecDeque::new();
    for (b, batch) in chunks(records, sizes).into_iter().enumerate() {
        // The session keeps only the records ingest accepts.
        for rec in batch.iter().filter(|r| !needs || r.propensity.is_some()) {
            if ring.len() == capacity {
                ring.pop_front();
            }
            ring.push_back(rec.clone());
        }
        bank.replay(&ring).map_err(|e| format!("replay: {e}"))?;
        for fold in folds.iter_mut() {
            fold.reset();
            for rec in &ring {
                fold.push(rec).map_err(|e| format!("fold replay: {e}"))?;
            }
        }
        compare(setup, bank, folds, &format!("window after batch {b}"))?;
    }
    Ok(())
}

// ---- a saved bank whose shared pairs disagree ---------------------------

fn records(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            let p = [0.2, 0.5, 0.3][i % ARMS];
            record(((i % 2) as u32, i % ARMS, (i % 7) as f64 - 2.5, p, 1))
        })
        .collect()
}

/// `states` with `f` applied to member `i`'s field `key`.
fn tweak(states: &[Json], i: usize, key: &str, f: impl FnOnce(&mut Json)) -> Vec<Json> {
    let mut out = states.to_vec();
    let Json::Object(fields) = &mut out[i] else {
        panic!("a saved state is an object");
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == key).unwrap();
    f(value);
    out
}

/// The next float up from a bit-pattern integer: one ulp.
fn ulp(bits: &mut Json) {
    let Json::Int(b) = bits else {
        panic!("saved floats are bit patterns");
    };
    *b += 1;
}

fn pairs(value: &mut Json) -> &mut Vec<Json> {
    let Json::Array(flat) = value else {
        panic!("pairs are a flat array");
    };
    flat
}

fn text(states: &[Json]) -> String {
    Json::Array(states.to_vec()).to_string()
}

#[test]
fn a_bank_whose_shared_pairs_disagree_is_refused_whole() {
    let names = ["ips", "snips", "adaptive", "adaptive_dr", "snips"];
    let setup = Setup {
        names: names.iter().map(|n| n.to_string()).collect(),
        target: Some(1),
        model_value: 0.5,
        knobs: Knobs {
            max_weight: 10.0,
            horizon: 1,
            groups: EMBEDDINGS[0].to_vec(),
            logging: None,
        },
    };
    let mut bank = setup.bank();
    for rec in &records(40) {
        bank.push(rec).unwrap();
    }
    let states = bank.state_save();
    let mut again = setup.bank();
    again.state_load(&states).unwrap();
    assert_eq!(text(&again.state_save()), text(&states));

    let last = |v: &mut Json| {
        let flat = pairs(v);
        flat.truncate(flat.len() - 2);
    };
    let cases = [
        (
            "an adaptive h",
            tweak(&states, 2, "pairs", |v| ulp(&mut pairs(v)[10])),
        ),
        (
            "an adaptive Γ",
            tweak(&states, 2, "pairs", |v| ulp(&mut pairs(v)[11])),
        ),
        (
            "an adaptive_dr Γ",
            tweak(&states, 3, "pairs", |v| ulp(&mut pairs(v)[7])),
        ),
        ("the adaptive ema", tweak(&states, 2, "ema", ulp)),
        ("the adaptive_dr ema", tweak(&states, 3, "ema", ulp)),
        ("the adaptive pair count", tweak(&states, 2, "pairs", last)),
        (
            "the first snips' pair count",
            tweak(&states, 1, "pairs", last),
        ),
        (
            "the second snips' r",
            tweak(&states, 4, "pairs", |v| ulp(&mut pairs(v)[5])),
        ),
    ];
    for (case, bad) in cases {
        let mut held = setup.bank();
        for rec in &records(9) {
            held.push(rec).unwrap();
        }
        let before = text(&held.state_save());
        let err = held.state_load(&bad).expect_err(case);
        assert!(err.contains("disagrees"), "{case}: {err}");
        assert_eq!(
            text(&held.state_save()),
            before,
            "{case}: the refused load changed the bank"
        );
    }
    // Without snips nothing is shared: each adaptive member keeps its own
    // pairs, as a standalone fold does.
    let alone = Setup {
        names: vec!["adaptive".to_string()],
        ..setup
    };
    let mut bank = alone.bank();
    for rec in &records(5) {
        bank.push(rec).unwrap();
    }
    let states = tweak(&bank.state_save(), 0, "ema", ulp);
    alone.bank().state_load(&states).unwrap();
}

#[test]
fn an_unknown_name_lists_the_registry() {
    let setup = Setup {
        names: vec!["ips".to_string(), "nope".to_string()],
        target: None,
        model_value: 0.0,
        knobs: Knobs {
            max_weight: 10.0,
            horizon: 1,
            groups: EMBEDDINGS[0].to_vec(),
            logging: None,
        },
    };
    let err = Bank::new(&setup.names, &space(), probs(None), 0.0, &setup.knobs).err();
    let want = format!("unknown estimator \"nope\" (expected {})", menu::names());
    assert_eq!(err, Some(want));
    // A mismatched error is the batch path's, as a standalone fold's.
    let short = Bank::new(&setup.names[..1], &space(), vec![1.0], 0.0, &setup.knobs).err();
    let fold = OnlineIps::new(
        space(),
        Box::new(LookupPolicy::constant(DecisionSpace::of(&["a"]), 0)),
    );
    let want: Option<EstimatorError> = fold.err();
    assert_eq!(short, want.map(|e| e.to_string()));
}
