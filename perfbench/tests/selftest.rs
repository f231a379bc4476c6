//! Self-tests of the benchmark: the metric catalogue agrees with
//! `BENCHMARK.json`, the arguments are checked, and every output check
//! rejects a planted bad result.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use perfbench::checks::{self, ListState, TreeShape};
use perfbench::closed::Shape;
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{parse_args, WorkloadName};
use rhtm_api::{TmRuntime, TmThread};
use rhtm_kv::{plan_worker, KvConfig, KvMix, KvService, LoadOpts};
use rhtm_mem::{MemConfig, MemMetrics};
use rhtm_workloads::{AlgoKind, AlgoVisitor, ConstantRbTree, TmSpec, TxSkipList};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The text of the JSON array under `key` (the file is flat enough that
/// the first `]` after the key closes it).
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("an array follows the key");
    let close = open + json[open..].find(']').expect("the array is closed");
    &json[open + 1..close]
}

/// Every `"field": "value"` string in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\": \"");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_catalogue_matches(defs: &[MetricDef], key: &str) {
    let json = benchmark_json();
    let listed = section(&json, key);
    let names = strings(listed, "name");
    let units = strings(listed, "unit");
    let better = strings(listed, "better");
    let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, ours, "{key} names differ from the catalogue");
    for (i, d) in defs.iter().enumerate() {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert_eq!(units[i], d.unit, "unit of {}", d.name);
        assert_eq!(better[i], d.better, "direction of {}", d.name);
    }
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    assert_catalogue_matches(END_TO_END, "end_to_end");
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    assert_catalogue_matches(PER_LAYER, "per_layer");
}

#[test]
fn workloads_match_benchmark_json() {
    let json = benchmark_json();
    let names = strings(section(&json, "workloads"), "name");
    let ours: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&args(
        "--workload kv-churn-1m --seed 7 --seconds 20 --trace 1",
    ))
    .unwrap();
    assert_eq!(ok.workload, WorkloadName::KvChurn1m);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 20.0, true));
    for bad in [
        "--workload bank --seed 1",
        "--workload rbtree-rh1",
        "--workload rbtree-rh1 --seed -1",
        "--workload rbtree-rh1 --seed 1 --seconds 0",
        "--workload rbtree-rh1 --seed 1 --seconds 61",
        "--workload rbtree-rh1 --seed 1 --seconds 2.5",
        "--workload rbtree-rh1 --seed 1 --trace 2",
        "--workload rbtree-rh1 --seed 1 --extra 1",
        "--workload rbtree-rh1 --seed",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
    }
}

fn sim(words: usize) -> Arc<rhtm_htm::HtmSim> {
    TmSpec::new(AlgoKind::GlobalLock)
        .mem(MemConfig::with_data_words(words + 4096))
        .build_sim()
}

#[test]
fn tree_check_rejects_a_changed_shape() {
    let tree = ConstantRbTree::new(sim(ConstantRbTree::required_words(1023)), 1023);
    let before = tree.before();
    assert!(tree.check(before).iter().all(|c| c.ok));
    // A planted result: the tree after the run lost nodes and a level.
    let smaller = ConstantRbTree::new(sim(ConstantRbTree::required_words(500)), 500);
    let verdicts = smaller.check(before);
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts.iter().all(|c| !c.ok), "{verdicts:?}");
    // Each half of the check fires on its own.
    let deeper = TreeShape {
        depth: before.depth + 1,
        ..before
    };
    let v = checks::tree_unchanged(before, deeper);
    assert!(v[0].ok && !v[1].ok);
}

#[test]
fn list_check_rejects_each_planted_fault() {
    let good = ListState {
        well_formed: true,
        unsafe_reclaims: 0,
        retired: 10,
        reclaimed: 7,
        pending: 3,
    };
    assert!(checks::list_quiescent(good).iter().all(|c| c.ok));
    let planted = [
        ListState {
            well_formed: false,
            ..good
        },
        ListState {
            unsafe_reclaims: 1,
            ..good
        },
        ListState { pending: 2, ..good },
    ];
    for (i, bad) in planted.into_iter().enumerate() {
        let verdicts = checks::list_quiescent(bad);
        let failed: Vec<usize> = (0..3).filter(|&j| !verdicts[j].ok).collect();
        assert_eq!(failed, vec![i], "{bad:?}");
    }
}

/// Removes a key, then reclaims the retired node early through the
/// pool's mutation hook while the retiring epoch is still live.
struct EarlyReclaim<'a>(&'a TxSkipList);

impl AlgoVisitor for EarlyReclaim<'_> {
    type Out = ();

    fn visit<R: TmRuntime>(self, runtime: R) {
        let mut th = runtime.register_thread();
        assert!(self.0.remove(&mut th, 1).is_some());
        let tid = th.thread_id();
        self.0
            .pool()
            .reclaim_ignoring_epochs(tid, &mut MemMetrics::default());
    }
}

#[test]
fn list_check_rejects_a_real_early_reclaim() {
    let spec = TmSpec::new(AlgoKind::Tl2).mem(MemConfig::with_data_words(
        TxSkipList::required_words(64, 1) + 4096,
    ));
    let sim = spec.build_sim();
    let list = <TxSkipList as Shape>::build(&sim, 64);
    assert!(list.check(()).iter().all(|c| c.ok));
    spec.visit_on(sim, EarlyReclaim(&list));
    let verdicts = list.check(());
    let unsafe_check = verdicts
        .iter()
        .find(|c| c.name == "skiplist.no_unsafe_reclaims")
        .unwrap();
    assert!(!unsafe_check.ok, "{verdicts:?}");
}

#[test]
fn kv_check_rejects_a_flipped_value_and_a_stray_write() {
    let keys = 2_000;
    let service = KvService::new(&TmSpec::new(AlgoKind::Rh2), &KvConfig::new(2, keys, 1));
    let opts = LoadOpts::new(50_000.0, Duration::from_millis(20))
        .with_mix(KvMix::new(40, 30, 30, 0))
        .with_seed(3);
    let plan = plan_worker(&opts, keys, 0);
    assert!(plan.len() > 500);
    let mut worker = service.worker();
    for p in &plan {
        perfbench::kv::execute(&mut worker, &p.op);
    }
    let model = checks::replay(service.initial_value(), plan.iter().map(|p| &p.op));
    assert!(checks::kv_matches(&model, |k| worker.get(k)).ok);

    // A replay model with one flipped value.
    let mut flipped: BTreeMap<u64, Option<u64>> = model.clone();
    let (&key, value) = flipped.iter_mut().next().unwrap();
    *value = match *value {
        Some(v) => Some(v + 1),
        None => Some(1),
    };
    let verdict = checks::kv_matches(&flipped, |k| worker.get(k));
    assert!(!verdict.ok);
    assert!(
        verdict.detail.contains(&format!("key {key}")),
        "{}",
        verdict.detail
    );

    // A service that took one write the plan never made.
    let (&touched, _) = model.iter().next().unwrap();
    worker.put(touched, 0xdead);
    assert!(!checks::kv_matches(&model, |k| worker.get(k)).ok);
}
