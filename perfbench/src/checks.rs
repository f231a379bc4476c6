//! Output checks.  Each takes what the benchmark observed after a run and
//! says whether it is correct; a failed check fails every operation of the
//! run.  They are plain functions of their inputs so the self-tests can
//! feed them planted bad results.

use std::collections::BTreeMap;

use rhtm_kv::KvOp;

/// The verdict of one check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values, for the report.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What the constant tree looks like from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeShape {
    /// `count_reachable()`.
    pub nodes: u64,
    /// `depth()`.
    pub depth: u64,
}

/// `rbtree-rh1`: updates write only dummy fields, so the shape after the
/// run must equal the shape before it.
pub fn tree_unchanged(before: TreeShape, after: TreeShape) -> Vec<Check> {
    vec![
        check(
            "rbtree.count_reachable_unchanged",
            before.nodes == after.nodes,
            format!("before={} after={}", before.nodes, after.nodes),
        ),
        check(
            "rbtree.depth_unchanged",
            before.depth == after.depth,
            format!("before={} after={}", before.depth, after.depth),
        ),
    ]
}

/// What the skiplist and its node pool look like at quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListState {
    /// `is_well_formed_quiescent()`.
    pub well_formed: bool,
    /// `pool().unsafe_reclaims()`.
    pub unsafe_reclaims: u64,
    /// `pool().retired_count()`.
    pub retired: u64,
    /// `pool().reclaimed_count()`.
    pub reclaimed: u64,
    /// `pool().pending()`.
    pub pending: u64,
}

/// `skiplist-tl2`: the list is well formed, no node was reclaimed early,
/// and every retired node is either reclaimed or still pending.
pub fn list_quiescent(s: ListState) -> Vec<Check> {
    vec![
        check(
            "skiplist.well_formed",
            s.well_formed,
            format!("is_well_formed_quiescent={}", s.well_formed),
        ),
        check(
            "skiplist.no_unsafe_reclaims",
            s.unsafe_reclaims == 0,
            format!("unsafe_reclaims={}", s.unsafe_reclaims),
        ),
        check(
            "skiplist.retired_eq_reclaimed_plus_pending",
            s.retired == s.reclaimed + s.pending,
            format!(
                "retired={} reclaimed={} pending={}",
                s.retired, s.reclaimed, s.pending
            ),
        ),
    ]
}

/// The value a sequential replay of `ops` leaves at every key they touch,
/// starting from a service where every key holds `initial` (`None` means
/// deleted).
pub fn replay<'a>(
    initial: u64,
    ops: impl IntoIterator<Item = &'a KvOp>,
) -> BTreeMap<u64, Option<u64>> {
    let mut model = BTreeMap::new();
    for op in ops {
        match *op {
            KvOp::Get { key } => {
                model.entry(key).or_insert(Some(initial));
            }
            KvOp::Put { key, value } => {
                model.insert(key, Some(value));
            }
            KvOp::Delete { key } => {
                model.insert(key, None);
            }
            KvOp::Transfer { .. } | KvOp::MultiGet { .. } => {
                unreachable!("the benchmark's mix has no two-key operations")
            }
        }
    }
    model
}

/// `kv-churn-1m`: every key of the replay model holds the model's value
/// when read back through `read`.
pub fn kv_matches(
    model: &BTreeMap<u64, Option<u64>>,
    mut read: impl FnMut(u64) -> Option<u64>,
) -> Check {
    let mut wrong = 0u64;
    let mut first = None;
    for (&key, &want) in model {
        let got = read(key);
        if got != want {
            wrong += 1;
            first.get_or_insert((key, want, got));
        }
    }
    let detail = match first {
        None => format!("{} touched keys match the sequential replay", model.len()),
        Some((key, want, got)) => format!(
            "{wrong} of {} touched keys differ; first: key {key} want {want:?} got {got:?}",
            model.len()
        ),
    };
    check("kv.touched_keys_match_replay", wrong == 0, detail)
}
