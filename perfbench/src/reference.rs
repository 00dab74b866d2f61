//! Independent computations the workloads check the program against.
//!
//! Everything here is written from the paper's and the modules' documented
//! rules, in plain scalar code, without calling the program's analysis
//! code: §4.5's 1-NN / state-histogram / median / L1 black-box distance,
//! the threshold-and-consecutive-windows alarm rule, the node-window
//! tally behind balanced accuracy and detection latency, and the flat
//! median/MAD deviation ranking `metric_rank` documents.

use std::collections::BTreeMap;

use asdf_core::module::Envelope;

use crate::measure::median;

/// Relative tolerance for "the same real number computed two ways".
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One analysis instance's output, regrouped per evaluation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Windows {
    /// Window timestamps, ascending.
    pub times: Vec<u64>,
    /// `scores[w][node]` (`dist` or `kcrit`).
    pub scores: Vec<Vec<f64>>,
    /// `alarms[w][node]`.
    pub alarms: Vec<Vec<bool>>,
}

impl Windows {
    /// Regroups `alarm<i>` / `<score_prefix><i>` envelopes by timestamp,
    /// requiring every window to carry exactly one of each per node.
    pub fn parse(envs: &[Envelope], n_nodes: usize, score_prefix: &str) -> Result<Self, String> {
        type Row = (Vec<Option<f64>>, Vec<Option<bool>>);
        let mut by_time: BTreeMap<u64, Row> = BTreeMap::new();
        for env in envs {
            let t = env.sample.timestamp.as_secs();
            let row = by_time
                .entry(t)
                .or_insert_with(|| (vec![None; n_nodes], vec![None; n_nodes]));
            let name = env.source.name.as_str();
            let (slot, idx) = if let Some(i) = name.strip_prefix("alarm") {
                (0, i)
            } else if let Some(i) = name.strip_prefix(score_prefix) {
                (1, i)
            } else {
                return Err(format!("unexpected port `{name}`"));
            };
            let node: usize = idx
                .parse()
                .ok()
                .filter(|&n| n < n_nodes)
                .ok_or_else(|| format!("bad node index in port `{name}`"))?;
            let dup = if slot == 0 {
                let v = env.sample.value.as_bool().ok_or("alarm is not a bool")?;
                row.1[node].replace(v).is_some()
            } else {
                let v = env.sample.value.as_float().ok_or("score is not a number")?;
                row.0[node].replace(v).is_some()
            };
            if dup {
                return Err(format!("port `{name}` emitted twice at t={t}"));
            }
        }
        let mut w = Windows::default();
        for (t, (scores, alarms)) in by_time {
            let scores: Option<Vec<f64>> = scores.into_iter().collect();
            let alarms: Option<Vec<bool>> = alarms.into_iter().collect();
            let (Some(scores), Some(alarms)) = (scores, alarms) else {
                return Err(format!("window t={t} lacks a verdict for some node"));
            };
            w.times.push(t);
            w.scores.push(scores);
            w.alarms.push(alarms);
        }
        Ok(w)
    }
}

/// The alarm rule: a node-window is anomalous when `anomalous(score)`,
/// and the node alarms once `consecutive` anomalous windows run in a row.
pub fn alarm_rule(
    scores: &[Vec<f64>],
    anomalous: impl Fn(f64) -> bool,
    consecutive: usize,
) -> Vec<Vec<bool>> {
    let mut streak: Vec<usize> = Vec::new();
    scores
        .iter()
        .map(|row| {
            streak.resize(row.len(), 0);
            row.iter()
                .zip(streak.iter_mut())
                .map(|(&s, run)| {
                    *run = if anomalous(s) { *run + 1 } else { 0 };
                    *run >= consecutive
                })
                .collect()
        })
        .collect()
}

/// Checks an instance's own alarms against [`alarm_rule`] over its scores.
pub fn check_alarms(
    w: &Windows,
    anomalous: impl Fn(f64) -> bool,
    consecutive: usize,
) -> Option<String> {
    let expect = alarm_rule(&w.scores, anomalous, consecutive);
    (expect != w.alarms).then(|| {
        let bad = expect
            .iter()
            .zip(&w.alarms)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        format!(
            "alarms at t={} disagree with the threshold/consecutive rule",
            w.times[bad]
        )
    })
}

/// Combined verdicts: per window present in every stream, a node is
/// flagged when any stream flags it. Returns `(times, alarms)`.
pub fn combine(streams: &[&Windows]) -> (Vec<u64>, Vec<Vec<bool>>) {
    let Some(first) = streams.first() else {
        return (Vec::new(), Vec::new());
    };
    let mut times = Vec::new();
    let mut alarms = Vec::new();
    for (w, &t) in first.times.iter().enumerate() {
        let mut row = first.alarms[w].clone();
        let mut everywhere = true;
        for s in &streams[1..] {
            match s.times.binary_search(&t) {
                Ok(i) => {
                    for (flag, &other) in row.iter_mut().zip(&s.alarms[i]) {
                        *flag |= other;
                    }
                }
                Err(_) => everywhere = false,
            }
        }
        if everywhere {
            times.push(t);
            alarms.push(row);
        }
    }
    (times, alarms)
}

/// Balanced accuracy (percent) of node-window verdicts: the mean recall
/// over the classes present. A node-window is a problem when it belongs to
/// `culprit` at or after `injected_at`; with no culprit only the
/// problem-free class is present and this is the specificity.
pub fn balanced_accuracy_pct(
    times: &[u64],
    alarms: &[Vec<bool>],
    culprit: Option<usize>,
    injected_at: u64,
) -> f64 {
    let (mut tp, mut fn_, mut tn, mut fp) = (0u64, 0u64, 0u64, 0u64);
    for (&t, row) in times.iter().zip(alarms) {
        for (node, &flag) in row.iter().enumerate() {
            let problem = culprit == Some(node) && t >= injected_at;
            match (problem, flag) {
                (true, true) => tp += 1,
                (true, false) => fn_ += 1,
                (false, false) => tn += 1,
                (false, true) => fp += 1,
            }
        }
    }
    let mut recalls = Vec::new();
    if tp + fn_ > 0 {
        recalls.push(tp as f64 / (tp + fn_) as f64);
    }
    if tn + fp > 0 {
        recalls.push(tn as f64 / (tn + fp) as f64);
    }
    if recalls.is_empty() {
        return 0.0;
    }
    100.0 * recalls.iter().sum::<f64>() / recalls.len() as f64
}

/// Simulated seconds from injection to the first window flagging the
/// culprit. A fault never flagged counts as the whole post-injection span
/// `run_end - injected_at` (censored at the end of the run).
pub fn detect_latency_s(
    times: &[u64],
    alarms: &[Vec<bool>],
    culprit: usize,
    injected_at: u64,
    run_end: u64,
) -> f64 {
    times
        .iter()
        .zip(alarms)
        .find(|(&t, row)| t >= injected_at && row[culprit])
        .map_or(run_end - injected_at, |(&t, _)| t - injected_at) as f64
}

/// §4.5's scaling and 1-NN: `x'_i = ln(1 + s_i) / σ_i`, Euclidean distance
/// to every centroid. Returns every state whose distance is within
/// [`REL_TOL`] of the nearest (usually exactly one).
pub fn nearest_states(raw: &[f64], stddev: &[f64], centroids: &[Vec<f64>]) -> Vec<usize> {
    let scaled: Vec<f64> = raw
        .iter()
        .zip(stddev)
        .map(|(&x, &s)| x.max(0.0).ln_1p() / s)
        .collect();
    let dists: Vec<f64> = centroids
        .iter()
        .map(|c| {
            let mut d2 = 0.0;
            for (a, b) in scaled.iter().zip(c) {
                d2 += (a - b) * (a - b);
            }
            d2.sqrt()
        })
        .collect();
    let best = dists.iter().copied().fold(f64::INFINITY, f64::min);
    (0..dists.len())
        .filter(|&i| dists[i] <= best * (1.0 + REL_TOL))
        .collect()
}

/// §4.5's black-box distances: per window of `window` consecutive states,
/// each node's state histogram, the component-wise median histogram
/// across nodes, and each node's L1 distance from it.
/// `states[node][second]`; returns `dist[window][node]`.
pub fn bb_distances(states: &[Vec<usize>], n_states: usize, window: usize) -> Vec<Vec<f64>> {
    let seconds = states.iter().map(Vec::len).min().unwrap_or(0);
    (0..seconds / window)
        .map(|w| {
            let hists: Vec<Vec<f64>> = states
                .iter()
                .map(|s| {
                    let mut h = vec![0.0; n_states];
                    for &st in &s[w * window..(w + 1) * window] {
                        h[st] += 1.0;
                    }
                    h
                })
                .collect();
            let med: Vec<f64> = (0..n_states)
                .map(|k| median(&hists.iter().map(|h| h[k]).collect::<Vec<_>>()))
                .collect();
            hists
                .iter()
                .map(|h| h.iter().zip(&med).map(|(a, m)| (a - m).abs()).sum())
                .collect()
        })
        .collect()
}

/// `metric_rank`'s documented deviation score for every node and metric,
/// from per-node window means `means[node][metric]`:
/// `|mean − median| / (MAD + 0.01·(1 + |median|))`, median and MAD taken
/// across nodes.
pub fn deviation_scores(means: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let dim = means.first().map_or(0, Vec::len);
    let mut base = vec![0.0; dim];
    let mut mad = vec![0.0; dim];
    for d in 0..dim {
        let col: Vec<f64> = means.iter().map(|m| m[d]).collect();
        base[d] = median(&col);
        let dev: Vec<f64> = col.iter().map(|x| (x - base[d]).abs()).collect();
        mad[d] = median(&dev);
    }
    means
        .iter()
        .map(|m| {
            (0..dim)
                .map(|d| (m[d] - base[d]).abs() / (mad[d] + 0.01 * (1.0 + base[d].abs())))
                .collect()
        })
        .collect()
}

/// The top-`k` `(metric, score)` pairs of one node, most deviant first,
/// ties toward the lower metric index.
pub fn top_k(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut r: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    r.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    r.truncate(k);
    r
}

/// Checks one emitted ranking row `[idx0, score0, idx1, score1, …]`
/// against the node's reference scores. Near-equal scores may come out in
/// either order, so each position must carry the reference's score at
/// that rank, and each named metric must score what the row claims.
pub fn check_ranking(row: &[f64], scores: &[f64], k: usize) -> Option<String> {
    let expect = top_k(scores, k);
    if row.len() != 2 * expect.len() {
        return Some(format!("ranking has {} values, want {}", row.len(), 2 * k));
    }
    for (p, (pair, &(_, want))) in row.chunks_exact(2).zip(&expect).enumerate() {
        let (idx, got) = (pair[0], pair[1]);
        let ok_idx = idx >= 0.0 && idx.fract() == 0.0 && (idx as usize) < scores.len();
        if !ok_idx || !close(got, want) || !close(scores[idx as usize], got) {
            return Some(format!(
                "rank {p}: program says metric {idx} scores {got}, reference top score is {want}"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_nn_scales_by_log_and_sigma() {
        // ln(1 + (e² − 1)) / 2 = 1, so the scaled point is (1, 0).
        let raw = [std::f64::consts::E.powi(2) - 1.0, 0.0];
        let stddev = [2.0, 1.0];
        let cents = vec![vec![0.0, 0.0], vec![1.0, 0.1], vec![3.0, 0.0]];
        assert_eq!(nearest_states(&raw, &stddev, &cents), vec![1]);
    }

    #[test]
    fn one_nn_accepts_either_state_of_a_tie() {
        let cents = vec![vec![0.0], vec![2.0], vec![5.0]];
        // ln(1 + (e − 1)) = 1: equidistant from centroids 0 and 2.
        let raw = [std::f64::consts::E - 1.0];
        assert_eq!(nearest_states(&raw, &[1.0], &cents), vec![0, 1]);
    }

    #[test]
    fn bb_distance_is_l1_from_the_median_histogram() {
        // Three nodes, window 4, two states. Histograms: [4,0], [3,1],
        // [0,4]; median [3,1]; L1 distances 2, 0, 6.
        let states = vec![vec![0, 0, 0, 0], vec![0, 1, 0, 0], vec![1, 1, 1, 1]];
        assert_eq!(bb_distances(&states, 2, 4), vec![vec![2.0, 0.0, 6.0]]);
    }

    #[test]
    fn alarm_needs_consecutive_anomalous_windows() {
        let scores = vec![vec![9.0], vec![9.0], vec![1.0], vec![9.0], vec![9.0]];
        let a = alarm_rule(&scores, |d| d > 5.0, 2);
        let flags: Vec<bool> = a.iter().map(|r| r[0]).collect();
        assert_eq!(flags, [false, true, false, false, true]);
    }

    #[test]
    fn median_mad_score_follows_the_documented_rule() {
        // One metric over five nodes: means 1, 2, 3, 4, 100. Median 3,
        // absolute deviations 2, 1, 0, 1, 97 → MAD 1, floor 0.01·(1+3).
        let means: Vec<Vec<f64>> = [1.0, 2.0, 3.0, 4.0, 100.0]
            .iter()
            .map(|&m| vec![m])
            .collect();
        let s = deviation_scores(&means);
        assert!((s[4][0] - 97.0 / 1.04).abs() < 1e-12);
        assert_eq!(s[2][0], 0.0);
        assert!((s[0][0] - 2.0 / 1.04).abs() < 1e-12);
    }

    #[test]
    fn ranking_breaks_ties_toward_the_lower_index() {
        assert_eq!(
            top_k(&[1.0, 3.0, 3.0, 2.0], 3),
            vec![(1, 3.0), (2, 3.0), (3, 2.0)]
        );
        // A row listing the tied pair the other way round is accepted.
        assert!(check_ranking(&[2.0, 3.0, 1.0, 3.0], &[1.0, 3.0, 3.0, 2.0], 2).is_none());
        assert!(check_ranking(&[3.0, 2.0, 1.0, 3.0], &[1.0, 3.0, 3.0, 2.0], 2).is_some());
    }

    #[test]
    fn undetected_fault_is_censored_at_the_end_of_the_run() {
        let times = [599, 659, 719, 779];
        let quiet = vec![vec![false, false]; 4];
        assert_eq!(detect_latency_s(&times, &quiet, 1, 600, 1800), 1200.0);
        let mut late = quiet.clone();
        late[3][1] = true;
        assert_eq!(detect_latency_s(&times, &late, 1, 600, 1800), 179.0);
        // An alarm before injection is not a detection.
        let mut early = quiet;
        early[0][1] = true;
        assert_eq!(detect_latency_s(&times, &early, 1, 600, 1800), 1200.0);
    }

    #[test]
    fn balanced_accuracy_averages_the_classes_present() {
        let times = [100, 700];
        // Culprit 0 injected at 600: one problem window (flagged), three
        // problem-free ones (one flagged).
        let alarms = vec![vec![false, true], vec![true, false]];
        let ba = balanced_accuracy_pct(&times, &alarms, Some(0), 600);
        assert!((ba - 100.0 * (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        // Fault-free: specificity alone.
        assert_eq!(balanced_accuracy_pct(&times, &alarms, None, 0), 50.0);
    }
}
