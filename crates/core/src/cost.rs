//! SAPE's cost model (§V-A): per-subquery cardinality estimation and the
//! delayed-subquery decision.
//!
//! Cardinalities are the per-(pattern, relevant endpoint) counts source
//! selection already read off its `COUNT` probes of the bare triple
//! pattern (`source_selection.rs`), so the cost model sends nothing.
//! Pushed filters do not ride along: a filtered subquery only errs high.
//!
//! For a subquery `sq` and variable `v`:
//!
//! ```text
//! C(sq, v, ep) = min over patterns TP of sq containing v of C(TP, ep)
//! C(sq, v)     = Σ over relevant endpoints ep of C(sq, v, ep)
//! C(sq)        = max over projected variables v of C(sq, v)
//! ```
//!
//! A subquery is **delayed** when its estimated cardinality (or its number
//! of relevant endpoints) exceeds `μ + kσ` computed over all subqueries
//! *after Chauvenet outlier rejection* — outliers would otherwise inflate
//! `σ` and mask themselves. `μ+σ` (the paper's choice, validated in its
//! Fig. 9) is the default; the other thresholds are kept for the Fig. 9
//! reproduction.

use crate::source_selection::SourceMap;
use crate::subquery::Subquery;
use lusail_endpoint::EndpointId;
use lusail_sparql::ast::TriplePattern;

/// The delay-threshold policy (Fig. 9 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayPolicy {
    /// Delay when the estimate exceeds `μ`.
    Mu,
    /// Delay when the estimate exceeds `μ + σ` (the paper's default).
    #[default]
    MuSigma,
    /// Delay when the estimate exceeds `μ + 2σ`.
    Mu2Sigma,
    /// Delay only Chauvenet-rejected outliers.
    OutliersOnly,
}

/// When SAPE runs a subquery: the cost model's verdict, fixed at plan time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Phase 1: fetched unbound, together with the group's other
    /// concurrent subqueries.
    Concurrent,
    /// Phase 2: bound with the bindings found so far. The reason names the
    /// channel (cardinality or fan-out) and the threshold it exceeded.
    Delayed(String),
    /// Delayed by the cost model like every other subquery of its group,
    /// and the most selective of them: it runs in phase 1, so phase 1 is
    /// never empty.
    Promoted(String),
}

impl Schedule {
    /// Why the cost model delayed the subquery; `None` when it did not.
    pub fn delay_reason(&self) -> Option<&str> {
        match self {
            Schedule::Concurrent => None,
            Schedule::Delayed(reason) | Schedule::Promoted(reason) => Some(reason),
        }
    }
}

/// The cost model over one group's subqueries: per subquery its estimate
/// `C(sq)` and its [`Schedule`]. A lone subquery has nothing to be delayed
/// behind: it is not estimated and runs concurrently. When every subquery
/// is delayed, the one with the lowest estimate (the first on ties) is
/// promoted.
pub(crate) fn schedule(
    subqueries: &[Subquery],
    sources: &SourceMap,
    policy: DelayPolicy,
) -> Vec<(Option<u64>, Schedule)> {
    if subqueries.len() < 2 {
        return vec![(None, Schedule::Concurrent); subqueries.len()];
    }
    let cardinality = estimate_cardinalities(subqueries, sources);
    let fanouts: Vec<usize> = subqueries.iter().map(|sq| sq.sources.len()).collect();
    let decision = decide_delays_detailed(&cardinality, &fanouts, policy);
    let reasons: Vec<Option<String>> = (0..subqueries.len())
        .map(|i| decision.reason(i, cardinality[i], fanouts[i]))
        .collect();
    let promoted = match reasons.iter().all(Option::is_some) {
        true => (0..cardinality.len()).min_by_key(|&i| cardinality[i]),
        false => None,
    };
    (cardinality.iter().zip(reasons).enumerate())
        .map(|(i, (&estimate, reason))| {
            let schedule = match reason {
                None => Schedule::Concurrent,
                Some(reason) if promoted == Some(i) => Schedule::Promoted(reason),
                Some(reason) => Schedule::Delayed(reason),
            };
            (Some(estimate), schedule)
        })
        .collect()
}

/// Estimates `C(sq)` for every subquery from the pattern counts `sources`
/// holds (source selection's `COUNT`s; a failed one is the endpoint's total
/// triple count).
fn estimate_cardinalities(subqueries: &[Subquery], sources: &SourceMap) -> Vec<u64> {
    // Pushed filters are attached per-subquery, so the count is the bare
    // pattern's; subqueries with filters estimate slightly high, which only
    // errs toward delaying them.
    let count_of = |tp: &TriplePattern, ep: EndpointId| sources.cardinality(tp, ep).unwrap_or(0);

    subqueries
        .iter()
        .map(|sq| {
            let vars = sq.vars();
            let projected: Vec<&String> =
                vars.iter().filter(|v| sq.projection.contains(v)).collect();
            let mut c_sq = 0u64;
            for v in projected {
                // C(sq, v) = Σ_ep min over patterns containing v.
                let mut c_v = 0u64;
                for &ep in &sq.sources {
                    let c_v_ep = sq
                        .triples
                        .iter()
                        .filter(|tp| tp.mentions(v))
                        .map(|tp| count_of(tp, ep))
                        .min()
                        .unwrap_or(0);
                    c_v += c_v_ep;
                }
                c_sq = c_sq.max(c_v);
            }
            if c_sq == 0 {
                // A subquery with no projected variables (all constants) or
                // no statistics: fall back to the max pattern count.
                c_sq = sq
                    .triples
                    .iter()
                    .flat_map(|tp| sq.sources.iter().map(move |&ep| count_of(tp, ep)))
                    .max()
                    .unwrap_or(0);
            }
            c_sq
        })
        .collect()
}

/// The full delay decision, with the per-channel thresholds that caused
/// it — the payload behind trace delay-reason events.
#[derive(Debug, Clone, Default)]
pub struct DelayDecision {
    /// Whether the *cardinality* channel flagged each subquery.
    pub by_cardinality: Vec<bool>,
    /// Whether the *fan-out* channel flagged each subquery.
    pub by_fanout: Vec<bool>,
    /// The `μ + kσ` threshold of the cardinality channel (`None` for
    /// [`DelayPolicy::OutliersOnly`], where Chauvenet rejection itself is
    /// the criterion, and for trivially small inputs).
    pub cardinality_threshold: Option<f64>,
    /// The `μ + kσ` threshold of the fan-out channel.
    pub fanout_threshold: Option<f64>,
}

impl DelayDecision {
    /// A human-readable reason for subquery `i`'s delay, naming the
    /// channel and the threshold that flagged it. `None` when `i` is not
    /// delayed.
    pub fn reason(&self, i: usize, cardinality: u64, fanout: usize) -> Option<String> {
        if self.by_cardinality.get(i).copied().unwrap_or(false) {
            return Some(match self.cardinality_threshold {
                Some(t) => format!("cardinality {cardinality} > μ+kσ threshold {t:.1}"),
                None => format!("cardinality {cardinality} is a Chauvenet outlier"),
            });
        }
        if self.by_fanout.get(i).copied().unwrap_or(false) {
            return Some(match self.fanout_threshold {
                Some(t) => format!("fan-out {fanout} > μ+kσ threshold {t:.1}"),
                None => format!("fan-out {fanout} is a Chauvenet outlier"),
            });
        }
        None
    }
}

/// Decides which subqueries to delay given cardinalities and endpoint
/// fan-outs, with the per-channel verdicts and thresholds.
pub(crate) fn decide_delays_detailed(
    cardinalities: &[u64],
    fanouts: &[usize],
    policy: DelayPolicy,
) -> DelayDecision {
    assert_eq!(cardinalities.len(), fanouts.len());
    let n = cardinalities.len();
    if n <= 1 {
        return DelayDecision {
            by_cardinality: vec![false; n],
            by_fanout: vec![false; n],
            cardinality_threshold: None,
            fanout_threshold: None,
        };
    }
    let cards: Vec<f64> = cardinalities.iter().map(|&c| c as f64).collect();
    let fans: Vec<f64> = fanouts.iter().map(|&f| f as f64).collect();
    let (by_cardinality, cardinality_threshold) = threshold_exceeders(&cards, policy);
    let (by_fanout, fanout_threshold) = threshold_exceeders(&fans, policy);
    DelayDecision {
        by_cardinality,
        by_fanout,
        cardinality_threshold,
        fanout_threshold,
    }
}

/// Marks the values exceeding the policy threshold computed over the
/// Chauvenet inliers, returning the threshold itself alongside (`None`
/// for the outliers-only policy, which has no numeric threshold).
fn threshold_exceeders(xs: &[f64], policy: DelayPolicy) -> (Vec<bool>, Option<f64>) {
    let inliers = chauvenet_inliers(xs);
    if let DelayPolicy::OutliersOnly = policy {
        return (inliers.iter().map(|&keep| !keep).collect(), None);
    }
    let kept: Vec<f64> = xs
        .iter()
        .zip(&inliers)
        .filter(|(_, &keep)| keep)
        .map(|(&x, _)| x)
        .collect();
    let (mu, sigma) = mean_std(&kept);
    let k = match policy {
        DelayPolicy::Mu => 0.0,
        DelayPolicy::MuSigma => 1.0,
        DelayPolicy::Mu2Sigma => 2.0,
        DelayPolicy::OutliersOnly => unreachable!(),
    };
    let threshold = mu + k * sigma;
    (xs.iter().map(|&x| x > threshold).collect(), Some(threshold))
}

/// Chauvenet's criterion: a sample is rejected when the expected number of
/// samples as extreme as it, `N · erfc(|x−μ|/(σ√2))`, falls below 1/2.
pub(crate) fn chauvenet_inliers(xs: &[f64]) -> Vec<bool> {
    let n = xs.len();
    if n == 2 {
        // Chauvenet cannot reject anything from a two-point sample (both
        // points always sit exactly 1σ from the mean), yet the paper's
        // two-subquery queries (LUBM Q3/Q4) do delay their dominant
        // subquery. Treat a clearly dominant point (>2× the other) as the
        // outlier so the μ+kσ threshold is computed from the small one.
        let (a, b) = (xs[0], xs[1]);
        if a > 2.0 * b {
            return vec![false, true];
        }
        if b > 2.0 * a {
            return vec![true, false];
        }
        return vec![true, true];
    }
    if n < 3 {
        return vec![true; n];
    }
    let (mu, sigma) = mean_std(xs);
    if sigma == 0.0 {
        return vec![true; n];
    }
    xs.iter()
        .map(|&x| {
            let z = (x - mu).abs() / sigma;
            (n as f64) * erfc(z / std::f64::consts::SQRT_2) >= 0.5
        })
        .collect()
}

/// Mean and *sample* standard deviation (Bessel's correction).
fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mu = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mu, 0.0);
    }
    let var = xs.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (n - 1.0);
    (mu, var.sqrt())
}

/// Complementary error function (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e−7).
pub(crate) fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if sign_negative {
        1.0 + erf
    } else {
        1.0 - erf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether each subquery is delayed (either channel).
    fn delayed(d: &DelayDecision) -> Vec<bool> {
        (d.by_cardinality.iter().zip(&d.by_fanout))
            .map(|(&c, &f)| c || f)
            .collect()
    }

    fn decide_delays(cards: &[u64], fanouts: &[usize], policy: DelayPolicy) -> Vec<bool> {
        delayed(&decide_delays_detailed(cards, fanouts, policy))
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004678).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
    }

    #[test]
    fn chauvenet_rejects_extreme_outlier() {
        let xs = [10.0, 11.0, 9.0, 10.5, 9.5, 1_000_000.0];
        let inliers = chauvenet_inliers(&xs);
        assert_eq!(inliers, [true, true, true, true, true, false]);
    }

    #[test]
    fn chauvenet_keeps_uniform_data() {
        let xs = [5.0, 5.0, 5.0, 5.0];
        assert!(chauvenet_inliers(&xs).iter().all(|&b| b));
        let xs = [4.0, 5.0, 6.0, 5.0];
        assert!(chauvenet_inliers(&xs).iter().all(|&b| b));
    }

    #[test]
    fn mu_sigma_delays_only_large() {
        // One subquery returns far more than the rest.
        let cards = [100, 100, 100, 100, 100_000];
        let fans = [2, 2, 2, 2, 2];
        let delayed = decide_delays(&cards, &fans, DelayPolicy::MuSigma);
        assert_eq!(delayed, [false, false, false, false, true]);
    }

    #[test]
    fn mu_policy_delays_more_than_mu2sigma() {
        let cards = [10, 50, 100, 150, 500];
        let fans = [1, 1, 1, 1, 1];
        let mu = decide_delays(&cards, &fans, DelayPolicy::Mu);
        let mu2 = decide_delays(&cards, &fans, DelayPolicy::Mu2Sigma);
        let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
        assert!(count(&mu) >= count(&mu2));
        assert!(count(&mu) >= 1);
    }

    #[test]
    fn fanout_alone_can_delay() {
        // Similar cardinalities, but one subquery touches every endpoint.
        let cards = [100, 100, 100, 100, 110];
        let fans = [2, 2, 2, 2, 200];
        let delayed = decide_delays(&cards, &fans, DelayPolicy::MuSigma);
        assert_eq!(delayed, [false, false, false, false, true]);
    }

    #[test]
    fn outliers_only_is_most_permissive() {
        let cards = [100, 150, 200, 250, 800];
        let fans = [1, 1, 1, 1, 1];
        let outliers = decide_delays(&cards, &fans, DelayPolicy::OutliersOnly);
        let musigma = decide_delays(&cards, &fans, DelayPolicy::MuSigma);
        let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
        assert!(count(&outliers) <= count(&musigma));
    }

    #[test]
    fn single_subquery_never_delayed() {
        assert_eq!(decide_delays(&[1_000_000], &[50], DelayPolicy::Mu), [false]);
        assert!(decide_delays(&[], &[], DelayPolicy::MuSigma).is_empty());
    }

    #[test]
    fn chauvenet_tiny_samples_keep_everything() {
        assert!(chauvenet_inliers(&[]).is_empty());
        assert_eq!(chauvenet_inliers(&[7.0]), [true]);
        // Two points within the dominance factor: both kept.
        assert_eq!(chauvenet_inliers(&[10.0, 15.0]), [true, true]);
        assert_eq!(chauvenet_inliers(&[15.0, 10.0]), [true, true]);
    }

    #[test]
    fn two_point_dominance_rejects_the_large_one() {
        // A two-point sample always sits exactly 1σ from its mean, so
        // plain Chauvenet can never reject; the >2× dominance rule stands
        // in (the paper's two-subquery LUBM Q3/Q4 shape).
        assert_eq!(chauvenet_inliers(&[10.0, 100.0]), [true, false]);
        assert_eq!(chauvenet_inliers(&[100.0, 10.0]), [false, true]);
        // The dominant subquery is then delayed under every threshold.
        for policy in [DelayPolicy::Mu, DelayPolicy::MuSigma, DelayPolicy::Mu2Sigma] {
            assert_eq!(
                decide_delays(&[10, 100], &[1, 1], policy),
                [false, true],
                "{policy:?}"
            );
        }
        // Exactly 2× is *not* dominant: threshold math over both points.
        assert_eq!(chauvenet_inliers(&[10.0, 20.0]), [true, true]);
    }

    #[test]
    fn detailed_decision_surfaces_threshold_and_reason() {
        let cards = [100, 100, 100, 100, 100_000];
        let fans = [2, 2, 2, 2, 2];
        let d = decide_delays_detailed(&cards, &fans, DelayPolicy::MuSigma);
        assert_eq!(delayed(&d), [false, false, false, false, true]);
        assert_eq!(d.by_cardinality, delayed(&d));
        assert!(d.by_fanout.iter().all(|&b| !b));
        // Chauvenet rejects the outlier, so the threshold is computed over
        // the four identical inliers: μ = 100, σ = 0.
        assert_eq!(d.cardinality_threshold, Some(100.0));
        let reason = d.reason(4, cards[4], fans[4]).unwrap();
        assert!(
            reason.contains("cardinality 100000") && reason.contains("100.0"),
            "unexpected reason: {reason}"
        );
        assert_eq!(d.reason(0, cards[0], fans[0]), None);
        // Every delayed index must have a reason, under every policy.
        for policy in [
            DelayPolicy::Mu,
            DelayPolicy::MuSigma,
            DelayPolicy::Mu2Sigma,
            DelayPolicy::OutliersOnly,
        ] {
            let d = decide_delays_detailed(&cards, &fans, policy);
            for (i, delayed) in delayed(&d).into_iter().enumerate() {
                assert_eq!(
                    d.reason(i, cards[i], fans[i]).is_some(),
                    delayed,
                    "{policy:?} index {i}"
                );
            }
        }
    }

    #[test]
    fn zero_variance_delays_nothing() {
        // Identical estimates: σ = 0, threshold = μ, and no value exceeds
        // its own mean — nothing may be delayed, under any policy.
        let cards = [42, 42, 42, 42];
        let fans = [3, 3, 3, 3];
        for policy in [
            DelayPolicy::Mu,
            DelayPolicy::MuSigma,
            DelayPolicy::Mu2Sigma,
            DelayPolicy::OutliersOnly,
        ] {
            assert_eq!(
                decide_delays(&cards, &fans, policy),
                [false; 4],
                "{policy:?}"
            );
        }
        // Same for a zero-variance two-point sample.
        assert_eq!(
            decide_delays(&[7, 7], &[2, 2], DelayPolicy::MuSigma),
            [false, false]
        );
    }

    #[test]
    fn uniform_single_endpoint_fanouts_never_delay() {
        // Every subquery resolved by one endpoint: the fan-out channel is
        // all-ones (zero variance) and must not trigger delays on its own.
        assert_eq!(
            decide_delays(&[10, 10, 10, 10], &[1, 1, 1, 1], DelayPolicy::MuSigma),
            [false; 4]
        );
        // With varying cardinalities the decision comes from the
        // cardinality channel alone: any uniform fan-out vector gives the
        // same answer as all-ones.
        let cards = [10, 12, 11, 9];
        assert_eq!(
            decide_delays(&cards, &[1, 1, 1, 1], DelayPolicy::MuSigma),
            decide_delays(&cards, &[5, 5, 5, 5], DelayPolicy::MuSigma)
        );
    }
}
