//! Fleet-level metric rollups: aggregate several [`crate::Registry`]
//! export documents (one per host) into one fleet document.
//!
//! Operating on the export JSON rather than live registries keeps the
//! rollup usable wherever exports are found — end-of-run reports, files on
//! disk, or hosts whose registries have since been rebuilt. Aggregation is
//! by metric name: counter totals and gauge values sum, histograms sum
//! bucket-wise (shapes must match — same `lo`/`hi`/bucket count — or the
//! rollup errors: same-named histograms with different layouts indicate
//! divergent registrations, and bucket-wise addition across them would
//! silently produce garbage). Per-period series are intentionally dropped:
//! hosts snapshot on their own clocks, so pointwise sums are not
//! meaningful across them; the burn-rate series the fleet layer builds is
//! the cross-host time axis.
//!
//! Output key order follows first appearance across the input documents,
//! so a fixed host order yields byte-identical rollups.

use sim_core::Json;

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    obj.get(key)
}

fn name_of(entry: &Json) -> Option<&str> {
    field(entry, "name").and_then(|n| n.as_str())
}

fn num(entry: &Json, key: &str) -> f64 {
    field(entry, key).and_then(|n| n.as_f64()).unwrap_or(0.0)
}

/// Sum `key`-valued scalars from `section` entries across all docs,
/// keyed by metric name in first-appearance order. Returns
/// `(name, sum, docs_seen)` triples.
fn sum_scalars(docs: &[Json], section: &str, key: &str) -> Vec<(String, f64, u64)> {
    let mut out: Vec<(String, f64, u64)> = Vec::new();
    for doc in docs {
        let Some(Json::Arr(entries)) = field(doc, section) else {
            continue;
        };
        for e in entries {
            let Some(name) = name_of(e) else { continue };
            let v = num(e, key);
            match out.iter_mut().find(|(n, _, _)| n == name) {
                Some(slot) => {
                    slot.1 += v;
                    slot.2 += 1;
                }
                None => out.push((name.to_string(), v, 1)),
            }
        }
    }
    out
}

/// Aggregate per-host registry exports, panicking on a histogram shape
/// mismatch. Prefer [`try_rollup`] where an error can be propagated; a
/// mismatch means two hosts registered the same histogram name with
/// different layouts, which is a programming error, never data.
pub fn rollup(docs: &[Json]) -> Json {
    match try_rollup(docs) {
        Ok(doc) => doc,
        Err(e) => panic!("telemetry rollup failed: {e}"),
    }
}

/// Aggregate per-host registry exports (the JSON produced by
/// [`crate::Registry::export`]) into one fleet-level document:
///
/// ```json
/// {"hosts":N,
///  "counters":[{"name":..,"total":..},..],
///  "gauges":[{"name":..,"value":..},..],
///  "histograms":[{"name":..,"lo":..,"hi":..,"buckets":[..],
///                 "underflow":..,"overflow":..,"count":..},..]}
/// ```
///
/// Errors when same-named histograms disagree on `lo`/`hi`/bucket count
/// across documents (see the module docs).
pub fn try_rollup(docs: &[Json]) -> Result<Json, String> {
    let counters = sum_scalars(docs, "counters", "total")
        .into_iter()
        .map(|(name, total, _)| {
            Json::Obj(vec![
                ("name".into(), Json::from(name.as_str())),
                ("total".into(), Json::Num(total)),
            ])
        })
        .collect();
    let gauges = sum_scalars(docs, "gauges", "value")
        .into_iter()
        .map(|(name, value, _)| {
            Json::Obj(vec![
                ("name".into(), Json::from(name.as_str())),
                ("value".into(), Json::Num(value)),
            ])
        })
        .collect();

    // Histograms: bucket-wise sums, keyed by name; mismatched shapes are
    // an error rather than a silent mis-add.
    struct HistAcc {
        name: String,
        lo: f64,
        hi: f64,
        buckets: Vec<f64>,
        under: f64,
        over: f64,
        count: f64,
    }
    let mut hists: Vec<HistAcc> = Vec::new();
    for doc in docs {
        let Some(Json::Arr(entries)) = field(doc, "histograms") else {
            continue;
        };
        for e in entries {
            let Some(name) = name_of(e) else { continue };
            let (lo, hi) = (num(e, "lo"), num(e, "hi"));
            let buckets: Vec<f64> = match field(e, "buckets") {
                Some(Json::Arr(b)) => b.iter().filter_map(Json::as_f64).collect(),
                _ => Vec::new(),
            };
            let (under, over, count) = (num(e, "underflow"), num(e, "overflow"), num(e, "count"));
            match hists.iter_mut().find(|h| h.name == name) {
                Some(h) => {
                    if h.lo == lo && h.hi == hi && h.buckets.len() == buckets.len() {
                        for (acc, b) in h.buckets.iter_mut().zip(&buckets) {
                            *acc += b;
                        }
                        h.under += under;
                        h.over += over;
                        h.count += count;
                    } else {
                        return Err(format!(
                            "histogram '{name}' bucket layout mismatch across hosts: \
                             [{},{}]x{} vs [{lo},{hi}]x{}",
                            h.lo,
                            h.hi,
                            h.buckets.len(),
                            buckets.len()
                        ));
                    }
                }
                None => hists.push(HistAcc {
                    name: name.to_string(),
                    lo,
                    hi,
                    buckets,
                    under,
                    over,
                    count,
                }),
            }
        }
    }
    let histograms = hists
        .into_iter()
        .map(|h| {
            Json::Obj(vec![
                ("name".into(), Json::from(h.name.as_str())),
                ("lo".into(), Json::Num(h.lo)),
                ("hi".into(), Json::Num(h.hi)),
                (
                    "buckets".into(),
                    Json::Arr(h.buckets.into_iter().map(Json::Num).collect()),
                ),
                ("underflow".into(), Json::Num(h.under)),
                ("overflow".into(), Json::Num(h.over)),
                ("count".into(), Json::Num(h.count)),
            ])
        })
        .collect();

    Ok(Json::Obj(vec![
        ("hosts".into(), Json::from(docs.len())),
        ("counters".into(), Json::Arr(counters)),
        ("gauges".into(), Json::Arr(gauges)),
        ("histograms".into(), Json::Arr(histograms)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use sim_core::SimTime;

    fn export_of(vals: &[(u64, f64)]) -> Json {
        let mut r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("steals");
        let h = r.histogram("lat", 0.0, 10.0, 5);
        for &(inc, obs) in vals {
            r.inc(c, inc);
            r.observe(h, obs);
        }
        r.snapshot(SimTime::from_micros(1_000_000));
        r.export().expect("enabled registry exports")
    }

    #[test]
    fn sums_counters_and_histograms_across_hosts() {
        let docs = vec![export_of(&[(3, 1.0)]), export_of(&[(4, 9.5)])];
        let roll = rollup(&docs);
        assert_eq!(roll.get("hosts").and_then(Json::as_u64), Some(2));
        let counters = match roll.get("counters") {
            Some(Json::Arr(v)) => v.clone(),
            _ => panic!("counters array"),
        };
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("steals")
        );
        assert_eq!(counters[0].get("total").and_then(Json::as_u64), Some(7));
        let hists = match roll.get("histograms") {
            Some(Json::Arr(v)) => v.clone(),
            _ => panic!("histograms array"),
        };
        assert_eq!(hists[0].get("count").and_then(Json::as_u64), Some(2));
        let buckets = match hists[0].get("buckets") {
            Some(Json::Arr(b)) => b.iter().filter_map(Json::as_u64).collect::<Vec<_>>(),
            _ => panic!("buckets"),
        };
        // 1.0 falls in bucket 0, 9.5 in bucket 4 (width 2).
        assert_eq!(buckets, vec![1, 0, 0, 0, 1]);
    }

    #[test]
    fn empty_input_rolls_up_to_empty_sections() {
        let roll = rollup(&[]);
        assert_eq!(
            roll.to_string(),
            "{\"hosts\":0,\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn rollup_is_deterministic() {
        let docs = vec![export_of(&[(1, 2.0)]), export_of(&[(2, 3.0)])];
        assert_eq!(rollup(&docs).to_string(), rollup(&docs).to_string());
    }

    /// A registry with no metrics registered still exports a document;
    /// rolling it up must yield empty sections, not a malformed doc.
    #[test]
    fn empty_registry_export_rolls_up_cleanly() {
        let mut r = Registry::new();
        r.set_enabled(true);
        r.snapshot(SimTime::from_micros(1));
        let doc = r.export().expect("enabled registry exports");
        let roll = try_rollup(&[doc]).unwrap();
        assert_eq!(roll.get("hosts").and_then(Json::as_u64), Some(1));
        assert_eq!(
            roll.get("counters")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
        assert_eq!(
            roll.get("histograms")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    /// The single-host fleet degenerate case: the rollup's sums must
    /// equal that host's own export values exactly.
    #[test]
    fn single_host_rollup_preserves_values() {
        let doc = export_of(&[(5, 1.0), (2, 9.5)]);
        let roll = try_rollup(std::slice::from_ref(&doc)).unwrap();
        assert_eq!(roll.get("hosts").and_then(Json::as_u64), Some(1));
        let counters = roll.get("counters").and_then(Json::as_array).unwrap();
        assert_eq!(counters[0].get("total").and_then(Json::as_u64), Some(7));
        let hists = roll.get("histograms").and_then(Json::as_array).unwrap();
        assert_eq!(hists[0].get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hists[0].get("lo").and_then(Json::as_f64), Some(0.0));
        assert_eq!(hists[0].get("hi").and_then(Json::as_f64), Some(10.0));
    }

    fn mismatched_docs() -> Vec<Json> {
        let mut a = Registry::new();
        a.set_enabled(true);
        let h = a.histogram("lat", 0.0, 10.0, 5);
        a.observe(h, 1.0);
        a.snapshot(SimTime::from_micros(1));

        let mut b = Registry::new();
        b.set_enabled(true);
        let h = b.histogram("lat", 0.0, 20.0, 8);
        b.observe(h, 1.0);
        b.snapshot(SimTime::from_micros(1));

        vec![a.export().unwrap(), b.export().unwrap()]
    }

    /// Same-named histograms with different bucket layouts are a
    /// registration bug; the rollup must refuse, not silently merge.
    #[test]
    fn mismatched_histogram_layouts_error() {
        let err = try_rollup(&mismatched_docs()).unwrap_err();
        assert!(err.contains("lat"), "error names the histogram: {err}");
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "bucket layout mismatch")]
    fn rollup_panics_on_mismatched_layouts() {
        let _ = rollup(&mismatched_docs());
    }
}
