//! Query a recorded trace for *why* — the library behind the `explain`
//! binary.
//!
//! Three questions, three pure functions over exported files (nothing
//! here re-runs a simulation, so answers are reproducible from artifacts
//! alone and byte-identical for any `--jobs`):
//!
//! * [`explain_vm`] — why is this VCPU where it is: the decision chain
//!   from `decisions.jsonl` (written by the `trace` binary) filtered to
//!   one VCPU, optionally as of a point in sim-time;
//! * [`explain_steal`] — steal-locality breakdown for one node (or the
//!   whole machine): which rules fired, how often the thief went local
//!   vs remote vs empty-handed, and the pressure/distance score deltas
//!   between the chosen victim and the best alternative;
//! * [`explain_slo`] — which hosts and racks burned evacuation-latency
//!   budget, and which retry chains caused it, from the fleet binary's
//!   `slo.json` + `spans.jsonl`.
//!
//! All aggregation iterates inputs in file order and keeps histograms in
//! first-appearance order, so output bytes are a pure function of input
//! bytes.

use sim_core::{Json, SimError};

/// Decision kinds in the order `explain vm` reports them.
const KINDS: [&str; 6] = [
    "placement",
    "wake_placement",
    "partition",
    "steal",
    "page_migration",
    "degrade",
];

/// Parse a JSONL export, reporting the first bad line.
fn parse_jsonl(text: &str, what: &str) -> Result<Vec<Json>, SimError> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            Json::parse(line)
                .map_err(|e| SimError::InvalidConfig(format!("{what} line {}: {e}", i + 1)))
        })
        .collect()
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn num_field(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// Round to three decimals so reported means stay readable.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Why is VCPU `vcpu` where it is (as of `at_us`, if given)?
///
/// Returns the most recent decision involving the VCPU as `decision`,
/// the up-to-8 most recent as `history` (oldest first), and a per-kind
/// count of every involvement. `decision` is `null` when nothing in the
/// log involves the VCPU — still a valid answer for a VCPU that never
/// moved inside the recorded window.
pub fn explain_vm(decisions_jsonl: &str, vcpu: u64, at_us: Option<u64>) -> Result<Json, SimError> {
    let records = parse_jsonl(decisions_jsonl, "decisions.jsonl")?;
    let involved: Vec<&Json> = records
        .iter()
        .filter(|r| num_field(r, "vcpu") == Some(vcpu))
        .filter(|r| match at_us {
            Some(t) => num_field(r, "t_us").is_some_and(|rt| rt <= t),
            None => true,
        })
        .collect();
    let by_kind: Vec<Json> = KINDS
        .iter()
        .filter_map(|kind| {
            let count = involved
                .iter()
                .filter(|r| str_field(r, "kind") == Some(kind))
                .count();
            (count > 0).then(|| {
                Json::Obj(vec![
                    ("kind".into(), Json::from(*kind)),
                    ("count".into(), Json::from(count)),
                ])
            })
        })
        .collect();
    let history: Vec<Json> = involved
        .iter()
        .rev()
        .take(8)
        .rev()
        .map(|r| (*r).clone())
        .collect();
    Ok(Json::Obj(vec![
        ("vcpu".into(), Json::from(vcpu)),
        ("at_us".into(), at_us.map(Json::from).unwrap_or(Json::Null)),
        ("matched".into(), Json::from(involved.len())),
        ("by_kind".into(), Json::Arr(by_kind)),
        (
            "decision".into(),
            involved.last().map(|r| (*r).clone()).unwrap_or(Json::Null),
        ),
        ("history".into(), Json::Arr(history)),
    ]))
}

/// Steal-locality breakdown for thief node `node` (all nodes when `None`).
///
/// Covers every `steal` decision in the log: rule histogram
/// (first-appearance order), local/remote/empty-handed split, how often
/// the thief would otherwise have idled, and — over decisions that took
/// a victim — the mean pressure of the chosen candidate vs the best
/// alternative candidate, and the mean NUMA distance paid.
pub fn explain_steal(decisions_jsonl: &str, node: Option<u64>) -> Result<Json, SimError> {
    let records = parse_jsonl(decisions_jsonl, "decisions.jsonl")?;
    let steals: Vec<&Json> = records
        .iter()
        .filter(|r| str_field(r, "kind") == Some("steal"))
        .filter(|r| match node {
            Some(n) => num_field(r, "thief_node") == Some(n),
            None => true,
        })
        .collect();

    let mut rules: Vec<(String, u64)> = Vec::new();
    let (mut taken, mut empty, mut local, mut remote, mut would_idle) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut chosen_pressure = Vec::new();
    let mut best_alt_pressure = Vec::new();
    let mut chosen_dist = Vec::new();
    for r in &steals {
        let rule = str_field(r, "rule").unwrap_or("?").to_string();
        match rules.iter_mut().find(|(k, _)| *k == rule) {
            Some(slot) => slot.1 += 1,
            None => rules.push((rule, 1)),
        }
        if r.get("would_idle").and_then(Json::as_bool) == Some(true) {
            would_idle += 1;
        }
        let victim = num_field(r, "victim");
        let thief_node = num_field(r, "thief_node");
        match victim {
            None => empty += 1,
            Some(v) => {
                taken += 1;
                let empty_vec = Vec::new();
                let cands = r
                    .get("candidates")
                    .and_then(Json::as_array)
                    .unwrap_or(&empty_vec);
                let chosen = cands.iter().find(|c| num_field(c, "pcpu") == Some(v));
                if let Some(c) = chosen {
                    if num_field(c, "node") == thief_node {
                        local += 1;
                    } else {
                        remote += 1;
                    }
                    if let Some(p) = c.get("pressure").and_then(Json::as_f64) {
                        chosen_pressure.push(p);
                    }
                    if let Some(d) = num_field(c, "dist") {
                        chosen_dist.push(d as f64);
                    }
                    let best_alt = cands
                        .iter()
                        .filter(|a| num_field(a, "pcpu") != Some(v))
                        .filter_map(|a| a.get("pressure").and_then(Json::as_f64))
                        .fold(f64::INFINITY, f64::min);
                    if best_alt.is_finite() {
                        best_alt_pressure.push(best_alt);
                    }
                }
            }
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            Json::Null
        } else {
            Json::Num(round3(xs.iter().sum::<f64>() / xs.len() as f64))
        }
    };
    let rules: Vec<Json> = rules
        .into_iter()
        .map(|(rule, count)| {
            Json::Obj(vec![
                ("rule".into(), Json::Str(rule)),
                ("count".into(), Json::from(count)),
            ])
        })
        .collect();
    Ok(Json::Obj(vec![
        ("node".into(), node.map(Json::from).unwrap_or(Json::Null)),
        ("decisions".into(), Json::from(steals.len())),
        ("taken".into(), Json::from(taken)),
        ("empty_handed".into(), Json::from(empty)),
        ("local".into(), Json::from(local)),
        ("remote".into(), Json::from(remote)),
        ("thief_would_idle".into(), Json::from(would_idle)),
        ("rules".into(), Json::Arr(rules)),
        ("mean_chosen_pressure".into(), mean(&chosen_pressure)),
        (
            "mean_best_alternative_pressure".into(),
            mean(&best_alt_pressure),
        ),
        ("mean_chosen_dist".into(), mean(&chosen_dist)),
    ]))
}

/// Which hosts/racks burned evacuation-latency budget, and which retry
/// chains caused it.
///
/// Reads the fleet binary's `slo.json` (budget, burn series, per-host
/// attribution) and `spans.jsonl` (journeys and their retry children).
/// Reports the peak-burn epoch, the top-5 burning hosts, journey
/// outcome counts, and the top-5 longest retry chains with a reason
/// histogram.
pub fn explain_slo(slo_json: &str, spans_jsonl: &str) -> Result<Json, SimError> {
    let slo =
        Json::parse(slo_json).map_err(|e| SimError::InvalidConfig(format!("slo.json: {e}")))?;
    let spans = parse_jsonl(spans_jsonl, "spans.jsonl")?;

    // Peak-burn epoch (first on tie); null when nothing burned.
    let empty_vec = Vec::new();
    let burn = slo
        .get("burn_by_epoch")
        .and_then(Json::as_array)
        .unwrap_or(&empty_vec);
    let mut peak: Option<(&Json, f64)> = None;
    for entry in burn {
        let b = entry.get("burn").and_then(Json::as_f64).unwrap_or(0.0);
        if b > 0.0 && peak.is_none_or(|(_, best)| b > best) {
            peak = Some((entry, b));
        }
    }

    // Top burning hosts, descending; stable tie-break on host index.
    let hosts = slo
        .get("burned_by_host")
        .and_then(Json::as_array)
        .unwrap_or(&empty_vec);
    let mut burning: Vec<&Json> = hosts
        .iter()
        .filter(|h| h.get("burned_s").and_then(Json::as_f64).unwrap_or(0.0) > 0.0)
        .collect();
    burning.sort_by(|a, b| {
        let (sa, sb) = (
            a.get("burned_s").and_then(Json::as_f64).unwrap_or(0.0),
            b.get("burned_s").and_then(Json::as_f64).unwrap_or(0.0),
        );
        sb.partial_cmp(&sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| num_field(a, "host").cmp(&num_field(b, "host")))
    });
    let top_hosts: Vec<Json> = burning.iter().take(5).map(|h| (*h).clone()).collect();

    // Journey outcomes from the top-level spans.
    let (mut evacs, mut admissions) = (0u64, 0u64);
    let (mut landed, mut shed_timeout, mut shed_retries, mut open) = (0u64, 0u64, 0u64, 0u64);
    for s in &spans {
        if s.get("parent").and_then(Json::as_u64).is_some() {
            continue;
        }
        let name = str_field(s, "name").unwrap_or("");
        if name.starts_with("evacuation vm") {
            evacs += 1;
        } else if name.starts_with("admission vm") {
            admissions += 1;
        } else {
            continue;
        }
        let outcome = s
            .get("args")
            .and_then(|a| a.get("outcome"))
            .and_then(Json::as_str);
        match outcome {
            Some("landed") => landed += 1,
            Some("shed-timeout") => shed_timeout += 1,
            Some("shed-retries") => shed_retries += 1,
            _ => open += 1,
        }
    }

    // Retry chains: child spans named "retry", grouped by parent journey.
    let mut by_reason: Vec<(String, u64)> = Vec::new();
    let mut chains: Vec<(u64, u64)> = Vec::new(); // (parent id, retries)
    let mut total_retries = 0u64;
    for s in &spans {
        if str_field(s, "name") != Some("retry") {
            continue;
        }
        let Some(parent) = s.get("parent").and_then(Json::as_u64) else {
            continue;
        };
        total_retries += 1;
        let reason = s
            .get("args")
            .and_then(|a| a.get("reason"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        match by_reason.iter_mut().find(|(k, _)| *k == reason) {
            Some(slot) => slot.1 += 1,
            None => by_reason.push((reason, 1)),
        }
        match chains.iter_mut().find(|(p, _)| *p == parent) {
            Some(slot) => slot.1 += 1,
            None => chains.push((parent, 1)),
        }
    }
    chains.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let span_name = |id: u64| -> &str {
        spans
            .iter()
            .find(|s| num_field(s, "id") == Some(id))
            .and_then(|s| str_field(s, "name"))
            .unwrap_or("?")
    };
    let worst_chains: Vec<Json> = chains
        .iter()
        .take(5)
        .map(|&(parent, retries)| {
            Json::Obj(vec![
                ("span".into(), Json::from(parent)),
                ("name".into(), Json::from(span_name(parent))),
                ("retries".into(), Json::from(retries)),
            ])
        })
        .collect();
    let by_reason: Vec<Json> = by_reason
        .into_iter()
        .map(|(reason, count)| {
            Json::Obj(vec![
                ("reason".into(), Json::Str(reason)),
                ("count".into(), Json::from(count)),
            ])
        })
        .collect();

    let carry = |key: &str| slo.get(key).cloned().unwrap_or(Json::Null);
    Ok(Json::Obj(vec![
        ("budget_s".into(), carry("budget_s")),
        ("total_burned_s".into(), carry("total_burned_s")),
        ("total_burn".into(), carry("total_burn")),
        (
            "peak_epoch".into(),
            peak.map(|(e, _)| e.clone()).unwrap_or(Json::Null),
        ),
        ("top_burning_hosts".into(), Json::Arr(top_hosts)),
        (
            "journeys".into(),
            Json::Obj(vec![
                ("evacuations".into(), Json::from(evacs)),
                ("admissions".into(), Json::from(admissions)),
                ("landed".into(), Json::from(landed)),
                ("shed_timeout".into(), Json::from(shed_timeout)),
                ("shed_retries".into(), Json::from(shed_retries)),
                ("open".into(), Json::from(open)),
            ]),
        ),
        (
            "retries".into(),
            Json::Obj(vec![
                ("total".into(), Json::from(total_retries)),
                ("by_reason".into(), Json::Arr(by_reason)),
                ("worst_chains".into(), Json::Arr(worst_chains)),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECISIONS: &str = concat!(
        "{\"t_us\":1000,\"seq\":0,\"kind\":\"placement\",\"rule\":\"uniform-random\",\"vcpu\":3,\"node\":1,\"pcpu\":5,\"num_candidates\":4}\n",
        "{\"t_us\":2000,\"seq\":1,\"kind\":\"steal\",\"rule\":\"local-heaviest-min-pressure\",\"thief\":4,\"thief_node\":1,\"would_idle\":true,\"victim\":5,\"vcpu\":3,\"candidates\":[{\"pcpu\":5,\"vcpu\":3,\"node\":1,\"dist\":10,\"workload\":2,\"pressure\":8.0,\"prio\":\"under\"},{\"pcpu\":0,\"vcpu\":7,\"node\":0,\"dist\":21,\"workload\":3,\"pressure\":14.5,\"prio\":\"over\"}]}\n",
        "{\"t_us\":3000,\"seq\":2,\"kind\":\"steal\",\"rule\":\"no-candidates\",\"thief\":2,\"thief_node\":0,\"would_idle\":true,\"victim\":null,\"vcpu\":null,\"candidates\":[]}\n",
        "{\"t_us\":4000,\"seq\":3,\"kind\":\"partition\",\"rule\":\"min-load-local-group\",\"vcpu\":3,\"node\":0,\"candidates\":[{\"node\":0,\"load\":1},{\"node\":1,\"load\":3}]}\n",
    );

    #[test]
    fn explain_vm_filters_by_vcpu_and_time() {
        let all = explain_vm(DECISIONS, 3, None).unwrap();
        assert_eq!(all.get("matched").and_then(Json::as_u64), Some(3));
        let last = all.get("decision").unwrap();
        assert_eq!(last.get("kind").and_then(Json::as_str), Some("partition"));

        let early = explain_vm(DECISIONS, 3, Some(2500)).unwrap();
        assert_eq!(early.get("matched").and_then(Json::as_u64), Some(2));
        let last = early.get("decision").unwrap();
        assert_eq!(last.get("kind").and_then(Json::as_str), Some("steal"));

        let none = explain_vm(DECISIONS, 9, None).unwrap();
        assert_eq!(none.get("matched").and_then(Json::as_u64), Some(0));
        assert_eq!(none.get("decision"), Some(&Json::Null));
    }

    #[test]
    fn explain_steal_splits_locality_and_scores() {
        let all = explain_steal(DECISIONS, None).unwrap();
        assert_eq!(all.get("decisions").and_then(Json::as_u64), Some(2));
        assert_eq!(all.get("taken").and_then(Json::as_u64), Some(1));
        assert_eq!(all.get("empty_handed").and_then(Json::as_u64), Some(1));
        assert_eq!(all.get("local").and_then(Json::as_u64), Some(1));
        assert_eq!(all.get("remote").and_then(Json::as_u64), Some(0));
        assert_eq!(
            all.get("mean_chosen_pressure").and_then(Json::as_f64),
            Some(8.0)
        );
        assert_eq!(
            all.get("mean_best_alternative_pressure")
                .and_then(Json::as_f64),
            Some(14.5)
        );
        let rules = all.get("rules").and_then(Json::as_array).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(
            rules[0].get("rule").and_then(Json::as_str),
            Some("local-heaviest-min-pressure")
        );

        let node0 = explain_steal(DECISIONS, Some(0)).unwrap();
        assert_eq!(node0.get("decisions").and_then(Json::as_u64), Some(1));
        assert_eq!(node0.get("empty_handed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn explain_slo_ranks_hosts_and_chains() {
        let slo = r#"{
            "budget_s": 60.0,
            "total_burned_s": 9.0,
            "total_burn": 0.15,
            "burn_by_epoch": [
                {"epoch": 0, "burn": 0.0},
                {"epoch": 1, "burn": 0.1},
                {"epoch": 2, "burn": 0.05}
            ],
            "burned_by_host": [
                {"host": 0, "rack": 0, "burned_s": 3.0},
                {"host": 1, "rack": 0, "burned_s": 6.0},
                {"host": 2, "rack": 1, "burned_s": 0.0}
            ]
        }"#;
        let spans = concat!(
            "{\"id\":1,\"name\":\"evacuation vm7\",\"track\":1,\"parent\":null,\"start_us\":0,\"end_us\":500,\"args\":{\"src_host\":1,\"rack\":0,\"outcome\":\"landed\"}}\n",
            "{\"id\":2,\"name\":\"retry\",\"track\":4,\"parent\":1,\"start_us\":0,\"end_us\":100,\"args\":{\"reason\":\"no-host\",\"attempt\":1}}\n",
            "{\"id\":3,\"name\":\"retry\",\"track\":4,\"parent\":1,\"start_us\":100,\"end_us\":200,\"args\":{\"reason\":\"migration-fault\",\"attempt\":2}}\n",
            "{\"id\":4,\"name\":\"admission vm9\",\"track\":4,\"parent\":null,\"start_us\":0,\"end_us\":null,\"args\":{\"flavor\":\"small\"}}\n",
        );
        let out = explain_slo(slo, spans).unwrap();
        assert_eq!(
            out.get("peak_epoch")
                .unwrap()
                .get("epoch")
                .and_then(Json::as_u64),
            Some(1)
        );
        let top = out
            .get("top_burning_hosts")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(top.len(), 2, "zero-burn hosts are omitted");
        assert_eq!(top[0].get("host").and_then(Json::as_u64), Some(1));
        let journeys = out.get("journeys").unwrap();
        assert_eq!(journeys.get("evacuations").and_then(Json::as_u64), Some(1));
        assert_eq!(journeys.get("admissions").and_then(Json::as_u64), Some(1));
        assert_eq!(journeys.get("landed").and_then(Json::as_u64), Some(1));
        assert_eq!(journeys.get("open").and_then(Json::as_u64), Some(1));
        let retries = out.get("retries").unwrap();
        assert_eq!(retries.get("total").and_then(Json::as_u64), Some(2));
        let chains = retries
            .get("worst_chains")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(chains[0].get("span").and_then(Json::as_u64), Some(1));
        assert_eq!(
            chains[0].get("name").and_then(Json::as_str),
            Some("evacuation vm7")
        );
        assert_eq!(chains[0].get("retries").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn bad_lines_are_reported_with_position() {
        let err = explain_vm("{\"ok\":1}\nnot json\n", 0, None).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn output_is_deterministic() {
        let a = explain_steal(DECISIONS, None).unwrap().to_string_pretty();
        let b = explain_steal(DECISIONS, None).unwrap().to_string_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn round3_rounds_to_three_decimals() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(round3(0.0004), 0.0);
    }
}
