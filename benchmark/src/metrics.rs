//! The metric names this benchmark reports, with their units. The lists
//! mirror `BENCHMARK.json` (a unit test holds the two together) and later
//! issues quote these names, so renaming one is an API change.

use std::collections::BTreeMap;

use zkdet_telemetry::Value;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `<layer>.<what>[_<size>].<unit>` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("op_p50_ms", "ms"),
    def("cpu_s_per_op", "s"),
    def("peak_rss_mb", "MiB"),
];

/// One layer each; reported by the traced run. A workload that never
/// reaches a `core`/`exec`/`provenance` function reports 0 for it, which is
/// the prediction "this workload does not depend on it" made checkable.
pub const PER_LAYER: &[MetricDef] = &[
    // core: mean wall time of the runner's span around each public call.
    def("core.bootstrap.ms", "ms"),
    def("core.publish_original.ms", "ms"),
    def("core.publish_original_cold.ms", "ms"),
    def("core.aggregate.ms", "ms"),
    def("core.partition.ms", "ms"),
    def("core.duplicate.ms", "ms"),
    def("core.list_for_sale.us", "us"),
    def("core.seller_validation_package.ms", "ms"),
    def("core.buyer_validate_and_lock.ms", "ms"),
    def("core.seller_settle.ms", "ms"),
    def("core.buyer_recover.ms", "ms"),
    def("core.audit_token_cold.ms", "ms"),
    def("core.audit_token_warm.ms", "ms"),
    def("core.run_load.ms", "ms"),
    def("core.run_load.bootstrap_publish.ms", "ms"),
    def("core.step_cover.share", "ratio"),
    // plonk
    def("plonk.preprocess_2048.ms", "ms"),
    def("plonk.prove_2048.ms", "ms"),
    def("plonk.prove_keyneg.ms", "ms"),
    def("plonk.preprocess_32768.ms", "ms"),
    def("plonk.prove_32768.ms", "ms"),
    def("plonk.verify.ms", "ms"),
    def("plonk.batch_verify_16.ms", "ms"),
    def("plonk.proof_bytes", "bytes"),
    def("plonk.prove.calls_per_op", "count"),
    def("plonk.verify.calls_per_op", "count"),
    // kzg
    def("kzg.universal_setup_32776.ms", "ms"),
    def("kzg.commit_2048.ms", "ms"),
    def("kzg.commit_32768.ms", "ms"),
    def("kzg.open_32768.ms", "ms"),
    def("kzg.verify.ms", "ms"),
    def("kzg.commit.calls_per_op", "count"),
    // curve
    def("curve.msm_2048.ms", "ms"),
    def("curve.msm_32768.ms", "ms"),
    def("curve.fixed_base_batch_mul_32776.ms", "ms"),
    def("curve.g1_mul.us", "us"),
    def("curve.pairing.ms", "ms"),
    def("curve.multi_pairing_2.ms", "ms"),
    def("curve.msm.calls_per_op", "count"),
    // poly
    def("poly.fft_2048.us", "us"),
    def("poly.fft_32768.ms", "ms"),
    def("poly.ifft_32768.ms", "ms"),
    def("poly.coset_fft_131072.ms", "ms"),
    def("poly.coset_fft.calls_per_op", "count"),
    // field
    def("field.fr_mul.ns", "ns"),
    def("field.fr_inverse.ns", "ns"),
    def("field.batch_inverse_32768.us", "us"),
    // crypto
    def("crypto.mimc_encrypt_32.us", "us"),
    def("crypto.poseidon_commit_32.us", "us"),
    def("crypto.sha256_1k.us", "us"),
    // circuits
    def("circuits.synthesize_enc_32.ms", "ms"),
    def("circuits.synthesize_validation_2.ms", "ms"),
    def("circuits.synthesize_keyneg.ms", "ms"),
    // storage
    def("storage.publish_1k.us", "us"),
    def("storage.retrieve_1k.us", "us"),
    def("storage.retrieve_degraded_1k.us", "us"),
    def("storage.erasure_encode_64k.us", "us"),
    def("storage.erasure_reconstruct_64k.us", "us"),
    def("storage.publish.bytes_per_op", "bytes"),
    def("storage.retrieve.attempts_per_call", "ratio"),
    // chain
    def("chain.nft_mint.us", "us"),
    def("chain.auction_lock.us", "us"),
    def("chain.auction_settle_key_secure.ms", "ms"),
    def("chain.mine_block.us", "us"),
    def("chain.gas.mint", "gas"),
    def("chain.gas.create", "gas"),
    def("chain.gas.lock", "gas"),
    def("chain.gas.settle", "gas"),
    def("chain.gas_per_op", "gas"),
    // wal
    def("wal.append_256b.us", "us"),
    def("wal.replay.us_per_record", "us"),
    def("wal.bytes_per_exchange", "bytes"),
    // exec: read from `LoadOutcome`; ticks and digest repeat exactly per seed.
    def("exec.makespan_ticks", "ticks"),
    def("exec.busy_ticks", "ticks"),
    def("exec.jobs_run", "count"),
    def("exec.steps", "count"),
    def("exec.job_wall_ms", "ms"),
    def("exec.job_wall_share", "ratio"),
    def("exec.verify_batch_fill", "ratio"),
    def("exec.schedule_digest", "hash53"),
    // provenance
    def("provenance.cache.hit_ratio_cold", "ratio"),
    def("provenance.cache.hit_ratio_warm", "ratio"),
    def("provenance.lineage_digest.us", "us"),
    def("provenance.nodes", "count"),
    // the runner itself
    def("bench.trace_overhead.share", "ratio"),
];

/// Values collected for one list of [`MetricDef`]s.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty collection over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Records a value.
    ///
    /// # Panics
    ///
    /// On a name that is not in the list: that is a typo in the runner, and
    /// a metric nobody can look up is worse than a crash.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not declared in metrics.rs"
        );
        self.values.insert(name, value);
    }

    /// Records a value when there is one.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names declared but not recorded.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// `{name: {"value": v, "unit": u}}` for every declared metric, in
    /// declaration order; a metric that was not recorded reads 0.
    pub fn to_json(&self) -> Value {
        let mut out = Value::object();
        for d in self.defs {
            let value = self.get(d.name).unwrap_or(0.0);
            out.set(
                d.name,
                Value::object().with("value", value).with("unit", d.unit),
            );
        }
        out
    }

    /// `name value unit` lines for humans (stderr).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in self.defs {
            if let Some(v) = self.get(d.name) {
                out.push_str(&format!("  {:<40} {:>16.4} {}\n", d.name, v, d.unit));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&manifest, "end_to_end"), listed(END_TO_END));
        assert_eq!(declared(&manifest, "per_layer"), listed(PER_LAYER));
        let workloads: Vec<String> = declared(&manifest, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    fn unrecorded_metrics_read_zero_and_are_listed_as_missing() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 1.5);
        m.set_opt("ops_per_s", None);
        assert_eq!(m.get("setup_s"), Some(1.5));
        assert_eq!(m.missing().len(), END_TO_END.len() - 1);
        let json = m.to_json();
        let value = |name: &str| json.get(name).and_then(|v| v.get("value")).cloned();
        assert_eq!(value("setup_s"), Some(Value::Float(1.5)));
        assert_eq!(value("ops_per_s"), Some(Value::Float(0.0)));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_name_is_a_bug() {
        Metrics::new(END_TO_END).set("op_p50_msec", 1.0);
    }
}
