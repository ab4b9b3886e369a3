//! A UNSW-NB15-shaped dataset generator (§IV-B-2).
//!
//! UNSW-NB15 is 2,540,044 flow records with 49 attributes spanning flow,
//! basic, content, time and additional generated features, labeled with 9
//! attack categories plus normal traffic. The corpus itself cannot be
//! vendored offline, so this module generates a schema-faithful synthetic
//! equivalent: the full 49-column layout, the published category imbalance,
//! and cross-attribute structure (protocol ↔ service ↔ state fingerprints
//! per category) consistent with [`kinet_kg::NetworkKg::unsw_default`].
//! Row count is scaled down by default (20k) to CPU-training budgets; pass
//! a larger [`UnswSimConfig::n_records`] to approach the original size.

use kinet_data::stream::ChunkSource;
use kinet_data::{ColumnMeta, DataError, Schema, Table, Value};
use kinet_kg::NetworkKg;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Configuration for [`UnswSimulator`].
#[derive(Clone, Debug)]
pub struct UnswSimConfig {
    /// Number of records (default 20,000; the original corpus has
    /// 2,540,044).
    pub n_records: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UnswSimConfig {
    fn default() -> Self {
        Self {
            n_records: 20_000,
            seed: 15,
        }
    }
}

impl UnswSimConfig {
    /// A smaller configuration for unit tests and fast benches.
    pub fn small(n_records: usize, seed: u64) -> Self {
        Self { n_records, seed }
    }
}

/// Attack categories with (approximate) original frequencies, plus normal.
const CATEGORIES: &[(&str, f64)] = &[
    ("normal", 0.871),
    ("generic", 0.058),
    ("exploits", 0.030),
    ("fuzzers", 0.017),
    ("dos", 0.011),
    ("reconnaissance", 0.0095),
    ("analysis", 0.0020),
    ("backdoors", 0.0016),
    ("shellcode", 0.0010),
    ("worms", 0.0005),
];

/// Per-category discrete fingerprints: (protos, services, states), all
/// consistent with the `unsw_default` knowledge graph.
fn fingerprint(
    cat: &str,
) -> (
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
) {
    match cat {
        "normal" => (
            &["tcp", "udp"],
            &["-", "dns", "http", "smtp", "ftp", "ssh", "pop3"],
            &["FIN", "CON", "INT", "REQ"],
        ),
        "generic" => (
            &["udp", "tcp"],
            &["dns", "-", "http", "smtp"],
            &["INT", "CON", "FIN"],
        ),
        "exploits" => (
            &["tcp", "udp"],
            &["-", "http", "ftp", "smtp", "dns"],
            &["FIN", "INT", "CON"],
        ),
        "fuzzers" => (
            &["tcp", "udp"],
            &["-", "http", "dns", "ftp-data"],
            &["FIN", "INT", "CON"],
        ),
        "dos" => (
            &["tcp", "udp"],
            &["-", "http", "dns", "smtp"],
            &["INT", "CON", "FIN", "RST"],
        ),
        "reconnaissance" => (
            &["tcp", "udp", "icmp"],
            &["-", "dns", "http"],
            &["INT", "FIN", "REQ"],
        ),
        "analysis" => (&["tcp"], &["-", "http"], &["FIN", "INT"]),
        "backdoors" => (&["tcp", "udp"], &["-", "ftp"], &["FIN", "INT"]),
        "shellcode" => (&["tcp", "udp"], &["-"], &["INT", "FIN"]),
        "worms" => (&["tcp"], &["-", "http"], &["FIN", "INT"]),
        other => panic!("unknown UNSW category {other:?}"),
    }
}

/// Per-category numeric scale: (dur, sbytes, dbytes, spkts, dpkts).
fn numeric_profile(cat: &str) -> (f64, f64, f64, f64, f64) {
    match cat {
        "normal" => (0.8, 4_000.0, 10_000.0, 18.0, 22.0),
        "generic" => (0.02, 430.0, 120.0, 3.0, 1.5),
        "exploits" => (1.5, 3_000.0, 5_000.0, 20.0, 18.0),
        "fuzzers" => (2.0, 5_000.0, 800.0, 28.0, 8.0),
        "dos" => (1.0, 2_200.0, 600.0, 25.0, 6.0),
        "reconnaissance" => (0.4, 600.0, 300.0, 8.0, 4.0),
        "analysis" => (0.5, 900.0, 400.0, 10.0, 5.0),
        "backdoors" => (0.6, 1_200.0, 900.0, 12.0, 9.0),
        "shellcode" => (0.3, 700.0, 250.0, 6.0, 3.0),
        "worms" => (0.9, 1_800.0, 1_400.0, 14.0, 11.0),
        other => panic!("unknown UNSW category {other:?}"),
    }
}

/// Generator for UNSW-NB15-shaped tables.
///
/// ```
/// use kinet_datasets::unsw::{UnswSimConfig, UnswSimulator};
/// let sim = UnswSimulator::new(UnswSimConfig::small(100, 0));
/// let full = sim.generate().unwrap();
/// assert_eq!(full.n_cols(), 49);
/// let view = UnswSimulator::modeling_view(&full).unwrap();
/// assert_eq!(view.n_cols(), 13);
/// ```
#[derive(Clone, Debug)]
pub struct UnswSimulator {
    config: UnswSimConfig,
}

impl UnswSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: UnswSimConfig) -> Self {
        Self { config }
    }

    /// The full 49-attribute UNSW-NB15 schema.
    pub fn schema() -> Schema {
        let cat = ColumnMeta::categorical;
        let num = ColumnMeta::continuous;
        Schema::new(vec![
            cat("srcip"),
            num("sport"),
            cat("dstip"),
            num("dsport"),
            cat("proto"),
            cat("state"),
            num("dur"),
            num("sbytes"),
            num("dbytes"),
            num("sttl"),
            num("dttl"),
            num("sloss"),
            num("dloss"),
            cat("service"),
            num("sload"),
            num("dload"),
            num("spkts"),
            num("dpkts"),
            num("swin"),
            num("dwin"),
            num("stcpb"),
            num("dtcpb"),
            num("smeansz"),
            num("dmeansz"),
            num("trans_depth"),
            num("res_bdy_len"),
            num("sjit"),
            num("djit"),
            num("stime"),
            num("ltime"),
            num("sintpkt"),
            num("dintpkt"),
            num("tcprtt"),
            num("synack"),
            num("ackdat"),
            cat("is_sm_ips_ports"),
            num("ct_state_ttl"),
            num("ct_flw_http_mthd"),
            cat("is_ftp_login"),
            num("ct_ftp_cmd"),
            num("ct_srv_src"),
            num("ct_srv_dst"),
            num("ct_dst_ltm"),
            num("ct_src_ltm"),
            num("ct_src_dport_ltm"),
            num("ct_dst_sport_ltm"),
            num("ct_dst_src_ltm"),
            cat("attack_cat"),
            cat("label"),
        ])
    }

    /// Names of the columns used for generative-model training (a mixed
    /// 13-column view, as papers typically model a feature subset rather
    /// than raw IPs/timestamps).
    pub fn modeling_columns() -> [&'static str; 13] {
        [
            "proto",
            "service",
            "state",
            "dur",
            "sbytes",
            "dbytes",
            "sttl",
            "dttl",
            "sload",
            "spkts",
            "dpkts",
            "smeansz",
            "attack_cat",
        ]
    }

    /// Projects a full table onto the modeling view.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] if `full` lacks the expected columns.
    pub fn modeling_view(full: &Table) -> Result<Table, DataError> {
        full.project(&Self::modeling_columns())
    }

    /// Name of the label column used by NIDS classifiers.
    pub fn label_column() -> &'static str {
        "attack_cat"
    }

    /// The knowledge graph this simulator is consistent with.
    pub fn knowledge_graph() -> NetworkKg {
        NetworkKg::unsw_default()
    }

    /// Generates the full 49-column table eagerly — a thin wrapper
    /// draining [`UnswSimulator::chunk_source`], so the one-shot and
    /// chunked paths are bit-identical by construction. Memory-bounded
    /// callers (fleet-scale row counts) should stream the chunk source.
    ///
    /// # Errors
    ///
    /// Propagates row-construction failures.
    pub fn generate(&self) -> Result<Table, DataError> {
        self.chunk_source().collect(4096)
    }

    /// A [`ChunkSource`] over the configured flow stream: yields
    /// `n_records` rows on demand, carrying the RNG and the flow-clock
    /// (`stime`) state across chunks, so a multi-million-row corpus never
    /// has to exist decoded at once.
    pub fn chunk_source(&self) -> UnswChunkSource {
        UnswChunkSource {
            sim: self.clone(),
            schema: Self::schema(),
            rng: StdRng::seed_from_u64(self.config.seed),
            stime: 1_421_927_414.0, // epoch base, as in the original capture
            remaining: self.config.n_records,
        }
    }

    fn record_for(&self, cat: &'static str, stime: f64, rng: &mut StdRng) -> Vec<Value> {
        let (protos, services, states) = fingerprint(cat);
        let proto = *pick(protos, rng);
        let service = *pick(services, rng);
        let state = *pick(states, rng);
        let (dur_mu, sb_mu, db_mu, sp_mu, dp_mu) = numeric_profile(cat);

        let dur = lognormal(dur_mu.max(1e-3), 0.6, rng).min(3_600.0);
        let spkts = lognormal(sp_mu, 0.5, rng).round().clamp(1.0, 500_000.0);
        let dpkts = lognormal(dp_mu.max(0.2), 0.5, rng)
            .round()
            .clamp(0.0, 500_000.0);
        let sbytes = (lognormal(sb_mu, 0.7, rng).round()).clamp(28.0, 5e8);
        let dbytes = if dpkts == 0.0 {
            0.0
        } else {
            lognormal(db_mu.max(1.0), 0.7, rng).round().clamp(0.0, 5e8)
        };
        let sttl = *pick(&[62.0, 63.0, 254.0, 255.0], rng);
        let dttl = if dpkts == 0.0 {
            0.0
        } else {
            *pick(&[29.0, 30.0, 60.0, 252.0, 253.0], rng)
        };
        let sload = if dur > 0.0 { sbytes * 8.0 / dur } else { 0.0 };
        let dload = if dur > 0.0 { dbytes * 8.0 / dur } else { 0.0 };
        let is_tcp = proto == "tcp";
        let swin = if is_tcp { 255.0 } else { 0.0 };
        let dwin = if is_tcp && dpkts > 0.0 { 255.0 } else { 0.0 };
        let smeansz = (sbytes / spkts).round().clamp(24.0, 1504.0);
        let dmeansz = if dpkts > 0.0 {
            (dbytes / dpkts).round().clamp(0.0, 1504.0)
        } else {
            0.0
        };
        let http_like = service == "http";
        let ftp_like = service == "ftp";

        let srcip = format!("59.166.0.{}", rng.random_range(0..8) * 2);
        let dstip = format!("149.171.126.{}", rng.random_range(0..18));
        let same_endpoint = srcip == dstip;
        let sport = rng.random_range(1024..65535) as f64;
        let dsport = match service {
            "dns" => 53.0,
            "http" => 80.0,
            "smtp" => 25.0,
            "ftp" => 21.0,
            "ftp-data" => 20.0,
            "ssh" => 22.0,
            "pop3" => 110.0,
            _ => rng.random_range(1..65535) as f64,
        };

        vec![
            Value::cat(srcip),
            Value::num(sport),
            Value::cat(dstip),
            Value::num(dsport),
            Value::cat(proto.to_string()),
            Value::cat(state.to_string()),
            Value::num(dur),
            Value::num(sbytes),
            Value::num(dbytes),
            Value::num(sttl),
            Value::num(dttl),
            Value::num((spkts * rng.random_range(0.0..0.05f64)).round()), // sloss
            Value::num((dpkts * rng.random_range(0.0..0.05f64)).round()), // dloss
            Value::cat(service.to_string()),
            Value::num(sload),
            Value::num(dload),
            Value::num(spkts),
            Value::num(dpkts),
            Value::num(swin),
            Value::num(dwin),
            Value::num(if is_tcp {
                rng.random_range(0.0..4e9f64)
            } else {
                0.0
            }), // stcpb
            Value::num(if is_tcp {
                rng.random_range(0.0..4e9f64)
            } else {
                0.0
            }), // dtcpb
            Value::num(smeansz),
            Value::num(dmeansz),
            Value::num(if http_like {
                rng.random_range(1.0..3.0f64).round()
            } else {
                0.0
            }),
            Value::num(if http_like {
                lognormal(2_000.0, 1.0, rng).round()
            } else {
                0.0
            }),
            Value::num(lognormal(100.0, 1.0, rng)), // sjit
            Value::num(lognormal(80.0, 1.0, rng)),  // djit
            Value::num(stime),
            Value::num(stime + dur),
            Value::num(if spkts > 1.0 {
                dur * 1000.0 / spkts
            } else {
                0.0
            }), // sintpkt
            Value::num(if dpkts > 1.0 {
                dur * 1000.0 / dpkts
            } else {
                0.0
            }), // dintpkt
            Value::num(if is_tcp {
                lognormal(0.08, 0.5, rng)
            } else {
                0.0
            }), // tcprtt
            Value::num(if is_tcp {
                lognormal(0.04, 0.5, rng)
            } else {
                0.0
            }), // synack
            Value::num(if is_tcp {
                lognormal(0.04, 0.5, rng)
            } else {
                0.0
            }), // ackdat
            Value::cat(if same_endpoint { "1" } else { "0" }),
            Value::num(rng.random_range(0.0..6.0f64).round()), // ct_state_ttl
            Value::num(if http_like {
                rng.random_range(0.0..4.0f64).round()
            } else {
                0.0
            }),
            Value::cat(if ftp_like && rng.random_bool(0.3) {
                "1"
            } else {
                "0"
            }),
            Value::num(if ftp_like {
                rng.random_range(0.0..4.0f64).round()
            } else {
                0.0
            }),
            Value::num(rng.random_range(1.0..40.0f64).round()), // ct_srv_src
            Value::num(rng.random_range(1.0..40.0f64).round()), // ct_srv_dst
            Value::num(rng.random_range(1.0..30.0f64).round()), // ct_dst_ltm
            Value::num(rng.random_range(1.0..30.0f64).round()), // ct_src_ltm
            Value::num(rng.random_range(1.0..20.0f64).round()), // ct_src_dport_ltm
            Value::num(rng.random_range(1.0..20.0f64).round()), // ct_dst_sport_ltm
            Value::num(rng.random_range(1.0..30.0f64).round()), // ct_dst_src_ltm
            Value::cat(cat.to_string()),
            Value::cat(if cat == "normal" { "0" } else { "1" }),
        ]
    }
}

/// Streaming generator over the configured UNSW flow stream (see
/// [`UnswSimulator::chunk_source`]).
#[derive(Clone, Debug)]
pub struct UnswChunkSource {
    sim: UnswSimulator,
    schema: Schema,
    rng: StdRng,
    stime: f64,
    remaining: usize,
}

impl ChunkSource for UnswChunkSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Table>, DataError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let take = self.remaining.min(max_rows.max(1));
        let mut chunk = Table::empty(self.schema.clone());
        for _ in 0..take {
            let cat = weighted_choice(CATEGORIES, &mut self.rng);
            self.stime += self.rng.random_range(0.0..2.0);
            chunk.push_row(self.sim.record_for(cat, self.stime, &mut self.rng))?;
        }
        self.remaining -= take;
        Ok(Some(chunk))
    }
}

fn pick<'a, T>(options: &'a [T], rng: &mut StdRng) -> &'a T {
    &options[rng.random_range(0..options.len())]
}

fn weighted_choice(options: &[(&'static str, f64)], rng: &mut StdRng) -> &'static str {
    let total: f64 = options.iter().map(|(_, w)| w).sum();
    let mut u = rng.random::<f64>() * total;
    for (name, w) in options {
        u -= w;
        if u <= 0.0 {
            return name;
        }
    }
    options.last().expect("non-empty options").0
}

fn lognormal(median: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    let u1: f64 = (1.0f64 - rng.random::<f64>()).max(1e-300);
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    median * (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment_from_row;

    #[test]
    fn full_schema_has_49_columns() {
        assert_eq!(UnswSimulator::schema().len(), 49);
    }

    #[test]
    fn generates_with_imbalance() {
        let t = UnswSimulator::new(UnswSimConfig::small(4000, 1))
            .generate()
            .unwrap();
        assert_eq!(t.n_rows(), 4000);
        let counts = t.category_counts("attack_cat").unwrap();
        let normal = counts.get("normal").copied().unwrap_or(0);
        assert!(normal > 3000, "normal should dominate: {counts:?}");
        assert!(
            counts.len() >= 6,
            "most categories should appear: {counts:?}"
        );
    }

    #[test]
    fn label_agrees_with_category() {
        let t = UnswSimulator::new(UnswSimConfig::small(500, 2))
            .generate()
            .unwrap();
        let cats = t.cat_column("attack_cat").unwrap();
        let labels = t.cat_column("label").unwrap();
        for (c, l) in cats.iter().zip(labels) {
            assert_eq!(l == "1", c != "normal");
        }
    }

    #[test]
    fn modeling_view_is_kg_consistent() {
        let t = UnswSimulator::new(UnswSimConfig::small(600, 3))
            .generate()
            .unwrap();
        let view = UnswSimulator::modeling_view(&t).unwrap();
        assert_eq!(view.n_cols(), 13);
        let kg = UnswSimulator::knowledge_graph();
        for r in 0..view.n_rows() {
            let a = assignment_from_row(&view, r);
            let v = kg.reasoner().is_valid(&a);
            assert!(v.is_valid(), "row {r}: {:?}", v.violations());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = UnswSimulator::new(UnswSimConfig::small(100, 9))
            .generate()
            .unwrap();
        let b = UnswSimulator::new(UnswSimConfig::small(100, 9))
            .generate()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_generation_is_bit_identical_to_eager() {
        let sim = UnswSimulator::new(UnswSimConfig::small(500, 21));
        let eager = sim.generate().unwrap();
        // Awkward chunk sizes that do not divide the row count: the RNG
        // and flow-clock state must carry across chunk boundaries.
        for chunk_rows in [1usize, 7, 64, 499, 500, 1000] {
            let streamed = sim.chunk_source().collect(chunk_rows).unwrap();
            assert_eq!(streamed, eager, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn chunk_source_yields_bounded_chunks() {
        let sim = UnswSimulator::new(UnswSimConfig::small(100, 3));
        let mut src = sim.chunk_source();
        let mut total = 0;
        while let Some(chunk) = src.next_chunk(32).unwrap() {
            assert!(chunk.n_rows() <= 32 && !chunk.is_empty());
            total += chunk.n_rows();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn port_service_consistency() {
        let t = UnswSimulator::new(UnswSimConfig::small(800, 4))
            .generate()
            .unwrap();
        let services = t.cat_column("service").unwrap().to_vec();
        let dsports = t.num_column("dsport").unwrap();
        for (s, &p) in services.iter().zip(dsports) {
            match s.as_str() {
                "dns" => assert_eq!(p, 53.0),
                "http" => assert_eq!(p, 80.0),
                "smtp" => assert_eq!(p, 25.0),
                _ => {}
            }
        }
    }

    #[test]
    fn numeric_invariants() {
        let t = UnswSimulator::new(UnswSimConfig::small(800, 5))
            .generate()
            .unwrap();
        for (&sb, &sp) in t
            .num_column("sbytes")
            .unwrap()
            .iter()
            .zip(t.num_column("spkts").unwrap())
        {
            assert!(sb >= 28.0);
            assert!(sp >= 1.0);
        }
        for &ttl in t.num_column("sttl").unwrap() {
            assert!((1.0..=255.0).contains(&ttl));
        }
        let stimes = t.num_column("stime").unwrap();
        let ltimes = t.num_column("ltime").unwrap();
        for (s, l) in stimes.iter().zip(ltimes) {
            assert!(l >= s, "flow must end after it starts");
        }
    }

    #[test]
    fn dos_flows_are_heavier_than_generic() {
        let t = UnswSimulator::new(UnswSimConfig::small(6000, 6))
            .generate()
            .unwrap();
        let cats = t.cat_column("attack_cat").unwrap().to_vec();
        let spkts = t.num_column("spkts").unwrap();
        let mean_for = |name: &str| {
            let v: Vec<f64> = cats
                .iter()
                .zip(spkts)
                .filter(|(c, _)| c.as_str() == name)
                .map(|(_, &x)| x)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        assert!(mean_for("dos") > mean_for("generic"));
    }
}
