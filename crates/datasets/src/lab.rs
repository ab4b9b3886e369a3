//! Simulator for the paper's lab-collected IoT network capture (§IV-B-1).
//!
//! The paper's private dataset comprises 14,520 Wireshark records from a
//! Blink camera, a smart plug, a motion sensor and a tag manager, covering
//! benign device behaviours (motion detection, lamp activation, tag-manager
//! sync) and simulated attacks (traffic flooding and friends). This
//! simulator reproduces that setting with a seedable generative process
//! whose event semantics are exactly the rules of
//! [`NetworkKg::lab_default`] — so every clean record is KG-valid by
//! construction, imbalance matches the "mostly benign, few attacks"
//! profile, and per-event numeric signatures (packet counts, byte volumes,
//! durations) are distinguishable the way real NIDS features are.

use kinet_data::stream::ChunkSource;
use kinet_data::{ColumnMeta, DataError, Schema, Table, Value};
use kinet_kg::NetworkKg;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Configuration for [`LabSimulator`].
#[derive(Clone, Debug)]
pub struct LabSimConfig {
    /// Number of records to generate (paper: 14,520).
    pub n_records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of records that are attacks (default 0.08).
    pub attack_fraction: f64,
}

impl Default for LabSimConfig {
    fn default() -> Self {
        Self {
            n_records: 14_520,
            seed: 7,
            attack_fraction: 0.08,
        }
    }
}

impl LabSimConfig {
    /// A smaller configuration for unit tests and fast benches.
    pub fn small(n_records: usize, seed: u64) -> Self {
        Self {
            n_records,
            seed,
            ..Self::default()
        }
    }
}

struct DeviceInfo {
    name: &'static str,
    ip: &'static str,
}

const DEVICES: &[DeviceInfo] = &[
    DeviceInfo {
        name: "blink_camera",
        ip: "192.168.1.10",
    },
    DeviceInfo {
        name: "smart_plug",
        ip: "192.168.1.11",
    },
    DeviceInfo {
        name: "motion_sensor",
        ip: "192.168.1.12",
    },
    DeviceInfo {
        name: "tag_manager",
        ip: "192.168.1.13",
    },
    DeviceInfo {
        name: "hub",
        ip: "192.168.1.1",
    },
];

const CLOUD_DSTS: &[&str] = &[
    "34.206.10.5",
    "52.94.236.248",
    "142.250.80.46",
    "192.168.1.1",
];

/// Benign events with their relative frequencies.
const BENIGN_EVENTS: &[(&str, f64)] = &[
    ("heartbeat", 0.34),
    ("motion_detected", 0.22),
    ("dns_lookup", 0.16),
    ("tag_sync", 0.12),
    ("lamp_on", 0.07),
    ("lamp_off", 0.06),
    ("firmware_check", 0.03),
];

/// Attack events with their relative frequencies within attack traffic.
const ATTACK_EVENTS: &[(&str, f64)] = &[
    ("traffic_flooding", 0.55),
    ("port_scan", 0.30),
    ("cve_1999_0003", 0.15),
];

/// Generator for lab-style IoT network activity records.
///
/// ```
/// use kinet_datasets::lab::{LabSimConfig, LabSimulator};
/// let table = LabSimulator::new(LabSimConfig::small(200, 1)).generate().unwrap();
/// assert_eq!(table.n_rows(), 200);
/// assert!(table.schema().index_of("event").is_some());
/// ```
#[derive(Clone, Debug)]
pub struct LabSimulator {
    config: LabSimConfig,
}

impl LabSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: LabSimConfig) -> Self {
        Self { config }
    }

    /// The lab table schema: 6 discrete + 4 continuous columns.
    pub fn schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::categorical("device"),
            ColumnMeta::categorical("protocol"),
            ColumnMeta::categorical("src_ip"),
            ColumnMeta::categorical("dst_ip"),
            ColumnMeta::continuous("src_port"),
            ColumnMeta::continuous("dst_port"),
            ColumnMeta::continuous("pkt_count"),
            ColumnMeta::continuous("byte_count"),
            ColumnMeta::continuous("duration"),
        ])
    }

    /// Name of the label column used by NIDS classifiers.
    pub fn label_column() -> &'static str {
        "event"
    }

    /// The set of event names that are attacks.
    pub fn attack_events() -> Vec<&'static str> {
        ATTACK_EVENTS.iter().map(|(n, _)| *n).collect()
    }

    /// Generates the table eagerly — a thin wrapper draining
    /// [`LabSimulator::chunk_source`], so the one-shot and chunked paths
    /// are bit-identical by construction (same RNG draw sequence).
    /// Memory-bounded callers should stream the chunk source instead.
    ///
    /// # Errors
    ///
    /// Propagates row-construction failures (impossible for in-range
    /// configs; surfaced rather than panicking per workspace policy).
    pub fn generate(&self) -> Result<Table, DataError> {
        self.chunk_source().collect(GENERATE_CHUNK)
    }

    /// A [`ChunkSource`] over the configured record mix: yields
    /// `n_records` rows on demand without materializing them all, RNG
    /// state carried across chunks.
    pub fn chunk_source(&self) -> LabChunkSource {
        LabChunkSource {
            sim: self.clone(),
            schema: Self::schema(),
            rng: StdRng::seed_from_u64(self.config.seed),
            remaining: self.config.n_records,
        }
    }

    /// A [`ChunkSource`] over a single device's traffic: yields exactly
    /// `n` rows originating from `device`, chunk by chunk, consuming the
    /// RNG exactly like [`LabSimulator::generate_for_device`].
    pub fn device_chunk_source(&self, device: &str, n: usize) -> LabDeviceChunkSource {
        LabDeviceChunkSource {
            sim: self.clone(),
            schema: Self::schema(),
            rng: StdRng::seed_from_u64(self.config.seed ^ hash_name(device)),
            device: device.to_string(),
            remaining: n,
        }
    }

    /// Generates one record of the given event class (public so tests and
    /// the distributed simulator can drive per-event streams).
    pub fn record_for(&self, event: &str, rng: &mut StdRng) -> Vec<Value> {
        let (device, dst_ip, protocol, src_port, dst_port) = match event {
            "motion_detected" => {
                let device = if rng.random_bool(0.7) {
                    "blink_camera"
                } else {
                    "motion_sensor"
                };
                (device, cloud(rng), "tcp", ephemeral(rng), 443.0)
            }
            "lamp_on" | "lamp_off" => ("smart_plug", cloud(rng), "tcp", ephemeral(rng), 8883.0),
            "tag_sync" => ("tag_manager", cloud(rng), "tcp", ephemeral(rng), 443.0),
            "heartbeat" => (any_device(rng), cloud(rng), "udp", ephemeral(rng), 123.0),
            "dns_lookup" => {
                let dst = if rng.random_bool(0.8) {
                    "192.168.1.1"
                } else {
                    "142.250.80.46"
                };
                (any_device(rng), dst, "udp", ephemeral(rng), 53.0)
            }
            "firmware_check" => {
                let port = if rng.random_bool(0.6) { 443.0 } else { 80.0 };
                (any_device(rng), cloud(rng), "tcp", ephemeral(rng), port)
            }
            "traffic_flooding" => {
                let proto = if rng.random_bool(0.7) { "udp" } else { "icmp" };
                (
                    any_device(rng),
                    victim(rng),
                    proto,
                    ephemeral(rng),
                    rng.random_range(1..65535) as f64,
                )
            }
            "port_scan" => (
                any_device(rng),
                victim(rng),
                "tcp",
                ephemeral(rng),
                rng.random_range(1..=1024) as f64,
            ),
            "cve_1999_0003" => (
                any_device(rng),
                victim(rng),
                "udp",
                ephemeral(rng),
                rng.random_range(32771..=34000) as f64,
            ),
            other => panic!("unknown lab event class {other:?}"),
        };
        let (pkts, bytes, duration) = numeric_signature(event, rng);
        let src_ip = DEVICES
            .iter()
            .find(|d| d.name == device)
            .map(|d| d.ip)
            .unwrap_or("192.168.1.99");
        vec![
            Value::cat(event),
            Value::cat(device),
            Value::cat(protocol),
            Value::cat(src_ip),
            Value::cat(dst_ip),
            Value::num(src_port),
            Value::num(dst_port),
            Value::num(pkts),
            Value::num(bytes),
            Value::num(duration),
        ]
    }

    /// Generates records for a single device only (used by the distributed
    /// NIDS simulation, where each node sees its own traffic). Thin
    /// wrapper draining [`LabSimulator::device_chunk_source`].
    ///
    /// # Errors
    ///
    /// Propagates row-construction failures.
    pub fn generate_for_device(&self, device: &str, n: usize) -> Result<Table, DataError> {
        self.device_chunk_source(device, n).collect(GENERATE_CHUNK)
    }

    /// The knowledge graph this simulator is consistent with.
    pub fn knowledge_graph() -> NetworkKg {
        NetworkKg::lab_default()
    }

    /// Draws one event-class name from the configured benign/attack mix.
    fn draw_event(&self, rng: &mut StdRng) -> &'static str {
        let is_attack = rng.random::<f64>() < self.config.attack_fraction;
        if is_attack {
            weighted_choice(ATTACK_EVENTS, rng)
        } else {
            weighted_choice(BENIGN_EVENTS, rng)
        }
    }
}

/// Chunk size the eager wrappers drain their sources with. Any value gives
/// identical rows (RNG state persists across chunks); this one keeps the
/// transient allocation small.
const GENERATE_CHUNK: usize = 4096;

/// Streaming generator over the full lab record mix (see
/// [`LabSimulator::chunk_source`]).
#[derive(Clone, Debug)]
pub struct LabChunkSource {
    sim: LabSimulator,
    schema: Schema,
    rng: StdRng,
    remaining: usize,
}

impl ChunkSource for LabChunkSource {
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
            let event = self.sim.draw_event(&mut self.rng);
            chunk.push_row(self.sim.record_for(event, &mut self.rng))?;
        }
        self.remaining -= take;
        Ok(Some(chunk))
    }
}

/// Streaming generator over one device's traffic (see
/// [`LabSimulator::device_chunk_source`]).
#[derive(Clone, Debug)]
pub struct LabDeviceChunkSource {
    sim: LabSimulator,
    schema: Schema,
    rng: StdRng,
    device: String,
    remaining: usize,
}

impl ChunkSource for LabDeviceChunkSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Table>, DataError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let take = self.remaining.min(max_rows.max(1));
        let mut chunk = Table::empty(self.schema.clone());
        while chunk.n_rows() < take {
            let event = self.sim.draw_event(&mut self.rng);
            let row = self.sim.record_for(event, &mut self.rng);
            // keep only rows originating from this device
            if row[1] == Value::cat(self.device.as_str()) {
                chunk.push_row(row)?;
            }
        }
        self.remaining -= take;
        Ok(Some(chunk))
    }
}

fn hash_name(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
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

fn cloud(rng: &mut StdRng) -> &'static str {
    CLOUD_DSTS[rng.random_range(0..CLOUD_DSTS.len())]
}

fn victim(rng: &mut StdRng) -> &'static str {
    DEVICES[rng.random_range(0..DEVICES.len())].ip
}

fn any_device(rng: &mut StdRng) -> &'static str {
    // hub excluded: it does not originate application traffic
    DEVICES[rng.random_range(0..DEVICES.len() - 1)].name
}

fn ephemeral(rng: &mut StdRng) -> f64 {
    rng.random_range(1024..=65535) as f64
}

/// Per-event (packets, bytes, duration) signature: log-normal-ish draws so
/// attacks are separable from benign chatter the way they are in practice.
fn numeric_signature(event: &str, rng: &mut StdRng) -> (f64, f64, f64) {
    let (pkt_mu, byte_per_pkt, dur_mu): (f64, f64, f64) = match event {
        "heartbeat" => (2.0, 80.0, 0.05),
        "dns_lookup" => (2.0, 120.0, 0.03),
        "motion_detected" => (40.0, 900.0, 4.0),
        "lamp_on" | "lamp_off" => (6.0, 200.0, 0.4),
        "tag_sync" => (20.0, 500.0, 2.0),
        "firmware_check" => (120.0, 1100.0, 15.0),
        "traffic_flooding" => (2500.0, 600.0, 8.0),
        "port_scan" => (300.0, 60.0, 20.0),
        "cve_1999_0003" => (12.0, 300.0, 1.0),
        _ => (5.0, 100.0, 0.5),
    };
    let jitter = |mu: f64, rng: &mut StdRng| {
        let z = gaussian(rng);
        (mu * (0.35 * z).exp()).max(1.0)
    };
    let pkts = jitter(pkt_mu, rng).round();
    let bytes = (pkts * jitter(byte_per_pkt, rng)).round();
    let duration = jitter(dur_mu.max(0.01), rng);
    (pkts, bytes, duration)
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = (1.0f64 - rng.random::<f64>()).max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment_from_row;

    #[test]
    fn default_size_matches_paper() {
        assert_eq!(LabSimConfig::default().n_records, 14_520);
    }

    #[test]
    fn generates_requested_rows_with_schema() {
        let t = LabSimulator::new(LabSimConfig::small(500, 3))
            .generate()
            .unwrap();
        assert_eq!(t.n_rows(), 500);
        assert_eq!(t.n_cols(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = LabSimulator::new(LabSimConfig::small(100, 5))
            .generate()
            .unwrap();
        let b = LabSimulator::new(LabSimConfig::small(100, 5))
            .generate()
            .unwrap();
        assert_eq!(a, b);
        let c = LabSimulator::new(LabSimConfig::small(100, 6))
            .generate()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn attack_fraction_respected() {
        let t = LabSimulator::new(LabSimConfig::small(5000, 11))
            .generate()
            .unwrap();
        let attacks = LabSimulator::attack_events();
        let n_attack = t
            .cat_column("event")
            .unwrap()
            .iter()
            .filter(|e| attacks.contains(&e.as_str()))
            .count();
        let frac = n_attack as f64 / 5000.0;
        assert!((0.05..0.12).contains(&frac), "attack fraction {frac}");
    }

    #[test]
    fn every_clean_record_is_kg_valid() {
        let t = LabSimulator::new(LabSimConfig::small(800, 13))
            .generate()
            .unwrap();
        let kg = LabSimulator::knowledge_graph();
        for r in 0..t.n_rows() {
            let a = assignment_from_row(&t, r);
            let v = kg.reasoner().is_valid(&a);
            assert!(v.is_valid(), "row {r} invalid: {:?} ({a})", v.violations());
        }
    }

    #[test]
    fn class_imbalance_present() {
        let t = LabSimulator::new(LabSimConfig::small(4000, 17))
            .generate()
            .unwrap();
        let counts = t.category_counts("event").unwrap();
        let heartbeat = counts.get("heartbeat").copied().unwrap_or(0);
        let cve = counts.get("cve_1999_0003").copied().unwrap_or(0);
        assert!(
            heartbeat > 10 * cve.max(1),
            "expected heavy imbalance: {counts:?}"
        );
        assert!(cve > 0, "minority class must still appear");
    }

    #[test]
    fn flooding_has_heavy_packet_signature() {
        let t = LabSimulator::new(LabSimConfig::small(6000, 19))
            .generate()
            .unwrap();
        let events = t.cat_column("event").unwrap().to_vec();
        let pkts = t.num_column("pkt_count").unwrap();
        let mean_for = |name: &str| {
            let vals: Vec<f64> = events
                .iter()
                .zip(pkts)
                .filter(|(e, _)| e.as_str() == name)
                .map(|(_, &p)| p)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        assert!(mean_for("traffic_flooding") > 20.0 * mean_for("heartbeat"));
    }

    #[test]
    fn per_device_stream_filters() {
        let sim = LabSimulator::new(LabSimConfig::small(100, 23));
        let t = sim.generate_for_device("smart_plug", 50).unwrap();
        assert_eq!(t.n_rows(), 50);
        for d in t.cat_column("device").unwrap() {
            assert_eq!(d, "smart_plug");
        }
    }

    #[test]
    fn chunked_generation_is_bit_identical_to_eager() {
        let sim = LabSimulator::new(LabSimConfig::small(400, 31));
        let eager = sim.generate().unwrap();
        for chunk_rows in [1usize, 13, 128, 400, 999] {
            let streamed = sim.chunk_source().collect(chunk_rows).unwrap();
            assert_eq!(streamed, eager, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn chunked_device_stream_is_bit_identical_to_eager() {
        let sim = LabSimulator::new(LabSimConfig::small(100, 37));
        for device in ["blink_camera", "tag_manager"] {
            let eager = sim.generate_for_device(device, 75).unwrap();
            for chunk_rows in [1usize, 9, 75, 200] {
                let streamed = sim
                    .device_chunk_source(device, 75)
                    .collect(chunk_rows)
                    .unwrap();
                assert_eq!(streamed, eager, "{device} chunk_rows={chunk_rows}");
            }
        }
    }

    #[test]
    fn src_ip_always_in_subnet() {
        let t = LabSimulator::new(LabSimConfig::small(300, 29))
            .generate()
            .unwrap();
        for ip in t.cat_column("src_ip").unwrap() {
            assert!(ip.starts_with("192.168.1."), "{ip}");
        }
    }
}
