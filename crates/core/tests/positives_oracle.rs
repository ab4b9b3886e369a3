//! Component oracle for the `D_KG` positives: [`KgTrainPipeline::fill_positives`]
//! must produce bit-identical encodings to the string construction it
//! compiles away (per row: a string `Assignment`, `Reasoner::sample_valid`
//! over the event's sorted constrained fields, a fresh `Table`, a full
//! deterministic re-encode) and must leave the RNG in the same state.
//! The string reasoner survives here only as this oracle.

use kinet_data::encoded::row_to_assignment;
use kinet_data::transform::DataTransformer;
use kinet_data::{Table, Value};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_datasets::unsw::{UnswSimConfig, UnswSimulator};
use kinet_kg::{Assignment, AttrValue, NetworkKg};
use kinet_tensor::Matrix;
use kinetgan::pipeline::KgTrainPipeline;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeMap;

const SEEDS: u64 = 16;
const BATCH: usize = 64;
const BATCHES_PER_SEED: usize = 3;
const MAX_TRIES: usize = 8;

/// The string construction of one batch of KG-valid positives.
fn string_positives_batch(
    table: &Table,
    transformer: &DataTransformer,
    kg: &NetworkKg,
    domains: &BTreeMap<String, Vec<String>>,
    real_idx: &[usize],
    rng: &mut StdRng,
) -> Matrix {
    let scope = kg.scope_field();
    let rows: Vec<Vec<Value>> = real_idx
        .iter()
        .map(|&row| {
            let mut a = row_to_assignment(table, row);
            let event = a.get_cat(scope).unwrap_or("*").to_string();
            let mut partial = Assignment::new();
            if let Some(e) = a.get_cat(scope) {
                partial.set(scope, AttrValue::cat(e.to_string()));
            }
            let mut fields: Vec<String> = kg
                .reasoner()
                .rules()
                .applicable(&event)
                .map(|r| r.field.clone())
                .filter(|f| f != scope)
                .collect();
            fields.sort();
            fields.dedup();
            if let Some(valid) = kg
                .reasoner()
                .sample_valid(&partial, &fields, domains, rng, MAX_TRIES)
            {
                a.merge(&valid);
            }
            table
                .schema()
                .iter()
                .enumerate()
                .map(|(ci, col)| match a.get(col.name()) {
                    // Categories outside the training dictionary cannot be
                    // encoded; keep the original value.
                    Some(AttrValue::Cat(s)) => {
                        let known = domains
                            .get(col.name())
                            .is_none_or(|domain| domain.iter().any(|d| d == s));
                        if known {
                            Value::cat(s.clone())
                        } else {
                            table.value(row, ci)
                        }
                    }
                    Some(AttrValue::Num(v)) => Value::num(*v),
                    None => table.value(row, ci),
                })
                .collect()
        })
        .collect();
    let pos_table = Table::from_rows(table.schema().clone(), rows).expect("schema-shaped rows");
    transformer.transform_deterministic(&pos_table)
}

/// Even seeds run the lab KG, odd seeds the UNSW-NB15 KG.
fn dataset(seed: u64) -> (Table, NetworkKg) {
    let n_records = 400;
    if seed.is_multiple_of(2) {
        let cfg = LabSimConfig {
            n_records,
            seed,
            ..LabSimConfig::default()
        };
        let table = LabSimulator::new(cfg).generate().expect("lab data");
        (table, LabSimulator::knowledge_graph())
    } else {
        let full = UnswSimulator::new(UnswSimConfig { n_records, seed }).generate();
        let view = UnswSimulator::modeling_view(&full.expect("unsw data")).expect("view");
        (view, UnswSimulator::knowledge_graph())
    }
}

#[test]
fn fill_positives_matches_the_string_oracle_bits_and_rng_state() {
    for seed in 0..SEEDS {
        let (table, kg) = dataset(seed);
        let transformer = DataTransformer::fit(&table, 4, seed).expect("non-empty table");
        let domains: BTreeMap<String, Vec<String>> = table
            .schema()
            .categorical_names()
            .into_iter()
            .filter_map(|name| {
                let enc = transformer.categorical_encoder(name)?;
                Some((name.to_string(), enc.categories().to_vec()))
            })
            .collect();
        let mut pipe = KgTrainPipeline::new(&kg, &table, &transformer);
        let mut pos = Matrix::default();
        let mut idx_rng = StdRng::seed_from_u64(seed ^ 0x1d);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let mut pipe_rng = StdRng::seed_from_u64(seed);
        for batch in 0..BATCHES_PER_SEED {
            let real_idx: Vec<usize> = (0..BATCH)
                .map(|_| idx_rng.random_range(0..table.n_rows()))
                .collect();
            let want = string_positives_batch(
                &table,
                &transformer,
                &kg,
                &domains,
                &real_idx,
                &mut oracle_rng,
            );
            pipe.fill_positives(&real_idx, &mut pos, &mut pipe_rng, MAX_TRIES)
                .expect("KG rules align with the schema");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(want.shape(), pos.shape(), "seed {seed} batch {batch}");
            assert!(
                bits(&want) == bits(&pos),
                "seed {seed} ({}) batch {batch}: positives differ from the string oracle",
                kg.name()
            );
            assert_eq!(
                oracle_rng.clone().random::<u64>(),
                pipe_rng.clone().random::<u64>(),
                "seed {seed} ({}) batch {batch}: RNG state diverged",
                kg.name()
            );
        }
    }
}
