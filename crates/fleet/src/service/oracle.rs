//! Reference implementations of the serving arithmetic, kept only as test
//! oracles: the `binary_search` encoder, the row-at-a-time scorer and the
//! `softmax_into` trainer. The production lanes in the parent module must
//! reproduce them bit for bit — same verdicts, same weight bits, same
//! snapshot bytes.

use super::*;

/// Encodes with one `binary_search` per categorical cell.
fn reference_encode(encoder: &ServingEncoder, table: &Table) -> Vec<f64> {
    let n = table.n_rows();
    let w = encoder.width();
    let mut out = vec![0.0; n * w];
    let mut offset = 0usize;
    for (name, mean, sd) in &encoder.numeric {
        for (r, v) in table.num_column(name).unwrap().iter().enumerate() {
            out[r * w + offset] = (v - mean) / sd;
        }
        offset += 1;
    }
    for (name, vocab) in &encoder.categorical {
        for (r, v) in table.cat_column(name).unwrap().iter().enumerate() {
            if let Ok(i) = vocab.binary_search(v) {
                out[r * w + offset + i] = 1.0;
            }
        }
        offset += vocab.len();
    }
    out
}

/// Scores one row at a time: each class logit is one chain from its bias,
/// then the discriminator chain from its bias.
fn reference_score(model: &ServingModel, flows: &Table) -> (usize, usize, u64) {
    let n = flows.n_rows();
    if n == 0 {
        return (0, 0, 0.0f64.to_bits());
    }
    let w = model.encoder.width();
    let features = reference_encode(&model.encoder, flows);
    let mut logits = vec![0.0; model.class_bias.len()];
    let mut flagged = 0usize;
    let mut disc_sum = 0.0;
    for x in features.chunks_exact(w) {
        for ((logit, bias), row) in logits
            .iter_mut()
            .zip(&model.class_bias)
            .zip(model.class_weights.chunks_exact(w))
        {
            let mut acc = *bias;
            for (wv, xv) in row.iter().zip(x) {
                acc += wv * xv;
            }
            *logit = acc;
        }
        let mut best = 0usize;
        let mut best_logit = f64::NEG_INFINITY;
        for (c, logit) in logits.iter().enumerate() {
            if *logit > best_logit {
                best_logit = *logit;
                best = c;
            }
        }
        if model.is_attack[best] {
            flagged += 1;
        }
        let mut d = model.disc_bias;
        for (wv, xv) in model.disc_weights.iter().zip(x) {
            d += wv * xv;
        }
        disc_sum += sigmoid(d);
    }
    (n, flagged, (disc_sum / n as f64).to_bits())
}

fn reference_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn reference_softmax_into(weights: &[f64], bias: &[f64], x: &[f64], width: usize, out: &mut [f64]) {
    for ((o, b), row) in out.iter_mut().zip(bias).zip(weights.chunks_exact(width)) {
        *o = *b + reference_dot(row, x);
    }
    let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for o in out.iter_mut() {
        *o = (*o - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Trains with one `softmax_into` per row and one dependent dot per probe
/// row, accumulating gradients in row order.
fn reference_train(pool: &Table, epochs: usize, seed: u64) -> ServingModel {
    let encoder = ServingEncoder::fit(pool, LabSimulator::label_column()).unwrap();
    let w = encoder.width();
    let k = encoder.labels.len();
    let n = pool.n_rows();
    let features = reference_encode(&encoder, pool);
    let targets = encoder.label_indices(pool).unwrap();
    let lr = 0.5;

    let mut class_weights = vec![0.0; k * w];
    let mut class_bias = vec![0.0; k];
    let mut probs = vec![0.0; k];
    for _ in 0..epochs {
        let mut grad_w = vec![0.0; k * w];
        let mut grad_b = vec![0.0; k];
        for r in 0..n {
            let x = &features[r * w..(r + 1) * w];
            reference_softmax_into(&class_weights, &class_bias, x, w, &mut probs);
            probs[targets[r]] -= 1.0;
            for (c, p) in probs.iter().enumerate() {
                grad_b[c] += p;
                for (j, xv) in x.iter().enumerate() {
                    grad_w[c * w + j] += p * xv;
                }
            }
        }
        let scale = lr / n as f64;
        for (wv, g) in class_weights.iter_mut().zip(&grad_w) {
            *wv -= scale * g;
        }
        for (bv, g) in class_bias.iter_mut().zip(&grad_b) {
            *bv -= scale * g;
        }
    }

    let shuffled = column_shuffle(pool, seed ^ 0x0d15_c0de).unwrap();
    let fake = reference_encode(&encoder, &shuffled);
    let mut disc_weights = vec![0.0; w];
    let mut disc_bias = 0.0;
    for _ in 0..epochs {
        let mut grad_w = vec![0.0; w];
        let mut grad_b = 0.0;
        for (rows, target) in [(&features, 1.0), (&fake, 0.0)] {
            for r in 0..n {
                let x = &rows[r * w..(r + 1) * w];
                let p = sigmoid(reference_dot(&disc_weights, x) + disc_bias);
                let err = p - target;
                grad_b += err;
                for (j, xv) in x.iter().enumerate() {
                    grad_w[j] += err * xv;
                }
            }
        }
        let scale = lr / (2.0 * n as f64);
        for (wv, g) in disc_weights.iter_mut().zip(&grad_w) {
            *wv -= scale * g;
        }
        disc_bias -= scale * grad_b;
    }

    let attacks = LabSimulator::attack_events();
    let is_attack = encoder
        .labels
        .iter()
        .map(|l| attacks.contains(&l.as_str()))
        .collect();
    ServingModel {
        encoder,
        class_weights,
        class_bias,
        is_attack,
        disc_weights,
        disc_bias,
    }
}

/// Every trained value as raw bits: `PartialEq` on `f64` cannot tell
/// `-0.0` from `0.0`.
fn weight_bits(model: &ServingModel) -> Vec<u64> {
    model
        .class_weights
        .iter()
        .chain(&model.class_bias)
        .chain(&model.disc_weights)
        .chain([&model.disc_bias])
        .map(|v| v.to_bits())
        .collect()
}

fn lab(rows: usize, seed: u64) -> Table {
    LabSimulator::new(LabSimConfig::small(rows, seed))
        .generate()
        .unwrap()
}

/// A lab batch whose middle row carries a category value no vocabulary
/// holds, in every categorical feature column.
fn batch_with_unseen_category(rows: usize, seed: u64) -> Table {
    let table = lab(rows, seed);
    if rows == 0 {
        return table;
    }
    let label = LabSimulator::label_column();
    let mut data: Vec<Vec<kinet_data::Value>> = (0..rows).map(|r| table.row(r)).collect();
    for (c, col) in table.schema().iter().enumerate() {
        if col.kind() == ColumnKind::Categorical && col.name() != label {
            data[rows / 2][c] = kinet_data::Value::Cat("never-seen".into());
        }
    }
    Table::from_rows(table.schema().clone(), data).unwrap()
}

/// The trained model with every weight and bias redrawn from a seeded
/// uniform. The trained drift probe scores lab flows at exactly 0.5, so
/// only redrawn weights make the probe lane carry a signal.
fn redrawn(model: &ServingModel, seed: u64) -> ServingModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = model.clone();
    for v in out
        .class_weights
        .iter_mut()
        .chain(out.class_bias.iter_mut())
        .chain(out.disc_weights.iter_mut())
        .chain([&mut out.disc_bias])
    {
        *v = rng.random_range(-1.0..1.0);
    }
    out
}

/// A benign and an attack class tie for the top logit on every row: the
/// argmax must keep the first of them, which decides every row's flag.
fn tied(model: &ServingModel) -> ServingModel {
    let benign = model.is_attack.iter().position(|a| !a).unwrap();
    let attack = model.is_attack.iter().position(|a| *a).unwrap();
    let mut out = model.clone();
    out.class_weights.iter_mut().for_each(|v| *v = 0.0);
    out.class_bias.iter_mut().for_each(|v| *v = -1.0);
    out.class_bias[benign] = 0.25;
    out.class_bias[attack] = 0.25;
    out
}

#[test]
fn scorer_matches_the_row_at_a_time_reference() {
    for seed in [3u64, 17, 4242] {
        let trained = ServingModel::train(&lab(400, seed), 5, seed).unwrap();
        for model in [trained.clone(), redrawn(&trained, seed), tied(&trained)] {
            for rows in [0usize, 1, 3, 127, 128, 129, 1024] {
                let flows = batch_with_unseen_category(rows, seed.wrapping_mul(31) ^ rows as u64);
                let (n, flagged, disc) = model.score_batch(&flows).unwrap();
                assert_eq!(
                    (n, flagged, disc.to_bits()),
                    reference_score(&model, &flows),
                    "seed {seed}, {rows} rows"
                );
            }
        }
    }
}

#[test]
fn encoder_matches_binary_search() {
    let model = ServingModel::train(&lab(300, 5), 1, 5).unwrap();
    for rows in [1usize, 129] {
        let flows = batch_with_unseen_category(rows, 77 + rows as u64);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(model.encoder.encode_table(&flows).unwrap()),
            bits(reference_encode(&model.encoder, &flows)),
            "{rows} rows"
        );
    }
}

#[test]
fn trainer_matches_the_softmax_reference() {
    let pool = lab(500, 21);
    for epochs in [1usize, 5, 40] {
        let model = ServingModel::train(&pool, epochs, 9).unwrap();
        let reference = reference_train(&pool, epochs, 9);
        assert!(model == reference, "{epochs} epochs: models differ");
        assert_eq!(
            weight_bits(&model),
            weight_bits(&reference),
            "{epochs} epochs"
        );
        assert_eq!(
            serde_json::to_string(&model).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "{epochs} epochs: snapshot bytes differ"
        );
    }
}
