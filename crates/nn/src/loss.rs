//! Loss functions used by the federated training loops.
//!
//! Every function returns both the scalar loss and the gradient with respect
//! to its first argument, averaged over the batch, so callers can feed the
//! gradient straight into [`crate::Layer::backward`].

use mhfl_tensor::Tensor;

use crate::{NnError, Result};

fn check_logits(logits: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if logits.rank() != 2 {
        return Err(NnError::BadInput {
            layer: op.to_string(),
            expected: "[batch, classes] logits".into(),
            got: logits.dims().to_vec(),
        });
    }
    Ok((logits.dims()[0], logits.dims()[1]))
}

/// Softmax cross-entropy against integer class labels.
///
/// Returns `(mean loss, d loss / d logits)`.
///
/// # Errors
/// Returns an error if `logits` is not `[batch, classes]`, the label count
/// differs from the batch size, or a label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let (batch, classes) = check_logits(logits, "cross_entropy")?;
    if labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "cross_entropy".into(),
            expected: format!("{batch} labels"),
            got: vec![labels.len()],
        });
    }
    let probs = logits.softmax_rows()?;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        if label >= classes {
            return Err(NnError::BadInput {
                layer: "cross_entropy".into(),
                expected: format!("labels < {classes}"),
                got: vec![label],
            });
        }
        let p = probs.at(&[i, label])?.max(1e-12);
        loss -= p.ln();
        let current = grad.at(&[i, label])?;
        grad.set(&[i, label], current - 1.0)?;
    }
    let scale = 1.0 / batch as f32;
    Ok((loss * scale, grad.scale(scale)))
}

/// Knowledge-distillation loss: cross-entropy of the student's
/// temperature-softened predictions against teacher probabilities.
///
/// Returns `(mean loss, d loss / d student_logits)`. The gradient carries the
/// usual `T` factor so it can be mixed with a hard-label loss at comparable
/// magnitude.
///
/// # Errors
/// Returns an error if the logits/targets disagree in shape.
pub fn soft_cross_entropy(
    student_logits: &Tensor,
    teacher_probs: &Tensor,
    temperature: f32,
) -> Result<(f32, Tensor)> {
    let (batch, _classes) = check_logits(student_logits, "soft_cross_entropy")?;
    if teacher_probs.dims() != student_logits.dims() {
        return Err(NnError::BadInput {
            layer: "soft_cross_entropy".into(),
            expected: format!("teacher probabilities of shape {:?}", student_logits.dims()),
            got: teacher_probs.dims().to_vec(),
        });
    }
    let t = temperature.max(1e-3);
    let soft_student = student_logits.scale(1.0 / t).softmax_rows()?;
    let mut loss = 0.0f32;
    for (p, q) in teacher_probs.as_slice().iter().zip(soft_student.as_slice()) {
        if *p > 0.0 {
            loss -= p * q.max(1e-12).ln();
        }
    }
    // d/d logits of CE(teacher, softmax(logits / T)) = (softmax(logits/T) - teacher) / T;
    // multiply by T^2 (Hinton et al.) so gradient magnitudes match the hard loss: net factor T.
    let grad = soft_student.sub(teacher_probs)?.scale(t / batch as f32);
    Ok((loss / batch as f32, grad))
}

/// Mean squared error between two same-shaped tensors.
///
/// Returns `(mean loss, d loss / d prediction)`.
///
/// # Errors
/// Returns an error if the shapes differ.
pub fn mse(prediction: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    if prediction.dims() != target.dims() {
        return Err(NnError::BadInput {
            layer: "mse".into(),
            expected: format!("target of shape {:?}", prediction.dims()),
            got: target.dims().to_vec(),
        });
    }
    let n = prediction.len().max(1) as f32;
    let diff = prediction.sub(target)?;
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

/// Prototype-regularisation loss used by FedProto: the squared distance
/// between each sample's feature vector and the global prototype of its
/// class, for classes that have a prototype.
///
/// `features` is `[batch, dim]`, `prototypes` is `[classes, dim]` and
/// `has_prototype[c]` says whether class `c`'s row is valid.
///
/// Returns `(mean loss, d loss / d features)`.
///
/// # Errors
/// Returns an error on rank or dimension mismatches.
pub fn prototype_loss(
    features: &Tensor,
    labels: &[usize],
    prototypes: &Tensor,
    has_prototype: &[bool],
) -> Result<(f32, Tensor)> {
    if features.rank() != 2 || prototypes.rank() != 2 {
        return Err(NnError::BadInput {
            layer: "prototype_loss".into(),
            expected: "rank-2 features and prototypes".into(),
            got: features.dims().to_vec(),
        });
    }
    let (batch, dim) = (features.dims()[0], features.dims()[1]);
    let classes = prototypes.dims()[0];
    if prototypes.dims()[1] != dim || has_prototype.len() != classes || labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "prototype_loss".into(),
            expected: format!("prototypes [{classes}, {dim}], {batch} labels"),
            got: prototypes.dims().to_vec(),
        });
    }
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(&[batch, dim]);
    let mut active = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        if label >= classes || !has_prototype[label] {
            continue;
        }
        active += 1;
        for j in 0..dim {
            let diff = features.at(&[i, j])? - prototypes.at(&[label, j])?;
            loss += diff * diff;
            grad.set(&[i, j], 2.0 * diff)?;
        }
    }
    if active == 0 {
        return Ok((0.0, Tensor::zeros(&[batch, dim])));
    }
    let scale = 1.0 / (active as f32 * dim as f32);
    Ok((loss * scale, grad.scale(scale)))
}

/// Fraction of rows whose argmax equals the label.
///
/// # Errors
/// Returns an error if `logits` is not `[batch, classes]` or label count differs.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let correct = correct_count(logits, labels)?;
    if labels.is_empty() {
        return Ok(0.0);
    }
    Ok(correct as f32 / labels.len() as f32)
}

/// Number of rows whose argmax equals the label.
///
/// # Errors
/// Returns an error if `logits` is not `[batch, classes]` or label count differs.
pub fn correct_count(logits: &Tensor, labels: &[usize]) -> Result<usize> {
    let (batch, _classes) = check_logits(logits, "accuracy")?;
    if labels.len() != batch {
        return Err(NnError::BadInput {
            layer: "accuracy".into(),
            expected: format!("{batch} labels"),
            got: vec![labels.len()],
        });
    }
    if batch == 0 {
        return Ok(0);
    }
    let preds = logits.argmax_rows()?;
    Ok(preds.iter().zip(labels).filter(|(p, l)| p == l).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_tensor::SeededRng;

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]).unwrap();
        let (loss, grad) = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-3);
        assert!(grad.norm() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_prediction() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, grad) = cross_entropy(&logits, &[2]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient pushes probability toward the label.
        assert!(grad.at(&[0, 2]).unwrap() < 0.0);
        assert!(grad.at(&[0, 0]).unwrap() > 0.0);
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let mut rng = SeededRng::new(0);
        let logits = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let labels = [1usize, 4, 0];
        let (_, grad) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 7, 14] {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = cross_entropy(&lp, &labels).unwrap().0;
            let fm = cross_entropy(&lm, &labels).unwrap().0;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((grad.as_slice()[idx] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn cross_entropy_validation() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 5]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[3]), &[0]).is_err());
    }

    #[test]
    fn soft_cross_entropy_matches_teacher_at_optimum() {
        let teacher = Tensor::from_vec(vec![0.7, 0.2, 0.1], &[1, 3]).unwrap();
        // Student logits already proportional to teacher log-probs.
        let student = teacher.map(|p| p.ln());
        let (_, grad) = soft_cross_entropy(&student, &teacher, 1.0).unwrap();
        assert!(grad.norm() < 1e-4);
        let off = Tensor::from_vec(vec![5.0, -5.0, 0.0], &[1, 3]).unwrap();
        let (loss_off, _) = soft_cross_entropy(&off, &teacher, 1.0).unwrap();
        let (loss_on, _) = soft_cross_entropy(&student, &teacher, 1.0).unwrap();
        assert!(loss_off > loss_on);
    }

    #[test]
    fn mse_basics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let (loss, grad) = mse(&a, &b).unwrap();
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[1.0, 2.0]);
        assert!(mse(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn prototype_loss_pulls_towards_prototype() {
        let features = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let protos = Tensor::from_vec(vec![0.0, 0.0, 5.0, 5.0], &[2, 2]).unwrap();
        let (loss, grad) = prototype_loss(&features, &[0], &protos, &[true, true]).unwrap();
        assert!(loss > 0.0);
        // Gradient points from prototype toward feature (positive along x).
        assert!(grad.at(&[0, 0]).unwrap() > 0.0);
        // Missing prototype: zero loss.
        let (loss2, grad2) = prototype_loss(&features, &[1], &protos, &[true, false]).unwrap();
        assert_eq!(loss2, 0.0);
        assert_eq!(grad2.norm(), 0.0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }
}
