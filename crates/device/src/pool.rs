//! The model pool: candidate model instantiations with measured statistics.

use mhfl_models::{HeterogeneityLevel, MhflMethod, ModelFamily, ModelSpec, ModelStats};
use serde::{Deserialize, Serialize};

/// The scaling fractions used throughout the paper (100 %, 75 %, 50 %, 25 %).
pub const STANDARD_FRACTIONS: [f64; 4] = [1.0, 0.75, 0.5, 0.25];

/// A concrete model instantiation a client could be assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelChoice {
    /// Architecture family.
    pub family: ModelFamily,
    /// Width fraction relative to the full model.
    pub width_fraction: f64,
    /// Depth fraction relative to the full model.
    pub depth_fraction: f64,
}

impl ModelChoice {
    /// The full-size model of a family.
    pub fn full(family: ModelFamily) -> Self {
        ModelChoice {
            family,
            width_fraction: 1.0,
            depth_fraction: 1.0,
        }
    }

    /// A short human-readable label, e.g. `"ResNet-101 ×0.50w"`.
    pub fn label(&self) -> String {
        if (self.width_fraction - 1.0).abs() > 1e-9 {
            format!("{} ×{:.2}w", self.family, self.width_fraction)
        } else if (self.depth_fraction - 1.0).abs() > 1e-9 {
            format!("{} ×{:.2}d", self.family, self.depth_fraction)
        } else {
            self.family.to_string()
        }
    }
}

/// One entry of the model pool: a choice, the method that would instantiate
/// it, and its analytical statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolEntry {
    /// The model instantiation.
    pub choice: ModelChoice,
    /// The MHFL method this entry belongs to.
    pub method: MhflMethod,
    /// Analytical statistics of the instantiation (before method overheads).
    pub stats: ModelStats,
}

/// The pool of candidate models the constraint cases select from (Fig. 3).
///
/// For width-level methods the pool contains the base family at the standard
/// width fractions; for depth-level methods the standard depth fractions;
/// for topology-level methods the members of the family group (e.g. the
/// whole ResNet family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelPool {
    /// Every entry, one contiguous run per method in first-listed order,
    /// each run largest (by parameters) first.
    entries: Vec<PoolEntry>,
}

impl ModelPool {
    /// Builds the pool for one base family (and its topology group) across a
    /// set of methods. A method listed twice is pooled once.
    pub fn build(
        base_family: ModelFamily,
        topology_group: &[ModelFamily],
        methods: &[MhflMethod],
        num_classes: usize,
    ) -> Self {
        let mut entries = Vec::new();
        for &method in methods {
            if entries.iter().any(|e: &PoolEntry| e.method == method) {
                continue;
            }
            let run = entries.len();
            match method.level() {
                HeterogeneityLevel::Width => {
                    for &w in &STANDARD_FRACTIONS {
                        let choice = ModelChoice {
                            family: base_family,
                            width_fraction: w,
                            depth_fraction: 1.0,
                        };
                        entries.push(PoolEntry {
                            choice,
                            method,
                            stats: ModelSpec::new(base_family, num_classes).stats(w, 1.0),
                        });
                    }
                }
                HeterogeneityLevel::Depth => {
                    for &d in &STANDARD_FRACTIONS {
                        let choice = ModelChoice {
                            family: base_family,
                            width_fraction: 1.0,
                            depth_fraction: d,
                        };
                        entries.push(PoolEntry {
                            choice,
                            method,
                            stats: ModelSpec::new(base_family, num_classes).stats(1.0, d),
                        });
                    }
                }
                HeterogeneityLevel::Topology => {
                    let group: Vec<ModelFamily> = if topology_group.is_empty() {
                        vec![base_family]
                    } else {
                        topology_group.to_vec()
                    };
                    for family in group {
                        entries.push(PoolEntry {
                            choice: ModelChoice::full(family),
                            method,
                            stats: ModelSpec::new(family, num_classes).stats(1.0, 1.0),
                        });
                    }
                }
            }
            // Stable, so entries of equal size keep their build order.
            entries[run..].sort_by_key(|e| std::cmp::Reverse(e.stats.params));
        }
        ModelPool { entries }
    }

    /// All entries: each method's, largest (by parameters) first, in the
    /// order the methods were listed.
    pub fn entries(&self) -> &[PoolEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the pool has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries belonging to one method, largest (by parameters) first.
    pub fn entries_for_method(&self, method: MhflMethod) -> &[PoolEntry] {
        let start = self.entries.iter().position(|e| e.method == method);
        let run = &self.entries[start.unwrap_or(self.entries.len())..];
        let len = run.iter().take_while(|e| e.method == method).count();
        &run[..len]
    }

    /// The largest entry of a method satisfying `feasible`, falling back to
    /// the smallest entry of that method when none is feasible (a client must
    /// always be assigned *some* model to participate at all).
    pub fn select_largest_feasible(
        &self,
        method: MhflMethod,
        mut feasible: impl FnMut(&PoolEntry) -> bool,
    ) -> Option<PoolEntry> {
        let candidates = self.entries_for_method(method);
        candidates
            .iter()
            .find(|entry| feasible(entry))
            .or(candidates.last())
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ModelPool {
        ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            100,
        )
    }

    #[test]
    fn pool_has_entries_for_every_method() {
        let pool = pool();
        for m in MhflMethod::HETEROGENEOUS {
            assert!(
                !pool.entries_for_method(m).is_empty(),
                "{m} missing from pool"
            );
        }
        // Width/depth methods get 4 fractions; topology methods get the family group.
        assert_eq!(pool.entries_for_method(MhflMethod::SHeteroFl).len(), 4);
        assert_eq!(pool.entries_for_method(MhflMethod::DepthFl).len(), 4);
        assert_eq!(pool.entries_for_method(MhflMethod::FedProto).len(), 4);
    }

    #[test]
    fn width_entries_shrink_quadratically_depth_linearly() {
        let pool = pool();
        let widths = pool.entries_for_method(MhflMethod::FedRolex);
        assert!(widths
            .windows(2)
            .all(|w| w[0].stats.params >= w[1].stats.params));
        let full = widths.first().unwrap().stats.params as f64;
        let quarter = widths.last().unwrap().stats.params as f64;
        assert!(
            full / quarter > 8.0,
            "×0.25 width should be ≫4× smaller in params"
        );

        let depths = pool.entries_for_method(MhflMethod::FeDepth);
        let full_d = depths.first().unwrap().stats.params as f64;
        let quarter_d = depths.last().unwrap().stats.params as f64;
        let ratio_d = full_d / quarter_d;
        assert!(
            ratio_d > 2.0 && ratio_d < 8.0,
            "depth scaling is roughly linear, got {ratio_d}"
        );
    }

    #[test]
    fn topology_entries_are_family_members() {
        let pool = pool();
        let topo = pool.entries_for_method(MhflMethod::FedProto);
        let fams: Vec<ModelFamily> = topo.iter().map(|e| e.choice.family).collect();
        for f in ModelFamily::RESNET_FAMILY {
            assert!(fams.contains(&f));
        }
    }

    #[test]
    fn selection_picks_largest_feasible_or_falls_back() {
        let pool = pool();
        // Generous budget: the full model is selected.
        let full = pool
            .select_largest_feasible(MhflMethod::SHeteroFl, |_| true)
            .unwrap();
        assert!((full.choice.width_fraction - 1.0).abs() < 1e-9);
        // Impossible budget: fall back to the smallest.
        let fallback = pool
            .select_largest_feasible(MhflMethod::SHeteroFl, |_| false)
            .unwrap();
        assert!((fallback.choice.width_fraction - 0.25).abs() < 1e-9);
        // Budget that only a mid-size model satisfies.
        let threshold = pool.entries_for_method(MhflMethod::SHeteroFl)[1]
            .stats
            .params;
        let mid = pool
            .select_largest_feasible(MhflMethod::SHeteroFl, |e| e.stats.params <= threshold)
            .unwrap();
        assert_eq!(mid.stats.params, threshold);
    }

    #[test]
    fn labels_are_informative() {
        let c = ModelChoice {
            family: ModelFamily::ResNet101,
            width_fraction: 0.5,
            depth_fraction: 1.0,
        };
        assert!(c.label().contains("0.50w"));
        let d = ModelChoice {
            family: ModelFamily::ResNet101,
            width_fraction: 1.0,
            depth_fraction: 0.25,
        };
        assert!(d.label().contains("0.25d"));
        assert_eq!(
            ModelChoice::full(ModelFamily::ResNet18).label(),
            "ResNet-18"
        );
    }
}
