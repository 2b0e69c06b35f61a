//! The practical device-constraint cases (paper §IV).

use mhfl_models::MhflMethod;
use mhfl_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::{
    ima::ima_device, CostModel, DeviceCapability, DeviceProfile, ModelPool, PoolEntry, RoundCost,
};

/// A practical resource-constraint case under which MHFL is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstraintCase {
    /// Computation-limited MHFL (Definition IV.1): every client must finish
    /// local training within the same deadline, so slower devices get
    /// smaller models.
    Computation {
        /// Per-round local-training deadline in seconds
        /// ([`ConstraintCase::COMPUTATION`] uses 300 s).
        deadline_secs: f64,
    },
    /// Communication-limited MHFL (Definition IV.2): every client must
    /// complete its upload/download within the same time budget.
    Communication {
        /// Per-round communication budget in seconds
        /// ([`ConstraintCase::COMMUNICATION`] uses 200 s).
        budget_secs: f64,
    },
    /// Memory-limited MHFL (Definition IV.3): the model must fit in the
    /// client device's training memory.
    Memory,
    /// A combination of the above (paper Fig. 7 evaluates Mem+Comm and
    /// Mem+Comm+Comp).
    Combined {
        /// Optional training deadline in seconds.
        deadline_secs: Option<f64>,
        /// Optional communication budget in seconds.
        comm_budget_secs: Option<f64>,
        /// Whether the memory constraint is active.
        memory: bool,
    },
}

/// The repo's computation deadline in seconds (Definition IV.1).
const DEADLINE_SECS: f64 = 300.0;
/// The repo's communication budget in seconds (Definition IV.2).
const COMM_BUDGET_SECS: f64 = 200.0;

impl ConstraintCase {
    /// Computation-limited at the repo's 300 s deadline.
    pub const COMPUTATION: Self = ConstraintCase::Computation {
        deadline_secs: DEADLINE_SECS,
    };

    /// Communication-limited at the repo's 200 s budget.
    pub const COMMUNICATION: Self = ConstraintCase::Communication {
        budget_secs: COMM_BUDGET_SECS,
    };

    /// The Mem+Comm combination from Fig. 7, at the 200 s budget.
    pub const MEMORY_PLUS_COMMUNICATION: Self = ConstraintCase::Combined {
        deadline_secs: None,
        comm_budget_secs: Some(COMM_BUDGET_SECS),
        memory: true,
    };

    /// The Mem+Comm+Comp combination from Fig. 7, at the 300 s deadline and
    /// 200 s budget.
    pub const ALL_COMBINED: Self = ConstraintCase::Combined {
        deadline_secs: Some(DEADLINE_SECS),
        comm_budget_secs: Some(COMM_BUDGET_SECS),
        memory: true,
    };

    /// Short name used in tables and figures.
    pub fn label(&self) -> String {
        match self {
            ConstraintCase::Computation { .. } => "Comp".to_string(),
            ConstraintCase::Communication { .. } => "Comm".to_string(),
            ConstraintCase::Memory => "Mem".to_string(),
            ConstraintCase::Combined {
                deadline_secs,
                comm_budget_secs,
                memory,
            } => {
                let mut parts = Vec::new();
                if *memory {
                    parts.push("Mem");
                }
                if comm_budget_secs.is_some() {
                    parts.push("Comm");
                }
                if deadline_secs.is_some() {
                    parts.push("Comp");
                }
                parts.join("+")
            }
        }
    }

    /// The device of client `client_id` in the population seeded by `seed`
    /// — the one definition of a federation's devices.
    ///
    /// * Computation/communication-limited and combined cases draw from the
    ///   IMA-like smartphone population (`ima_device`, which carries memory
    ///   tiers).
    /// * The memory-limited case samples the three device classes of
    ///   Table III (16 GB / 4 GB / CPU-only) with proportions following the
    ///   real-world RAM distribution the paper cites (roughly 25 % high-end,
    ///   50 % mid-range, 25 % low-end).
    ///
    /// Every client draws from its own derived RNG stream, so the device is
    /// a pure function of `(seed, client_id)`, independent of which other
    /// clients were derived before it.
    pub fn derive_device(&self, seed: u64, client_id: usize) -> DeviceCapability {
        match self {
            ConstraintCase::Memory => {
                let classes = DeviceProfile::memory_classes();
                let weights = [0.25f64, 0.50, 0.25];
                let mut rng = SeededRng::new(seed).derive(client_id as u64);
                DeviceCapability::from(&classes[rng.weighted_index(&weights)])
            }
            _ => ima_device(seed, client_id),
        }
    }

    /// Assigns one client the largest model from the pool its device can
    /// handle under this constraint (paper §IV: "the largest trainable model
    /// is assigned to the client").
    pub fn assign_client(
        &self,
        pool: &ModelPool,
        method: MhflMethod,
        device: &DeviceCapability,
        cost_model: &CostModel,
        client_id: usize,
    ) -> ClientAssignment {
        let entry = pool
            .select_largest_feasible(method, |e| {
                let cost = cost_model.round_cost(&e.stats, method, device);
                self.is_feasible(&cost, device)
            })
            .expect("pool contains at least one entry per method");
        let cost = cost_model.round_cost(&entry.stats, method, device);
        ClientAssignment {
            client_id,
            device: *device,
            entry,
            cost,
        }
    }

    /// Whether a model with per-round cost `cost` is feasible on `device`
    /// under this constraint.
    pub fn is_feasible(&self, cost: &RoundCost, device: &DeviceCapability) -> bool {
        match self {
            ConstraintCase::Computation { deadline_secs } => cost.train_time_secs <= *deadline_secs,
            ConstraintCase::Communication { budget_secs } => cost.comm_time_secs <= *budget_secs,
            ConstraintCase::Memory => cost.memory_bytes <= device.memory_bytes,
            ConstraintCase::Combined {
                deadline_secs,
                comm_budget_secs,
                memory,
            } => {
                deadline_secs.is_none_or(|d| cost.train_time_secs <= d)
                    && comm_budget_secs.is_none_or(|b| cost.comm_time_secs <= b)
                    && (!memory || cost.memory_bytes <= device.memory_bytes)
            }
        }
    }
}

/// The model and cost assigned to one client under a constraint case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientAssignment {
    /// Index of the client in the federation.
    pub client_id: usize,
    /// The client's device capability.
    pub device: DeviceCapability,
    /// The pool entry (model choice + stats) selected for the client.
    pub entry: PoolEntry,
    /// The per-round cost of that choice on the client's device.
    pub cost: RoundCost,
}

impl ClientAssignment {
    /// The width fraction of the assigned model.
    pub fn width_fraction(&self) -> f64 {
        self.entry.choice.width_fraction
    }

    /// The depth fraction of the assigned model.
    pub fn depth_fraction(&self) -> f64 {
        self.entry.choice.depth_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhfl_models::ModelFamily;

    fn pool() -> ModelPool {
        ModelPool::build(
            ModelFamily::ResNet101,
            &ModelFamily::RESNET_FAMILY,
            &MhflMethod::HETEROGENEOUS,
            100,
        )
    }

    #[test]
    fn computation_constraint_gives_slow_devices_smaller_models() {
        let pool = pool();
        let cost_model = CostModel::default();
        let case = ConstraintCase::COMPUTATION;
        let slow = DeviceCapability {
            compute_gflops: 5.0,
            bandwidth_mbps: 50.0,
            memory_bytes: 1 << 33,
            availability: 1.0,
        };
        let fast = DeviceCapability {
            compute_gflops: 500.0,
            bandwidth_mbps: 50.0,
            memory_bytes: 1 << 33,
            availability: 1.0,
        };
        let slow = case.assign_client(&pool, MhflMethod::SHeteroFl, &slow, &cost_model, 0);
        let fast = case.assign_client(&pool, MhflMethod::SHeteroFl, &fast, &cost_model, 1);
        assert!(slow.entry.stats.params <= fast.entry.stats.params);
        assert_eq!(fast.client_id, 1);
    }

    #[test]
    fn communication_constraint_reacts_to_bandwidth() {
        let pool = pool();
        let cost_model = CostModel::default();
        let case = ConstraintCase::COMMUNICATION;
        let narrow = DeviceCapability {
            compute_gflops: 100.0,
            bandwidth_mbps: 1.0,
            memory_bytes: 1 << 33,
            availability: 1.0,
        };
        let wide = DeviceCapability {
            compute_gflops: 100.0,
            bandwidth_mbps: 300.0,
            memory_bytes: 1 << 33,
            availability: 1.0,
        };
        let narrow = case.assign_client(&pool, MhflMethod::FedRolex, &narrow, &cost_model, 0);
        let wide = case.assign_client(&pool, MhflMethod::FedRolex, &wide, &cost_model, 1);
        assert!(narrow.entry.stats.params <= wide.entry.stats.params);
        // The wide-bandwidth client can afford the full model within 200 s.
        assert!((wide.width_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_constraint_penalises_depthfl_more() {
        // Under the same 4 GB device, DepthFL's memory overhead forces a
        // smaller model than SHeteroFL — the mechanism behind the paper's
        // Fig. 6 observations.
        let pool = pool();
        let cost_model = CostModel::default();
        let case = ConstraintCase::Memory;
        let device = DeviceCapability::from(&DeviceProfile::jetson_tx2_nx());
        let shetero = case.assign_client(&pool, MhflMethod::SHeteroFl, &device, &cost_model, 0);
        let depthfl = case.assign_client(&pool, MhflMethod::DepthFl, &device, &cost_model, 0);
        assert!(
            depthfl.entry.stats.params <= shetero.entry.stats.params,
            "DepthFL should be forced to a smaller model under memory pressure"
        );
    }

    #[test]
    fn combined_constraints_are_at_least_as_restrictive() {
        let pool = pool();
        let cost_model = CostModel::default();
        let single = ConstraintCase::Memory;
        let combined = ConstraintCase::Combined {
            deadline_secs: Some(200.0),
            comm_budget_secs: Some(100.0),
            memory: true,
        };
        for method in [
            MhflMethod::SHeteroFl,
            MhflMethod::DepthFl,
            MhflMethod::FedRolex,
        ] {
            for client in 0..20 {
                let device = single.derive_device(3, client);
                let s = single.assign_client(&pool, method, &device, &cost_model, client);
                let c = combined.assign_client(&pool, method, &device, &cost_model, client);
                assert!(c.entry.stats.params <= s.entry.stats.params);
            }
        }
    }

    #[test]
    fn populations_match_case_semantics() {
        let population = |case: ConstraintCase| -> Vec<DeviceCapability> {
            (0..50)
                .map(|client| case.derive_device(1, client))
                .collect()
        };
        // Memory populations only contain the three Table III classes.
        let classes: Vec<u64> = DeviceProfile::memory_classes()
            .iter()
            .map(|p| p.memory_bytes)
            .collect();
        let mem_pop = population(ConstraintCase::Memory);
        assert!(mem_pop.iter().all(|d| classes.contains(&d.memory_bytes)));

        // Reproducible.
        let comp = ConstraintCase::Computation {
            deadline_secs: 100.0,
        };
        assert_eq!(population(comp), population(comp));
    }

    #[test]
    fn derived_devices_and_assignments_are_order_free() {
        let pool = pool();
        let cost_model = CostModel::default();
        for case in [ConstraintCase::Memory, ConstraintCase::COMPUTATION] {
            // Same (seed, client) → same device, regardless of derivation
            // order, even at indices far beyond any materialised population.
            let a = case.derive_device(11, 987_654);
            let _ = case.derive_device(11, 3);
            assert_eq!(a, case.derive_device(11, 987_654));
            assert_ne!(a, case.derive_device(11, 987_655));
            let one = case.assign_client(&pool, MhflMethod::SHeteroFl, &a, &cost_model, 987_654);
            assert_eq!(one.client_id, 987_654);
        }
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            ConstraintCase::Computation { deadline_secs: 1.0 }.label(),
            "Comp"
        );
        assert_eq!(ConstraintCase::Memory.label(), "Mem");
        assert_eq!(
            ConstraintCase::MEMORY_PLUS_COMMUNICATION.label(),
            "Mem+Comm"
        );
        assert_eq!(ConstraintCase::ALL_COMBINED.label(), "Mem+Comm+Comp");
    }

    #[test]
    fn infeasible_everywhere_falls_back_to_smallest() {
        let pool = pool();
        let cost_model = CostModel::default();
        let case = ConstraintCase::Computation {
            deadline_secs: 1e-9,
        };
        let device = DeviceCapability {
            compute_gflops: 1.0,
            bandwidth_mbps: 1.0,
            memory_bytes: 1 << 30,
            availability: 1.0,
        };
        let a = case.assign_client(&pool, MhflMethod::Fjord, &device, &cost_model, 0);
        assert!((a.width_fraction() - 0.25).abs() < 1e-9);
    }
}
