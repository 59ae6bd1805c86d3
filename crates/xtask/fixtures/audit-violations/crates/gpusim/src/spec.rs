//! Fixture spec tables for the charge-model analysis.

pub struct GpuSpec {
    pub name: u64,
    pub good_bw: u64,
    pub tuner_only: u64,
    pub dead_cost: u64,
}
