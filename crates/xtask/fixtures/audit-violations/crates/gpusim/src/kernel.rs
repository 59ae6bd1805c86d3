//! Fixture charge site (kernel.rs is a charge wrapper).

pub fn charge(spec: &GpuSpec, r: &mut Fifo, now: u64) {
    let cost = spec.good_bw;
    r.reserve(now, cost);
}
