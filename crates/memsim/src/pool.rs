//! Slab allocators backing the simulated memory spaces, and the
//! cross-space byte mover.

use crate::error::MemError;
use crate::ptr::{AllocId, Ptr};
use crate::registry::RegistrationTable;
use crate::space::{GpuId, MemSpace};
use simcore::hash::DetHashMap;
use simcore::par::{par_copy, par_transfer, CopyOp};

/// All allocations living in one memory space.
pub struct MemPool {
    space: MemSpace,
    capacity: u64,
    used: u64,
    peak: u64,
    next_id: u64,
    allocs: DetHashMap<AllocId, Box<[u8]>>,
}

impl MemPool {
    /// Create a pool with a capacity limit (a K40 has 12 GB; the host is
    /// effectively unlimited but still bounded to catch leaks in tests).
    pub fn new(space: MemSpace, capacity: u64) -> Self {
        MemPool {
            space,
            capacity,
            used: 0,
            peak: 0,
            next_id: 0,
            allocs: DetHashMap::default(),
        }
    }

    pub fn space(&self) -> MemSpace {
        self.space
    }

    /// Allocate `len` zero-initialized bytes.
    pub fn alloc(&mut self, len: u64) -> Result<Ptr, MemError> {
        if self.used + len > self.capacity {
            return Err(MemError::OutOfMemory {
                space: self.space,
                requested: len,
            });
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.allocs
            .insert(id, vec![0u8; len as usize].into_boxed_slice());
        self.used += len;
        self.peak = self.peak.max(self.used);
        Ok(Ptr {
            space: self.space,
            alloc: id,
            offset: 0,
        })
    }

    /// Release an allocation; `ptr` must point at its base (offset 0),
    /// matching `cudaFree` semantics. Returns the freed size.
    pub fn free(&mut self, ptr: Ptr) -> Result<u64, MemError> {
        self.check_space(ptr)?;
        if ptr.offset != 0 {
            return Err(MemError::InvalidPointer(ptr));
        }
        match self.allocs.remove(&ptr.alloc) {
            Some(data) => {
                self.used -= data.len() as u64;
                Ok(data.len() as u64)
            }
            None => Err(MemError::InvalidPointer(ptr)),
        }
    }

    /// Size of the allocation behind `ptr`.
    pub fn alloc_len(&self, ptr: Ptr) -> Result<u64, MemError> {
        self.check_space(ptr)?;
        self.allocs
            .get(&ptr.alloc)
            .map(|d| d.len() as u64)
            .ok_or(MemError::InvalidPointer(ptr))
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocated bytes (the paper argues its approach
    /// needs only a small pipeline buffer instead of a full-size staging
    /// copy; tests assert that through this counter).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_space(&self, ptr: Ptr) -> Result<(), MemError> {
        if ptr.space != self.space {
            return Err(MemError::WrongSpace {
                ptr,
                expected: self.space,
            });
        }
        Ok(())
    }

    fn check_range(&self, ptr: Ptr, len: u64) -> Result<(), MemError> {
        let alloc_len = self.alloc_len(ptr)?;
        if ptr.offset + len > alloc_len {
            return Err(MemError::OutOfBounds {
                ptr,
                len,
                alloc_len,
            });
        }
        Ok(())
    }

    /// Borrow `len` bytes starting at `ptr`.
    pub fn slice(&self, ptr: Ptr, len: u64) -> Result<&[u8], MemError> {
        self.check_range(ptr, len)?;
        let data = &self.allocs[&ptr.alloc];
        Ok(&data[ptr.offset as usize..(ptr.offset + len) as usize])
    }

    /// Borrow `len` bytes mutably starting at `ptr`.
    pub fn slice_mut(&mut self, ptr: Ptr, len: u64) -> Result<&mut [u8], MemError> {
        self.check_range(ptr, len)?;
        let data = self.allocs.get_mut(&ptr.alloc).expect("checked above");
        Ok(&mut data[ptr.offset as usize..(ptr.offset + len) as usize])
    }

    /// Copy from a user slice into the pool.
    pub fn write(&mut self, ptr: Ptr, bytes: &[u8]) -> Result<(), MemError> {
        self.slice_mut(ptr, bytes.len() as u64)?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// Copy out of the pool into a fresh `Vec`.
    pub fn read_vec(&self, ptr: Ptr, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(self.slice(ptr, len)?.to_vec())
    }

    /// Disjoint mutable + shared borrows of two ranges for same-pool
    /// copies. Falls back to a buffered copy when both live in the same
    /// allocation (potential overlap).
    fn copy_internal(&mut self, src: Ptr, dst: Ptr, len: u64) -> Result<(), MemError> {
        self.check_range(src, len)?;
        self.check_range(dst, len)?;
        if src.alloc == dst.alloc {
            let data = self.allocs.get_mut(&src.alloc).expect("checked");
            data.copy_within(
                src.offset as usize..(src.offset + len) as usize,
                dst.offset as usize,
            );
        } else {
            // Two distinct boxed slices: split the borrow through raw
            // pointers. SAFETY: distinct `AllocId`s map to distinct heap
            // allocations, so the ranges cannot alias.
            let src_ptr = self.allocs[&src.alloc][src.offset as usize..].as_ptr();
            let dst_slice = self.allocs.get_mut(&dst.alloc).expect("checked");
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src_ptr,
                    dst_slice[dst.offset as usize..].as_mut_ptr(),
                    len as usize,
                );
            }
        }
        Ok(())
    }
}

/// The full memory system of a simulated node: host memory plus one pool
/// per GPU, and the registration table used by IPC/RDMA/zero-copy.
pub struct Memory {
    host: MemPool,
    devices: Vec<MemPool>,
    pub registry: RegistrationTable,
}

impl Memory {
    /// `gpu_count` GPUs with `device_capacity` bytes each; host capacity
    /// is fixed at 256 GB (generous but finite so leaks fail tests).
    pub fn new(gpu_count: u32, device_capacity: u64) -> Self {
        Memory {
            host: MemPool::new(MemSpace::Host, 256 << 30),
            devices: (0..gpu_count)
                .map(|i| MemPool::new(MemSpace::Device(GpuId(i)), device_capacity))
                .collect(),
            registry: RegistrationTable::new(),
        }
    }

    pub fn gpu_count(&self) -> u32 {
        self.devices.len() as u32
    }

    pub fn pool(&self, space: MemSpace) -> &MemPool {
        match space {
            MemSpace::Host => &self.host,
            MemSpace::Device(g) => &self.devices[g.index()],
        }
    }

    pub fn pool_mut(&mut self, space: MemSpace) -> &mut MemPool {
        match space {
            MemSpace::Host => &mut self.host,
            MemSpace::Device(g) => &mut self.devices[g.index()],
        }
    }

    /// Allocate in a given space.
    pub fn alloc(&mut self, space: MemSpace, len: u64) -> Result<Ptr, MemError> {
        self.pool_mut(space).alloc(len)
    }

    /// Free an allocation (also drops any registrations on it).
    pub fn free(&mut self, ptr: Ptr) -> Result<u64, MemError> {
        self.registry.drop_all(ptr.space, ptr.alloc);
        self.pool_mut(ptr.space).free(ptr)
    }

    pub fn write(&mut self, ptr: Ptr, bytes: &[u8]) -> Result<(), MemError> {
        self.pool_mut(ptr.space).write(ptr, bytes)
    }

    pub fn read_vec(&self, ptr: Ptr, len: u64) -> Result<Vec<u8>, MemError> {
        self.pool(ptr.space).read_vec(ptr, len)
    }

    pub fn slice(&self, ptr: Ptr, len: u64) -> Result<&[u8], MemError> {
        self.pool(ptr.space).slice(ptr, len)
    }

    pub fn slice_mut(&mut self, ptr: Ptr, len: u64) -> Result<&mut [u8], MemError> {
        self.pool_mut(ptr.space).slice_mut(ptr, len)
    }

    /// Contiguous copy between any two locations, across spaces. This is
    /// the functional half of every simulated DMA (`cudaMemcpy` in all
    /// its direction variants); the timing half lives in `gpusim`.
    pub fn copy(&mut self, src: Ptr, dst: Ptr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        if src.space == dst.space {
            return self.pool_mut(src.space).copy_internal(src, dst, len);
        }
        // Cross-space: distinct pools, distinct heap allocations.
        self.pool(src.space).check_range(src, len)?;
        self.pool(dst.space).check_range(dst, len)?;
        let src_raw = self.pool(src.space).allocs[&src.alloc][src.offset as usize..].as_ptr();
        let dst_pool = self.pool_mut(dst.space);
        let dst_slice = dst_pool.allocs.get_mut(&dst.alloc).expect("checked");
        let dst_range = &mut dst_slice[dst.offset as usize..(dst.offset + len) as usize];
        // SAFETY: source and destination are different heap allocations.
        let src_range = unsafe { std::slice::from_raw_parts(src_raw, len as usize) };
        par_copy(dst_range, src_range);
        Ok(())
    }

    /// Batch of segment moves between a source and destination base
    /// pointer (the functional half of a pack/unpack kernel). Offsets in
    /// `ops` are relative to `src`/`dst`. Destination segments must be
    /// disjoint; `src` and `dst` must be different allocations (kernels
    /// always pack into a dedicated buffer).
    pub fn transfer(&mut self, src: Ptr, dst: Ptr, ops: &[CopyOp]) -> Result<(), MemError> {
        if ops.is_empty() {
            return Ok(());
        }
        assert!(
            src.space != dst.space || src.alloc != dst.alloc,
            "transfer within one allocation is not supported (pack buffers are dedicated)"
        );
        let (src_need, dst_need) = ops.iter().fold((0u64, 0u64), |(s, d), o| {
            (
                s.max((o.src_off + o.len) as u64),
                d.max((o.dst_off + o.len) as u64),
            )
        });
        self.pool(src.space).check_range(src, src_need)?;
        self.pool(dst.space).check_range(dst, dst_need)?;
        let src_raw = self.pool(src.space).allocs[&src.alloc][src.offset as usize..].as_ptr();
        let dst_pool = self.pool_mut(dst.space);
        let dst_slice = dst_pool.allocs.get_mut(&dst.alloc).expect("checked");
        let dst_range = &mut dst_slice[dst.offset as usize..(dst.offset + dst_need) as usize];
        // SAFETY: different allocations (asserted above).
        let src_range = unsafe { std::slice::from_raw_parts(src_raw, src_need as usize) };
        par_transfer(dst_range, src_range, ops);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(2, 64 << 20)
    }

    #[test]
    fn alloc_free_accounting() {
        let mut m = mem();
        let d = MemSpace::Device(GpuId(0));
        let p = m.alloc(d, 1024).unwrap();
        assert_eq!(m.pool(d).used(), 1024);
        assert_eq!(m.pool(d).alloc_len(p).unwrap(), 1024);
        assert_eq!(m.free(p).unwrap(), 1024);
        assert_eq!(m.pool(d).used(), 0);
        assert_eq!(m.pool(d).peak(), 1024);
    }

    #[test]
    fn oom_is_reported() {
        let mut m = Memory::new(1, 1000);
        let d = MemSpace::Device(GpuId(0));
        assert!(m.alloc(d, 800).is_ok());
        let err = m.alloc(d, 400).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn double_free_fails() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 64).unwrap();
        m.free(p).unwrap();
        assert!(matches!(m.free(p), Err(MemError::InvalidPointer(_))));
    }

    #[test]
    fn free_requires_base_pointer() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 64).unwrap();
        assert!(m.free(p.add(8)).is_err());
        m.free(p).unwrap();
    }

    #[test]
    fn bounds_checking() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 16).unwrap();
        assert!(m.write(p, &[0u8; 16]).is_ok());
        let err = m.write(p.add(8), &[0u8; 16]).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn wrong_space_rejected() {
        let m = mem();
        let bogus = Ptr {
            space: MemSpace::Device(GpuId(1)),
            alloc: AllocId(0),
            offset: 0,
        };
        assert!(matches!(
            m.pool(MemSpace::Host).slice(bogus, 1),
            Err(MemError::WrongSpace { .. })
        ));
    }

    #[test]
    fn cross_space_copy_moves_bytes() {
        let mut m = mem();
        let h = m.alloc(MemSpace::Host, 256).unwrap();
        let d = m.alloc(MemSpace::Device(GpuId(0)), 256).unwrap();
        let pattern: Vec<u8> = (0..=255).collect();
        m.write(h, &pattern).unwrap();
        m.copy(h, d, 256).unwrap(); // H2D
        let back = m.read_vec(d, 256).unwrap();
        assert_eq!(back, pattern);
        // D2D to second GPU.
        let d2 = m.alloc(MemSpace::Device(GpuId(1)), 256).unwrap();
        m.copy(d, d2, 256).unwrap();
        assert_eq!(m.read_vec(d2, 256).unwrap(), pattern);
    }

    #[test]
    fn same_alloc_overlapping_copy() {
        let mut m = mem();
        let p = m.alloc(MemSpace::Host, 16).unwrap();
        m.write(p, &[1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0])
            .unwrap();
        m.copy(p, p.add(4), 8).unwrap(); // overlapping forward copy
        assert_eq!(m.read_vec(p, 16).unwrap()[4..12], [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn transfer_scatters_into_device() {
        let mut m = mem();
        let src = m.alloc(MemSpace::Host, 64).unwrap();
        let dst = m.alloc(MemSpace::Device(GpuId(0)), 64).unwrap();
        let bytes: Vec<u8> = (0..64).collect();
        m.write(src, &bytes).unwrap();
        let ops = [
            CopyOp {
                src_off: 0,
                dst_off: 32,
                len: 16,
            },
            CopyOp {
                src_off: 16,
                dst_off: 0,
                len: 16,
            },
        ];
        m.transfer(src, dst, &ops).unwrap();
        let out = m.read_vec(dst, 64).unwrap();
        assert_eq!(&out[32..48], &bytes[0..16]);
        assert_eq!(&out[0..16], &bytes[16..32]);
    }

    #[test]
    fn distinct_allocs_get_distinct_ids() {
        let mut m = mem();
        let a = m.alloc(MemSpace::Host, 8).unwrap();
        let b = m.alloc(MemSpace::Host, 8).unwrap();
        assert_ne!(a.alloc, b.alloc);
    }
}
