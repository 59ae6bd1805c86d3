//! The multi-architecture GPU backend registry.
//!
//! One [`GpuArch`] entry per supported part ties together the raw
//! calibration constants from [`crate::spec`] (what the hardware is)
//! and a node topology (how GPUs in a node peer). Execution — streams,
//! kernels and copies in [`crate::system`]/[`crate::kernel`] — and the
//! analytic tuners, which price through the same charge functions, read
//! whichever spec the world was built with, so selecting an
//! architecture at session-build time re-parameterizes every layer
//! above.
//!
//! Lookup is by short slug (`"k40"`, `"a100"`) or alias, case
//! insensitive. The registry default is the paper's K40 testbed: with
//! every knob at its default, all figure harnesses reproduce the
//! committed `results/` CSVs byte-identically.

use crate::spec::{GpuSpec, NodeTopology};

/// One registered GPU architecture: named constructors for its spec and
/// node topology.
pub struct GpuArch {
    /// Short slug used on the command line and in CSV arch columns.
    pub name: &'static str,
    /// Alternate lookup names (matched case-insensitively).
    pub aliases: &'static [&'static str],
    /// One-line description for help text and docs.
    pub summary: &'static str,
    spec: fn() -> GpuSpec,
    topo: fn() -> NodeTopology,
}

static REGISTRY: [GpuArch; 4] = [
    GpuArch {
        name: "k40",
        aliases: &["tesla-k40", "kepler"],
        summary: "Kepler GK110B, PCIe gen3 PSG node (the paper's testbed; default)",
        spec: GpuSpec::k40,
        topo: NodeTopology::psg_node,
    },
    GpuArch {
        name: "p100",
        aliases: &["tesla-p100", "pascal"],
        summary: "Pascal GP100 SXM2, NVLink 1.0 DGX-1 node",
        spec: GpuSpec::p100,
        topo: NodeTopology::dgx1_p100_node,
    },
    GpuArch {
        name: "v100",
        aliases: &["tesla-v100", "volta"],
        summary: "Volta GV100 SXM2, NVLink 2.0 DGX-1V node",
        spec: GpuSpec::v100,
        topo: NodeTopology::dgx1v_node,
    },
    GpuArch {
        name: "a100",
        aliases: &["ampere", "dgx-a100"],
        summary: "Ampere GA100 SXM4-40GB, NVLink 3.0 DGX A100 node",
        spec: GpuSpec::a100,
        topo: NodeTopology::dgxa100_node,
    },
];

impl GpuArch {
    /// Every registered architecture, default first.
    pub fn registry() -> &'static [GpuArch] {
        &REGISTRY
    }

    /// The registry default: the paper's K40 testbed. Every harness and
    /// world constructor that does not name an architecture resolves to
    /// this entry, which reproduces the committed results byte-for-byte.
    pub fn default_arch() -> &'static GpuArch {
        &REGISTRY[0]
    }

    /// Case-insensitive lookup by slug or alias.
    pub fn lookup(name: &str) -> Option<&'static GpuArch> {
        let want = name.trim().to_ascii_lowercase();
        REGISTRY
            .iter()
            .find(|a| a.name == want || a.aliases.iter().any(|al| *al == want))
    }

    /// Infallible lookup for CLI/builder boundaries: resolves like
    /// [`GpuArch::lookup`] and aborts with the list of known
    /// architectures on an unknown name (a user-input error — there is
    /// no meaningful way to continue with an unknown cost model).
    pub fn named(name: &str) -> &'static GpuArch {
        match GpuArch::lookup(name) {
            Some(a) => a,
            None => panic!(
                "unknown GPU architecture {name:?}; known: {}",
                GpuArch::names().join(", ")
            ),
        }
    }

    /// The registered slugs, registry order.
    pub fn names() -> Vec<&'static str> {
        REGISTRY.iter().map(|a| a.name).collect()
    }

    /// A fresh copy of this architecture's GPU constants.
    pub fn spec(&self) -> GpuSpec {
        (self.spec)()
    }

    /// A fresh copy of this architecture's node interconnect constants.
    pub fn topology(&self) -> NodeTopology {
        (self.topo)()
    }
}

impl std::fmt::Debug for GpuArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuArch")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

impl PartialEq for GpuArch {
    fn eq(&self, other: &GpuArch) -> bool {
        // Registry entries are static singletons; identity is the name.
        self.name == other.name
    }
}
impl Eq for GpuArch {}

/// `impl Into<&'static GpuArch>` conversions so builder APIs accept
/// either a registry reference or a name:
/// `Session::builder().arch("v100")`.
impl From<&str> for &'static GpuArch {
    fn from(name: &str) -> &'static GpuArch {
        GpuArch::named(name)
    }
}

impl From<&String> for &'static GpuArch {
    fn from(name: &String) -> &'static GpuArch {
        GpuArch::named(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Interconnect;

    #[test]
    fn lookup_by_slug_alias_and_case() {
        assert_eq!(GpuArch::lookup("k40").unwrap().name, "k40");
        assert_eq!(GpuArch::lookup("Volta").unwrap().name, "v100");
        assert_eq!(GpuArch::lookup(" AMPERE ").unwrap().name, "a100");
        assert!(GpuArch::lookup("h100").is_none());
        assert_eq!(GpuArch::names(), vec!["k40", "p100", "v100", "a100"]);
    }

    #[test]
    fn default_arch_is_the_papers_k40() {
        let d = GpuArch::default_arch();
        assert_eq!(d.name, "k40");
        // Byte-identical to the hand-written constants: the registry is
        // a view over spec.rs, not a re-derivation.
        assert_eq!(format!("{:?}", d.spec()), format!("{:?}", GpuSpec::k40()));
        assert_eq!(
            format!("{:?}", d.topology()),
            format!("{:?}", NodeTopology::psg_node())
        );
    }

    #[test]
    #[should_panic(expected = "unknown GPU architecture")]
    fn named_aborts_on_unknown() {
        let _ = GpuArch::named("h100");
    }

    #[test]
    fn newer_archs_invert_the_pcie_era_tradeoffs() {
        let k40 = GpuArch::named("k40");
        let a100 = GpuArch::named("a100");
        // Launch overheads shrank generation over generation.
        assert!(a100.spec().launch_overhead < k40.spec().launch_overhead);
        // NVLink p2p beats the PCIe-era host link by an order.
        for arch in ["p100", "v100", "a100"] {
            let t = GpuArch::named(arch).topology();
            assert_eq!(t.interconnect, Interconnect::NvLink, "{arch}");
            assert!(
                t.pcie_p2p.as_gbps() > k40.topology().pcie_p2p.as_gbps(),
                "{arch} NVLink p2p must beat PCIe p2p"
            );
        }
    }

    #[test]
    fn every_arch_has_shift_mask_line_geometry() {
        // The kernel line model counts lines by shift and mask: both
        // sizes must be powers of two and the chunk a whole number of
        // transactions, on every registered part.
        for arch in GpuArch::registry() {
            let s = arch.spec();
            let (txn, chunk) = (s.transaction_bytes, s.warp_chunk());
            assert!(txn.is_power_of_two(), "{}: transaction {txn}", arch.name);
            assert!(chunk.is_power_of_two(), "{}: warp chunk {chunk}", arch.name);
            assert_eq!(chunk % txn, 0, "{}: chunk {chunk} vs txn {txn}", arch.name);
        }
    }

    #[test]
    fn from_str_resolves() {
        let a: &'static GpuArch = "v100".into();
        assert_eq!(a.name, "v100");
        assert_eq!(a, GpuArch::named("tesla-v100"));
    }
}
