//! Netlist identity golden: the exact gate list and net numbering full
//! synthesis produces.
//!
//! The fast-path equivalence suites compare area, power and timing reports
//! only, which do not see gate order or net ids. Verilog export depends on
//! both, so this golden pins the gate count, the net count and a 64-bit
//! FNV-1a hash of the exported Verilog for a WhiteWine-shaped spec under
//! both sharing strategies. A synthesis change that renames a net or
//! reorders two gates fails here even when every report still matches.

use pmlp_hw::verilog::to_verilog;
use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, LayerSpec, SharingStrategy,
};

/// The `hw_synthesis` bench's WhiteWine-shaped spec (11 inputs, 25 hidden,
/// 5 outputs) with deterministic pseudo-random 5-bit weights. Kept as its
/// own copy so that a bench edit cannot move the golden.
fn whitewine_like_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(hidden, 5, HwActivation::ReLU).expect("hidden layer"),
            LayerSpec::new(output, 5, HwActivation::Argmax).expect("output layer"),
        ],
    )
    .expect("spec")
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn netlist_identity_golden() {
    use SharingStrategy::{None as Unshared, SharedPerInput as Shared};
    let spec = whitewine_like_spec();
    let library = CellLibrary::egt();
    let golden = [
        (Unshared, 15376, 26565, 0xd5c2_33c5_cd07_b029),
        (Shared, 7464, 13925, 0x5463_5782_bcfc_5703),
    ];
    for (sharing, gates, nets, hash) in golden {
        let circuit =
            BespokeMlpCircuit::synthesize_with(&spec, &library, sharing).expect("synthesis");
        let netlist = circuit.netlist();
        let verilog = to_verilog(netlist);
        let identity = (
            netlist.gate_count(),
            netlist.net_count(),
            fnv1a64(verilog.as_bytes()),
        );
        assert_eq!(
            identity,
            (gates, nets, hash),
            "{sharing:?}: (gates, nets, Verilog FNV-1a) moved"
        );
    }
}
