//! Netlist identity golden: the exact gate list and net numbering full
//! synthesis produces.
//!
//! The fast-path equivalence suites compare area, power and timing reports
//! only, which do not see gate order or net ids. Verilog export depends on
//! both, so this golden pins the gate count, the net count and a 64-bit
//! FNV-1a hash of the exported Verilog for two WhiteWine-shaped specs under
//! both sharing strategies. A synthesis change that renames a net or
//! reorders two gates fails here even when every report still matches.
//!
//! The same specs set the builders' allocation budget: a counting global
//! allocator checks that the fast path and full synthesis allocate no more
//! than a few times per nonzero CSD digit of the weights.

use pmlp_hw::cost::estimate_circuit;
use pmlp_hw::verilog::to_verilog;
use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, CsdDigits, HwActivation, LayerSpec,
    SharingStrategy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations per thread
/// so that the test harness's other threads do not leak into a count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, so each
// returned block is `System`'s; the counter is a const-initialised thread
// local without a destructor, so counting never allocates or recurses.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from `System` with this `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

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

/// The same shape with 8-bit weights and nonzero biases of both signs, so
/// bias operands enter every adder tree. Every seventh weight is -1, -2 or
/// -64, which a multiplier builds by negation, and each input meets the same
/// one of them in several neurons, so per-input sharing has products to
/// share.
fn whitewine_like_spec_8bit_biased() -> CircuitSpec {
    let weight = |n: usize, i: usize| -> i64 {
        if (n + i).is_multiple_of(7) {
            [-1, -2, -64][(n + i) / 7 % 3]
        } else {
            ((n * 31 + i * 17 + 7) % 255) as i64 - 127
        }
    };
    let bias = |n: usize| -> i64 { ((n * 379 + 5) % 4001) as i64 - 2000 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::with_biases(hidden, (0..25).map(bias).collect(), 8, HwActivation::ReLU)
                .expect("hidden layer"),
            LayerSpec::with_biases(
                output,
                (100..105).map(bias).collect(),
                8,
                HwActivation::Argmax,
            )
            .expect("output layer"),
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
    let specs = [
        ("5-bit", whitewine_like_spec()),
        ("8-bit biased", whitewine_like_spec_8bit_biased()),
    ];
    let library = CellLibrary::egt();
    // (index into `specs`, sharing, gates, nets, Verilog FNV-1a)
    let golden = [
        (0, Unshared, 15376, 26565, 0xd5c2_33c5_cd07_b029),
        (0, Shared, 7464, 13925, 0x5463_5782_bcfc_5703),
        (1, Unshared, 24678, 43099, 0xcc37_8700_8a64_2dbf),
        (1, Shared, 24522, 42865, 0x2954_7fc1_5a0d_f898),
    ];
    for (index, sharing, gates, nets, hash) in golden {
        let (name, spec) = &specs[index];
        let circuit =
            BespokeMlpCircuit::synthesize_with(spec, &library, sharing).expect("synthesis");
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
            "{name} {sharing:?}: (gates, nets, Verilog FNV-1a) moved"
        );
    }
}

/// Nonzero CSD digits over every weight of `spec`: the shift-add terms its
/// unshared multipliers are built from.
fn csd_digits(spec: &CircuitSpec) -> usize {
    spec.layers
        .iter()
        .flat_map(|layer| layer.weights.iter().flatten())
        .map(|&w| CsdDigits::from_value(w).nonzero_count())
        .sum()
}

#[test]
fn builders_allocate_a_few_times_per_csd_digit() {
    // Per digit, not per gate: folding constant inputs would remove gates
    // but not words. Builders that copied the words they only read
    // allocated 9.4 to 10.2 times per digit in three of these four builds.
    const BUDGET: f64 = 5.0;
    let library = CellLibrary::egt();
    for (name, spec) in [
        ("5-bit", whitewine_like_spec()),
        ("8-bit biased", whitewine_like_spec_8bit_biased()),
    ] {
        let digits = csd_digits(&spec) as f64;
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            let fast = allocations_in(|| {
                estimate_circuit(&spec, &library, sharing).expect("fast path");
            });
            let full = allocations_in(|| {
                BespokeMlpCircuit::synthesize_with(&spec, &library, sharing).expect("synthesis");
            });
            for (path, count) in [("fast path", fast), ("full synthesis", full)] {
                let per_digit = count as f64 / digits;
                assert!(
                    per_digit < BUDGET,
                    "{name} {sharing:?} {path}: {count} allocations for {digits} CSD digits \
                     ({per_digit:.2} per digit, budget {BUDGET})"
                );
            }
        }
    }
}
