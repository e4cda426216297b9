//! Gate-level netlist with area/power/critical-path analysis and functional
//! (boolean) simulation, and the [`GateSink`] trait the circuit builders
//! write to.
//!
//! The netlist is deliberately simple: a flat list of [`Gate`]s connected by
//! integer net identifiers. Builders in [`crate::constmul`], [`crate::adder`],
//! [`crate::neuron`] and [`crate::circuit`] hand it gates; analysis walks the
//! list once. Net 0 is hard-wired to logic 0 and net 1 to logic 1.

use crate::analysis::{cell_delays, AreaReport, CellCounts, PowerReport, TimingReport};
use crate::cell::{CellKind, CellLibrary};
use crate::report::SynthesisReport;
use std::fmt;

/// Identifier of a net (wire) in a [`Netlist`].
pub type NetId = usize;

/// Where a circuit builder hands each gate it instantiates.
///
/// Builders pass signals around as words of [`GateSink::Pin`]s. A
/// [`Netlist`] stores every gate, with pins that are net ids. The fast-path
/// cost model ([`crate::cost::estimate_circuit`]) only tallies them, with
/// pins that are signal arrival times. Both see the same gates in the same
/// order, so the fast path is exact by construction.
pub trait GateSink {
    /// A signal: one bit of a builder's word.
    type Pin: Copy;
    /// The constant logic-0 signal.
    const ZERO: Self::Pin;
    /// The constant logic-1 signal.
    const ONE: Self::Pin;

    /// A fresh primary-input signal.
    fn input(&mut self) -> Self::Pin;

    /// Instantiates one `kind` cell reading `inputs` (in the cell's pin
    /// order) and returns its `N` output signals, also in pin order.
    /// `inputs.len()` and `N` must match [`CellKind::input_count`] and
    /// [`CellKind::output_count`].
    fn gate<const N: usize>(&mut self, kind: CellKind, inputs: &[Self::Pin]) -> [Self::Pin; N];
}

/// One instantiated standard cell.
///
/// Pins are stored inline, as many inputs and outputs as the cell's
/// [`CellKind`] has, so appending a gate allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    kind: CellKind,
    /// The first `kind.input_count()` slots are live; the rest hold
    /// [`CONST_ZERO`].
    inputs: [NetId; 3],
    /// The first `kind.output_count()` slots are live; the rest hold
    /// [`CONST_ZERO`].
    outputs: [NetId; 2],
}

impl Gate {
    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Input nets, in cell-specific order (e.g. `[a, b, cin]` for a full
    /// adder, `[sel, d0, d1]` for a mux).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs[..self.kind.input_count()]
    }

    /// Output nets, in cell-specific order (e.g. `[sum, cout]` for adders).
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs[..self.kind.output_count()]
    }
}

impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("inputs", &self.inputs())
            .field("outputs", &self.outputs())
            .finish()
    }
}

/// A flat gate-level netlist.
///
/// # Example
///
/// ```
/// use pmlp_hw::{Netlist, CellKind, CellLibrary};
///
/// let mut n = Netlist::new("demo");
/// let a = n.add_input();
/// let b = n.add_input();
/// let y = n.add_net();
/// n.add_gate(CellKind::And2, &[a, b], &[y]);
/// n.mark_output(y);
/// assert_eq!(n.gate_count(), 1);
/// let area = n.area(&CellLibrary::egt());
/// assert!(area.total_mm2 > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    net_count: usize,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
}

/// Net id of the constant logic-0 net.
pub const CONST_ZERO: NetId = 0;
/// Net id of the constant logic-1 net.
pub const CONST_ONE: NetId = 1;

impl Netlist {
    /// Creates an empty netlist. Nets [`CONST_ZERO`] and [`CONST_ONE`] are
    /// pre-allocated.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            net_count: 2,
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Allocates a fresh internal net and returns its id.
    pub fn add_net(&mut self) -> NetId {
        let id = self.net_count;
        self.net_count += 1;
        id
    }

    /// Allocates a primary-input net.
    pub fn add_input(&mut self) -> NetId {
        let id = self.add_net();
        self.primary_inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.primary_outputs.push(net);
    }

    /// Appends a gate driving `outputs` from `inputs`, both in the cell's
    /// pin order.
    ///
    /// # Panics
    ///
    /// Panics if the pin counts differ from `kind`'s
    /// ([`CellKind::input_count`], [`CellKind::output_count`]) or if any
    /// referenced net has not been allocated; either is a bug in the code
    /// that builds the netlist.
    #[inline]
    pub fn add_gate(&mut self, kind: CellKind, inputs: &[NetId], outputs: &[NetId]) {
        assert!(
            inputs.len() == kind.input_count() && outputs.len() == kind.output_count(),
            "{kind} has {} input and {} output pins, got {} and {}",
            kind.input_count(),
            kind.output_count(),
            inputs.len(),
            outputs.len()
        );
        for &net in inputs.iter().chain(outputs) {
            assert!(
                net < self.net_count,
                "gate references unallocated net {net}"
            );
        }
        let mut gate = Gate {
            kind,
            inputs: [CONST_ZERO; 3],
            outputs: [CONST_ZERO; 2],
        };
        gate.inputs[..inputs.len()].copy_from_slice(inputs);
        gate.outputs[..outputs.len()].copy_from_slice(outputs);
        self.gates.push(gate);
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets (including the two constants).
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Primary inputs in allocation order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs in marking order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The gates, in insertion order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Area, static-power and timing reports under `library`, from one walk
    /// over the gates.
    ///
    /// The walk counts cells per kind and propagates arrival times in
    /// dependency order (producers before consumers), with every primary
    /// input and constant arriving at t = 0. The critical path is the latest
    /// arrival of any net.
    pub fn report(&self, library: &CellLibrary) -> SynthesisReport {
        let delays = cell_delays(library);
        let mut counts = CellCounts::default();
        let mut arrival = vec![0.0_f64; self.net_count];
        let mut critical = 0.0_f64;
        self.for_each_gate_in_order(|gate| {
            counts.bump(gate.kind);
            let ready = gate
                .inputs()
                .iter()
                .map(|&n| arrival[n])
                .fold(0.0_f64, f64::max);
            let t = ready + delays[gate.kind as usize];
            for &out in gate.outputs() {
                if t > arrival[out] {
                    arrival[out] = t;
                }
            }
            critical = critical.max(t);
        });
        counts.report(&self.name, library, critical)
    }

    /// Total cell area under the given library. Counts cells only; use
    /// [`Netlist::report`] when timing is wanted too.
    pub fn area(&self, library: &CellLibrary) -> AreaReport {
        self.cell_counts().area(library)
    }

    /// Total static power under the given library. Counts cells only; use
    /// [`Netlist::report`] when timing is wanted too.
    pub fn power(&self, library: &CellLibrary) -> PowerReport {
        self.cell_counts().power(library)
    }

    /// Critical-path delay (longest combinational path from any primary input
    /// or constant to any net) under the given library.
    pub fn timing(&self, library: &CellLibrary) -> TimingReport {
        self.report(library).timing
    }

    fn cell_counts(&self) -> CellCounts {
        let mut counts = CellCounts::default();
        for gate in &self.gates {
            counts.bump(gate.kind);
        }
        counts
    }

    /// Visits every gate in topological order (producers before consumers).
    ///
    /// Builders create nets before driving them and drive them before use, so
    /// insertion order is already topological for all netlists produced by
    /// this crate; the walk verifies that and, if needed, re-sorts via Kahn's
    /// algorithm. Combinational loops are broken arbitrarily (they cannot be
    /// produced by the builders).
    fn for_each_gate_in_order(&self, mut visit: impl FnMut(&Gate)) {
        if self.insertion_order_is_topological() {
            self.gates.iter().for_each(visit);
        } else {
            for gi in self.kahn_order() {
                visit(&self.gates[gi]);
            }
        }
    }

    /// Kahn's algorithm over the gates; gates stuck in a combinational loop
    /// follow in insertion order.
    fn kahn_order(&self) -> Vec<usize> {
        // Map net -> producing gate index.
        let mut producer: Vec<Option<usize>> = vec![None; self.net_count];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &out in gate.outputs() {
                producer[out] = Some(gi);
            }
        }
        // In-degree = number of inputs driven by other gates.
        let mut indegree: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                g.inputs()
                    .iter()
                    .filter(|&&n| producer[n].is_some())
                    .count()
            })
            .collect();
        // Consumers of each gate.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.gates.len()];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &input in gate.inputs() {
                if let Some(p) = producer[input] {
                    consumers[p].push(gi);
                }
            }
        }
        let mut queue: Vec<usize> = (0..self.gates.len())
            .filter(|&gi| indegree[gi] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        let mut head = 0;
        while head < queue.len() {
            let gi = queue[head];
            head += 1;
            order.push(gi);
            for &c in &consumers[gi] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        // Fall back to insertion order for any gates stuck in a loop.
        if order.len() < self.gates.len() {
            let mut seen = vec![false; self.gates.len()];
            for &gi in &order {
                seen[gi] = true;
            }
            for (gi, &was_seen) in seen.iter().enumerate() {
                if !was_seen {
                    order.push(gi);
                }
            }
        }
        order
    }

    /// Nets that are *read* — consumed by a gate input or marked as a
    /// primary output — without any driver (not a constant, not a primary
    /// input, not any gate's output). [`Netlist::simulate`] evaluates every
    /// such net to `false`; a non-empty result from this method means a
    /// builder left a read dangling and the simulation's outputs should not
    /// be trusted. Allocated-but-never-read nets are not reported: they
    /// cannot influence simulation.
    pub fn undriven_nets(&self) -> Vec<NetId> {
        let mut driven = vec![false; self.net_count];
        driven[CONST_ZERO] = true;
        driven[CONST_ONE] = true;
        for &net in &self.primary_inputs {
            driven[net] = true;
        }
        for gate in &self.gates {
            for &out in gate.outputs() {
                driven[out] = true;
            }
        }
        let mut read = vec![false; self.net_count];
        for gate in &self.gates {
            for &input in gate.inputs() {
                read[input] = true;
            }
        }
        for &net in &self.primary_outputs {
            read[net] = true;
        }
        (0..self.net_count)
            .filter(|&n| read[n] && !driven[n])
            .collect()
    }

    /// `true` when every gate's inputs are driven only by constants, primary
    /// inputs, undriven nets or gates that appear *earlier* in the list.
    ///
    /// One pass: a net read before any gate drove it fails the check as soon
    /// as a later gate drives it.
    fn insertion_order_is_topological(&self) -> bool {
        const UNSEEN: u8 = 0;
        const READ_UNDRIVEN: u8 = 1;
        const DRIVEN: u8 = 2;
        let mut state = vec![UNSEEN; self.net_count];
        for gate in &self.gates {
            for &input in gate.inputs() {
                if state[input] == UNSEEN {
                    state[input] = READ_UNDRIVEN;
                }
            }
            for &out in gate.outputs() {
                if state[out] == READ_UNDRIVEN {
                    return false;
                }
                state[out] = DRIVEN;
            }
        }
        true
    }

    /// Functionally simulates the netlist.
    ///
    /// `inputs` maps every primary input to a boolean value; constants are
    /// driven automatically. Returns the value of every net.
    ///
    /// # Undriven nets
    ///
    /// A net that is neither a constant, nor a primary input, nor any gate's
    /// output has no driver. Simulation is still total and deterministic:
    /// every such net evaluates to `false` (logic 0, identical to
    /// [`CONST_ZERO`]) both when read by a gate and in the returned vector.
    /// This is a guarantee, not an accident — the bespoke builders rely on it
    /// nowhere, but hand-built netlists (tests, external tooling) may read
    /// nets they forgot to drive, and a silent `false` beats an
    /// out-of-bounds panic mid-simulation. Use [`Netlist::undriven_nets`] to
    /// detect such reads before trusting a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.primary_inputs().len()`.
    pub fn simulate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.primary_inputs.len(),
            "expected {} primary input values",
            self.primary_inputs.len()
        );
        let mut values = vec![false; self.net_count];
        values[CONST_ONE] = true;
        for (&net, &v) in self.primary_inputs.iter().zip(inputs.iter()) {
            values[net] = v;
        }
        self.for_each_gate_in_order(|gate| {
            let get = |i: usize| values[gate.inputs[i]];
            match gate.kind {
                CellKind::Inverter => {
                    values[gate.outputs[0]] = !get(0);
                }
                CellKind::Buffer => {
                    values[gate.outputs[0]] = get(0);
                }
                CellKind::Nand2 => {
                    values[gate.outputs[0]] = !(get(0) && get(1));
                }
                CellKind::Nor2 => {
                    values[gate.outputs[0]] = !(get(0) || get(1));
                }
                CellKind::And2 => {
                    values[gate.outputs[0]] = get(0) && get(1);
                }
                CellKind::Or2 => {
                    values[gate.outputs[0]] = get(0) || get(1);
                }
                CellKind::Xor2 => {
                    values[gate.outputs[0]] = get(0) ^ get(1);
                }
                CellKind::Xnor2 => {
                    values[gate.outputs[0]] = !(get(0) ^ get(1));
                }
                CellKind::Mux2 => {
                    // inputs: [sel, d0, d1]
                    values[gate.outputs[0]] = if get(0) { get(2) } else { get(1) };
                }
                CellKind::HalfAdder => {
                    // inputs: [a, b], outputs: [sum, carry]
                    let (a, b) = (get(0), get(1));
                    values[gate.outputs[0]] = a ^ b;
                    values[gate.outputs[1]] = a && b;
                }
                CellKind::FullAdder => {
                    // inputs: [a, b, cin], outputs: [sum, carry]
                    let (a, b, c) = (get(0), get(1), get(2));
                    values[gate.outputs[0]] = a ^ b ^ c;
                    values[gate.outputs[1]] = (a && b) || (c && (a ^ b));
                }
                CellKind::Dff => {
                    // Combinational approximation: transparent latch.
                    values[gate.outputs[0]] = get(0);
                }
            }
        });
        values
    }

    /// Simulates the netlist and returns only the primary-output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.primary_inputs().len()`.
    pub fn simulate_outputs(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.simulate(inputs);
        self.primary_outputs.iter().map(|&n| values[n]).collect()
    }
}

impl GateSink for Netlist {
    type Pin = NetId;
    const ZERO: NetId = CONST_ZERO;
    const ONE: NetId = CONST_ONE;

    fn input(&mut self) -> NetId {
        self.add_input()
    }

    /// Allocates the output nets in pin order, then appends the gate, so net
    /// numbers follow gate order.
    #[inline]
    fn gate<const N: usize>(&mut self, kind: CellKind, inputs: &[NetId]) -> [NetId; N] {
        let outputs = std::array::from_fn(|_| self.add_net());
        self.add_gate(kind, inputs, &outputs);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one `y = (a & b) | c` chain with inputs and an output of its
    /// own.
    fn push_and_or(n: &mut Netlist) {
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let ab = n.add_net();
        let y = n.add_net();
        n.add_gate(CellKind::And2, &[a, b], &[ab]);
        n.add_gate(CellKind::Or2, &[ab, c], &[y]);
        n.mark_output(y);
    }

    fn and_or_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        push_and_or(&mut n);
        n
    }

    #[test]
    fn gate_and_net_counts() {
        let n = and_or_netlist();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.primary_inputs().len(), 3);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.area(&CellLibrary::egt()).by_kind[&CellKind::And2].0, 1);
    }

    #[test]
    fn undriven_nets_read_as_false_and_are_reported() {
        let mut n = Netlist::new("undriven");
        let a = n.add_input();
        let dangling = n.add_net(); // never driven, but read below
        let unused = n.add_net(); // never driven, never read: not reported
        let y = n.add_net();
        n.add_gate(CellKind::Or2, &[a, dangling], &[y]);
        n.mark_output(y);
        assert_eq!(n.undriven_nets(), vec![dangling]);
        let _ = unused;
        // The documented guarantee: the dangling net is logic 0, so the OR
        // passes `a` through; the returned vector reports it as false too.
        for a_val in [false, true] {
            let values = n.simulate(&[a_val]);
            assert!(!values[dangling]);
            assert_eq!(values[y], a_val);
        }
        // A net marked as primary output without a driver is also reported.
        let mut m = Netlist::new("dangling-output");
        let _ = m.add_input();
        let out = m.add_net();
        m.mark_output(out);
        assert_eq!(m.undriven_nets(), vec![out]);
        assert!(!m.simulate(&[true])[out]);
        // Builder-produced netlists have no dangling reads.
        assert!(and_or_netlist().undriven_nets().is_empty());
    }

    #[test]
    fn simulation_matches_boolean_function() {
        let n = and_or_netlist();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let out = n.simulate_outputs(&[a, b, c]);
                    assert_eq!(out[0], (a && b) || c, "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn constants_are_driven() {
        let mut n = Netlist::new("const");
        let y = n.add_net();
        n.add_gate(CellKind::Or2, &[CONST_ZERO, CONST_ONE], &[y]);
        n.mark_output(y);
        assert_eq!(n.simulate_outputs(&[]), vec![true]);
    }

    #[test]
    fn full_adder_truth_table() {
        let mut n = Netlist::new("fa");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let s = n.add_net();
        let co = n.add_net();
        n.add_gate(CellKind::FullAdder, &[a, b, c], &[s, co]);
        n.mark_output(s);
        n.mark_output(co);
        for bits in 0..8u8 {
            let a_v = bits & 1 != 0;
            let b_v = bits & 2 != 0;
            let c_v = bits & 4 != 0;
            let out = n.simulate_outputs(&[a_v, b_v, c_v]);
            let total = a_v as u8 + b_v as u8 + c_v as u8;
            assert_eq!(out[0], total & 1 != 0);
            assert_eq!(out[1], total >= 2);
        }
    }

    #[test]
    fn mux_selects_correct_input() {
        let mut n = Netlist::new("mux");
        let sel = n.add_input();
        let d0 = n.add_input();
        let d1 = n.add_input();
        let y = n.add_net();
        n.add_gate(CellKind::Mux2, &[sel, d0, d1], &[y]);
        n.mark_output(y);
        assert_eq!(n.simulate_outputs(&[false, true, false]), vec![true]);
        assert_eq!(n.simulate_outputs(&[true, true, false]), vec![false]);
    }

    #[test]
    fn area_and_power_scale_with_gate_count() {
        let lib = CellLibrary::egt();
        let single = and_or_netlist();
        let mut double = and_or_netlist();
        push_and_or(&mut double);
        assert!(double.area(&lib).total_mm2 > single.area(&lib).total_mm2);
        assert!((double.area(&lib).total_mm2 - 2.0 * single.area(&lib).total_mm2).abs() < 1e-9);
        assert!((double.power(&lib).total_uw - 2.0 * single.power(&lib).total_uw).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_sum_of_chain_delays() {
        let lib = CellLibrary::egt();
        let n = and_or_netlist();
        let expected = lib.params(CellKind::And2).delay_us + lib.params(CellKind::Or2).delay_us;
        let t = n.timing(&lib);
        assert!((t.critical_path_us - expected).abs() < 1e-9);
        assert!(t.max_frequency_hz.is_finite());
    }

    #[test]
    fn empty_netlist_has_zero_area_and_infinite_frequency() {
        let n = Netlist::new("empty");
        let lib = CellLibrary::egt();
        assert_eq!(n.area(&lib).total_mm2, 0.0);
        assert_eq!(n.timing(&lib).critical_path_us, 0.0);
        assert!(n.timing(&lib).max_frequency_hz.is_infinite());
    }

    #[test]
    fn topological_order_handles_out_of_order_insertion() {
        // Insert the consumer gate before its producer.
        let mut n = Netlist::new("ooo");
        let a = n.add_input();
        let b = n.add_input();
        let mid = n.add_net();
        let y = n.add_net();
        n.add_gate(CellKind::Inverter, &[mid], &[y]); // consumer first
        n.add_gate(CellKind::And2, &[a, b], &[mid]); // producer second
        n.mark_output(y);
        assert_eq!(n.simulate_outputs(&[true, true]), vec![false]);

        // The analysis walk follows the Kahn order too: the path runs through
        // the producer first, and the totals match in-order insertion.
        let lib = CellLibrary::egt();
        let report = n.report(&lib);
        assert_eq!(
            report.timing.critical_path_us,
            lib.params(CellKind::And2).delay_us + lib.params(CellKind::Inverter).delay_us
        );
        let mut in_order = Netlist::new("in-order");
        let a = in_order.add_input();
        let b = in_order.add_input();
        let mid = in_order.add_net();
        let y = in_order.add_net();
        in_order.add_gate(CellKind::And2, &[a, b], &[mid]);
        in_order.add_gate(CellKind::Inverter, &[mid], &[y]);
        in_order.mark_output(y);
        let expected = in_order.report(&lib);
        assert_eq!(report.area, expected.area);
        assert_eq!(report.power, expected.power);
        assert_eq!(report.timing, expected.timing);
    }

    #[test]
    #[should_panic(expected = "AND2 has 2 input and 1 output pins, got 1 and 1")]
    fn add_gate_panics_on_wrong_pin_count() {
        let mut n = Netlist::new("bad");
        let a = n.add_input();
        let y = n.add_net();
        n.add_gate(CellKind::And2, &[a], &[y]);
    }

    #[test]
    #[should_panic(expected = "unallocated net")]
    fn add_gate_panics_on_unallocated_net() {
        let mut n = Netlist::new("bad");
        n.add_gate(CellKind::Inverter, &[99], &[CONST_ZERO]);
    }
}
