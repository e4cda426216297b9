//! Gate-level netlist with area/power/critical-path analysis and functional
//! (boolean) simulation, and the [`GateSink`] trait the circuit builders
//! write to.
//!
//! The netlist is deliberately simple: a flat list of [`Gate`]s connected by
//! integer net identifiers. Builders in [`crate::constmul`], [`crate::adder`],
//! [`crate::neuron`] and [`crate::circuit`] hand it gates; analysis walks the
//! list once. Net 0 is hard-wired to logic 0 and net 1 to logic 1.
//!
//! Nets and gates enter a [`Netlist`] only through its [`GateSink`]
//! implementation: [`GateSink::input`] allocates a primary input, and
//! [`GateSink::gate`] checks that every input net already exists before it
//! allocates the gate's fresh output nets. So every net has exactly one
//! driver (a constant, a primary input or one gate), and each gate follows
//! the drivers of all its inputs: insertion order is topological by
//! construction, and [`Netlist::report`] and [`Netlist::simulate`] walk the
//! gates in that order without checking it.

use crate::analysis::{cell_delays, CellCounts};
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
    /// order) and returns its `N` fresh output signals, also in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` and `N` differ from
    /// [`CellKind::input_count`] and [`CellKind::output_count`]. A
    /// [`Netlist`] also panics if an input names a net it has not allocated
    /// yet. Either is a bug in the builder.
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

/// A flat gate-level netlist whose gates are in topological order.
///
/// # Example
///
/// ```
/// use pmlp_hw::{CellKind, CellLibrary, GateSink, Netlist};
///
/// let mut n = Netlist::new("demo");
/// let a = n.input();
/// let b = n.input();
/// let [y] = n.gate(CellKind::And2, &[a, b]);
/// n.mark_output(y);
/// assert_eq!(n.gate_count(), 1);
/// assert!(n.report(&CellLibrary::egt()).area.total_mm2 > 0.0);
/// assert!(n.simulate(&[true, true])[y]);
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

    /// Marks an existing net as a primary output.
    ///
    /// # Panics
    ///
    /// Panics if `net` has not been allocated.
    pub fn mark_output(&mut self, net: NetId) {
        assert!(net < self.net_count, "output names unallocated net {net}");
        self.primary_outputs.push(net);
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

    /// The gates, in insertion order, which is topological.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Area, static-power and timing reports under `library`, from one walk
    /// over the gates.
    ///
    /// The walk counts cells per kind and propagates arrival times gate by
    /// gate, with every primary input and constant arriving at t = 0: a
    /// gate's outputs arrive one cell delay after its latest input. The
    /// critical path is the latest arrival of any net.
    pub fn report(&self, library: &CellLibrary) -> SynthesisReport {
        let delays = cell_delays(library);
        let mut counts = CellCounts::default();
        let mut arrival = vec![0.0_f64; self.net_count];
        let mut critical = 0.0_f64;
        for gate in &self.gates {
            counts.bump(gate.kind);
            let ready = gate
                .inputs()
                .iter()
                .map(|&n| arrival[n])
                .fold(0.0_f64, f64::max);
            let t = ready + delays[gate.kind as usize];
            for &out in gate.outputs() {
                arrival[out] = t;
            }
            critical = critical.max(t);
        }
        counts.report(&self.name, library, critical)
    }

    /// Functionally simulates the netlist.
    ///
    /// `inputs` maps every primary input to a boolean value; constants are
    /// driven automatically. Returns the value of every net.
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
        for gate in &self.gates {
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
            }
        }
        values
    }
}

impl GateSink for Netlist {
    type Pin = NetId;
    const ZERO: NetId = CONST_ZERO;
    const ONE: NetId = CONST_ONE;

    fn input(&mut self) -> NetId {
        let id = self.net_count;
        self.net_count += 1;
        self.primary_inputs.push(id);
        id
    }

    /// Checks the pins, then allocates the output nets in pin order and
    /// appends the gate, so net numbers follow gate order.
    #[inline]
    fn gate<const N: usize>(&mut self, kind: CellKind, inputs: &[NetId]) -> [NetId; N] {
        assert!(
            inputs.len() == kind.input_count() && N == kind.output_count(),
            "{kind} has {} input and {} output pins, got {} and {N}",
            kind.input_count(),
            kind.output_count(),
            inputs.len()
        );
        for &net in inputs {
            assert!(net < self.net_count, "gate reads unallocated net {net}");
        }
        let first = self.net_count;
        self.net_count += N;
        let outputs = std::array::from_fn(|i| first + i);
        let mut gate = Gate {
            kind,
            inputs: [CONST_ZERO; 3],
            outputs: [CONST_ZERO; 2],
        };
        gate.inputs[..inputs.len()].copy_from_slice(inputs);
        gate.outputs[..N].copy_from_slice(&outputs);
        self.gates.push(gate);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one `y = (a & b) | c` chain with inputs and an output of its
    /// own.
    fn push_and_or(n: &mut Netlist) {
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let [ab] = n.gate(CellKind::And2, &[a, b]);
        let [y] = n.gate(CellKind::Or2, &[ab, c]);
        n.mark_output(y);
    }

    fn and_or_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        push_and_or(&mut n);
        n
    }

    /// The primary-output values of `n` under `inputs`.
    fn outputs(n: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let values = n.simulate(inputs);
        n.primary_outputs().iter().map(|&net| values[net]).collect()
    }

    #[test]
    fn gate_and_net_counts() {
        let n = and_or_netlist();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.net_count(), 7);
        assert_eq!(n.primary_inputs().len(), 3);
        assert_eq!(n.primary_outputs().len(), 1);
        let area = n.report(&CellLibrary::egt()).area;
        assert_eq!(area.by_kind[&CellKind::And2].0, 1);
    }

    #[test]
    fn simulation_matches_boolean_function() {
        let n = and_or_netlist();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let out = outputs(&n, &[a, b, c]);
                    assert_eq!(out[0], (a && b) || c, "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn constants_are_driven() {
        let mut n = Netlist::new("const");
        let [y] = n.gate(CellKind::Or2, &[CONST_ZERO, CONST_ONE]);
        n.mark_output(y);
        assert_eq!(outputs(&n, &[]), vec![true]);
    }

    #[test]
    fn full_adder_truth_table() {
        let mut n = Netlist::new("fa");
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let [s, co] = n.gate(CellKind::FullAdder, &[a, b, c]);
        n.mark_output(s);
        n.mark_output(co);
        for bits in 0..8u8 {
            let a_v = bits & 1 != 0;
            let b_v = bits & 2 != 0;
            let c_v = bits & 4 != 0;
            let out = outputs(&n, &[a_v, b_v, c_v]);
            let total = a_v as u8 + b_v as u8 + c_v as u8;
            assert_eq!(out[0], total & 1 != 0);
            assert_eq!(out[1], total >= 2);
        }
    }

    #[test]
    fn mux_selects_correct_input() {
        let mut n = Netlist::new("mux");
        let sel = n.input();
        let d0 = n.input();
        let d1 = n.input();
        let [y] = n.gate(CellKind::Mux2, &[sel, d0, d1]);
        n.mark_output(y);
        assert_eq!(outputs(&n, &[false, true, false]), vec![true]);
        assert_eq!(outputs(&n, &[true, true, false]), vec![false]);
    }

    #[test]
    fn area_and_power_scale_with_gate_count() {
        let lib = CellLibrary::egt();
        let single = and_or_netlist().report(&lib);
        let mut double = and_or_netlist();
        push_and_or(&mut double);
        let double = double.report(&lib);
        assert!(double.area.total_mm2 > single.area.total_mm2);
        assert!((double.area.total_mm2 - 2.0 * single.area.total_mm2).abs() < 1e-9);
        assert!((double.power.total_uw - 2.0 * single.power.total_uw).abs() < 1e-9);
    }

    #[test]
    fn critical_path_is_sum_of_chain_delays() {
        let lib = CellLibrary::egt();
        let n = and_or_netlist();
        let expected = lib.params(CellKind::And2).delay_us + lib.params(CellKind::Or2).delay_us;
        let t = n.report(&lib).timing;
        assert!((t.critical_path_us - expected).abs() < 1e-9);
        assert!(t.max_frequency_hz.is_finite());
    }

    #[test]
    fn empty_netlist_has_zero_area_and_infinite_frequency() {
        let report = Netlist::new("empty").report(&CellLibrary::egt());
        assert_eq!(report.area.total_mm2, 0.0);
        assert_eq!(report.timing.critical_path_us, 0.0);
        assert!(report.timing.max_frequency_hz.is_infinite());
    }

    #[test]
    #[should_panic(expected = "AND2 has 2 input and 1 output pins, got 1 and 1")]
    fn add_gate_panics_on_wrong_pin_count() {
        let mut n = Netlist::new("bad");
        let a = n.input();
        let _: [NetId; 1] = n.gate(CellKind::And2, &[a]);
    }

    #[test]
    #[should_panic(expected = "unallocated net")]
    fn add_gate_panics_on_unallocated_net() {
        let mut n = Netlist::new("bad");
        let _: [NetId; 1] = n.gate(CellKind::Inverter, &[99]);
    }

    /// A gate cannot read the net its own output is about to get: the
    /// inputs are checked before the outputs are allocated, so no
    /// combinational loop (and no gate before its driver) can be built.
    #[test]
    #[should_panic(expected = "gate reads unallocated net 3")]
    fn gate_cannot_read_its_own_output() {
        let mut n = Netlist::new("loop");
        let a = n.input();
        let next = n.net_count();
        assert_eq!(next, 3);
        let _: [NetId; 1] = n.gate(CellKind::And2, &[a, next]);
    }
}
