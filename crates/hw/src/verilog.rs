//! Structural Verilog export of gate-level netlists.
//!
//! The paper's flow hands bespoke netlists to Synopsys Design Compiler /
//! PrimeTime for signoff. This module writes any [`Netlist`] produced by this
//! crate as a flat structural Verilog module `bespoke_mlp` that instantiates
//! the EGT cell names, so the architecture explored here can be pushed
//! through a real synthesis/signoff flow when one is available.

use crate::cell::CellKind;
use crate::netlist::{Netlist, CONST_ONE, CONST_ZERO};
use std::fmt::Write as _;

/// Cell and port names used for each gate kind (EGT-library style).
fn cell_ports(
    kind: CellKind,
) -> (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
) {
    match kind {
        CellKind::Inverter => ("EGT_INV", &["A"], &["Y"]),
        CellKind::Buffer => ("EGT_BUF", &["A"], &["Y"]),
        CellKind::Nand2 => ("EGT_NAND2", &["A", "B"], &["Y"]),
        CellKind::Nor2 => ("EGT_NOR2", &["A", "B"], &["Y"]),
        CellKind::And2 => ("EGT_AND2", &["A", "B"], &["Y"]),
        CellKind::Or2 => ("EGT_OR2", &["A", "B"], &["Y"]),
        CellKind::Xor2 => ("EGT_XOR2", &["A", "B"], &["Y"]),
        CellKind::Xnor2 => ("EGT_XNOR2", &["A", "B"], &["Y"]),
        CellKind::Mux2 => ("EGT_MUX2", &["S", "A", "B"], &["Y"]),
        CellKind::HalfAdder => ("EGT_HA", &["A", "B"], &["S", "CO"]),
        CellKind::FullAdder => ("EGT_FA", &["A", "B", "CI"], &["S", "CO"]),
    }
}

/// Renders `netlist` as a flat structural Verilog module named
/// `bespoke_mlp`.
///
/// Primary inputs become module input ports `pi_<k>`, primary outputs become
/// output ports `po_<k>` (driven by assigns from the internal nets), the
/// constant nets are `supply0 const0` and `supply1 const1`, every other net
/// is a wire `n<id>`, and every gate becomes one cell instance.
///
/// # Example
///
/// ```
/// use pmlp_hw::{CellKind, GateSink, Netlist};
/// use pmlp_hw::verilog::to_verilog;
///
/// let mut n = Netlist::new("demo");
/// let a = n.input();
/// let b = n.input();
/// let [y] = n.gate(CellKind::And2, &[a, b]);
/// n.mark_output(y);
/// let verilog = to_verilog(&n);
/// assert!(verilog.contains("module bespoke_mlp"));
/// assert!(verilog.contains("EGT_AND2"));
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let net_name = |net: usize| -> String {
        if net == CONST_ZERO {
            "const0".to_string()
        } else if net == CONST_ONE {
            "const1".to_string()
        } else {
            format!("n{net}")
        }
    };

    // Header and port list.
    let _ = writeln!(
        out,
        "// Generated by pmlp-hw from netlist `{}`",
        netlist.name()
    );
    let _ = writeln!(
        out,
        "// {} gates, {} nets",
        netlist.gate_count(),
        netlist.net_count()
    );
    let mut ports: Vec<String> = Vec::new();
    for (k, _) in netlist.primary_inputs().iter().enumerate() {
        ports.push(format!("pi_{k}"));
    }
    for (k, _) in netlist.primary_outputs().iter().enumerate() {
        ports.push(format!("po_{k}"));
    }
    let _ = writeln!(out, "module bespoke_mlp (");
    let _ = writeln!(out, "  {}", ports.join(",\n  "));
    let _ = writeln!(out, ");");

    for (k, _) in netlist.primary_inputs().iter().enumerate() {
        let _ = writeln!(out, "  input  pi_{k};");
    }
    for (k, _) in netlist.primary_outputs().iter().enumerate() {
        let _ = writeln!(out, "  output po_{k};");
    }

    // Constant nets.
    let _ = writeln!(out, "  supply0 const0;");
    let _ = writeln!(out, "  supply1 const1;");

    // Internal wires: every net that is not a constant.
    for net in 2..netlist.net_count() {
        let _ = writeln!(out, "  wire {};", net_name(net));
    }

    // Tie primary input ports to their nets.
    for (k, &net) in netlist.primary_inputs().iter().enumerate() {
        let _ = writeln!(out, "  assign {} = pi_{k};", net_name(net));
    }

    // Cell instances.
    for (index, gate) in netlist.gates().iter().enumerate() {
        let (cell, input_ports, output_ports) = cell_ports(gate.kind());
        let mut connections: Vec<String> = Vec::new();
        for (port, &net) in input_ports.iter().zip(gate.inputs()) {
            connections.push(format!(".{port}({})", net_name(net)));
        }
        for (port, &net) in output_ports.iter().zip(gate.outputs()) {
            connections.push(format!(".{port}({})", net_name(net)));
        }
        let _ = writeln!(out, "  {cell} u{index} ({});", connections.join(", "));
    }

    // Drive primary output ports.
    for (k, &net) in netlist.primary_outputs().iter().enumerate() {
        let _ = writeln!(out, "  assign po_{k} = {};", net_name(net));
    }

    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{self, input_word};
    use crate::cell::CellLibrary;
    use crate::circuit::{BespokeMlpCircuit, CircuitSpec, HwActivation, LayerSpec};

    fn adder_netlist() -> Netlist {
        let mut n = Netlist::new("adder4");
        let a = input_word(&mut n, 4);
        let b = input_word(&mut n, 4);
        let sum = adder::add(&mut n, &a, &b);
        for &net in &sum {
            n.mark_output(net);
        }
        n
    }

    #[test]
    fn module_structure_is_well_formed() {
        let n = adder_netlist();
        let v = to_verilog(&n);
        assert_eq!(v.matches("module bespoke_mlp (").count(), 1);
        assert_eq!(v.matches("endmodule").count(), 1);
        assert_eq!(v.matches("  input  ").count(), n.primary_inputs().len());
        assert_eq!(v.matches("  output ").count(), n.primary_outputs().len());
        assert!(v.contains("  supply0 const0;\n  supply1 const1;\n"));
        // One instance per gate.
        assert_eq!(v.matches("EGT_").count(), n.gate_count());
    }

    #[test]
    fn every_internal_net_is_declared_exactly_once() {
        let n = adder_netlist();
        let v = to_verilog(&n);
        for net in 2..n.net_count() {
            let declaration = format!("  wire n{net};\n");
            assert_eq!(
                v.matches(&declaration).count(),
                1,
                "net {net} not declared exactly once"
            );
        }
    }

    #[test]
    fn full_bespoke_circuit_exports_all_cells() {
        let spec = CircuitSpec::new(
            4,
            vec![
                LayerSpec::new(vec![vec![3, -2], vec![5, 1]], 4, HwActivation::ReLU).unwrap(),
                LayerSpec::new(vec![vec![2, -1], vec![-3, 4]], 4, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap();
        let circuit = BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt()).unwrap();
        let v = to_verilog(circuit.netlist());
        let instance_count = v
            .lines()
            .filter(|l| l.trim_start().starts_with("EGT_"))
            .count();
        assert_eq!(instance_count, circuit.netlist().gate_count());
        // Ports: 2 inputs x 4 bits, plus the argmax index output bits.
        assert_eq!(
            v.matches("  input  ").count(),
            circuit.netlist().primary_inputs().len()
        );
        assert!(v.contains("EGT_FA"));
        assert!(v.contains("EGT_MUX2"));
    }

    #[test]
    fn empty_netlist_still_produces_a_valid_module() {
        let n = Netlist::new("empty");
        let v = to_verilog(&n);
        assert!(v.contains("module bespoke_mlp"));
        assert!(v.contains("endmodule"));
    }
}
