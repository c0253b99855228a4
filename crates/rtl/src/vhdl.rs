//! Register-transfer-level VHDL emission.
//!
//! Spark "takes a behavioral description in ANSI-C as input and generates
//! synthesizable register-transfer level VHDL" (Section 4). Footnote 1 of the
//! paper fixes the mapping this emitter follows: variables bound to registers
//! become VHDL *signals*, wire-variables become VHDL *variables* inside the
//! clocked process (so they can be read in the cycle they are written).
//!
//! Emission is one pass that appends into one presized `String`: every
//! variable name is sanitized once up front, and the operand, expression and
//! statement writers push into the shared buffer instead of returning
//! intermediate strings.

use std::borrow::Cow;
use std::fmt::Write as _;

use spark_ir::{Function, OpKind, Operation, PortDirection, StorageClass, Value, VarId};
use spark_sched::{Controller, Guard};

/// Indentation of the statements inside one `when` arm of the FSM case.
const INDENT: &str = "            ";

/// Emits synthesizable VHDL for a scheduled, bound function.
#[derive(Clone, Debug)]
pub struct VhdlEmitter<'a> {
    function: &'a Function,
    controller: &'a Controller,
}

impl<'a> VhdlEmitter<'a> {
    /// Creates an emitter for `function` driven by `controller`'s FSM.
    pub fn new(function: &'a Function, controller: &'a Controller) -> Self {
        VhdlEmitter {
            function,
            controller,
        }
    }

    /// Generates the VHDL entity/architecture pair for the design.
    pub fn emit(&self) -> String {
        let f = self.function;
        let w = Writer::new(f);
        let num_states = self.controller.num_states();
        let mut out = String::with_capacity(estimated_len(f, self.controller));
        out.push_str(
            "-- Generated by the Spark HLS reproduction (DAC 2002 coordinated transformations)\n",
        );
        out.push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n");

        // Entity: expand arrays element-wise so every port is a plain vector.
        out.push_str("entity ");
        out.push_str(&f.name);
        out.push_str(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic");
        for (var_id, var) in f.vars.iter() {
            let direction = match var.direction {
                PortDirection::Input => " : in ",
                PortDirection::Output => " : out ",
                PortDirection::Internal => continue,
            };
            for element in elements(var.storage) {
                out.push_str(";\n    ");
                w.write_name(&mut out, var_id, element);
                out.push_str(direction);
                write_vector(&mut out, var.ty.width());
            }
        }
        out.push_str("\n  );\nend entity;\n\n");

        // Architecture: registers are signals, wire-variables are variables.
        out.push_str("architecture spark of ");
        out.push_str(&f.name);
        out.push_str(" is\n");
        let _ = writeln!(
            out,
            "  signal state : integer range 0 to {};",
            num_states.saturating_sub(1)
        );
        let named = registers_named(f, self.controller);
        for (var_id, var) in f.vars.iter() {
            // Inputs come straight from the ports; wire-variables become
            // process variables. The registers backing output ports, and the
            // internal registers some statement names, are signals.
            if var.direction == PortDirection::Input
                || var.is_wire()
                || (var.direction == PortDirection::Internal && !named[var_id.index()])
            {
                continue;
            }
            for element in elements(var.storage) {
                out.push_str("  signal r_");
                w.write_name(&mut out, var_id, element);
                out.push_str(" : ");
                write_vector(&mut out, var.ty.width());
                out.push_str(";\n");
            }
        }
        out.push_str("begin\n  datapath : process(clk)\n");
        for (var_id, var) in f.vars.iter() {
            if var.is_wire() {
                out.push_str("    variable v_");
                out.push_str(w.name(var_id));
                out.push_str(" : ");
                write_vector(&mut out, var.ty.width());
                out.push_str(";\n");
            }
        }
        out.push_str(
            "  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        state <= 0;\n",
        );
        out.push_str("      else\n        case state is\n");
        for step in &self.controller.steps {
            let _ = writeln!(out, "          when {} =>", step.index);
            for scheduled in &step.ops {
                let op = &f.ops[scheduled.op];
                if !matches!(op.kind, OpKind::Return) {
                    w.write_statement(&mut out, op, &scheduled.guard);
                }
            }
            let next = (step.index + 1) % num_states.max(1);
            let _ = writeln!(out, "{INDENT}state <= {next};");
        }
        out.push_str("          when others => state <= 0;\n        end case;\n      end if;\n    end if;\n  end process;\n");

        // Drive output ports from their registers.
        for (var_id, var) in f.vars.iter() {
            if var.direction != PortDirection::Output {
                continue;
            }
            for element in elements(var.storage) {
                out.push_str("  ");
                w.write_name(&mut out, var_id, element);
                out.push_str(" <= r_");
                w.write_name(&mut out, var_id, element);
                out.push_str(";\n");
            }
        }
        out.push_str("end architecture;\n");
        out
    }
}

/// Per variable (indexed by `VarId::index()`), whether a statement of the
/// controller names it: the destination, an operand or a guard term of a
/// scheduled op other than a return, which the text leaves out.
fn registers_named(f: &Function, controller: &Controller) -> Vec<bool> {
    let mut named = vec![false; f.vars.len()];
    for scheduled in controller.steps.iter().flat_map(|step| &step.ops) {
        let op = &f.ops[scheduled.op];
        if matches!(op.kind, OpKind::Return) {
            continue;
        }
        let conditions = scheduled.guard.terms.iter().filter_map(|(c, _)| c.as_var());
        for var in op.uses_iter().chain(op.def()).chain(conditions) {
            named[var.index()] = true;
        }
    }
    named
}

/// The declared elements of a variable: `[None]` for a scalar, one
/// `Some(index)` per element for an array (expanded element-wise).
fn elements(storage: StorageClass) -> impl Iterator<Item = Option<u64>> {
    let (scalar, length) = match storage {
        StorageClass::Array { length } => (false, u64::from(length)),
        _ => (true, 0),
    };
    scalar
        .then_some(None)
        .into_iter()
        .chain((0..length).map(Some))
}

/// Output size guess from the declaration and statement counts, so the
/// buffer rarely regrows (the ILD's VHDL is 5-10% below it at n=8..32).
fn estimated_len(f: &Function, controller: &Controller) -> usize {
    let declarations: usize = f
        .vars
        .iter()
        .map(|(_, var)| elements(var.storage).count())
        .sum();
    let statements: usize = controller.steps.iter().map(|s| s.ops.len()).sum();
    1024 + 96 * declarations + 160 * statements
}

/// Maps a variable name onto a VHDL identifier: every character that is not
/// alphanumeric becomes `_`. Names that are already plain ASCII identifiers
/// are borrowed unchanged.
fn sanitize(name: &str) -> Cow<'_, str> {
    if name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(
            name.chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect(),
        )
    }
}

/// `std_logic` for one bit, otherwise a `downto 0` vector.
fn write_vector(out: &mut String, width: u16) {
    if width == 1 {
        out.push_str("std_logic");
    } else {
        let _ = write!(out, "std_logic_vector({} downto 0)", width - 1);
    }
}

/// Writes the VHDL text of operands, expressions and statements of one
/// function, with every variable name sanitized once.
struct Writer<'a> {
    function: &'a Function,
    /// Sanitized name of every variable, indexed by `VarId::index()`.
    names: Vec<Cow<'a, str>>,
}

impl<'a> Writer<'a> {
    fn new(function: &'a Function) -> Self {
        let names = function
            .vars
            .iter()
            .map(|(_, var)| sanitize(&var.name))
            .collect();
        Writer { function, names }
    }

    fn name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// The name of a scalar, or of one element (`name_i`) of an array.
    fn write_name(&self, out: &mut String, var: VarId, element: Option<u64>) {
        out.push_str(self.name(var));
        if let Some(element) = element {
            let _ = write!(out, "_{element}");
        }
    }

    fn write_operand(&self, out: &mut String, value: Value) {
        match value {
            Value::Const(c) => {
                if c.ty().width() == 1 {
                    let _ = write!(out, "'{}'", c.value());
                } else {
                    let _ = write!(
                        out,
                        "std_logic_vector(to_unsigned({}, {}))",
                        c.value(),
                        c.ty().width()
                    );
                }
            }
            Value::Var(v) => {
                let var = &self.function.vars[v];
                if var.is_wire() {
                    out.push_str("v_");
                } else if var.direction != PortDirection::Input {
                    // Primary inputs are read straight from the entity port.
                    out.push_str("r_");
                }
                out.push_str(self.name(v));
            }
        }
    }

    fn write_expression(&self, out: &mut String, kind: &OpKind, args: &[Value]) {
        const ARITH: &str = "std_logic_vector(unsigned(";
        const SHIFT: &str = "), to_integer(unsigned(";
        const CMP: &str = "bool_to_sl(unsigned(";
        // `pre a mid b post` over the first two operands.
        let binary = |out: &mut String, pre: &str, mid: &str, post: &str| {
            out.push_str(pre);
            self.write_operand(out, args[0]);
            out.push_str(mid);
            self.write_operand(out, args[1]);
            out.push_str(post);
        };
        match kind {
            OpKind::Add => binary(out, ARITH, ") + unsigned(", "))"),
            OpKind::Sub => binary(out, ARITH, ") - unsigned(", "))"),
            OpKind::Mul => binary(
                out,
                "std_logic_vector(resize(unsigned(",
                ") * unsigned(",
                "), 64))",
            ),
            OpKind::And => binary(out, "", " and ", ""),
            OpKind::Or => binary(out, "", " or ", ""),
            OpKind::Xor => binary(out, "", " xor ", ""),
            OpKind::Not => {
                out.push_str("not ");
                self.write_operand(out, args[0]);
            }
            OpKind::Shl => binary(out, "std_logic_vector(shift_left(unsigned(", SHIFT, "))))"),
            OpKind::Shr => binary(out, "std_logic_vector(shift_right(unsigned(", SHIFT, "))))"),
            OpKind::Eq => binary(out, CMP, ") = unsigned(", "))"),
            OpKind::Ne => binary(out, CMP, ") /= unsigned(", "))"),
            OpKind::Lt => binary(out, CMP, ") < unsigned(", "))"),
            OpKind::Le => binary(out, CMP, ") <= unsigned(", "))"),
            OpKind::Gt => binary(out, CMP, ") > unsigned(", "))"),
            OpKind::Ge => binary(out, CMP, ") >= unsigned(", "))"),
            OpKind::Copy => self.write_operand(out, args[0]),
            OpKind::Select => {
                self.write_operand(out, args[1]);
                out.push_str(" when ");
                self.write_operand(out, args[0]);
                out.push_str(" = '1' else ");
                self.write_operand(out, args[2]);
            }
            OpKind::Slice { hi, lo } => {
                self.write_operand(out, args[0]);
                let _ = write!(out, "({hi} downto {lo})");
            }
            OpKind::Concat => binary(out, "", " & ", ""),
            OpKind::ArrayRead { array } => match args[0] {
                Value::Const(c) => {
                    if self.function.vars[*array].direction != PortDirection::Input {
                        out.push_str("r_");
                    }
                    self.write_name(out, *array, Some(c.value()));
                }
                index => {
                    out.push_str("array_read(");
                    out.push_str(self.name(*array));
                    out.push_str(", ");
                    self.write_operand(out, index);
                    out.push(')');
                }
            },
            OpKind::ArrayWrite { .. } | OpKind::Call { .. } | OpKind::Return => {}
        }
    }

    /// One scheduled operation inside a `when` arm: its assignment, wrapped
    /// in one `if` per guard term (outermost first).
    fn write_statement(&self, out: &mut String, op: &Operation, guard: &Guard) {
        for &(cond, polarity) in &guard.terms {
            out.push_str(INDENT);
            out.push_str("if ");
            self.write_operand(out, cond);
            out.push_str(if polarity {
                " = '1' then\n"
            } else {
                " = '0' then\n"
            });
        }
        match &op.kind {
            OpKind::ArrayWrite { array } => {
                out.push_str(INDENT);
                match op.args[0] {
                    Value::Const(c) => {
                        out.push_str("r_");
                        self.write_name(out, *array, Some(c.value()));
                    }
                    _ => {
                        out.push_str("-- dynamic write to ");
                        out.push_str(self.name(*array));
                    }
                }
                out.push_str(" <= ");
                self.write_operand(out, op.args[1]);
                out.push_str(";\n");
            }
            kind => {
                if let Some(dest) = op.dest {
                    let wire = self.function.vars[dest].is_wire();
                    out.push_str(INDENT);
                    out.push_str(if wire { "v_" } else { "r_" });
                    out.push_str(self.name(dest));
                    out.push_str(if wire { " := " } else { " <= " });
                    self.write_expression(out, kind, &op.args);
                    out.push_str(";\n");
                }
            }
        }
        for _ in &guard.terms {
            out.push_str(INDENT);
            out.push_str("end if;\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpId, Type};
    use spark_sched::{
        insert_wire_variables, schedule, Constraints, DependenceGraph, ResourceLibrary,
    };

    fn emit(mut f: Function) -> String {
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(20.0)).unwrap();
        insert_wire_variables(&mut f, &graph, &mut sched);
        let controller = Controller::build(&f, &sched);
        VhdlEmitter::new(&f, &controller).emit()
    }

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("calc");
        let a = b.param("a", Type::Bits(8));
        let cond = b.param("cond", Type::Bool);
        let mark = b.output_array("Mark", Type::Bool, 2);
        let result = b.output("result", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.if_begin(Value::Var(cond));
        b.assign(OpKind::Add, result, vec![Value::Var(t), Value::word(2)]);
        b.array_write(mark, Value::word(0), Value::bool(true));
        b.else_begin();
        b.copy(result, Value::Var(t));
        b.if_end();
        b.finish()
    }

    #[test]
    fn emits_entity_with_expanded_ports() {
        let vhdl = emit(sample());
        assert!(vhdl.contains("entity calc is"));
        assert!(vhdl.contains("clk : in std_logic"));
        assert!(vhdl.contains("a : in std_logic_vector(7 downto 0)"));
        assert!(vhdl.contains("Mark_0 : out std_logic"));
        assert!(vhdl.contains("Mark_1 : out std_logic"));
        assert!(vhdl.contains("result : out std_logic_vector(7 downto 0)"));
    }

    #[test]
    fn registers_are_signals_and_wires_are_variables() {
        // Footnote 1 of the paper: registers -> VHDL signals,
        // wire-variables -> VHDL variables.
        let vhdl = emit(sample());
        assert!(
            vhdl.contains("signal r_result"),
            "the register behind an output port is a signal"
        );
        assert!(
            !vhdl.contains("r_t"),
            "the chained temporary t is read only through its wire: no register"
        );
        assert!(
            vhdl.contains("variable v_w_t_0"),
            "the inserted wire-variable becomes a process variable"
        );
        assert!(
            vhdl.contains(":="),
            "wire-variables are assigned with variable assignment"
        );
        assert!(
            vhdl.contains("<="),
            "registers are assigned with signal assignment"
        );
    }

    #[test]
    fn guarded_ops_are_wrapped_in_conditions() {
        let vhdl = emit(sample());
        assert!(vhdl.contains("if cond = '1' then"));
        assert!(vhdl.contains("if cond = '0' then"));
        assert!(vhdl.contains("end if;"));
    }

    #[test]
    fn fsm_case_structure_present() {
        let vhdl = emit(sample());
        assert!(vhdl.contains("case state is"));
        assert!(vhdl.contains("when 0 =>"));
        assert!(vhdl.contains("state <= 0;"));
    }

    #[test]
    fn emits_exact_text_for_a_single_cycle_incrementer() {
        let mut b = FunctionBuilder::new("incr");
        let a = b.param("a", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, y, vec![Value::Var(a), Value::word(1)]);
        let expected = "\
-- Generated by the Spark HLS reproduction (DAC 2002 coordinated transformations)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity incr is
  port (
    clk : in std_logic;
    rst : in std_logic;
    a : in std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity;

architecture spark of incr is
  signal state : integer range 0 to 0;
  signal r_y : std_logic_vector(7 downto 0);
begin
  datapath : process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= 0;
      else
        case state is
          when 0 =>
            r_y <= std_logic_vector(unsigned(a) + unsigned(std_logic_vector(to_unsigned(1, 32))));
            state <= 0;
          when others => state <= 0;
        end case;
      end if;
    end if;
  end process;
  y <= r_y;
end architecture;
";
        assert_eq!(emit(b.finish()), expected);
    }

    #[test]
    fn a_guard_written_in_its_own_state_is_read_through_its_wire() {
        // c = a > 10; if (c) y = a + 1, chained into one state. A signal
        // assignment lands at the end of the cycle, so the `if` must test
        // the wire-variable the comparison drives, not `r_c`.
        let mut b = FunctionBuilder::new("gate");
        let a = b.param("a", Type::Bits(8));
        let c = b.var("c", Type::Bool);
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Gt, c, vec![Value::Var(a), Value::word(10)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, y, vec![Value::Var(a), Value::word(1)]);
        b.if_end();
        let expected = "\
-- Generated by the Spark HLS reproduction (DAC 2002 coordinated transformations)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity gate is
  port (
    clk : in std_logic;
    rst : in std_logic;
    a : in std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity;

architecture spark of gate is
  signal state : integer range 0 to 0;
  signal r_c : std_logic;
  signal r_y : std_logic_vector(7 downto 0);
begin
  datapath : process(clk)
    variable v_w_c_0 : std_logic;
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= 0;
      else
        case state is
          when 0 =>
            v_w_c_0 := bool_to_sl(unsigned(a) > unsigned(std_logic_vector(to_unsigned(10, 32))));
            r_c <= v_w_c_0;
            if v_w_c_0 = '1' then
            r_y <= std_logic_vector(unsigned(a) + unsigned(std_logic_vector(to_unsigned(1, 32))));
            end if;
            state <= 0;
          when others => state <= 0;
        end case;
      end if;
    end if;
  end process;
  y <= r_y;
end architecture;
";
        let vhdl = emit(b.finish());
        assert!(!vhdl.contains("if r_c"), "{vhdl}");
        assert_eq!(vhdl, expected);
    }

    #[test]
    fn declares_only_the_registers_a_statement_names() {
        // t = a + 1; u = t + 2; y = u + t, chained into one state: t and u
        // are read only through their wires, so no statement names `r_t`
        // or `r_u` and neither is declared.
        let mut b = FunctionBuilder::new("chain");
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let u = b.var("u", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, u, vec![Value::Var(t), Value::word(2)]);
        b.assign(OpKind::Add, y, vec![Value::Var(u), Value::Var(t)]);
        let expected = "\
-- Generated by the Spark HLS reproduction (DAC 2002 coordinated transformations)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity chain is
  port (
    clk : in std_logic;
    rst : in std_logic;
    a : in std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity;

architecture spark of chain is
  signal state : integer range 0 to 0;
  signal r_y : std_logic_vector(7 downto 0);
begin
  datapath : process(clk)
    variable v_w_t_0 : std_logic_vector(7 downto 0);
    variable v_w_u_0 : std_logic_vector(7 downto 0);
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= 0;
      else
        case state is
          when 0 =>
            v_w_t_0 := std_logic_vector(unsigned(a) + unsigned(std_logic_vector(to_unsigned(1, 32))));
            v_w_u_0 := std_logic_vector(unsigned(v_w_t_0) + unsigned(std_logic_vector(to_unsigned(2, 32))));
            r_y <= std_logic_vector(unsigned(v_w_u_0) + unsigned(v_w_t_0));
            state <= 0;
          when others => state <= 0;
        end case;
      end if;
    end if;
  end process;
  y <= r_y;
end architecture;
";
        assert_eq!(emit(b.finish()), expected);
    }

    /// One variable of every kind the operand writer distinguishes.
    struct Vars {
        a: VarId,
        b: VarId,
        flag: VarId,
        reg: VarId,
        wire: VarId,
        inputs: VarId,
        table: VarId,
        odd: VarId,
        wide: VarId,
        const_write: OpId,
        dynamic_write: OpId,
        to_wire: OpId,
    }

    fn vars() -> (Function, Vars) {
        let mut b = FunctionBuilder::new("arms");
        let a = b.param("a", Type::Bits(8));
        let index = b.param("b", Type::Bits(8));
        let wire = b.wire("w", Type::Bits(8));
        let table = b.array("T", Type::Bits(8), 4);
        let vars = Vars {
            a,
            b: index,
            flag: b.param("flag", Type::Bool),
            reg: b.var("r", Type::Bits(8)),
            wire,
            inputs: b.param_array("IN", Type::Bits(8), 4),
            table,
            odd: b.var("x.y$z", Type::Bits(8)),
            wide: b.var("\u{e9}-1", Type::Bits(8)),
            const_write: b.array_write(table, Value::word(1), Value::Var(a)),
            dynamic_write: b.array_write(table, Value::Var(index), Value::Var(a)),
            to_wire: b.assign(OpKind::Not, wire, vec![Value::Var(a)]),
        };
        (b.finish(), vars)
    }

    fn expression(f: &Function, kind: OpKind, args: &[Value]) -> String {
        let mut out = String::new();
        Writer::new(f).write_expression(&mut out, &kind, args);
        out
    }

    #[test]
    fn operands_follow_the_register_wire_port_mapping() {
        let (f, v) = vars();
        let operand = |value| {
            let mut out = String::new();
            Writer::new(&f).write_operand(&mut out, value);
            out
        };
        assert_eq!(operand(Value::Var(v.a)), "a");
        assert_eq!(operand(Value::Var(v.reg)), "r_r");
        assert_eq!(operand(Value::Var(v.wire)), "v_w");
        assert_eq!(operand(Value::bool(true)), "'1'");
        assert_eq!(operand(Value::bool(false)), "'0'");
        assert_eq!(
            operand(Value::Const(spark_ir::Constant::new(5, Type::Bits(8)))),
            "std_logic_vector(to_unsigned(5, 8))"
        );
    }

    #[test]
    fn arithmetic_logic_and_shift_arms_are_exact() {
        let (f, v) = vars();
        let ab = [Value::Var(v.a), Value::Var(v.b)];
        let cases = [
            (OpKind::Add, "std_logic_vector(unsigned(a) + unsigned(b))"),
            (OpKind::Sub, "std_logic_vector(unsigned(a) - unsigned(b))"),
            (
                OpKind::Mul,
                "std_logic_vector(resize(unsigned(a) * unsigned(b), 64))",
            ),
            (OpKind::And, "a and b"),
            (OpKind::Or, "a or b"),
            (OpKind::Xor, "a xor b"),
            (OpKind::Not, "not a"),
            (
                OpKind::Shl,
                "std_logic_vector(shift_left(unsigned(a), to_integer(unsigned(b))))",
            ),
            (
                OpKind::Shr,
                "std_logic_vector(shift_right(unsigned(a), to_integer(unsigned(b))))",
            ),
            (OpKind::Copy, "a"),
            (OpKind::Concat, "a & b"),
        ];
        for (kind, want) in cases {
            assert_eq!(expression(&f, kind.clone(), &ab), want, "{kind:?}");
        }
    }

    #[test]
    fn comparison_arms_are_exact() {
        let (f, v) = vars();
        let ab = [Value::Var(v.a), Value::Var(v.b)];
        let cases = [
            (OpKind::Eq, "="),
            (OpKind::Ne, "/="),
            (OpKind::Lt, "<"),
            (OpKind::Le, "<="),
            (OpKind::Gt, ">"),
            (OpKind::Ge, ">="),
        ];
        for (kind, op) in cases {
            assert_eq!(
                expression(&f, kind, &ab),
                format!("bool_to_sl(unsigned(a) {op} unsigned(b))")
            );
        }
    }

    #[test]
    fn select_slice_and_array_read_arms_are_exact() {
        let (f, v) = vars();
        assert_eq!(
            expression(
                &f,
                OpKind::Select,
                &[Value::Var(v.flag), Value::Var(v.a), Value::Var(v.reg)]
            ),
            "a when flag = '1' else r_r"
        );
        assert_eq!(
            expression(&f, OpKind::Slice { hi: 7, lo: 4 }, &[Value::Var(v.wire)]),
            "v_w(7 downto 4)"
        );
        let read = |array| OpKind::ArrayRead { array };
        assert_eq!(expression(&f, read(v.inputs), &[Value::word(2)]), "IN_2");
        assert_eq!(expression(&f, read(v.table), &[Value::word(3)]), "r_T_3");
        assert_eq!(
            expression(&f, read(v.table), &[Value::Var(v.a)]),
            "array_read(T, a)"
        );
    }

    #[test]
    fn statements_cover_array_writes_wires_and_guards() {
        let (f, v) = vars();
        let statement = |op, terms| {
            let mut out = String::new();
            Writer::new(&f).write_statement(&mut out, &f.ops[op], &Guard { terms });
            out
        };
        assert_eq!(
            statement(v.const_write, vec![]),
            format!("{INDENT}r_T_1 <= a;\n")
        );
        assert_eq!(
            statement(v.dynamic_write, vec![]),
            format!("{INDENT}-- dynamic write to T <= a;\n")
        );
        assert_eq!(
            statement(
                v.to_wire,
                vec![(Value::Var(v.flag), true), (Value::Var(v.reg), false)]
            ),
            format!(
                "{INDENT}if flag = '1' then\n\
                 {INDENT}if r_r = '0' then\n\
                 {INDENT}v_w := not a;\n\
                 {INDENT}end if;\n\
                 {INDENT}end if;\n"
            )
        );
    }

    #[test]
    fn statements_inside_a_state_keep_program_order() {
        // p = a*b; acc = p; p = c*d; acc = acc + p, chained into one state:
        // the wire of `p` is written twice, and the first read of it must
        // see a*b, so it has to sit between the two writes.
        let mut b = FunctionBuilder::new("order");
        let [a, x, c, d] = ["a", "x", "c", "d"].map(|name| b.param(name, Type::Bits(8)));
        let p = b.var("p", Type::Bits(16));
        let acc = b.output("acc", Type::Bits(16));
        b.assign(OpKind::Mul, p, vec![Value::Var(a), Value::Var(x)]);
        b.copy(acc, Value::Var(p));
        b.assign(OpKind::Mul, p, vec![Value::Var(c), Value::Var(d)]);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(p)]);
        let vhdl = emit(b.finish());
        assert!(vhdl.contains("signal state : integer range 0 to 0;"));
        let lines: Vec<&str> = vhdl.lines().map(str::trim_start).collect();
        let writes: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("v_w_p_0 :="))
            .collect();
        assert_eq!(writes.len(), 2, "{vhdl}");
        let reads_p = |line: &str| {
            line.split_once(":=")
                .or_else(|| line.split_once("<="))
                .is_some_and(|(_, rhs)| rhs.contains("v_w_p_0"))
        };
        let first_read = (0..lines.len())
            .find(|&i| reads_p(lines[i]))
            .expect("the wire of p is read");
        assert!(
            writes[0] < first_read && first_read < writes[1],
            "the first read of p's wire must see a*b:\n{vhdl}"
        );
    }

    #[test]
    fn names_are_sanitized_once_and_plain_names_are_borrowed() {
        let (f, v) = vars();
        let w = Writer::new(&f);
        assert!(matches!(w.names[v.a.index()], Cow::Borrowed("a")));
        assert_eq!(w.name(v.odd), "x_y_z");
        // Non-ASCII alphanumerics survive, as `char::is_alphanumeric` keeps them.
        assert_eq!(w.name(v.wide), "\u{e9}_1");
        assert_eq!(
            expression(&f, OpKind::Add, &[Value::Var(v.odd), Value::Var(v.wide)]),
            "std_logic_vector(unsigned(r_x_y_z) + unsigned(r_\u{e9}_1))"
        );
    }
}
