//! A reference interpreter for behavioral descriptions.
//!
//! The interpreter executes the *untransformed* semantics of a function:
//! structured control flow, sequential operation order, registers and arrays
//! as plain values. It is the golden model every transformation must
//! preserve: tests run the same inputs through the original description, the
//! transformed description, the scheduled FSM and the generated netlist, and
//! require identical outputs.

use std::collections::BTreeMap;
use std::fmt;

use crate::function::Function;
use crate::htg::{HtgNode, LoopKind, RegionId};
use crate::op::{OpId, OpKind};
use crate::program::Program;
use crate::value::Value;
use crate::var::{StorageClass, VarId};

/// Errors raised while interpreting a behavioral description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A named input was expected but not provided.
    MissingInput(String),
    /// A call referenced a function that does not exist in the program.
    UnknownFunction(String),
    /// An array access was out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: u64,
        /// Declared length.
        length: u32,
    },
    /// A loop exceeded the interpreter's iteration limit.
    LoopLimit(u64),
    /// Call nesting exceeded the interpreter's depth limit.
    CallDepth(usize),
    /// An operation had the wrong number of operands.
    Malformed(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingInput(name) => write!(f, "missing input `{name}`"),
            EvalError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            EvalError::OutOfBounds {
                array,
                index,
                length,
            } => {
                write!(
                    f,
                    "index {index} out of bounds for array `{array}` of length {length}"
                )
            }
            EvalError::LoopLimit(limit) => write!(f, "loop exceeded {limit} iterations"),
            EvalError::CallDepth(limit) => write!(f, "call depth exceeded {limit}"),
            EvalError::Malformed(msg) => write!(f, "malformed operation: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Named input bindings for one execution.
#[derive(Clone, Debug, Default)]
pub struct Env {
    scalars: BTreeMap<String, u64>,
    arrays: BTreeMap<String, Vec<u64>>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds a scalar input by variable name (builder style).
    pub fn with_scalar(mut self, name: &str, value: u64) -> Self {
        self.scalars.insert(name.to_string(), value);
        self
    }

    /// Binds an array input by variable name (builder style).
    pub fn with_array(mut self, name: &str, values: Vec<u64>) -> Self {
        self.arrays.insert(name.to_string(), values);
        self
    }

    /// Binds a scalar input by variable name.
    pub fn set_scalar(&mut self, name: &str, value: u64) {
        self.scalars.insert(name.to_string(), value);
    }

    /// Binds an array input by variable name.
    pub fn set_array(&mut self, name: &str, values: Vec<u64>) {
        self.arrays.insert(name.to_string(), values);
    }

    /// All scalar bindings, by name.
    pub fn scalar_bindings(&self) -> &BTreeMap<String, u64> {
        &self.scalars
    }

    /// All array bindings, by name.
    pub fn array_bindings(&self) -> &BTreeMap<String, Vec<u64>> {
        &self.arrays
    }
}

/// The result of executing a function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Value produced by a `return` operation, if one executed.
    pub return_value: Option<u64>,
    /// Final values of all scalar variables, by name.
    pub scalars: BTreeMap<String, u64>,
    /// Final contents of all array variables, by name.
    pub arrays: BTreeMap<String, Vec<u64>>,
}

impl Outcome {
    /// Final value of the named scalar, if it exists.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars.get(name).copied()
    }

    /// Final contents of the named array, if it exists.
    pub fn array(&self, name: &str) -> Option<&[u64]> {
        self.arrays.get(name).map(Vec::as_slice)
    }
}

enum Flow {
    Continue,
    Return(u64),
}

struct Frame {
    scalars: BTreeMap<VarId, u64>,
    arrays: BTreeMap<VarId, Vec<u64>>,
}

/// Interprets behavioral programs.
#[derive(Clone, Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    /// Upper bound on iterations of any single loop execution.
    pub max_loop_iterations: u64,
    /// Upper bound on call nesting.
    pub max_call_depth: usize,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter over `program` with default limits.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            max_loop_iterations: 1 << 20,
            max_call_depth: 64,
        }
    }

    /// Runs the named function with the given input bindings.
    ///
    /// # Errors
    /// Returns an [`EvalError`] if the function is unknown, an input is
    /// missing, an array access is out of bounds, or a loop/call limit is
    /// exceeded.
    pub fn run(&self, function: &str, env: &Env) -> Result<Outcome, EvalError> {
        let func = self
            .program
            .function(function)
            .ok_or_else(|| EvalError::UnknownFunction(function.to_string()))?;
        let mut frame = self.init_frame(func, env)?;
        let flow = self.exec_region(func, func.body, &mut frame, 0)?;
        let return_value = match flow {
            Flow::Return(v) => Some(v),
            Flow::Continue => None,
        };
        let mut outcome = Outcome {
            return_value,
            ..Outcome::default()
        };
        for (var_id, var) in func.vars.iter() {
            match var.storage {
                StorageClass::Array { .. } => {
                    if let Some(contents) = frame.arrays.get(&var_id) {
                        outcome.arrays.insert(var.name.clone(), contents.clone());
                    }
                }
                _ => {
                    if let Some(&value) = frame.scalars.get(&var_id) {
                        outcome.scalars.insert(var.name.clone(), value);
                    }
                }
            }
        }
        Ok(outcome)
    }

    fn init_frame(&self, func: &Function, env: &Env) -> Result<Frame, EvalError> {
        let mut frame = Frame {
            scalars: BTreeMap::new(),
            arrays: BTreeMap::new(),
        };
        for (var_id, var) in func.vars.iter() {
            match var.storage {
                StorageClass::Array { length } => {
                    let contents = if let Some(values) = env.arrays.get(&var.name) {
                        let mut v = values.clone();
                        v.resize(length as usize, 0);
                        v.iter_mut().for_each(|x| *x &= var.ty.mask());
                        v
                    } else {
                        vec![0; length as usize]
                    };
                    frame.arrays.insert(var_id, contents);
                }
                _ => {
                    let value = env.scalars.get(&var.name).copied().unwrap_or(0) & var.ty.mask();
                    frame.scalars.insert(var_id, value);
                }
            }
        }
        // Required inputs must be bound (parameters only; internal variables
        // default to zero like uninitialized registers).
        for &param in &func.params {
            let var = &func.vars[param];
            let provided = match var.storage {
                StorageClass::Array { .. } => env.arrays.contains_key(&var.name),
                _ => env.scalars.contains_key(&var.name),
            };
            if !provided {
                return Err(EvalError::MissingInput(var.name.clone()));
            }
        }
        Ok(frame)
    }

    fn eval(&self, _func: &Function, frame: &Frame, value: Value) -> u64 {
        match value {
            Value::Const(c) => c.value(),
            Value::Var(v) => frame.scalars.get(&v).copied().unwrap_or(0),
        }
    }

    fn exec_region(
        &self,
        func: &Function,
        region: RegionId,
        frame: &mut Frame,
        depth: usize,
    ) -> Result<Flow, EvalError> {
        for &node in &func.regions[region].nodes {
            match &func.nodes[node] {
                HtgNode::Block(b) => {
                    for &op in &func.blocks[*b].ops {
                        if func.ops[op].dead {
                            continue;
                        }
                        if let Flow::Return(v) = self.exec_op(func, op, frame, depth)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                HtgNode::If(i) => {
                    let cond = self.eval(func, frame, i.cond) != 0;
                    let region = if cond { i.then_region } else { i.else_region };
                    if let Flow::Return(v) = self.exec_region(func, region, frame, depth)? {
                        return Ok(Flow::Return(v));
                    }
                }
                HtgNode::Loop(l) => {
                    let mut iterations = 0u64;
                    match &l.kind {
                        LoopKind::For {
                            index,
                            start,
                            end,
                            step,
                        } => {
                            frame.scalars.insert(*index, start.value());
                            loop {
                                let idx = frame.scalars[index];
                                let bound = self.eval(func, frame, *end);
                                if idx > bound {
                                    break;
                                }
                                if let Flow::Return(v) =
                                    self.exec_region(func, l.body, frame, depth)?
                                {
                                    return Ok(Flow::Return(v));
                                }
                                let ty = func.vars[*index].ty;
                                let next = (frame.scalars[index] as i64 + step) as u64 & ty.mask();
                                frame.scalars.insert(*index, next);
                                iterations += 1;
                                if iterations > self.max_loop_iterations {
                                    return Err(EvalError::LoopLimit(self.max_loop_iterations));
                                }
                            }
                        }
                        LoopKind::While { cond } => loop {
                            if self.eval(func, frame, *cond) == 0 {
                                break;
                            }
                            if let Flow::Return(v) = self.exec_region(func, l.body, frame, depth)? {
                                return Ok(Flow::Return(v));
                            }
                            iterations += 1;
                            let limit = l.trip_bound.unwrap_or(self.max_loop_iterations);
                            if iterations >= limit {
                                break;
                            }
                        },
                    }
                }
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_op(
        &self,
        func: &Function,
        op_id: OpId,
        frame: &mut Frame,
        depth: usize,
    ) -> Result<Flow, EvalError> {
        let op = &func.ops[op_id];
        let arg = |i: usize| -> Result<Value, EvalError> {
            op.args
                .get(i)
                .copied()
                .ok_or_else(|| EvalError::Malformed(format!("{} missing operand {i}", op.kind)))
        };

        let result: u64 = match &op.kind {
            OpKind::ArrayRead { array } => {
                let index = self.eval(func, frame, arg(0)?);
                let value = frame.arrays.get(array).and_then(|c| c.get(index as usize));
                *value.ok_or_else(|| EvalError::OutOfBounds {
                    array: func.vars[*array].name.clone(),
                    index,
                    length: func.vars[*array].array_length().unwrap_or(0),
                })?
            }
            OpKind::ArrayWrite { array } => {
                let index = self.eval(func, frame, arg(0)?);
                let value = self.eval(func, frame, arg(1)?) & func.vars[*array].ty.mask();
                let contents = frame.arrays.entry(*array).or_default();
                let slot =
                    contents
                        .get_mut(index as usize)
                        .ok_or_else(|| EvalError::OutOfBounds {
                            array: func.vars[*array].name.clone(),
                            index,
                            length: func.vars[*array].array_length().unwrap_or(0),
                        })?;
                *slot = value;
                return Ok(Flow::Continue);
            }
            OpKind::Call { callee } => {
                if depth >= self.max_call_depth {
                    return Err(EvalError::CallDepth(self.max_call_depth));
                }
                let callee_func = self
                    .program
                    .function(callee)
                    .ok_or_else(|| EvalError::UnknownFunction(callee.clone()))?;
                let mut env = Env::new();
                for (position, &param) in callee_func.params.iter().enumerate() {
                    let param_var = &callee_func.vars[param];
                    let value = arg(position)?;
                    match param_var.storage {
                        StorageClass::Array { .. } => {
                            let array_var = value.as_var().ok_or_else(|| {
                                EvalError::Malformed(format!(
                                    "array parameter `{}` must be passed an array variable",
                                    param_var.name
                                ))
                            })?;
                            let contents =
                                frame.arrays.get(&array_var).cloned().unwrap_or_default();
                            env.set_array(&param_var.name, contents);
                        }
                        _ => env.set_scalar(&param_var.name, self.eval(func, frame, value)),
                    }
                }
                let sub = Interpreter {
                    program: self.program,
                    max_loop_iterations: self.max_loop_iterations,
                    max_call_depth: self.max_call_depth,
                };
                let outcome = sub.run(callee, &env)?;
                outcome.return_value.unwrap_or(0)
            }
            OpKind::Return => {
                let value = self.eval(func, frame, arg(0)?);
                return Ok(Flow::Return(value));
            }
            kind => func
                .eval_op(op, |value| self.eval(func, frame, value))
                .ok_or_else(|| EvalError::Malformed(format!("{kind} missing an operand")))?,
        };
        if let Some(dest) = op.dest {
            frame
                .scalars
                .insert(dest, result & func.vars[dest].ty.mask());
        }
        Ok(Flow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::op::OpKind;
    use crate::types::Type;
    use crate::value::Value;

    fn program_with(f: Function) -> Program {
        let mut p = Program::new();
        p.add_function(f);
        p
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(5)]);
        b.ret(Value::Var(x));
        let p = program_with(b.finish());
        let out = Interpreter::new(&p)
            .run("f", &Env::new().with_scalar("a", 10))
            .unwrap();
        assert_eq!(out.return_value, Some(15));
        assert_eq!(out.scalar("x"), Some(15));
    }

    #[test]
    fn widths_wrap() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        let p = program_with(b.finish());
        let out = Interpreter::new(&p)
            .run("f", &Env::new().with_scalar("a", 255))
            .unwrap();
        assert_eq!(out.scalar("x"), Some(0));
    }

    #[test]
    fn if_else_selects_branch() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::word(1));
        b.else_begin();
        b.copy(x, Value::word(2));
        b.if_end();
        b.ret(Value::Var(x));
        let p = program_with(b.finish());
        let interp = Interpreter::new(&p);
        assert_eq!(
            interp
                .run("f", &Env::new().with_scalar("c", 1))
                .unwrap()
                .return_value,
            Some(1)
        );
        assert_eq!(
            interp
                .run("f", &Env::new().with_scalar("c", 0))
                .unwrap()
                .return_value,
            Some(2)
        );
    }

    #[test]
    fn for_loop_accumulates() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(32));
        let acc = b.var("acc", Type::Bits(32));
        b.copy(acc, Value::word(0));
        b.for_begin(i, 1, Value::word(5), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
        b.loop_end();
        b.ret(Value::Var(acc));
        let p = program_with(b.finish());
        let out = Interpreter::new(&p).run("f", &Env::new()).unwrap();
        assert_eq!(out.return_value, Some(15));
    }

    #[test]
    fn arrays_read_write_and_bounds() {
        let mut b = FunctionBuilder::new("f");
        let buf = b.param_array("buf", Type::Bits(8), 4);
        let mark = b.output_array("mark", Type::Bool, 4);
        let x = b.var("x", Type::Bits(8));
        b.array_read(x, buf, Value::word(2));
        b.array_write(mark, Value::word(2), Value::bool(true));
        b.ret(Value::Var(x));
        let p = program_with(b.finish());
        let out = Interpreter::new(&p)
            .run("f", &Env::new().with_array("buf", vec![9, 8, 7, 6]))
            .unwrap();
        assert_eq!(out.return_value, Some(7));
        assert_eq!(out.array("mark"), Some(&[0, 0, 1, 0][..]));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = FunctionBuilder::new("f");
        let buf = b.param_array("buf", Type::Bits(8), 2);
        let x = b.var("x", Type::Bits(8));
        b.array_read(x, buf, Value::word(5));
        let p = program_with(b.finish());
        let err = Interpreter::new(&p)
            .run("f", &Env::new().with_array("buf", vec![1, 2]))
            .unwrap_err();
        assert!(matches!(err, EvalError::OutOfBounds { .. }));
    }

    #[test]
    fn calls_pass_scalars_and_arrays() {
        // callee: returns buf[i] + 1
        let mut cb = FunctionBuilder::new("callee");
        let cbuf = cb.param_array("buf", Type::Bits(8), 4);
        let ci = cb.param("i", Type::Bits(32));
        let cx = cb.var("x", Type::Bits(8));
        cb.array_read(cx, cbuf, Value::Var(ci));
        let cy = cb.compute(
            OpKind::Add,
            Type::Bits(8),
            vec![Value::Var(cx), Value::word(1)],
        );
        cb.ret(Value::Var(cy));
        cb.returns(Type::Bits(8));

        let mut mb = FunctionBuilder::new("main");
        let buf = mb.param_array("buf", Type::Bits(8), 4);
        let r = mb.var("r", Type::Bits(8));
        mb.call(Some(r), "callee", vec![Value::Var(buf), Value::word(1)]);
        mb.ret(Value::Var(r));

        let mut p = Program::new();
        p.add_function(mb.finish());
        p.add_function(cb.finish());
        let out = Interpreter::new(&p)
            .run("main", &Env::new().with_array("buf", vec![5, 6, 7, 8]))
            .unwrap();
        assert_eq!(out.return_value, Some(7));
    }

    #[test]
    fn missing_param_is_an_error() {
        let mut b = FunctionBuilder::new("f");
        b.param("a", Type::Bits(8));
        let p = program_with(b.finish());
        let err = Interpreter::new(&p).run("f", &Env::new()).unwrap_err();
        assert_eq!(err, EvalError::MissingInput("a".to_string()));
    }

    #[test]
    fn while_loop_respects_trip_bound() {
        let mut b = FunctionBuilder::new("f");
        let acc = b.var("acc", Type::Bits(32));
        b.while_begin(Value::bool(true), Some(10));
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::word(1)]);
        b.loop_end();
        b.ret(Value::Var(acc));
        let p = program_with(b.finish());
        let out = Interpreter::new(&p).run("f", &Env::new()).unwrap();
        assert_eq!(out.return_value, Some(10));
    }

    #[test]
    fn select_slice_concat() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let s = b.var("s", Type::Bits(4));
        let m = b.var("m", Type::Bits(8));
        let c = b.var("c", Type::Bits(8));
        b.assign(OpKind::Slice { hi: 7, lo: 4 }, s, vec![Value::Var(a)]);
        b.assign(
            OpKind::Select,
            m,
            vec![Value::bool(true), Value::Var(s), Value::word(0)],
        );
        b.assign(OpKind::Concat, c, vec![Value::Var(s), Value::Var(s)]);
        let p = program_with(b.finish());
        let out = Interpreter::new(&p)
            .run("f", &Env::new().with_scalar("a", 0xAB))
            .unwrap();
        assert_eq!(out.scalar("s"), Some(0xA));
        assert_eq!(out.scalar("m"), Some(0xA));
        assert_eq!(out.scalar("c"), Some(0xAA));
    }

    #[test]
    fn missing_operand_is_malformed() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a)]);
        let p = program_with(b.finish());
        let err = Interpreter::new(&p)
            .run("f", &Env::new().with_scalar("a", 3))
            .unwrap_err();
        assert!(matches!(err, EvalError::Malformed(_)), "{err}");
    }

    #[test]
    fn unknown_call_is_an_error() {
        let mut b = FunctionBuilder::new("f");
        let r = b.var("r", Type::Bits(8));
        b.call(Some(r), "missing", vec![]);
        let p = program_with(b.finish());
        let err = Interpreter::new(&p).run("f", &Env::new()).unwrap_err();
        assert_eq!(err, EvalError::UnknownFunction("missing".to_string()));
    }
}
