package script

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Errors returned by the interpreter for sandbox-level conditions, as opposed
// to script-level throw values.
var (
	// ErrTerminated is returned when the context's Terminate method was
	// called (typically by the resource manager killing a pipeline).
	ErrTerminated = errors.New("script: execution terminated")
	// ErrStepLimit is returned when a script exceeds its step budget.
	ErrStepLimit = errors.New("script: step limit exceeded")
	// ErrMemoryLimit is returned when a script exceeds its heap budget.
	ErrMemoryLimit = errors.New("script: memory limit exceeded")
	// ErrDepthLimit is returned when script calls nest deeper than
	// maxCallDepth.
	ErrDepthLimit = errors.New("script: call depth limit exceeded")
)

// maxCallDepth bounds how deeply script function calls nest, native
// callbacks (sort, map, filter, forEach, replace) and constructors
// included. A script frame takes about 1.8 KB of Go stack (amd64, measured
// through runtime.MemStats.StackInuse at depths 1 000 and 9 000, direct
// recursion and recursion through a map callback alike), so the cap is about
// 18 MB: a 32 MB goroutine stack, 32 times below the Go runtime's 1 GB
// limit, where the process would die with a fatal stack overflow that no
// recover catches.
const maxCallDepth = 10000

// ThrowError wraps a value thrown by a script that propagated out of the
// top-level call.
type ThrowError struct {
	Value Value
}

func (e *ThrowError) Error() string {
	return "script: uncaught exception: " + ToString(e.Value)
}

// RuntimeError is a script-level error raised by the interpreter itself (for
// example calling a non-function); it is catchable by try/catch.
type RuntimeError struct {
	Msg  string
	Line int
	Col  int
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("script: %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return "script: " + e.Msg
}

// Env is a lexical environment: a chain of variable scopes.
type Env struct {
	vars   map[string]Value
	parent *Env
}

// NewEnv returns a child environment of parent (or a root when parent is
// nil).
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[string]Value), parent: parent}
}

// Get resolves a name through the scope chain.
func (e *Env) Get(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define binds a name in this scope.
func (e *Env) Define(name string, v Value) { e.vars[name] = v }

// Set assigns an existing binding, walking the chain; if no binding exists
// the name is created in the root (global) scope, mirroring JavaScript's
// behaviour for undeclared assignments, which the paper's example scripts use
// (for example "onResponse = function() {...}").
func (e *Env) Set(name string, v Value) {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[name]; ok {
			env.vars[name] = v
			return
		}
		if env.parent == nil {
			env.vars[name] = v
			return
		}
	}
}

// Limits bounds a context's resource consumption. Zero values mean
// "unlimited". The resource manager tightens these when the node is
// congested.
type Limits struct {
	// MaxSteps is the maximum number of evaluation steps.
	MaxSteps int64
	// MaxHeapBytes is the approximate maximum number of bytes of script
	// allocated data (strings, byte arrays, object slots).
	MaxHeapBytes int64
}

// Context is an isolated script execution context: its own global
// environment (heap), step and memory accounting, and a termination flag. A
// context corresponds to the per-pipeline scripting context described in
// Section 4 of the paper; contexts are reused across event-handler
// executions to amortize creation cost.
type Context struct {
	Globals *Env

	// Act is opaque per-handler-run data the embedder attaches before
	// running an event handler and clears after (the pipeline stores the
	// request's *trace.Act here so host vocabularies can stamp activity
	// onto the right request). Scripts cannot observe it.
	Act any

	limits Limits

	steps      int64
	heapBytes  int64
	depth      int // script function calls in progress
	terminated atomic.Bool
}

// costPollInterval is how many steps elapse between termination and step
// limit checks.
const costPollInterval = 256

// NewContext creates a fresh context with the standard built-in globals
// installed and the given limits.
func NewContext(limits Limits) *Context {
	ctx := &Context{Globals: NewEnv(nil), limits: limits}
	installBuiltins(ctx)
	return ctx
}

// Reset clears termination and zeroes consumption counters but retains the
// global environment, matching the prototype's reuse of scripting contexts.
func (ctx *Context) Reset() {
	ctx.terminated.Store(false)
	ctx.steps = 0
	ctx.heapBytes = 0
	ctx.Act = nil
}

// Terminate requests that the running (or next) evaluation stop with
// ErrTerminated. Safe to call from another goroutine.
func (ctx *Context) Terminate() { ctx.terminated.Store(true) }

// charge adds one evaluation step and periodically checks limits and
// termination.
func (ctx *Context) charge() error {
	ctx.steps++
	if ctx.steps%costPollInterval == 0 {
		if ctx.terminated.Load() {
			return ErrTerminated
		}
		if ctx.limits.MaxSteps > 0 && ctx.steps > ctx.limits.MaxSteps {
			return ErrStepLimit
		}
	}
	return nil
}

// Charge adds one evaluation step, as evaluating a node of the script does:
// a native that walks script data on the script's behalf charges each
// element it visits, so MaxSteps and Terminate reach the walk too.
func (ctx *Context) Charge() error { return ctx.charge() }

// chargeHeap accounts for n bytes of script-visible allocation.
func (ctx *Context) chargeHeap(n int) error {
	ctx.heapBytes += int64(n)
	if ctx.limits.MaxHeapBytes > 0 && ctx.heapBytes > ctx.limits.MaxHeapBytes {
		return ErrMemoryLimit
	}
	return nil
}

// HeapBytes returns the approximate script heap consumption in bytes.
func (ctx *Context) HeapBytes() int64 { return ctx.heapBytes }

// Steps returns the cumulative step count.
func (ctx *Context) Steps() int64 { return ctx.steps }

// DefineGlobal binds a name in the context's global environment; this is how
// vocabularies expose their native objects (Request, Response, System, ...).
func (ctx *Context) DefineGlobal(name string, v Value) { ctx.Globals.Define(name, v) }

// Global returns a global binding.
func (ctx *Context) Global(name string) (Value, bool) { return ctx.Globals.Get(name) }

// GlobalNames returns every name bound in the context's global environment
// (builtins plus whatever DefineGlobal installed), sorted. The deployment
// validator uses it as the allowlist a bundle's FreeIdents must resolve
// against.
func (ctx *Context) GlobalNames() []string {
	names := make([]string, 0, len(ctx.Globals.vars))
	for name := range ctx.Globals.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Program and function execution
// ---------------------------------------------------------------------------

// control-flow signals passed through evaluation as sentinel errors.
type returnSignal struct{ value Value }
type breakSignal struct{}
type continueSignal struct{}
type throwSignal struct{ value Value }

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (t throwSignal) Error() string  { return "uncaught exception: " + ToString(t.value) }

// Run executes a parsed program in the context's global scope and returns
// the value of the last expression statement (useful for Na Kika Pages and
// the REPL-style tests).
func (ctx *Context) Run(prog *Program) (Value, error) {
	var last Value = Undefined{}
	// Hoist function declarations.
	for _, s := range prog.Body {
		if fd, ok := s.(*FunctionDecl); ok {
			ctx.Globals.Define(fd.Name, &Function{Name: fd.Name, Params: fd.Fn.Params, Body: fd.Fn.Body, Env: ctx.Globals, Ctx: ctx})
		}
	}
	for _, s := range prog.Body {
		v, err := ctx.execStmt(s, ctx.Globals)
		if err != nil {
			return nil, ctx.exportError(err)
		}
		if v != nil {
			last = v
		}
	}
	return last, nil
}

// RunSource parses and runs src.
func (ctx *Context) RunSource(src, file string) (Value, error) {
	prog, err := Parse(src, file)
	if err != nil {
		return nil, err
	}
	return ctx.Run(prog)
}

// Call invokes a script or native function value with the given this and
// arguments. It is the entry point used by the pipeline to run onRequest and
// onResponse event handlers.
func (ctx *Context) Call(fn Value, this Value, args ...Value) (Value, error) {
	v, err := ctx.callValue(fn, this, args, 0, 0)
	if err != nil {
		return nil, ctx.exportError(err)
	}
	return v, nil
}

// exportError converts internal control-flow signals into public errors.
func (ctx *Context) exportError(err error) error {
	var ts throwSignal
	if errors.As(err, &ts) {
		return &ThrowError{Value: ts.value}
	}
	switch err.(type) {
	case returnSignal, breakSignal, continueSignal:
		return &RuntimeError{Msg: err.Error()}
	}
	return err
}

func (ctx *Context) callValue(fn Value, this Value, args []Value, line, col int) (Value, error) {
	if err := ctx.charge(); err != nil {
		return nil, err
	}
	switch f := fn.(type) {
	case *Function:
		if ctx.depth >= maxCallDepth {
			return nil, ErrDepthLimit
		}
		ctx.depth++
		defer func() { ctx.depth-- }()
		env := NewEnv(f.Env)
		for i, p := range f.Params {
			if i < len(args) {
				env.Define(p, args[i])
			} else {
				env.Define(p, Undefined{})
			}
		}
		argArr := NewArray(args...)
		env.Define("arguments", argArr)
		if this == nil {
			this = Undefined{}
		}
		env.Define("this", this)
		// Hoist nested function declarations.
		for _, s := range f.Body.Body {
			if fd, ok := s.(*FunctionDecl); ok {
				env.Define(fd.Name, &Function{Name: fd.Name, Params: fd.Fn.Params, Body: fd.Fn.Body, Env: env, Ctx: ctx})
			}
		}
		for _, s := range f.Body.Body {
			_, err := ctx.execStmt(s, env)
			if err != nil {
				if rs, ok := err.(returnSignal); ok {
					return rs.value, nil
				}
				return nil, err
			}
		}
		return Undefined{}, nil
	case *Native:
		if this == nil {
			this = Undefined{}
		}
		return f.Fn(ctx, this, args)
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not a function", ToString(fn)), Line: line, Col: col}
	}
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

func (ctx *Context) execStmt(s Stmt, env *Env) (Value, error) {
	if err := ctx.charge(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *EmptyStmt:
		return nil, nil
	case *VarStmt:
		for i, name := range st.Names {
			var v Value = Undefined{}
			if st.Values[i] != nil {
				var err error
				v, err = ctx.eval(st.Values[i], env)
				if err != nil {
					return nil, err
				}
			}
			env.Define(name, v)
		}
		return nil, nil
	case *FunctionDecl:
		env.Define(st.Name, &Function{Name: st.Name, Params: st.Fn.Params, Body: st.Fn.Body, Env: env, Ctx: ctx})
		return nil, nil
	case *ExprStmt:
		return ctx.eval(st.X, env)
	case *BlockStmt:
		return ctx.execBlock(st, NewEnv(env))
	case *IfStmt:
		cond, err := ctx.eval(st.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return ctx.execStmt(st.Then, env)
		}
		if st.Else != nil {
			return ctx.execStmt(st.Else, env)
		}
		return nil, nil
	case *WhileStmt:
		for {
			cond, err := ctx.eval(st.Cond, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(cond) {
				return nil, nil
			}
			if _, err := ctx.execStmt(st.Body, env); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil, nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return nil, err
			}
		}
	case *DoWhileStmt:
		for {
			if _, err := ctx.execStmt(st.Body, env); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil, nil
				}
				if _, ok := err.(continueSignal); !ok {
					return nil, err
				}
			}
			cond, err := ctx.eval(st.Cond, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(cond) {
				return nil, nil
			}
		}
	case *ForStmt:
		loopEnv := NewEnv(env)
		if st.Init != nil {
			if _, err := ctx.execStmt(st.Init, loopEnv); err != nil {
				return nil, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := ctx.eval(st.Cond, loopEnv)
				if err != nil {
					return nil, err
				}
				if !Truthy(cond) {
					return nil, nil
				}
			}
			_, err := ctx.execStmt(st.Body, loopEnv)
			if err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil, nil
				}
				if _, ok := err.(continueSignal); !ok {
					return nil, err
				}
			}
			if st.Post != nil {
				if _, err := ctx.eval(st.Post, loopEnv); err != nil {
					return nil, err
				}
			}
		}
	case *ForInStmt:
		obj, err := ctx.eval(st.Object, env)
		if err != nil {
			return nil, err
		}
		loopEnv := NewEnv(env)
		var keys []string
		switch o := obj.(type) {
		case *Object:
			keys = o.Keys()
		case *Array:
			for i := range o.Elems {
				keys = append(keys, fmt.Sprintf("%d", i))
			}
		case String:
			for i := range string(o) {
				keys = append(keys, fmt.Sprintf("%d", i))
			}
		default:
			return nil, nil // for-in over primitives iterates nothing
		}
		for _, k := range keys {
			if st.Declare {
				loopEnv.Define(st.Name, String(k))
			} else {
				loopEnv.Set(st.Name, String(k))
			}
			_, err := ctx.execStmt(st.Body, loopEnv)
			if err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil, nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return nil, err
			}
		}
		return nil, nil
	case *ReturnStmt:
		var v Value = Undefined{}
		if st.X != nil {
			var err error
			v, err = ctx.eval(st.X, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnSignal{value: v}
	case *BreakStmt:
		return nil, breakSignal{}
	case *ContinueStmt:
		return nil, continueSignal{}
	case *ThrowStmt:
		v, err := ctx.eval(st.X, env)
		if err != nil {
			return nil, err
		}
		return nil, throwSignal{value: v}
	case *TryStmt:
		_, err := ctx.execBlock(st.Block, NewEnv(env))
		if err != nil {
			if ts, ok := err.(throwSignal); ok && st.Catch != nil {
				catchEnv := NewEnv(env)
				catchEnv.Define(st.Param, ts.value)
				_, err = ctx.execBlock(st.Catch, catchEnv)
			} else if re, ok := err.(*RuntimeError); ok && st.Catch != nil {
				// Runtime errors (for example TypeError-style failures) are
				// catchable, matching JavaScript semantics.
				catchEnv := NewEnv(env)
				catchEnv.Define(st.Param, String(re.Msg))
				_, err = ctx.execBlock(st.Catch, catchEnv)
			}
		}
		if st.Finally != nil {
			if _, ferr := ctx.execBlock(st.Finally, NewEnv(env)); ferr != nil {
				return nil, ferr
			}
		}
		return nil, err
	case *SwitchStmt:
		disc, err := ctx.eval(st.Disc, env)
		if err != nil {
			return nil, err
		}
		matched := false
		defaultIdx := -1
		for i, c := range st.Cases {
			if c.Test == nil {
				defaultIdx = i
				continue
			}
			if !matched {
				tv, err := ctx.eval(c.Test, env)
				if err != nil {
					return nil, err
				}
				if StrictEquals(disc, tv) {
					matched = true
				}
			}
			if matched {
				if done, err := ctx.runSwitchBody(c.Body, env); done || err != nil {
					return nil, err
				}
			}
		}
		if !matched && defaultIdx >= 0 {
			for i := defaultIdx; i < len(st.Cases); i++ {
				if done, err := ctx.runSwitchBody(st.Cases[i].Body, env); done || err != nil {
					return nil, err
				}
			}
		}
		return nil, nil
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("unhandled statement type %T", s)}
	}
}

// runSwitchBody executes a case body; it returns done=true when a break was
// hit.
func (ctx *Context) runSwitchBody(body []Stmt, env *Env) (bool, error) {
	for _, s := range body {
		if _, err := ctx.execStmt(s, env); err != nil {
			if _, ok := err.(breakSignal); ok {
				return true, nil
			}
			return false, err
		}
	}
	return false, nil
}

func (ctx *Context) execBlock(b *BlockStmt, env *Env) (Value, error) {
	// Hoist function declarations within the block.
	for _, s := range b.Body {
		if fd, ok := s.(*FunctionDecl); ok {
			env.Define(fd.Name, &Function{Name: fd.Name, Params: fd.Fn.Params, Body: fd.Fn.Body, Env: env, Ctx: ctx})
		}
	}
	var last Value
	for _, s := range b.Body {
		v, err := ctx.execStmt(s, env)
		if err != nil {
			return nil, err
		}
		if v != nil {
			last = v
		}
	}
	return last, nil
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

func (ctx *Context) eval(e Expr, env *Env) (Value, error) {
	if err := ctx.charge(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *NumberLit:
		return Number(x.Value), nil
	case *StringLit:
		if err := ctx.chargeHeap(len(x.Value)); err != nil {
			return nil, err
		}
		return String(x.Value), nil
	case *BoolLit:
		return Bool(x.Value), nil
	case *NullLit:
		return Null{}, nil
	case *UndefinedLit:
		return Undefined{}, nil
	case *ThisLit:
		if v, ok := env.Get("this"); ok {
			return v, nil
		}
		return Undefined{}, nil
	case *Ident:
		if v, ok := env.Get(x.Name); ok {
			return v, nil
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not defined", x.Name), Line: x.Line, Col: x.Col}
	case *ArrayLit:
		arr := &Array{Elems: make([]Value, 0, len(x.Elems))}
		if err := ctx.chargeHeap(16 * len(x.Elems)); err != nil {
			return nil, err
		}
		for _, el := range x.Elems {
			v, err := ctx.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *ObjectLit:
		obj := NewObject()
		if err := ctx.chargeHeap(32 * len(x.Keys)); err != nil {
			return nil, err
		}
		for i, k := range x.Keys {
			v, err := ctx.eval(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			obj.Set(k, v)
		}
		return obj, nil
	case *FunctionLit:
		return &Function{Name: x.Name, Params: x.Params, Body: x.Body, Env: env, Ctx: ctx}, nil
	case *UnaryExpr:
		return ctx.evalUnary(x, env)
	case *UpdateExpr:
		return ctx.evalUpdate(x, env)
	case *BinaryExpr:
		return ctx.evalBinary(x, env)
	case *AssignExpr:
		return ctx.evalAssign(x, env)
	case *CondExpr:
		cond, err := ctx.eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return ctx.eval(x.Then, env)
		}
		return ctx.eval(x.Else, env)
	case *CallExpr:
		return ctx.evalCall(x, env)
	case *NewExpr:
		return ctx.evalNew(x, env)
	case *MemberExpr:
		obj, err := ctx.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return ctx.getMember(obj, x.Name, x.Line, x.Col)
	case *IndexExpr:
		obj, err := ctx.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ctx.eval(x.Index, env)
		if err != nil {
			return nil, err
		}
		return ctx.getIndex(obj, idx, x.Line, x.Col)
	case *SequenceExpr:
		var last Value = Undefined{}
		for _, sub := range x.Exprs {
			v, err := ctx.eval(sub, env)
			if err != nil {
				return nil, err
			}
			last = v
		}
		return last, nil
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("unhandled expression type %T", e)}
	}
}

func (ctx *Context) evalUnary(x *UnaryExpr, env *Env) (Value, error) {
	if x.Op == "typeof" {
		// typeof on an undeclared identifier returns "undefined" rather than
		// raising an error.
		if id, ok := x.X.(*Ident); ok {
			if v, found := env.Get(id.Name); found {
				return String(TypeOf(v)), nil
			}
			return String("undefined"), nil
		}
	}
	if x.Op == "delete" {
		switch target := x.X.(type) {
		case *MemberExpr:
			obj, err := ctx.eval(target.X, env)
			if err != nil {
				return nil, err
			}
			if o, ok := obj.(*Object); ok {
				o.Delete(target.Name)
				return Bool(true), nil
			}
			return Bool(false), nil
		case *IndexExpr:
			obj, err := ctx.eval(target.X, env)
			if err != nil {
				return nil, err
			}
			idx, err := ctx.eval(target.Index, env)
			if err != nil {
				return nil, err
			}
			if o, ok := obj.(*Object); ok {
				o.Delete(ToString(idx))
				return Bool(true), nil
			}
			return Bool(false), nil
		default:
			return Bool(true), nil
		}
	}
	v, err := ctx.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "!":
		return Bool(!Truthy(v)), nil
	case "-":
		return Number(-ToNumber(v)), nil
	case "+":
		return Number(ToNumber(v)), nil
	case "~":
		return Number(float64(^int64(ToNumber(v)))), nil
	case "typeof":
		return String(TypeOf(v)), nil
	default:
		return nil, &RuntimeError{Msg: "unknown unary operator " + x.Op, Line: x.Line, Col: x.Col}
	}
}

func (ctx *Context) evalUpdate(x *UpdateExpr, env *Env) (Value, error) {
	old, err := ctx.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	n := ToNumber(old)
	var nv float64
	if x.Op == "++" {
		nv = n + 1
	} else {
		nv = n - 1
	}
	if err := ctx.assignTo(x.X, Number(nv), env); err != nil {
		return nil, err
	}
	if x.Prefix {
		return Number(nv), nil
	}
	return Number(n), nil
}

func (ctx *Context) evalBinary(x *BinaryExpr, env *Env) (Value, error) {
	// Short-circuit logical operators.
	if x.Op == "&&" || x.Op == "||" {
		left, err := ctx.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "&&" {
			if !Truthy(left) {
				return left, nil
			}
		} else {
			if Truthy(left) {
				return left, nil
			}
		}
		return ctx.eval(x.Y, env)
	}
	left, err := ctx.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	right, err := ctx.eval(x.Y, env)
	if err != nil {
		return nil, err
	}
	return ctx.applyBinary(x.Op, left, right, x.Line, x.Col)
}

func (ctx *Context) applyBinary(op string, left, right Value, line, col int) (Value, error) {
	switch op {
	case "+":
		// String concatenation when either operand is a string or byte
		// array, otherwise numeric addition.
		if left.Kind() == KindString || right.Kind() == KindString ||
			left.Kind() == KindByteArray || right.Kind() == KindByteArray ||
			left.Kind() == KindObject || right.Kind() == KindObject ||
			left.Kind() == KindArray || right.Kind() == KindArray {
			s := ToString(left) + ToString(right)
			if err := ctx.chargeHeap(len(s)); err != nil {
				return nil, err
			}
			return String(s), nil
		}
		return Number(ToNumber(left) + ToNumber(right)), nil
	case "-":
		return Number(ToNumber(left) - ToNumber(right)), nil
	case "*":
		return Number(ToNumber(left) * ToNumber(right)), nil
	case "/":
		return Number(ToNumber(left) / ToNumber(right)), nil
	case "%":
		return Number(math.Mod(ToNumber(left), ToNumber(right))), nil
	case "==":
		return Bool(LooseEquals(left, right)), nil
	case "!=":
		return Bool(!LooseEquals(left, right)), nil
	case "===":
		return Bool(StrictEquals(left, right)), nil
	case "!==":
		return Bool(!StrictEquals(left, right)), nil
	case "<", ">", "<=", ">=":
		return compareValues(op, left, right), nil
	case "&":
		return Number(float64(int64(ToNumber(left)) & int64(ToNumber(right)))), nil
	case "|":
		return Number(float64(int64(ToNumber(left)) | int64(ToNumber(right)))), nil
	case "^":
		return Number(float64(int64(ToNumber(left)) ^ int64(ToNumber(right)))), nil
	case "<<":
		return Number(float64(int64(ToNumber(left)) << (uint64(ToNumber(right)) & 31))), nil
	case ">>":
		return Number(float64(int64(ToNumber(left)) >> (uint64(ToNumber(right)) & 31))), nil
	case ">>>":
		return Number(float64(uint32(int64(ToNumber(left))) >> (uint64(ToNumber(right)) & 31))), nil
	case "in":
		if o, ok := right.(*Object); ok {
			_, exists := o.Get(ToString(left))
			return Bool(exists), nil
		}
		if a, ok := right.(*Array); ok {
			idx := ToInt(left)
			return Bool(idx >= 0 && idx < len(a.Elems)), nil
		}
		return Bool(false), nil
	case "instanceof":
		// NKScript has no prototype chains; instanceof compares the
		// ClassName label set by native constructors.
		if o, ok := left.(*Object); ok {
			if n, ok := right.(*Native); ok {
				return Bool(o.ClassName == n.Name), nil
			}
		}
		return Bool(false), nil
	default:
		return nil, &RuntimeError{Msg: "unknown binary operator " + op, Line: line, Col: col}
	}
}

func compareValues(op string, left, right Value) Value {
	// String-to-string comparisons are lexicographic; anything else numeric.
	if left.Kind() == KindString && right.Kind() == KindString {
		a, b := string(left.(String)), string(right.(String))
		switch op {
		case "<":
			return Bool(a < b)
		case ">":
			return Bool(a > b)
		case "<=":
			return Bool(a <= b)
		case ">=":
			return Bool(a >= b)
		}
	}
	a, b := ToNumber(left), ToNumber(right)
	if math.IsNaN(a) || math.IsNaN(b) {
		return Bool(false)
	}
	switch op {
	case "<":
		return Bool(a < b)
	case ">":
		return Bool(a > b)
	case "<=":
		return Bool(a <= b)
	case ">=":
		return Bool(a >= b)
	}
	return Bool(false)
}

func (ctx *Context) evalAssign(x *AssignExpr, env *Env) (Value, error) {
	right, err := ctx.eval(x.Y, env)
	if err != nil {
		return nil, err
	}
	if x.Op != "=" {
		left, err := ctx.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		op := strings.TrimSuffix(x.Op, "=")
		right, err = ctx.applyBinary(op, left, right, x.Line, x.Col)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.assignTo(x.X, right, env); err != nil {
		return nil, err
	}
	return right, nil
}

func (ctx *Context) assignTo(target Expr, v Value, env *Env) error {
	switch t := target.(type) {
	case *Ident:
		env.Set(t.Name, v)
		return nil
	case *MemberExpr:
		obj, err := ctx.eval(t.X, env)
		if err != nil {
			return err
		}
		return ctx.setMember(obj, t.Name, v, t.Line, t.Col)
	case *IndexExpr:
		obj, err := ctx.eval(t.X, env)
		if err != nil {
			return err
		}
		idx, err := ctx.eval(t.Index, env)
		if err != nil {
			return err
		}
		return ctx.setIndex(obj, idx, v, t.Line, t.Col)
	default:
		return &RuntimeError{Msg: "invalid assignment target"}
	}
}

func (ctx *Context) evalCall(x *CallExpr, env *Env) (Value, error) {
	// Method calls bind this to the receiver.
	var this Value = Undefined{}
	var fn Value
	var err error
	switch callee := x.Fn.(type) {
	case *MemberExpr:
		recv, err := ctx.eval(callee.X, env)
		if err != nil {
			return nil, err
		}
		this = recv
		fn, err = ctx.getMember(recv, callee.Name, callee.Line, callee.Col)
		if err != nil {
			return nil, err
		}
	case *IndexExpr:
		recv, err := ctx.eval(callee.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ctx.eval(callee.Index, env)
		if err != nil {
			return nil, err
		}
		this = recv
		fn, err = ctx.getIndex(recv, idx, callee.Line, callee.Col)
		if err != nil {
			return nil, err
		}
	default:
		fn, err = ctx.eval(x.Fn, env)
		if err != nil {
			return nil, err
		}
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ctx.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ctx.callValue(fn, this, args, x.Line, x.Col)
}

func (ctx *Context) evalNew(x *NewExpr, env *Env) (Value, error) {
	fn, err := ctx.eval(x.Fn, env)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ctx.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch f := fn.(type) {
	case *Native:
		if f.Construct != nil {
			return f.Construct(ctx, Undefined{}, args)
		}
		obj := NewObject()
		obj.ClassName = f.Name
		ret, err := f.Fn(ctx, obj, args)
		if err != nil {
			return nil, err
		}
		if IsNullish(ret) {
			return obj, nil
		}
		return ret, nil
	case *Function:
		obj := NewObject()
		obj.ClassName = f.Name
		ret, err := ctx.callValue(f, obj, args, x.Line, x.Col)
		if err != nil {
			return nil, err
		}
		if !IsNullish(ret) && (ret.Kind() == KindObject || ret.Kind() == KindArray) {
			return ret, nil
		}
		return obj, nil
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not a constructor", ToString(fn)), Line: x.Line, Col: x.Col}
	}
}

// ---------------------------------------------------------------------------
// Property access
// ---------------------------------------------------------------------------

func (ctx *Context) getMember(obj Value, name string, line, col int) (Value, error) {
	switch o := obj.(type) {
	case *Object:
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		return Undefined{}, nil
	case *Array:
		if name == "length" {
			return Number(float64(len(o.Elems))), nil
		}
		if m := arrayMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case String:
		if name == "length" {
			return Number(float64(len(o))), nil
		}
		if m := stringMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case *ByteArray:
		if name == "length" {
			return Number(float64(len(o.Data))), nil
		}
		if m := byteArrayMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case Number:
		if m := numberMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case Undefined, Null:
		return nil, &RuntimeError{Msg: fmt.Sprintf("cannot read property %q of %s", name, ToString(obj)), Line: line, Col: col}
	default:
		return Undefined{}, nil
	}
}

func (ctx *Context) setMember(obj Value, name string, v Value, line, col int) error {
	switch o := obj.(type) {
	case *Object:
		if err := ctx.chargeHeap(16 + len(name)); err != nil {
			return err
		}
		o.Set(name, v)
		return nil
	case *Array:
		if name == "length" {
			n := ToInt(v)
			if n < 0 {
				n = 0
			}
			if n < len(o.Elems) {
				o.Elems = o.Elems[:n]
			} else {
				for len(o.Elems) < n {
					o.Elems = append(o.Elems, Undefined{})
				}
			}
			return nil
		}
		return &RuntimeError{Msg: fmt.Sprintf("cannot set property %q on array", name), Line: line, Col: col}
	case Undefined, Null:
		return &RuntimeError{Msg: fmt.Sprintf("cannot set property %q of %s", name, ToString(obj)), Line: line, Col: col}
	default:
		return &RuntimeError{Msg: fmt.Sprintf("cannot set property %q on %s", name, TypeOf(obj)), Line: line, Col: col}
	}
}

func (ctx *Context) getIndex(obj, idx Value, line, col int) (Value, error) {
	switch o := obj.(type) {
	case *Array:
		if idx.Kind() == KindNumber || idx.Kind() == KindString && isNumericString(string(idx.(String))) {
			i := ToInt(idx)
			if i < 0 || i >= len(o.Elems) {
				return Undefined{}, nil
			}
			return o.Elems[i], nil
		}
		return ctx.getMember(obj, ToString(idx), line, col)
	case *ByteArray:
		if idx.Kind() == KindNumber {
			i := ToInt(idx)
			if i < 0 || i >= len(o.Data) {
				return Undefined{}, nil
			}
			return Number(float64(o.Data[i])), nil
		}
		return ctx.getMember(obj, ToString(idx), line, col)
	case String:
		if idx.Kind() == KindNumber {
			i := ToInt(idx)
			if i < 0 || i >= len(o) {
				return Undefined{}, nil
			}
			return String(string(o[i])), nil
		}
		return ctx.getMember(obj, ToString(idx), line, col)
	case *Object:
		return ctx.getMember(obj, ToString(idx), line, col)
	case Undefined, Null:
		return nil, &RuntimeError{Msg: fmt.Sprintf("cannot read index of %s", ToString(obj)), Line: line, Col: col}
	default:
		return Undefined{}, nil
	}
}

func (ctx *Context) setIndex(obj, idx, v Value, line, col int) error {
	switch o := obj.(type) {
	case *Array:
		i := ToInt(idx)
		if i < 0 {
			return &RuntimeError{Msg: "negative array index", Line: line, Col: col}
		}
		if err := ctx.chargeHeap(16); err != nil {
			return err
		}
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, Undefined{})
		}
		o.Elems[i] = v
		return nil
	case *ByteArray:
		i := ToInt(idx)
		if i < 0 || i >= len(o.Data) {
			return &RuntimeError{Msg: "byte array index out of range", Line: line, Col: col}
		}
		o.Data[i] = byte(ToInt(v))
		return nil
	case *Object:
		return ctx.setMember(obj, ToString(idx), v, line, col)
	default:
		return &RuntimeError{Msg: fmt.Sprintf("cannot set index on %s", TypeOf(obj)), Line: line, Col: col}
	}
}

func isNumericString(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ThrowString raises a script-level string exception from native code;
// vocabularies use it to signal errors scripts can catch.
func ThrowString(msg string) error { return throwSignal{value: String(msg)} }
