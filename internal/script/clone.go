package script

// Context forking: a cheap post-evaluation snapshot of a context so that the
// pipeline can keep a pool of ready-to-run contexts per stage instead of a
// single mutex-guarded one. A fork deep-clones the script-visible heap — the
// global environment graph together with every object, array, byte array,
// function, and captured lexical environment reachable from it — so that
// concurrent executions in the original and the fork share no mutable script
// state. The immutable pieces (parsed AST bodies, parameter name lists,
// native functions, and primitive values) are shared, which is what makes a
// fork far cheaper than re-parsing and re-evaluating the stage script.
//
// Native values are shared by reference: they are Go closures, and every
// vocabulary's host interface is documented to be safe for concurrent use.

// Fork returns an independent copy of the context with fresh consumption
// counters and a cleared termination flag. The context must be quiescent (no
// evaluation running in it) while it is forked; the pipeline forks only
// pristine post-compilation stage contexts, which satisfies this.
//
// roots are additional values to translate into the fork's heap — for
// example event-handler functions that the host extracted from the context
// and holds outside the global environment (policy objects in Na Kika). The
// translated values are returned in the same order; translating them through
// the same clone pass preserves identity: a handler that is also reachable
// from a global variable maps to the same forked function either way.
func (ctx *Context) Fork(roots ...Value) (*Context, []Value) {
	c := &cloner{
		dst:  &Context{limits: ctx.limits},
		envs: make(map[*Env]*Env),
		vals: make(map[Value]Value),
	}
	c.dst.Globals = c.cloneEnv(ctx.Globals)
	out := make([]Value, len(roots))
	for i, r := range roots {
		out[i] = c.cloneValue(r)
	}
	return c.dst, out
}

// cloner memoizes clones by source pointer so shared structure (and cycles)
// in the source heap stay shared (and cyclic) in the clone.
type cloner struct {
	dst  *Context
	envs map[*Env]*Env
	vals map[Value]Value
}

func (c *cloner) cloneEnv(e *Env) *Env {
	if e == nil {
		return nil
	}
	if dup, ok := c.envs[e]; ok {
		return dup
	}
	dup := &Env{}
	// Memoize before descending: closures routinely point back at the
	// environment that defines them.
	c.envs[e] = dup
	dup.parent = c.cloneEnv(e.parent)
	dup.vars = e.vars.cloneWith(c.cloneValue)
	return dup
}

func (c *cloner) cloneValue(v Value) Value {
	switch t := v.(type) {
	case nil:
		return nil
	case Undefined, Null, Bool, Number, String:
		return v
	case *Native:
		return v
	case *ByteArray:
		if dup, ok := c.vals[v]; ok {
			return dup
		}
		dup := &ByteArray{Data: append([]byte(nil), t.Data...)}
		c.vals[v] = dup
		return dup
	case *Array:
		if dup, ok := c.vals[v]; ok {
			return dup
		}
		dup := &Array{Elems: make([]Value, len(t.Elems))}
		c.vals[v] = dup
		for i, e := range t.Elems {
			dup.Elems[i] = c.cloneValue(e)
		}
		return dup
	case *Object:
		if dup, ok := c.vals[v]; ok {
			return dup
		}
		dup := &Object{ClassName: t.ClassName}
		c.vals[v] = dup
		dup.props = t.props.cloneWith(c.cloneValue)
		return dup
	case *Function:
		if dup, ok := c.vals[v]; ok {
			return dup
		}
		dup := &Function{Lit: t.Lit, Ctx: c.dst}
		c.vals[v] = dup
		dup.Env = c.cloneEnv(t.Env)
		return dup
	default:
		return v
	}
}
