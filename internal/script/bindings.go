package script

import "slices"

// indexAfter is how many bindings a scope or object holds before it keeps
// a name→position index beside them. Up to it a lookup is a linear scan of
// the names, which beats hashing at the sizes almost every scope and object
// has (a call frame, an XML node, a Request); past it, an object used as a
// big dictionary keeps O(1) access.
const indexAfter = 16

// binding is one name bound to a value.
type binding struct {
	name  string
	value Value
}

// bindings is the storage of an Object's properties and an Env's
// variables: the bindings in first-insertion order, which is for-in and
// Keys order, plus an index once there are more than indexAfter of them.
type bindings struct {
	list  []binding
	index map[string]int
}

// find returns the position of name, or -1.
func (b *bindings) find(name string) int {
	if b.index != nil {
		if i, ok := b.index[name]; ok {
			return i
		}
		return -1
	}
	for i := range b.list {
		if b.list[i].name == name {
			return i
		}
	}
	return -1
}

func (b *bindings) get(name string) (Value, bool) {
	if i := b.find(name); i >= 0 {
		return b.list[i].value, true
	}
	return nil, false
}

// set rebinds name where it is, or appends it.
func (b *bindings) set(name string, v Value) {
	if i := b.find(name); i >= 0 {
		b.list[i].value = v
		return
	}
	if b.list == nil {
		// An XML node, a policy or a small literal fits in the first
		// allocation instead of growing 1 → 2 → 4.
		b.list = make([]binding, 0, 4)
	}
	b.list = append(b.list, binding{name, v})
	switch {
	case b.index != nil:
		b.index[name] = len(b.list) - 1
	case len(b.list) > indexAfter:
		b.reindex()
	}
}

func (b *bindings) remove(name string) {
	i := b.find(name)
	if i < 0 {
		return
	}
	b.list = slices.Delete(b.list, i, i+1)
	b.index = nil
	if len(b.list) > indexAfter {
		b.reindex()
	}
}

func (b *bindings) reindex() {
	b.index = make(map[string]int, len(b.list))
	for i, e := range b.list {
		b.index[e.name] = i
	}
}

// names returns the bound names in order, in a slice of the caller's.
func (b *bindings) names() []string {
	out := make([]string, len(b.list))
	for i, e := range b.list {
		out[i] = e.name
	}
	return out
}

// cloneWith returns a copy of b, in storage of its own, with every value
// passed through f.
func (b *bindings) cloneWith(f func(Value) Value) bindings {
	out := bindings{list: make([]binding, len(b.list))}
	for i, e := range b.list {
		out.list[i] = binding{e.name, f(e.value)}
	}
	if b.index != nil {
		out.reindex()
	}
	return out
}
