// Package explore is the seeded, shrinkable exploration the property suites
// share: generate a table of ops from a seed, check it, shrink a failing
// table greedily to a minimal one, print that as a Go literal, and replay
// pinned literals as regression tests. It is test support: only tests import
// it, and it imports only the standard library.
package explore

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Seed returns base shifted by NAKIKA_SEED_OFFSET, so a soak run sweeps every
// seeded test over fresh seeds; untouched, every run uses the committed ones.
func Seed(base int64) int64 {
	if s := os.Getenv("NAKIKA_SEED_OFFSET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return base + v
		}
	}
	return base
}

// Shrink greedily deletes one op at a time while check still reports a
// failure, until no single op can go, and returns what is left.
func Shrink[Op any](ops []Op, check func([]Op) string) []Op {
	cur := append([]Op(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]Op(nil), cur[:i]...), cur[i+1:]...)
			if check(cand) != "" {
				cur, changed = cand, true
				i--
			}
		}
	}
	return cur
}

// Property is a seeded property over tables of Op. A table must be
// self-contained: dropping an op never changes what the others mean, which
// is what makes Shrink sound.
type Property[Op any] struct {
	Seed int64 // the first seed, before NAKIKA_SEED_OFFSET
	Runs int   // seeds Seed .. Seed+Runs-1
	// Gen draws one table from a source seeded afresh for each run.
	Gen func(*rand.Rand) []Op
	// Check plays a table and describes its first failure, or returns "".
	// It runs inside Shrink too, so it reports through its result alone; an
	// error no table can cause (a store on a MemFS failing) may panic.
	Check func([]Op) string
	// Type is the op type's name and Print one op as a Go composite literal:
	// a shrunk table prints as "[]Type{...}", ready to paste into Replay.
	Type  string
	Print func(Op) string
	// Replay names the test that holds the pinned tables.
	Replay string
}

// Run checks the property on every seed and fails t at the first failing
// table, printing it shrunk.
func (p Property[Op]) Run(t testing.TB) {
	t.Helper()
	first := Seed(p.Seed)
	t.Logf("seeds %d..%d", first, first+int64(p.Runs)-1)
	for seed := first; seed < first+int64(p.Runs); seed++ {
		ops := p.Gen(rand.New(rand.NewSource(seed)))
		if f := p.Check(ops); f != "" {
			t.Fatalf("seed %d failed: %s\nminimal failing table (replay via %s):\n%s",
				seed, f, p.Replay, p.literal(Shrink(ops, p.Check)))
		}
	}
}

func (p Property[Op]) literal(ops []Op) string {
	var sb strings.Builder
	sb.WriteString("[]" + p.Type + "{\n")
	for _, op := range ops {
		sb.WriteString("\t" + p.Print(op) + ",\n")
	}
	sb.WriteString("}")
	return sb.String()
}

// Replay runs check on each pinned table as a subtest of its name: the
// regression slot for every table a property's shrinker reports.
func Replay[Op any](t *testing.T, tables map[string][]Op, check func([]Op) string) {
	t.Helper()
	for name, ops := range tables {
		t.Run(name, func(t *testing.T) {
			if f := check(ops); f != "" {
				t.Fatalf("pinned table failed: %s", f)
			}
		})
	}
}
