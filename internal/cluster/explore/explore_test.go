package explore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// threeAndSeven fails a table of ints that holds both a 3 and a 7.
func threeAndSeven(ops []int) string {
	var three, seven bool
	for _, op := range ops {
		three, seven = three || op == 3, seven || op == 7
	}
	if three && seven {
		return "a 3 and a 7"
	}
	return ""
}

func TestShrinkKeepsOnlyWhatFails(t *testing.T) {
	if got := fmt.Sprint(Shrink([]int{1, 7, 2, 3, 7, 3, 9}, threeAndSeven)); got != "[7 3]" {
		t.Fatalf("Shrink = %s, want [7 3]", got)
	}
}

// fatalTB records Run's failure; its Fatalf ends the goroutine, as testing's does.
type fatalTB struct {
	testing.TB
	fatal string
}

func (f *fatalTB) Helper()                   {}
func (f *fatalTB) Logf(string, ...any)       {}
func (f *fatalTB) Fatalf(s string, a ...any) { f.fatal = fmt.Sprintf(s, a...); runtime.Goexit() }

// TestRunPrintsTheShrunkLiteral: Run seeds each table by its own seed,
// shifted by NAKIKA_SEED_OFFSET, stops at the first failing one, and
// prints it shrunk, as a literal, beside the replay test's name.
func TestRunPrintsTheShrunkLiteral(t *testing.T) {
	t.Setenv("NAKIKA_SEED_OFFSET", "5")
	var draws []int64
	tb := &fatalTB{}
	p := Property[int]{
		Seed: 100, Runs: 3,
		Gen: func(rnd *rand.Rand) []int {
			if draws = append(draws, rnd.Int63()); len(draws) == 1 {
				return []int{1, 2}
			}
			return []int{7, 1, 3, 3}
		},
		Check: threeAndSeven, Type: "int", Print: func(op int) string { return fmt.Sprint(op) },
		Replay: "TestIntsReplay",
	}
	done := make(chan struct{})
	go func() { defer close(done); p.Run(tb) }()
	<-done
	if len(draws) != 2 || draws[1] != rand.New(rand.NewSource(106)).Int63() {
		t.Errorf("Run drew %v, want two tables, the second from seed 106", draws)
	}
	want := "seed 106 failed: a 3 and a 7\nminimal failing table (replay via TestIntsReplay):\n[]int{\n\t7,\n\t3,\n}"
	if tb.fatal != want {
		t.Errorf("Run reported\n%s\nwant\n%s", tb.fatal, want)
	}
}
