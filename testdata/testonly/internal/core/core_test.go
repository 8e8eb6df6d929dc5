package core

import "testing"

func TestOnlyATestSetsTestOnly(t *testing.T) {
	if (Config{TestOnly: 1}).TestOnly != 1 {
		t.Fatal("unreachable")
	}
}
