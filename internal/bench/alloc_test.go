package bench

import "testing"

// TestWarmProxyHitAllocBudget pins the warm proxy path's allocation count
// as a test, not just a gated benchmark: the pooled hot path's claim is a
// ≥50% reduction from the 32 allocs/op the path cost before request
// staging, trace buffers, and header cloning were pooled/flattened, so
// the budget is half that. Measured: 14 allocs/op.
func TestWarmProxyHitAllocBudget(t *testing.T) {
	node, err := NewConcurrentNode(ConfigProxy)
	if err != nil {
		t.Fatal(err)
	}
	oneOp := func() {
		req := ConcurrentRequest()
		resp, trace, err := node.Handle(req)
		if err != nil {
			t.Fatalf("warm hit: %v", err)
		}
		if resp.Status != 200 {
			t.Fatalf("warm hit status %d", resp.Status)
		}
		if trace != nil && !trace.RanHandlers() {
			req.Release()
		}
	}
	// Fill the request/frame pools past their cold start before counting.
	for i := 0; i < 256; i++ {
		oneOp()
	}
	allocs := testing.AllocsPerRun(500, oneOp)
	if allocs > 16 {
		t.Errorf("warm proxy hit costs %.1f allocs/op, budget is 16 (half the pre-pooling 32)", allocs)
	}
}
