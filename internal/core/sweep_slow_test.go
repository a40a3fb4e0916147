//go:build slowtest

package core

import "testing"

// TestKernelEquivalenceSweepFull is the make-sweep entry point: the full
// ≥500-instance bounded-vs-unbounded equivalence gate plus 100 block-heavy
// instances, seeded differently from the always-on reduced sweep so the
// two cover disjoint streams.
func TestKernelEquivalenceSweepFull(t *testing.T) {
	kernelEquivalenceSweep(t, 0x5eedf011, 500, randomSweepCase)
	if n := kernelEquivalenceSweep(t, 0xb10c5eed, 100, randomBlockSweepCase); n < 20 {
		t.Errorf("only %d of 100 block-heavy instances evaluated an insertion-aware incumbent path", n)
	}
}
