package bench

import (
	"math"
	"testing"
)

// TestRelCPUCancelsHostSpeed runs a fake loop whose operations cost 4
// passes each, on a host whose speed halves part-way through: the ratio
// stays 4 while the CPU time per operation doubles.
func TestRelCPUCancelsHostSpeed(t *testing.T) {
	r := &RelCPU{Share: 0.15, Window: 1}
	now, passes := 0.0, 0
	for round := 0; round < 40; round++ {
		slow := 1.0
		if round >= 20 {
			slow = 2
		}
		for i := 0; i < 10; i++ {
			r.Op(0.04 * slow)
			now += 0.04 * slow
			for r.Due() {
				r.Pass(0.01 * slow)
				now += 0.01 * slow
				passes++
			}
		}
		r.EndRound(now)
	}
	ratio, windows := r.Ratio()
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("ratio = %v, want 4", ratio)
	}
	if windows < 10 {
		t.Errorf("%d windows, want at least 10", windows)
	}
	mean, n := r.PassCPU()
	if n != passes || !(mean > 0.01 && mean < 0.02) {
		t.Errorf("PassCPU = %v over %d passes, want between 0.01 and 0.02 over %d", mean, n, passes)
	}
	// Passes keep to their share of the operations' CPU time.
	if share := r.passCPU / r.opCPU; share < 0.15 || share > 0.16 {
		t.Errorf("passes took %.4f of the operations' CPU, want 0.15", share)
	}
}

// TestRelCPUMedianIgnoresBurst slows the operations alone in one window
// of nine; the median ratio does not move.
func TestRelCPUMedianIgnoresBurst(t *testing.T) {
	r := &RelCPU{Share: 0.5, Window: 1}
	now := 0.0
	for round := 0; round < 9; round++ {
		op := 0.1
		if round == 4 {
			op = 0.3
		}
		for i := 0; i < 10; i++ {
			r.Op(op)
			now += op
			for r.Due() {
				r.Pass(0.05)
				now += 0.05
			}
		}
		r.EndRound(now)
	}
	if ratio, windows := r.Ratio(); windows != 9 || math.Abs(ratio-2) > 1e-9 {
		t.Errorf("ratio %v over %d windows, want 2 over 9", ratio, windows)
	}
}

// TestRelCPUShortRun reports the open window when no window closed, and
// nothing without passes.
func TestRelCPUShortRun(t *testing.T) {
	r := &RelCPU{Share: 1, Window: 10}
	if _, windows := r.Ratio(); windows != 0 {
		t.Errorf("empty run reports %d windows", windows)
	}
	r.Op(0.2)
	r.Pass(0.1)
	r.EndRound(0.3)
	if ratio, windows := r.Ratio(); windows != 1 || math.Abs(ratio-2) > 1e-12 {
		t.Errorf("short run: ratio %v over %d windows, want 2 over 1", ratio, windows)
	}
}
