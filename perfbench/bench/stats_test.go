package bench

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3.0, 4.5},
		{[]float64{3.1, 0.5, 7.25, 2.0}, 0.875, 2.55, 6.2125},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, ok := Quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported as defined")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// (8.25 − 2.75) / 5.5 = 1.
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: Tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
		ok   bool
	}{
		{39, 0, 0, false},  // p75 would leave 9 beyond
		{40, 75, 30, true}, // 10 beyond
		{199, 90, 180, true},
		{200, 95, 190, true},
		{999, 95, 950, true},
		{1000, 99, 990, true},
		{9999, 99, 9900, true},
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := Tail(seq(c.n))
		if ok != c.ok || pct != c.pct || v != c.want {
			t.Errorf("Tail of %d samples = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.want, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("%d samples: only %d beyond p%v", c.n, beyond, pct)
			}
		}
	}
}

var allocSink [][]byte

func TestAllocTallyChargesOperationsExactly(t *testing.T) {
	const ops, size = 50, 64 << 10
	m := NewAllocMeter()
	var tally AllocTally
	b0, o0 := m.Read()
	for i := 0; i < ops; i++ {
		allocSink = append(allocSink[:0], make([]byte, size))
	}
	b1, o1 := m.Read()
	tally.Add(b0, b1, ops)
	// Each operation allocates one 64 KiB buffer (a large object, sized
	// exactly); the sink's backing array is allocated once.
	if got := tally.BytesPerOp(); got < size || got > size+64 {
		t.Errorf("bytes per op = %v, want %d (+ the sink's one-off array)", got, size)
	}
	// The runtime and the test harness allocate a few small objects of
	// their own while the loop runs.
	if objs := o1 - o0; objs < ops || objs > ops+32 {
		t.Errorf("objects = %d, want %d and a few", objs, ops)
	}
	if (AllocTally{}).BytesPerOp() != 0 {
		t.Error("empty tally charges bytes")
	}
}

func TestTracerSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, Start: 0, End: 100, N: 1},
		{Name: "child", Parent: 0, Start: 10, End: 40, N: 4},
		{Name: "child", Parent: 0, Start: 50, End: 70, N: 4},
		{Name: "grandchild", Parent: 2, Start: 55, End: 60, N: 1},
	}
	st := Aggregate(spans)
	if op := st["op"]; op.TotalNS != 100 || op.SelfNS != 50 {
		t.Errorf("op total %d self %d, want 100 and 50", op.TotalNS, op.SelfNS)
	}
	if c := st["child"]; c.Calls != 2 || c.TotalNS != 50 || c.SelfNS != 45 || c.NSPerUnit() != 50.0/8 {
		t.Errorf("child %+v", c)
	}

	tr := NewTracer(false)
	if id := tr.Begin("x"); id != -1 || len(tr.Spans()) != 0 {
		t.Fatal("disabled tracer recorded a span")
	}
	tr.SetOn(true)
	tr.NextOp()
	outer := tr.Begin("outer")
	inner := tr.BeginAlloc("inner")
	allocSink = append(allocSink[:0], make([]byte, 1<<20))
	tr.End(inner, 7)
	tr.End(outer, 0)
	got := tr.Spans()
	if len(got) != 2 || got[1].Parent != outer || got[0].Parent != -1 || got[1].N != 7 || got[0].N != 1 {
		t.Fatalf("spans %+v", got)
	}
	if got[1].Bytes < 1<<20 || got[0].Op != got[1].Op {
		t.Errorf("inner span charged %d bytes, op ids %d %d", got[1].Bytes, got[0].Op, got[1].Op)
	}
	if got[0].Start > got[1].Start || got[0].End < got[1].End {
		t.Errorf("outer span does not enclose inner: %+v", got)
	}
}

func TestRateCountsEveryOperation(t *testing.T) {
	lat := make([]float64, 40)
	for i := range lat {
		lat[i] = 0.001
	}
	if r := Rate(lat); math.Abs(r-1000) > 1e-9 {
		t.Errorf("rate %v, want 1000", r)
	}
	// One slow operation in forty leaves the median alone but must lower
	// the rate.
	lat[3] = 0.050
	if r := Rate(lat); math.Abs(r-40/0.089) > 1e-9 {
		t.Errorf("rate with one slow operation %v, want %v", r, 40/0.089)
	}
	if Median(lat) != 0.001 {
		t.Errorf("median %v, want 0.001", Median(lat))
	}
	if !math.IsNaN(Rate(nil)) {
		t.Error("rate of no operations is a number")
	}
}

func TestProcessCPUCountsWork(t *testing.T) {
	c0, t0 := ProcessCPU(), time.Now()
	x := 1.0
	for time.Since(t0) < 30*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	calibSink = x
	dc, wall := ProcessCPU()-c0, time.Since(t0).Seconds()
	if !(dc > 0) || dc > wall*float64(runtime.NumCPU())+0.01 {
		t.Errorf("%.4f CPU seconds over %.4f s of wall time", dc, wall)
	}
}
