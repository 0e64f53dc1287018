package bench

import "runtime"

// AllocMeter reads the process's cumulative heap allocation counters.
// It uses runtime.ReadMemStats, which stops the world and flushes every
// per-P cache, so a reading is exact; it costs tens of microseconds, so
// it brackets whole measured loops and traced spans, not each operation.
type AllocMeter struct {
	ms runtime.MemStats
}

// NewAllocMeter returns a meter.
func NewAllocMeter() *AllocMeter { return &AllocMeter{} }

// Read returns the cumulative bytes and objects allocated so far.
func (m *AllocMeter) Read() (bytes, objects uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.TotalAlloc, m.ms.Mallocs
}

// AllocTally accumulates heap bytes allocated over measured windows.
type AllocTally struct {
	Bytes uint64
	Ops   int
}

// Add charges ops operations with the difference of two byte readings
// taken around them.
func (t *AllocTally) Add(bytes0, bytes1 uint64, ops int) {
	t.Bytes += bytes1 - bytes0
	t.Ops += ops
}

// BytesPerOp is the mean heap bytes allocated per charged operation.
func (t AllocTally) BytesPerOp() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Bytes) / float64(t.Ops)
}
