package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// Span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span (-1 at the
// root) and Op the operation it belongs to. N counts the work units the
// call processed (samples, blocks, calls); Bytes and Objects are the heap
// allocations made inside the span when it was opened with BeginAlloc.
type Span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	N       int64  `json:"n"`
	Bytes   uint64 `json:"bytes,omitempty"`
	Objects uint64 `json:"objects,omitempty"`

	allocs           bool
	bytes0, objects0 uint64
}

// Duration is the span's wall time.
func (s Span) Duration() int64 { return s.End - s.Start }

// Tracer records spans in memory; they are written out once the run
// ends, so tracing does no I/O while operations are timed. A disabled
// tracer records nothing and its methods return at once, which is how
// untraced runs call the same code.
type Tracer struct {
	on    bool
	t0    time.Time
	op    int
	stack []int
	spans []Span
	meter *AllocMeter
}

// NewTracer returns a tracer; on=false gives the disabled tracer.
func NewTracer(on bool) *Tracer {
	return &Tracer{on: on, t0: time.Now(), meter: NewAllocMeter()}
}

// SetOn switches recording, so one run can alternate traced and
// untraced rounds of the same operations.
func (t *Tracer) SetOn(on bool) { t.on = on }

// NextOp starts a new operation: spans opened from now on carry its id.
func (t *Tracer) NextOp() { t.op++ }

// Begin opens a span nested in the innermost open span and returns its
// handle (-1 when disabled).
func (t *Tracer) Begin(name string) int {
	if !t.on {
		return -1
	}
	return t.open(name, false)
}

// BeginAlloc is Begin that also charges the span with the heap
// allocations made until it ends.
func (t *Tracer) BeginAlloc(name string) int {
	if !t.on {
		return -1
	}
	return t.open(name, true)
}

func (t *Tracer) open(name string, allocs bool) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	s := Span{Name: name, Op: t.op, Parent: parent, N: 1, allocs: allocs}
	if allocs {
		s.bytes0, s.objects0 = t.meter.Read()
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, recording n work units (n <= 0 keeps the default
// of one). Spans must end innermost first.
func (t *Tracer) End(id int, n int64) {
	if id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = end
	if n > 0 {
		s.N = n
	}
	if s.allocs {
		b, o := t.meter.Read()
		s.Bytes, s.Objects = b-s.bytes0, o-s.objects0
	}
	if k := len(t.stack); k > 0 && t.stack[k-1] == id {
		t.stack = t.stack[:k-1]
	}
}

// Spans returns the recorded spans in opening order.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LayerStat aggregates every span of one name.
type LayerStat struct {
	Calls   int
	TotalNS int64
	SelfNS  int64
	N       int64
	Bytes   uint64
	Objects uint64
}

// MeanNS is the mean span duration.
func (l LayerStat) MeanNS() float64 { return float64(l.TotalNS) / float64(l.Calls) }

// NSPerUnit is the total duration over the total work units.
func (l LayerStat) NSPerUnit() float64 { return float64(l.TotalNS) / float64(l.N) }

// Aggregate sums spans by name. A span's self time is its duration minus
// the part of it its direct children cover; children of one span never
// overlap (a single caller opens them in turn).
func Aggregate(spans []Span) map[string]LayerStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Duration()
		}
	}
	out := map[string]LayerStat{}
	for i, s := range spans {
		l := out[s.Name]
		l.Calls++
		l.TotalNS += s.Duration()
		l.SelfNS += s.Duration() - child[i]
		l.N += s.N
		l.Bytes += s.Bytes
		l.Objects += s.Objects
		out[s.Name] = l
	}
	return out
}
