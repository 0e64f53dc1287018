// Command ffbench is the repository's benchmark. It drives the program's
// public APIs from one process with one caller in a closed loop (the
// next operation starts when the previous one returned), on one of four
// seeded workloads, checks every output against computations made apart
// from the program, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady -n 10
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every layer call instead and reports the per-layer metrics.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fastforward/perfbench/bench"
)

// workload is one seeded input sequence. A round is size() operations
// in a fixed order; a run repeats whole rounds.
type workload interface {
	size() int
	// op is the timed operation i of the round.
	op(i int, tr *bench.Tracer) error
	// replay re-runs, on equivalent inputs and under their own spans,
	// the layer calls op made inside one program call (traced runs only).
	replay(i int, tr *bench.Tracer) error
	// check verifies operation i's outputs; it runs untimed after op.
	check(i int, tr *bench.Tracer) error
	// finish runs the checks that need a whole round.
	finish() error
	close() error
}

// newWorkload builds a workload from its seed: the program's objects,
// the seeded inputs and reference data, and an untimed warm-up
// operation. traced also builds what the traced run times besides.
type newWorkload func(seed int64, traced bool) (workload, error)

var workloads = map[string]newWorkload{
	"sim":    newSim,
	"cancel": newCancel,
	"stream": newStream,
	"churn":  newChurn,
}

// setups is how many times an untraced run builds its workload.
const setups = 15

// relCPU is how an untraced run interleaves its yardstick: passes take
// 15% of the operations' CPU time, and the ratio is taken over windows
// of at least one second of whole rounds.
func newRelCPU() *bench.RelCPU { return &bench.RelCPU{Share: 0.15, Window: 1} }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("ffbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sim, cancel, stream or churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long to measure; whole rounds are run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "ffbench: need --workload sim|cancel|stream|churn, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// One P: the caller, the in-process daemon and the garbage collector
	// take turns on one thread at a time. With more, idle Ps run idle GC
	// mark workers and spin looking for goroutines to run, CPU time that
	// depends on the host's timing rather than on the program's work.
	runtime.GOMAXPROCS(1)
	host := bench.StartHost()
	var res result
	var err error
	if *traceFlag == 0 {
		res, err = runEndToEnd(mk, yardsticks[*name], *seed, *seconds)
	} else {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		}
		res, err = runTraced(*name, *seed, *seconds, path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %v\n", err)
		return 1
	}
	hj, _ := json.Marshal(host.Finish())
	fmt.Printf("host %s\n", hj)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// loop is the outcome of running rounds of one workload.
type loop struct {
	attempted, failed int
	lat               []float64 // seconds, completed operations of untraced runs
	cpu               float64   // process CPU seconds used inside those operations
	allocs            bench.AllocTally
	rel               *bench.RelCPU // untraced runs: operations against yardstick passes
	// Traced runs: the time of each operation's whole work (operation,
	// replay and checks) with spans recorded, and with spans off.
	tracedWork, plainWork []float64
	checkErr              error
	setupErr              error // from the set-up builds made between rounds
}

func (l *loop) fail(err error) {
	if l.checkErr == nil {
		l.checkErr = err
	}
}

// runRounds runs whole rounds until seconds have passed.
//
// Untraced (traced false), only the operation is timed, the process CPU
// time is read around it, and heap allocations are read around each
// round. The checks that run between operations allocate nothing
// (churn's post-release QUERY excepted, see README.md), so the
// allocations are the operations' own. between, when set, runs after
// each round, outside the allocation readings, with the share of the run
// that has passed. stick, when set, is passed after operations whenever
// l.rel finds it due; its CPU time is read around each pass and its
// allocations are left out of the operations'.
//
// Traced, each operation is followed by its replay and its checks, and
// all three are timed together. Every other operation records its
// spans, shifted by one each round, and the run ends after an even
// number of rounds: each operation's work is then timed as often with
// spans as without, under the same host conditions, and the two times
// give the tracing overhead.
func runRounds(w workload, seconds float64, tr *bench.Tracer, traced bool, between func(frac float64) error, stick yardstick) loop {
	l := loop{rel: newRelCPU()}
	meter := bench.NewAllocMeter()
	start := time.Now()
	for round := 0; ; round++ {
		lat := make([]float64, 0, w.size())
		var b0, passBytes uint64
		if !traced {
			b0, _ = meter.Read()
		}
		for i := 0; i < w.size(); i++ {
			on := traced && (round+i)%2 == 1
			tr.SetOn(on)
			tr.NextOp()
			c0 := bench.ProcessCPU()
			t0 := time.Now()
			err := w.op(i, tr)
			dt := time.Since(t0).Seconds()
			dc := bench.ProcessCPU() - c0
			l.attempted++
			if err != nil {
				l.failed++
				fmt.Fprintf(os.Stderr, "ffbench: operation failed: %v\n", err)
				continue
			}
			if traced {
				if rerr := w.replay(i, tr); rerr != nil {
					l.fail(rerr)
				}
			} else {
				lat = append(lat, dt)
				l.cpu += dc
			}
			if cerr := w.check(i, tr); cerr != nil {
				l.fail(cerr)
			}
			if !traced && stick != nil {
				l.rel.Op(dc)
				if l.rel.Due() {
					p0, _ := meter.Read()
					for stick != nil && l.rel.Due() {
						c0 := bench.ProcessCPU()
						perr := stick.pass()
						l.rel.Pass(bench.ProcessCPU() - c0)
						if perr != nil {
							l.fail(perr)
							stick = nil
						}
					}
					p1, _ := meter.Read()
					passBytes += p1 - p0
				}
			}
			switch {
			case on:
				l.tracedWork = append(l.tracedWork, time.Since(t0).Seconds())
			case traced:
				l.plainWork = append(l.plainWork, time.Since(t0).Seconds())
			}
		}
		if !traced {
			b1, _ := meter.Read()
			l.allocs.Add(b0, b1-passBytes, len(lat))
			l.rel.EndRound(time.Since(start).Seconds())
		}
		l.lat = append(l.lat, lat...)
		if between != nil {
			if l.setupErr = between(time.Since(start).Seconds() / seconds); l.setupErr != nil {
				break
			}
		}
		if time.Since(start).Seconds() >= seconds && (!traced || round%2 == 1) {
			break
		}
	}
	tr.SetOn(false)
	if err := w.finish(); err != nil {
		l.fail(err)
	}
	return l
}

// setupClock times the builds of a workload, in wall and process CPU
// time; setup_s is derived from the median of setups builds. The first
// build is the one the run measures. The others are spread over the run,
// between rounds, so that a burst of host steal slows a few of them
// rather than all.
type setupClock struct {
	mk    newWorkload
	seed  int64
	times []float64
	cpu   []float64
}

func (c *setupClock) build() (workload, error) {
	c0 := bench.ProcessCPU()
	t0 := time.Now()
	w, err := c.mk(c.seed, false)
	c.times = append(c.times, time.Since(t0).Seconds())
	c.cpu = append(c.cpu, bench.ProcessCPU()-c0)
	return w, err
}

// catchUp builds and closes copies of the workload until the builds due
// once the share frac of the run has passed are made.
func (c *setupClock) catchUp(frac float64) error {
	for len(c.times) < 1+int(float64(setups-1)*math.Min(frac, 1)) {
		w, err := c.build()
		if err != nil {
			return err
		}
		if err := w.close(); err != nil {
			return err
		}
	}
	return nil
}

// runEndToEnd makes an untraced run. setup_s is the median CPU time of
// a build scaled by the yardstick: multiplied by the pass's nominal CPU
// time over its mean over the run, so it reads the set-up's CPU seconds
// at the quiet host's speed, as rel_cpu_per_op reads an operation's work
// in passes.
func runEndToEnd(mk newWorkload, ys stickSpec, seed int64, seconds float64) (result, error) {
	sc := &setupClock{mk: mk, seed: seed}
	w, err := sc.build()
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	stick, err := ys.make()
	if err != nil {
		w.close()
		return result{}, err
	}
	// Warm-up pass, so lazily made state is not charged to the first.
	if err := stick.pass(); err != nil {
		w.close()
		stick.close()
		return result{}, err
	}
	l := runRounds(w, seconds, bench.NewTracer(false), false, sc.catchUp, stick)
	if err := w.close(); err != nil {
		l.fail(err)
	}
	if err := stick.close(); err != nil {
		l.fail(fmt.Errorf("yardstick: %w", err))
	}
	if l.setupErr == nil {
		l.setupErr = sc.catchUp(1)
	}
	if l.setupErr != nil {
		return result{}, fmt.Errorf("setup: %w", l.setupErr)
	}
	ratio, windows := l.rel.Ratio()
	passCPU, passes := l.rel.PassCPU()
	if windows == 0 || !(ratio > 0) || !(passCPU > 0) {
		return result{}, fmt.Errorf("no yardstick ratio: %d windows, %d passes", windows, passes)
	}
	res := result{Correct: l.checkErr == nil, Attempted: l.attempted, Failed: l.failed,
		Metrics: map[string]metric{
			"setup_s":        {bench.Median(sc.cpu) * ys.nominal / passCPU, "s"},
			"rel_cpu_per_op": {ratio, "ratio"},
		}}
	if l.checkErr != nil {
		fmt.Fprintf(os.Stderr, "ffbench: check failed: %v\n", l.checkErr)
	}
	// Process CPU, the unscaled set-up times and the wall-clock figures
	// are printed, not gated: on shared VMs, host load moves them by tens
	// of percent between runs (README.md), beyond the bounds a regression
	// gate can use.
	fmt.Printf("cpu cpu_us_per_op %.3f, yardstick pass %.3f us: %d passes, %d windows; setup %.6f s CPU, %.6f s wall (medians of %d)\n",
		l.cpu/float64(len(l.lat))*1e6, passCPU*1e6, passes, windows, bench.Median(sc.cpu), bench.Median(sc.times), len(sc.times))
	fmt.Printf("wall latency_p50_us %.3f, ops_per_s %.3f: %d operations over %.3f s inside them\n",
		bench.Median(l.lat)*1e6, bench.Rate(l.lat), len(l.lat), float64(len(l.lat))/bench.Rate(l.lat))
	if pct, v, ok := bench.Tail(l.lat); ok {
		fmt.Printf("tail latency_tail_us %.3f: p%g of %d samples\n", v*1e6, pct, len(l.lat))
	} else {
		fmt.Printf("tail omitted: %d samples, fewer than 40\n", len(l.lat))
	}
	res.Metrics["alloc_bytes_per_op"] = metric{l.allocs.BytesPerOp(), "B"}
	return res, nil
}

// coverOps is how many operations of each other workload a traced run
// also traces, so that every run reports every layer.
var coverOps = map[string]int{"sim": 16, "cancel": 1, "stream": 32, "churn": 24}

// runTraced runs the named workload with every other operation traced
// (the rates of its work with and without spans give the tracing
// overhead), then traces a short pass of every other workload, and
// derives the per-layer metrics from all spans.
func runTraced(name string, seed int64, seconds float64, spansPath string) (result, error) {
	tr := bench.NewTracer(false)
	w, err := workloads[name](seed, true)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	l := runRounds(w, seconds, tr, true, nil, nil)
	if err := w.close(); err != nil {
		l.fail(err)
	}
	others := make([]string, 0, len(workloads))
	for n := range workloads {
		if n != name {
			others = append(others, n)
		}
	}
	sort.Strings(others)
	for _, n := range others {
		if err := cover(n, seed, tr, &l); err != nil {
			return result{}, err
		}
	}
	if l.checkErr != nil {
		fmt.Fprintf(os.Stderr, "ffbench: check failed: %v\n", l.checkErr)
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return result{}, err
	}
	f, err := os.Create(spansPath)
	if err != nil {
		return result{}, err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.Spans()), spansPath)
	ms, err := layerMetrics(bench.Aggregate(tr.Spans()))
	if err != nil {
		return result{}, err
	}
	if len(l.tracedWork) > 0 && len(l.plainWork) > 0 {
		ms["trace.overhead_ratio"] = metric{bench.Rate(l.plainWork) / bench.Rate(l.tracedWork), "ratio"}
	}
	return result{Correct: l.checkErr == nil, Attempted: l.attempted, Failed: l.failed, Metrics: ms}, nil
}

// cover traces the first coverOps operations of workload n.
func cover(n string, seed int64, tr *bench.Tracer, l *loop) error {
	w, err := workloads[n](seed, true)
	if err != nil {
		return fmt.Errorf("setup %s: %w", n, err)
	}
	tr.SetOn(true)
	for i := 0; i < coverOps[n] && i < w.size(); i++ {
		tr.NextOp()
		if err := w.op(i, tr); err != nil {
			l.fail(fmt.Errorf("%s: %w", n, err))
			continue
		}
		if err := w.replay(i, tr); err != nil {
			l.fail(err)
		}
		if err := w.check(i, tr); err != nil {
			l.fail(err)
		}
	}
	tr.SetOn(false)
	return w.close()
}
