package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"fastforward/internal/fleet"
	"fastforward/internal/obs"
	"fastforward/internal/relay"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
	"fastforward/perfbench/bench"
)

const (
	// churnRound is the number of distinct sessions one round opens.
	churnRound = 48
	// churnBlocks is the number of 256-sample blocks each session
	// verifies before it is released.
	churnBlocks = 4
)

// churnWorkload opens short sessions through fleet.WireEndpoint against
// one in-process daemon: one operation is Admit (dial, HELLO, ACCEPT),
// VerifySession over a few blocks, ResidualLoad (QUERY/INFO) and Release
// (DONE/STATS). At most two connections are open: the session and the
// endpoint's control connection.
type churnWorkload struct {
	d       *daemon
	ep      *fleet.WireEndpoint
	spec    fleet.WireSpec
	ioErrs  *obs.Counter
	budgets []relay.SessionBudget
	bounds  []bench.Bounds
	keys    []string

	dec  relay.AmpDecision
	load float64
}

// churnBudget draws a session whose amplification is bound by the given
// Sec 3.5 limit: 0 the cancellation, 1 the noise rule, 2 the PA. Each
// draw leaves at least 1 dB between the binding bound and the next, so
// the binding one is unambiguous.
func churnBudget(src *rng.Source, kind int) (relay.SessionBudget, bench.Bounds) {
	names := []string{"cancellation", "noise_rule", "pa_limit"}
	for {
		sb := relay.SessionBudget{
			CancellationDB: 40 + 70*src.Float64(),
			RDAttenDB:      30 + 70*src.Float64(),
			PAHeadroomDB:   20 + 80*src.Float64(),
			RxOverNoiseDB:  10 + 40*src.Float64(),
		}
		b := bench.Sec35(sb.CancellationDB, sb.RDAttenDB, sb.PAHeadroomDB, sb.RxOverNoiseDB)
		name, v := b.Binding()
		next := math.Inf(1)
		for _, x := range []float64{b.Cancellation, b.NoiseRule, b.PALimit} {
			if x > v && x < next {
				next = x
			}
		}
		if name == names[kind] && v >= 1 && next-v >= 1 {
			return sb, b
		}
	}
}

func newChurn(seed int64, _ bool) (workload, error) {
	w := &churnWorkload{}
	src := rng.New(rng.ItemSeed(seed, 0))
	for i := 0; i < churnRound; i++ {
		sb, b := churnBudget(src, i%3)
		w.budgets = append(w.budgets, sb)
		w.bounds = append(w.bounds, b)
		w.keys = append(w.keys, fmt.Sprintf("churn-%d-%d", seed, i))
	}
	d, err := startDaemon(relayd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w.d = d
	reg := obs.New()
	w.ioErrs = reg.Counter("fleet.wire.io_errors", "errors")
	w.spec = fleet.DefaultWireSpec()
	w.spec.Attempts = 1
	w.spec.Timeout = 10 * time.Second
	w.ep = fleet.NewWireEndpoint(d.addr, w.spec, reg, 0)
	// Warm-up: one session, so the control connection is dialed and the
	// daemon's first-session paths have run before the first timing.
	if err := w.op(0, bench.NewTracer(false)); err != nil {
		w.close()
		return nil, err
	}
	if err := w.check(0, bench.NewTracer(false)); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *churnWorkload) size() int { return churnRound }

func (w *churnWorkload) op(i int, tr *bench.Tracer) error {
	key := w.keys[i]
	sp := tr.Begin("fleet.wire_admit")
	dec, _, ref := w.ep.Admit(key, w.budgets[i])
	tr.End(sp, 1)
	if ref != nil {
		return fmt.Errorf("churn: session %d refused: %s: %s", i, ref.Code, ref.Detail)
	}
	sp = tr.Begin("fleet.verify_session")
	err := w.ep.VerifySession(key, churnBlocks)
	tr.End(sp, churnBlocks)
	if err != nil {
		w.ep.Release(key)
		return fmt.Errorf("churn: session %d: %w", i, err)
	}
	sp = tr.Begin("fleet.residual_load")
	w.load = w.ep.ResidualLoad()
	tr.End(sp, 1)
	sp = tr.Begin("fleet.wire_release")
	released := w.ep.Release(key)
	tr.End(sp, 1)
	if !released {
		return fmt.Errorf("churn: session %d was not held at release", i)
	}
	w.dec = dec
	return nil
}

// seedForKey is the session-chain seed the wire endpoint derives from a
// session key (FNV-1a, top bit cleared).
func seedForKey(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// replay times the two daemon-side calls an admission makes: building
// the session chain, and the Sec 3.5 budget admission, which must grant
// what the daemon granted.
func (w *churnWorkload) replay(i int, tr *bench.Tracer) error {
	sb := w.budgets[i]
	p := relayd.SessionParams{
		SampleRateHz: w.spec.SampleRateHz, BlockSamples: w.spec.BlockSamples,
		CancelTaps: w.spec.CancelTaps, CNFTaps: w.spec.CNFTaps, CFOHz: w.spec.CFOHz,
		Seed:           seedForKey(w.keys[i]),
		CancellationDB: sb.CancellationDB, RDAttenDB: sb.RDAttenDB,
		PAHeadroomDB: sb.PAHeadroomDB, RxOverNoiseDB: sb.RxOverNoiseDB,
	}
	sp := tr.Begin("relayd.build_session_chain")
	relayd.BuildSessionChain(p, w.dec.AmpDB)
	tr.End(sp, 1)

	// One admission takes well under a microsecond; time a batch of
	// them on fresh accounts.
	const reps = 64
	var dec relay.AmpDecision
	var err error
	sp = tr.Begin("relay.budget_admit")
	for k := 0; k < reps; k++ {
		dec, err = relay.NewBudgetAccount(0).Admit(w.keys[i], sb)
	}
	tr.End(sp, reps)
	if err != nil || dec != w.dec {
		return fmt.Errorf("churn: session %d: budget account grants %+v (%v), the daemon granted %+v", i, dec, err, w.dec)
	}
	return nil
}

// check requires the grant to respect every Sec 3.5 bound and name the
// binding one, the load seen during the session to be the session's own
// residual load, and the daemon to report no session and no load once it
// was released. The endpoint falls back to cached values when a query
// fails, so its io_errors counter must stay at zero as well.
func (w *churnWorkload) check(i int, _ *bench.Tracer) error {
	sb := w.budgets[i]
	if err := bench.CheckGrant(w.bounds[i], w.dec.AmpDB, w.dec.Bound.String()); err != nil {
		return fmt.Errorf("churn: session %d: %w", i, err)
	}
	want := bench.ResidualLoad(sb.CancellationDB, sb.RxOverNoiseDB, w.dec.AmpDB)
	if math.Abs(w.load-want) > 1e-9*want {
		return fmt.Errorf("churn: session %d: residual load %v during the session, want %v", i, w.load, want)
	}
	if n, l := w.ep.Sessions(), w.ep.ResidualLoad(); n != 0 || l != 0 {
		return fmt.Errorf("churn: session %d: after release the daemon reports %d sessions, load %v", i, n, l)
	}
	if n := w.ioErrs.Value(); n != 0 {
		return fmt.Errorf("churn: %d wire I/O errors", n)
	}
	return nil
}

func (w *churnWorkload) finish() error { return nil }

func (w *churnWorkload) close() error {
	if w.ep != nil {
		w.ep.CloseSessions()
	}
	return w.d.stop()
}
