package main

import (
	"fmt"
	"math"

	"fastforward/internal/channel"
	"fastforward/internal/cnf"
	"fastforward/internal/dsp"
	"fastforward/internal/floorplan"
	"fastforward/internal/linalg"
	"fastforward/internal/ofdm"
	"fastforward/internal/phyrate"
	"fastforward/internal/relay"
	"fastforward/internal/rng"
	"fastforward/internal/testbed"
	"fastforward/perfbench/bench"
)

// simWorkload evaluates every client of the four Sec 5 scenarios at the
// Fig 12 operating point (2×2 MIMO, CNF, noise rule, synthesized filter)
// on the coarse grid the repository's Fig 12 test uses. One operation is
// one testbed.EvaluateClient call.
type simWorkload struct {
	seed   int64
	tbs    []*testbed.Testbed
	scs    []floorplan.Scenario
	cfgs   []testbed.Config
	apRel  [][]floorplan.Path
	ops    []simOp
	maxMbp float64

	cur, first []testbed.Evaluation
	rounds     int
	warm       map[int]testbed.Evaluation
}

type simOp struct {
	sc int
	pt floorplan.Point
}

// simConfig is the Fig 12 operating point on the grid and carrier stride
// of the repository's Fig 12 headline test.
func simConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig(seed)
	cfg.GridSpacingM = 2.5
	cfg.CarrierStride = 8
	cfg.Workers = 1
	return cfg
}

func newSim(seed int64, _ bool) (workload, error) {
	w := &simWorkload{seed: seed, scs: floorplan.Scenarios()}
	for i, sc := range w.scs {
		// Scenario i runs at seed+i, as the Fig 12 runner seeds it.
		cfg := simConfig(seed + int64(i))
		tb := testbed.New(sc, cfg)
		w.tbs = append(w.tbs, tb)
		w.cfgs = append(w.cfgs, cfg)
		w.apRel = append(w.apRel, sc.Plan.Trace(sc.AP, sc.Relay, 2))
		for _, pt := range tb.ClientGrid() {
			w.ops = append(w.ops, simOp{sc: i, pt: pt})
		}
	}
	w.maxMbp = testbed.RateForSNR(w.tbs[0].Params(), 100, 2)
	w.cur = make([]testbed.Evaluation, len(w.ops))
	w.first = make([]testbed.Evaluation, len(w.ops))
	// Warm-up: the first client of each scenario, so lazily built tables
	// (FFT plans, MCS thresholds) are not charged to the first timed
	// operation. Four clients rather than one keep the set-up time from
	// hanging on one seeded client's optimizer restarts.
	w.warm = map[int]testbed.Evaluation{}
	for i, o := range w.ops {
		if i == 0 || o.sc != w.ops[i-1].sc {
			w.warm[i] = w.tbs[o.sc].EvaluateClient(o.pt)
		}
	}
	return w, nil
}

func (w *simWorkload) size() int { return len(w.ops) }

func (w *simWorkload) op(i int, tr *bench.Tracer) error {
	o := w.ops[i]
	sp := tr.Begin("testbed.evaluate_client")
	w.cur[i] = w.tbs[o.sc].EvaluateClient(o.pt)
	tr.End(sp, 1)
	return nil
}

// clientSeed derives a client's rng seed from its location, as the
// testbed does, so the replay draws the same channels.
func clientSeed(base int64, pt floorplan.Point) int64 {
	s := rng.ItemSeed(base, int(int64(math.Float64bits(pt.X))))
	return rng.ItemSeed(s, int(int64(math.Float64bits(pt.Y))))
}

// replay re-runs the layer calls EvaluateClient makes for client i on
// the same inputs, each under its own span: the ray traces, the MIMO
// channel synthesis, the AP-only and half-duplex rate calls, the CNF
// optimizer and the filter synthesis. The replayed AP-only and
// half-duplex rates must equal the evaluation's bit for bit, which shows
// the replay is equivalent.
func (w *simWorkload) replay(i int, tr *bench.Tracer) error {
	o := w.ops[i]
	sc, cfg, tb := w.scs[o.sc], w.cfgs[o.sc], w.tbs[o.sc]
	p := tb.Params()
	fs := p.SampleRate
	src := rng.New(clientSeed(cfg.Seed, o.pt))

	sp := tr.Begin("floorplan.trace")
	sd := sc.Plan.Trace(sc.AP, o.pt, 2)
	rd := sc.Plan.Trace(sc.Relay, o.pt, 2)
	tr.End(sp, 2)

	sp = tr.Begin("floorplan.mimo_channel")
	const diffuse = 0.2
	msd := floorplan.MIMOChannelDiffuse(sd, 2, 2, fs, src, diffuse)
	msr := floorplan.MIMOChannelDiffuse(w.apRel[o.sc], 2, 2, fs, src, diffuse)
	mrd := floorplan.MIMOChannelDiffuse(rd, 2, 2, fs, src, diffuse)
	carriers := dataCarriers(p, cfg.CarrierStride)
	hsd := make([]*linalg.Matrix, len(carriers))
	hsr := make([]*linalg.Matrix, len(carriers))
	hrd := make([]*linalg.Matrix, len(carriers))
	for j, k := range carriers {
		hsd[j] = msd.FrequencyResponse(k, p.NFFT)
		hsr[j] = msr.FrequencyResponse(k, p.NFFT)
		hrd[j] = mrd.FrequencyResponse(k, p.NFFT)
	}
	tr.End(sp, 1)

	txMW := dsp.WattsFromDBm(cfg.TxPowerDBm) * 1000
	n0 := channel.NoiseFloorMW() * dsp.Linear(cfg.NoiseFigureDB)
	sp = tr.Begin("phyrate.mimo_rate")
	ap := phyrate.MIMORateMbps(p, hsd, nil, txMW, n0).RateMbps
	r1 := phyrate.MIMORateMbps(p, hsr, nil, txMW, n0).RateMbps
	r2 := phyrate.MIMORateMbps(p, hrd, nil, txMW, n0).RateMbps
	tr.End(sp, 3)

	rxAtRelayDBm := cfg.TxPowerDBm + floorplan.AveragePowerGainDB(w.apRel[o.sc])
	amp := relay.ChooseAmplificationDB(cfg.CancellationDB, -floorplan.AveragePowerGainDB(rd),
		cfg.RelayMaxTxDBm-rxAtRelayDBm, cfg.NoiseRule)

	sp = tr.BeginAlloc("cnf.desired_mimo")
	fa := cnf.DesiredMIMO(hsd, hsr, hrd, amp.AmpDB, src)
	tr.End(sp, 1)

	sp = tr.Begin("cnf.synthesize_mimo")
	cnf.SynthesizeMIMO(fa, carriers, p.NFFT, fs)
	tr.End(sp, 1)

	ev := w.cur[i]
	hd := ap
	if r1 > 0 && r2 > 0 && r1*r2/(r1+r2) > hd {
		hd = r1 * r2 / (r1 + r2)
	}
	if ap != ev.APOnlyMbps || hd != ev.HalfDuplexMbps {
		return fmt.Errorf("sim: replay of client %d gives AP-only %v / half-duplex %v, evaluation %v / %v",
			i, ap, hd, ev.APOnlyMbps, ev.HalfDuplexMbps)
	}
	return nil
}

// dataCarriers lists every stride-th data subcarrier, the carriers the
// testbed evaluates.
func dataCarriers(p *ofdm.Params, stride int) []int {
	var out []int
	for i, k := range p.DataCarriers {
		if i%stride == 0 {
			out = append(out, k)
		}
	}
	return out
}

func (w *simWorkload) check(i int, _ *bench.Tracer) error {
	ev := w.cur[i]
	if err := bench.CheckRates(ev.APOnlyMbps, ev.HalfDuplexMbps, ev.RelayMbps, w.maxMbp); err != nil {
		return fmt.Errorf("sim: client %d: %w", i, err)
	}
	if w.rounds == 0 {
		w.first[i] = ev
		if wv, ok := w.warm[i]; ok && ev != wv {
			return fmt.Errorf("sim: client %d evaluates to %+v, warm-up gave %+v", i, ev, wv)
		}
	} else if ev != w.first[i] {
		return fmt.Errorf("sim: client %d re-evaluates to %+v, first round gave %+v", i, ev, w.first[i])
	}
	if i == len(w.ops)-1 {
		w.rounds++
	}
	return nil
}

// finish checks the Fig 12 headline numbers of the first full round and
// re-evaluates three seeded clients, which must reproduce their first
// evaluation bit for bit.
func (w *simWorkload) finish() error {
	if w.rounds == 0 {
		return nil
	}
	ap := make([]float64, len(w.first))
	hd := make([]float64, len(w.first))
	ff := make([]float64, len(w.first))
	for i, ev := range w.first {
		ap[i], hd[i], ff[i] = ev.APOnlyMbps, ev.HalfDuplexMbps, ev.RelayMbps
	}
	if err := bench.Fig12Headline(ap, hd, ff).CheckBands(); err != nil {
		return fmt.Errorf("sim: Fig 12: %w", err)
	}
	src := rng.New(rng.ItemSeed(w.seed, 12))
	for k := 0; k < 3; k++ {
		i := src.Intn(len(w.ops))
		o := w.ops[i]
		if ev := w.tbs[o.sc].EvaluateClient(o.pt); ev != w.first[i] {
			return fmt.Errorf("sim: sampled client %d re-evaluates to %+v, first round gave %+v", i, ev, w.first[i])
		}
	}
	return nil
}

func (w *simWorkload) close() error { return nil }
