package main

import (
	"fmt"
	"math"

	"fastforward/internal/dsp"
	"fastforward/internal/pipeline"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
	"fastforward/perfbench/bench"
)

// cancelRound is the number of relay placements one round tunes.
const cancelRound = 2

// cancelWorkload runs the Sec 3.3 cancellation chain for one seeded
// relay placement per operation, through the public calls
// sic.Characterize makes: synthesize the SI channel, tune the analog
// canceller, realize the residual, estimate the digital canceller and
// clean the received probe.
type cancelWorkload struct {
	seed int64
	cfg  sic.CharacterizeConfig
	// tx and noise are each placement's probe and receiver noise.
	tx, noise [][]complex128
	res       []cancelResult
	first     []float64
	rounds    int
}

type cancelResult struct {
	si       *sic.SIChannel
	a        *sic.AnalogCanceller
	analogDB float64
	clean    []complex128
}

func newCancel(seed int64, _ bool) (workload, error) {
	w := &cancelWorkload{seed: seed, cfg: sic.DefaultCharacterizeConfig(cancelRound)}
	for i := 0; i < cancelRound; i++ {
		src := rng.New(rng.ItemSeed(seed, 2*i+1))
		w.tx = append(w.tx, src.NoiseVector(w.cfg.Samples, w.cfg.TxPowerMW))
		w.noise = append(w.noise, src.NoiseVector(w.cfg.Samples, w.cfg.NoiseMW))
	}
	w.res = make([]cancelResult, cancelRound)
	w.first = make([]float64, cancelRound)
	// No warm-up operation: the chain keeps no lazily built state, and
	// one placement costs seconds.
	return w, nil
}

func (w *cancelWorkload) size() int { return cancelRound }

func (w *cancelWorkload) op(i int, tr *bench.Tracer) error {
	cfg := w.cfg
	si := sic.NewTypicalSIChannel(rng.New(rng.ItemSeed(w.seed, 2*i)))
	a := sic.NewAnalogCanceller(1.0)

	sp := tr.BeginAlloc("sic.tune")
	analogDB := a.Tune(si, cfg.BandwidthHz, cfg.NFreq)
	tr.End(sp, int64(a.LastTune.RefineIterations))

	sp = tr.Begin("sic.residual_fir")
	residual := a.ResidualFIR(si, cfg.BandwidthHz, cfg.ResidualTaps, 2)
	tr.End(sp, 1)

	tx := w.tx[i]
	rx := make([]complex128, len(tx))
	copy(rx, tx)
	pipeline.NewFIRStage("sic_residual", residual).Process(rx)
	dsp.AddInPlace(rx, w.noise[i])

	sp = tr.Begin("sic.estimate_fir")
	est, err := sic.EstimateFIR(tx, rx, cfg.DigitalTaps, 0)
	tr.End(sp, 1)
	if err != nil {
		return fmt.Errorf("cancel: placement %d: estimate: %w", i, err)
	}

	sp = tr.Begin("sic.digital_cancel")
	clean := sic.NewDigitalCanceller(est).Process(tx, rx)
	tr.End(sp, int64(len(tx)))

	w.res[i] = cancelResult{si: si, a: a, analogDB: analogDB, clean: clean}
	return nil
}

func (w *cancelWorkload) replay(int, *bench.Tracer) error { return nil }

func (w *cancelWorkload) check(i int, _ *bench.Tracer) error {
	r := w.res[i]
	if err := checkPlacement(r, w.tx[i], w.cfg); err != nil {
		return fmt.Errorf("cancel: placement %d: %w", i, err)
	}
	if w.rounds == 0 {
		w.first[i] = r.analogDB
	} else if r.analogDB != w.first[i] {
		return fmt.Errorf("cancel: placement %d re-tunes to %v dB, first round gave %v dB", i, r.analogDB, w.first[i])
	}
	if i == cancelRound-1 {
		w.rounds++
	}
	return nil
}

// checkPlacement recomputes the analog cancellation from the SI paths
// and the tuned taps, requires every attenuator on the 0.25 dB lattice,
// the quantized result at or below the unquantized fit, and at least
// 100 dB of total cancellation recomputed from the probe powers.
func checkPlacement(r cancelResult, tx []complex128, cfg sic.CharacterizeConfig) error {
	a := r.a
	got := bench.AnalogCancellationDB(r.si.Paths, a.TapDelaysS, a.RefAmps, a.AttenDB,
		sic.CarrierHz, cfg.BandwidthHz, cfg.NFreq, sic.MaxCancellationDB)
	if math.Abs(got-r.analogDB) > 1e-6 {
		return fmt.Errorf("tuner reports %v dB, taps give %v dB", r.analogDB, got)
	}
	if err := bench.CheckAttenLattice(a.AttenDB, sic.AttenStepDB, sic.AttenMaxDB); err != nil {
		return err
	}
	if r.analogDB > a.LastTune.UnquantizedDB {
		return fmt.Errorf("quantized %v dB above the unquantized fit %v dB", r.analogDB, a.LastTune.UnquantizedDB)
	}
	if total := bench.TotalCancellationDB(tx, r.clean); !(total >= 100) {
		return fmt.Errorf("total cancellation %v dB below 100 dB", total)
	}
	return nil
}

func (w *cancelWorkload) finish() error { return nil }

func (w *cancelWorkload) close() error { return nil }
