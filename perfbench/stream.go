package main

import (
	"fmt"
	"math"
	"time"

	"fastforward/internal/pipeline"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
	"fastforward/perfbench/bench"
)

const (
	// streamBlock is one DATA frame: 4096 samples, 204.8 µs of air time
	// at 20 MHz.
	streamBlock = 4096
	// streamRound is the number of distinct seeded blocks one round
	// streams; later rounds stream them again.
	streamRound = 32
	// streamRefEvery spaces the blocks checked against the direct-form
	// reference (every block is checked bit for bit against the replica).
	streamRefEvery = 4
)

// streamWorkload streams one admitted 20 MHz session through an
// in-process daemon over loopback TCP, one block in flight. One
// operation is one Client.Process round trip.
type streamWorkload struct {
	d      *daemon
	c      *relayd.Client
	params relayd.SessionParams
	ampDB  float64

	rx, ref [][]complex128
	out     []complex128

	// replica is the chain the daemon runs, rebuilt client-side; ref is
	// the same chain as one direct-form filter.
	replica       *pipeline.Chain
	replicaCancel *pipeline.CancelStage
	direct        *bench.DirectForm
	want, dfOut   []complex128
	prev          int
	sent          int

	// traced runs also push every block through a chain stepped stage by
	// stage and through a two-session batch, to time both.
	staged       *pipeline.Chain
	stagedCancel *pipeline.CancelStage
	batch        *pipeline.Batch
	batchCancels []*pipeline.CancelStage
	batchBlocks  [][]complex128
}

// streamParams draws the session: CFO, tap seed and an admission budget
// whose grant is positive.
func streamParams(seed int64) relayd.SessionParams {
	src := rng.New(rng.ItemSeed(seed, 0))
	return relayd.SessionParams{
		SampleRateHz:   20e6,
		BlockSamples:   streamBlock,
		CancelTaps:     24,
		CNFTaps:        16,
		CFOHz:          500 + 2500*src.Float64(),
		Seed:           int64(src.Intn(1 << 30)),
		CancellationDB: 100 + 10*src.Float64(),
		RDAttenDB:      40 + 30*src.Float64(),
		PAHeadroomDB:   30 + 30*src.Float64(),
		RxOverNoiseDB:  20 + 20*src.Float64(),
	}
}

func newStream(seed int64, traced bool) (workload, error) {
	w := &streamWorkload{params: streamParams(seed), prev: -1}
	cfg := relayd.DefaultConfig()
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	w.d = d
	w.c, err = relayd.DialTimeout(d.addr, w.params, nil, 1, 10*time.Second)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("stream: admit: %w", err)
	}
	w.ampDB = w.c.Accept().AmpDB

	src := rng.New(rng.ItemSeed(seed, 1))
	for b := 0; b < streamRound; b++ {
		w.rx = append(w.rx, src.NoiseVector(streamBlock, 1))
		w.ref = append(w.ref, src.NoiseVector(streamBlock, 1))
	}
	w.out = make([]complex128, streamBlock)
	w.want = make([]complex128, streamBlock)
	w.dfOut = make([]complex128, streamBlock)
	w.replica, w.replicaCancel = relayd.BuildSessionChain(w.params, w.ampDB)
	si, pre := bench.SessionTaps(w.params.Seed, w.params.CancelTaps, w.params.CNFTaps)
	w.direct = bench.NewDirectForm(si, pre, 2*math.Pi*w.params.CFOHz/w.params.SampleRateHz,
		complex(math.Pow(10, w.ampDB/20), 0))
	if traced {
		w.staged, w.stagedCancel = relayd.BuildSessionChain(w.params, w.ampDB)
		c1, k1 := relayd.BuildSessionChain(w.params, w.ampDB)
		c2, k2 := relayd.BuildSessionChain(w.params, w.ampDB)
		w.batch = pipeline.NewBatch("bench", c1, c2)
		w.batchCancels = []*pipeline.CancelStage{k1, k2}
		w.batchBlocks = [][]complex128{make([]complex128, streamBlock), make([]complex128, streamBlock)}
	}
	// Warm-up: the first block, so connection buffers and the daemon's
	// batch slots exist before the first timed round trip.
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

func (w *streamWorkload) size() int { return streamRound }

func (w *streamWorkload) op(i int, tr *bench.Tracer) error {
	sp := tr.Begin("relayd.process_rtt")
	err := w.c.Process(w.out, w.rx[i], w.ref[i])
	tr.End(sp, 1)
	if err != nil {
		return fmt.Errorf("stream: block %d: %w", i, err)
	}
	w.sent++
	return nil
}

func (w *streamWorkload) replay(int, *bench.Tracer) error { return nil }

// check requires the daemon's block to equal the replica's bit for bit
// and, every streamRefEvery-th block, to lie within 1e-9 (relative) of
// the direct-form reference.
func (w *streamWorkload) check(i int, tr *bench.Tracer) error {
	copy(w.want, w.rx[i])
	w.replicaCancel.SetReference(w.ref[i])
	sp := tr.Begin("pipeline.session_chain")
	w.replica.Process(w.want)
	tr.End(sp, streamBlock)
	if err := bench.BitIdentical(w.out, w.want); err != nil {
		return fmt.Errorf("stream: block %d (stream block %d) differs from the replica chain: %w", i, w.sent, err)
	}
	if w.sent%streamRefEvery == 1 {
		var prevRx, prevRef []complex128
		if w.prev >= 0 {
			prevRx, prevRef = w.rx[w.prev], w.ref[w.prev]
		}
		w.direct.Block(w.dfOut, w.rx[i], w.ref[i], prevRx, prevRef)
		if e := bench.RelErr(w.out, w.dfOut); !(e <= 1e-9) {
			return fmt.Errorf("stream: block %d (stream block %d) is %.3g (relative) from the direct-form reference", i, w.sent, e)
		}
	}
	w.prev = i
	if w.staged != nil {
		if err := w.traceStages(i, tr); err != nil {
			return err
		}
	}
	return nil
}

// traceStages times each stage of the session chain on its own, and the
// two-session batch sweep, on the block just streamed; both must still
// reproduce the daemon's output bit for bit.
func (w *streamWorkload) traceStages(i int, tr *bench.Tracer) error {
	copy(w.want, w.rx[i])
	w.stagedCancel.SetReference(w.ref[i])
	for _, st := range w.staged.Stages() {
		sp := tr.Begin("pipeline.stage." + st.Name())
		st.Process(w.want)
		tr.End(sp, streamBlock)
	}
	if err := bench.BitIdentical(w.out, w.want); err != nil {
		return fmt.Errorf("stream: block %d through the chain's stages: %w", i, err)
	}
	for k, blk := range w.batchBlocks {
		copy(blk, w.rx[i])
		w.batchCancels[k].SetReference(w.ref[i])
	}
	sp := tr.Begin("pipeline.batch")
	w.batch.ProcessAll(w.batchBlocks)
	tr.End(sp, int64(len(w.batchBlocks)*streamBlock))
	for k, blk := range w.batchBlocks {
		if err := bench.BitIdentical(w.out, blk); err != nil {
			return fmt.Errorf("stream: block %d through batch session %d: %w", i, k, err)
		}
	}
	return nil
}

func (w *streamWorkload) finish() error { return nil }

// close ends the session, requires the daemon's STATS to count every
// block sent, and stops the daemon.
func (w *streamWorkload) close() error {
	var err error
	if w.c != nil {
		st, cerr := w.c.Close()
		switch {
		case cerr != nil:
			err = fmt.Errorf("stream: close: %w", cerr)
		case st.Blocks != uint64(w.sent):
			err = fmt.Errorf("stream: daemon counted %d blocks, %d were sent", st.Blocks, w.sent)
		}
	}
	if serr := w.d.stop(); serr != nil && err == nil {
		err = serr
	}
	return err
}
