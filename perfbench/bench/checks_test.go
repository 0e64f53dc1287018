package bench

import (
	"math"
	"strings"
	"testing"

	"fastforward/internal/relay"
	"fastforward/internal/relayd"
	"fastforward/internal/rng"
	"fastforward/internal/sic"
)

func TestCheckRatesRejectsImpossibleRates(t *testing.T) {
	if err := CheckRates(10, 12, 30, 130); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][3]float64{{-1, 12, 30}, {10, 12, 131}, {10, 9, 30}, {math.NaN(), 12, 30}} {
		if CheckRates(c[0], c[1], c[2], 130) == nil {
			t.Errorf("rates %v accepted", c)
		}
	}
}

func TestFig12HeadlineBands(t *testing.T) {
	// 100 locations: AP-only 10..109 Mbps, half-duplex 12 Mbps above it,
	// FF 2.5x AP-only: FF/AP 2.5, FF/HD ~2.2, all in the paper regime
	// except the edge gain, which needs the bottom fifth lifted 4x.
	n := 100
	ap, hd, ff := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ap {
		ap[i] = float64(10 + i)
		hd[i] = ap[i] + 12
		ff[i] = 2.5 * ap[i]
		if i < 25 {
			ff[i] = 4 * ap[i]
		}
	}
	f := Fig12Headline(ap, hd, ff)
	if err := f.CheckBands(); err != nil {
		t.Fatalf("%+v: %v", f, err)
	}
	for i := range ff {
		ff[i] /= 2 // a relay that delivers half: FF/HD drops out of the band
	}
	if Fig12Headline(ap, hd, ff).CheckBands() == nil {
		t.Error("halved relay rates accepted")
	}
	// A dead spot (AP-only 0) rescued by the relay has an infinite gain
	// and must not count in the edge median.
	ap[0], ff[0] = 0, 50
	if g := Fig12Headline(ap, hd, ff); math.IsInf(g.Edge20thFFvsAP, 0) || math.IsNaN(g.Edge20thFFvsAP) {
		t.Errorf("edge gain %v with a rescued dead spot", g.Edge20thFFvsAP)
	}
}

// streamFixture runs three blocks of a session chain built the way the
// daemon builds it, and returns the inputs and outputs.
func streamFixture(t *testing.T) (p relayd.SessionParams, amp float64, rx, ref, out [][]complex128) {
	t.Helper()
	p = relayd.SessionParams{SampleRateHz: 20e6, BlockSamples: 512, CancelTaps: 24, CNFTaps: 16,
		CFOHz: 1700, Seed: 99}
	amp = 41.5
	chain, cancel := relayd.BuildSessionChain(p, amp)
	src := rng.New(5)
	for b := 0; b < 3; b++ {
		rx = append(rx, src.NoiseVector(p.BlockSamples, 1))
		ref = append(ref, src.NoiseVector(p.BlockSamples, 1))
		o := append([]complex128(nil), rx[b]...)
		cancel.SetReference(ref[b])
		chain.Process(o)
		out = append(out, o)
	}
	return p, amp, rx, ref, out
}

func TestStreamChecksCatchOneFlippedSample(t *testing.T) {
	p, amp, rx, ref, out := streamFixture(t)
	si, pre := SessionTaps(p.Seed, p.CancelTaps, p.CNFTaps)
	df := NewDirectForm(si, pre, 2*math.Pi*p.CFOHz/p.SampleRateHz, complex(math.Pow(10, amp/20), 0))
	want := make([]complex128, p.BlockSamples)
	for b := range out {
		var prevRx, prevRef []complex128
		if b > 0 {
			prevRx, prevRef = rx[b-1], ref[b-1]
		}
		df.Block(want, rx[b], ref[b], prevRx, prevRef)
		if e := RelErr(out[b], want); !(e <= 1e-9) {
			t.Fatalf("block %d: chain is %.3g from the direct form", b, e)
		}
	}
	_, _, _, _, replica := streamFixture(t)
	if err := BitIdentical(out[2], replica[2]); err != nil {
		t.Fatalf("replica differs: %v", err)
	}

	bad := append([]complex128(nil), out[2]...)
	bad[100] = complex(-real(bad[100]), imag(bad[100]))
	if err := BitIdentical(bad, replica[2]); err == nil || !strings.Contains(err.Error(), "sample 100") {
		t.Errorf("flipped sample not caught by the bit check: %v", err)
	}
	if e := RelErr(bad, want); e <= 1e-9 {
		t.Errorf("flipped sample is %.3g from the direct form, within tolerance", e)
	}
}

func TestCancelChecksCatchAnOffLatticeAttenuator(t *testing.T) {
	si := sic.NewTypicalSIChannel(rng.New(3))
	a := sic.NewAnalogCanceller(1.0)
	copy(a.AttenDB, []float64{13.5, 24.25, 31.75, math.Inf(1), 0, 18, math.Inf(1), 7.75})
	const bw, nFreq = 20e6, 16
	got := AnalogCancellationDB(si.Paths, a.TapDelaysS, a.RefAmps, a.AttenDB, sic.CarrierHz, bw, nFreq, sic.MaxCancellationDB)
	if want := a.CancellationDB(si, bw, nFreq); math.Abs(got-want) > 1e-9 {
		t.Fatalf("recomputed %v dB, canceller reports %v dB", got, want)
	}
	if err := CheckAttenLattice(a.AttenDB, sic.AttenStepDB, sic.AttenMaxDB); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{13.6, -0.25, 32, math.NaN()} {
		att := append([]float64(nil), a.AttenDB...)
		att[1] = v
		if CheckAttenLattice(att, sic.AttenStepDB, sic.AttenMaxDB) == nil {
			t.Errorf("attenuator at %v dB accepted", v)
		}
	}
	// Moving one attenuator by a tenth of a dB moves the recomputed
	// cancellation away from what the tuner would have reported.
	att := append([]float64(nil), a.AttenDB...)
	att[0] += 0.1
	if moved := AnalogCancellationDB(si.Paths, a.TapDelaysS, a.RefAmps, att, sic.CarrierHz, bw, nFreq, sic.MaxCancellationDB); math.Abs(moved-got) < 1e-6 {
		t.Errorf("recomputation insensitive to the taps: %v vs %v dB", moved, got)
	}
}

func TestTotalCancellationFromPowers(t *testing.T) {
	tx := []complex128{1, 1i, -1, -1i}
	clean := []complex128{1e-5, 0, 0, 0} // power 2.5e-11 against 1
	if got := TotalCancellationDB(tx, clean); math.Abs(got-106.0206) > 1e-3 {
		t.Errorf("total cancellation %v dB, want 106.02", got)
	}
}

func TestGrantChecksCatchAnInflatedGrant(t *testing.T) {
	for _, c := range []struct {
		c, a, pa, rx float64
		bound        string
	}{
		{50, 90, 80, 20, "cancellation"},
		{105, 40, 60, 30, "noise_rule"},
		{105, 80, 25, 30, "pa_limit"},
		{45, 70, 90, 50, "noise_rule"}, // strong residual: the quadratic term binds
	} {
		dec := relay.ChooseAmplificationResidualDB(c.c, c.a, c.pa, c.rx, true)
		b := Sec35(c.c, c.a, c.pa, c.rx)
		if name, _ := b.Binding(); name != c.bound || dec.Bound.String() != c.bound {
			t.Fatalf("%+v: binding %s, relay says %s, want %s", c, name, dec.Bound, c.bound)
		}
		if err := CheckGrant(b, dec.AmpDB, dec.Bound.String()); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if CheckGrant(b, dec.AmpDB+0.5, dec.Bound.String()) == nil {
			t.Errorf("%+v: grant inflated by 0.5 dB accepted", c)
		}
		if CheckGrant(b, dec.AmpDB-0.5, dec.Bound.String()) == nil {
			t.Errorf("%+v: grant below the binding bound accepted", c)
		}
		if CheckGrant(b, dec.AmpDB, "floor") == nil {
			t.Errorf("%+v: grant naming the wrong bound accepted", c)
		}
		acct := relay.NewBudgetAccount(0)
		if _, err := acct.Admit("s", relay.SessionBudget{CancellationDB: c.c, RDAttenDB: c.a, PAHeadroomDB: c.pa, RxOverNoiseDB: c.rx}); err != nil {
			t.Fatal(err)
		}
		if got, want := acct.ResidualLoad(), ResidualLoad(c.c, c.rx, dec.AmpDB); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%+v: residual load %v, want %v", c, got, want)
		}
	}
}
