package bench

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"fastforward/internal/rng"
	"fastforward/internal/sic"
)

// The checks in this file recompute what each workload's outputs must
// satisfy without calling the code that produced them: they take inputs
// and published constants from the program, never its arithmetic.

// CheckRates requires each scheme's rate to lie in [0, maxMbps] (the PHY
// rate of the top MCS at any SNR) and the half-duplex baseline to be at
// least the AP-only rate (the mesh can always fall back to the direct
// link).
func CheckRates(apOnly, halfDuplex, relay, maxMbps float64) error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"ap_only", apOnly}, {"half_duplex", halfDuplex}, {"relay", relay}} {
		if !(r.v >= 0 && r.v <= maxMbps) {
			return fmt.Errorf("%s rate %v Mbps outside [0, %v]", r.name, r.v, maxMbps)
		}
	}
	if halfDuplex < apOnly {
		return fmt.Errorf("half-duplex rate %v below AP-only %v", halfDuplex, apOnly)
	}
	return nil
}

// Fig12 holds the Fig 12 headline statistics of one set of client
// evaluations.
type Fig12 struct {
	MedianFFvsAP, MedianFFvsHD, Edge20thFFvsAP float64
	// Gains is the number of locations with a usable half-duplex baseline.
	Gains int
}

// Fig12Headline recomputes the paper's headline numbers (Sec 5, Fig 12)
// from per-location rates: the median of FF over AP-only, the median of
// FF over half-duplex, and the median FF/AP-only gain among the bottom
// 20% of AP-only rates (finite ratios only; dead spots rescued from zero
// have no ratio).
func Fig12Headline(apOnly, halfDuplex, ff []float64) Fig12 {
	var vsHD, vsAP, apRates []float64
	for i := range ff {
		if halfDuplex[i] > 0 {
			vsHD = append(vsHD, ratio(ff[i], halfDuplex[i]))
		}
		vsAP = append(vsAP, ratio(ff[i], apOnly[i]))
		if apOnly[i] > 0 {
			apRates = append(apRates, apOnly[i])
		}
	}
	cut := percentile(apRates, 20)
	var edge []float64
	for i := range ff {
		if apOnly[i] > 0 && apOnly[i] <= cut {
			if g := ratio(ff[i], apOnly[i]); !math.IsInf(g, 1) {
				edge = append(edge, g)
			}
		}
	}
	return Fig12{
		MedianFFvsAP:   percentile(vsAP, 50),
		MedianFFvsHD:   percentile(vsHD, 50),
		Edge20thFFvsAP: percentile(edge, 50),
		Gains:          len(vsHD),
	}
}

// CheckBands requires the headline numbers to sit in the paper regime
// the repository's Fig 12 test pins: FF/AP-only in [1.6, 3.5] (paper 3×),
// FF/half-duplex in [1.2, 2.5] (paper 2.3×), the edge gain at least 3
// (paper 4×), over at least 50 locations.
func (f Fig12) CheckBands() error {
	switch {
	case !(f.MedianFFvsAP >= 1.6 && f.MedianFFvsAP <= 3.5):
		return fmt.Errorf("median FF/AP-only %v outside [1.6, 3.5]", f.MedianFFvsAP)
	case !(f.MedianFFvsHD >= 1.2 && f.MedianFFvsHD <= 2.5):
		return fmt.Errorf("median FF/half-duplex %v outside [1.2, 2.5]", f.MedianFFvsHD)
	case !(f.Edge20thFFvsAP >= 3.0):
		return fmt.Errorf("edge gain %v below 3", f.Edge20thFFvsAP)
	case f.Gains < 50:
		return fmt.Errorf("only %d locations with a half-duplex baseline, want >= 50", f.Gains)
	}
	return nil
}

// ratio is a/b with the paper's convention for a zero baseline: equal
// zeros are no gain, anything over zero is an infinite gain.
func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// percentile interpolates linearly between order statistics (position
// p/100·(n−1)), ignoring NaNs.
func percentile(xs []float64, p float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// AnalogCancellationDB recomputes the analog stage's in-band
// cancellation: the power of the SI response over nFreq points across
// [−bw/2, bw/2] against the power left after subtracting the canceller's
// taps (each a delay with a coupling amplitude behind a stepped
// attenuator; +Inf dB is a tap switched off), capped at capDB.
func AnalogCancellationDB(paths []sic.SIPath, delaysS, refAmps, attenDB []float64, carrierHz, bw float64, nFreq int, capDB float64) float64 {
	var raw, res float64
	for i := 0; i < nFreq; i++ {
		f := -bw/2 + bw*float64(i)/float64(nFreq-1)
		w := 2 * math.Pi * (carrierHz + f)
		var h, c complex128
		for _, p := range paths {
			h += cmplx.Rect(math.Pow(10, p.GainDB/20), p.PhaseRad-w*p.DelayS)
		}
		for k, tau := range delaysS {
			if math.IsInf(attenDB[k], 1) {
				continue
			}
			c += cmplx.Rect(refAmps[k]*math.Pow(10, -attenDB[k]/20), -w*tau)
		}
		r := h - c
		raw += real(h)*real(h) + imag(h)*imag(h)
		res += real(r)*real(r) + imag(r)*imag(r)
	}
	if res <= 0 {
		return capDB
	}
	return math.Min(10*math.Log10(raw/res), capDB)
}

// CheckAttenLattice requires every attenuator to be off (+Inf) or on the
// step lattice within [0, maxDB].
func CheckAttenLattice(attenDB []float64, stepDB, maxDB float64) error {
	for i, a := range attenDB {
		if math.IsInf(a, 1) {
			continue
		}
		if !(a >= 0 && a <= maxDB) || a/stepDB != math.Round(a/stepDB) {
			return fmt.Errorf("attenuator %d at %v dB is off the %v dB lattice in [0, %v]", i, a, stepDB, maxDB)
		}
	}
	return nil
}

// TotalCancellationDB is the transmitted power over the power left after
// both cancellation stages.
func TotalCancellationDB(tx, clean []complex128) float64 {
	return 10 * math.Log10(power(tx)/power(clean))
}

func power(x []complex128) float64 {
	var acc float64
	for _, v := range x {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc / float64(len(x))
}

// BitIdentical reports the first sample where got and want differ in
// any bit.
func BitIdentical(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return fmt.Errorf("sample %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// RelErr is the largest sample error over the largest reference
// magnitude.
func RelErr(got, want []complex128) float64 {
	var maxErr, maxRef float64
	for i := range want {
		maxErr = math.Max(maxErr, cmplx.Abs(got[i]-want[i]))
		maxRef = math.Max(maxRef, cmplx.Abs(want[i]))
	}
	return maxErr / maxRef
}

// SessionTaps draws a session's two filters the way the session model
// defines them: from a source seeded with the session seed, first the
// canceller's self-interference taps with power 0.94^k, then the CNF
// pre-filter taps with power 0.8^k.
func SessionTaps(seed int64, cancelTaps, cnfTaps int) (si, pre []complex128) {
	src := rng.New(seed)
	si = make([]complex128, cancelTaps)
	for k := range si {
		si[k] = src.RayleighTap(math.Pow(0.94, float64(k)))
	}
	pre = make([]complex128, cnfTaps)
	for k := range pre {
		pre[k] = src.RayleighTap(math.Pow(0.8, float64(k)))
	}
	return si, pre
}

// DirectForm is the session chain computed as one direct-form filter.
// The chain cancels, removes the CFO, applies the CNF pre-filter,
// restores the CFO and amplifies. A rotation by the per-sample step ω
// around a linear filter h equals the filter with taps h[k]·e^{jωk}, so
// the output is
//
//	y[n] = A · Σ_k h[k]·e^{jωk} · (rx[n−k] − Σ_m s[m]·ref[n−k−m]).
type DirectForm struct {
	si, fused []complex128
	c         []complex128
}

// NewDirectForm builds the reference from the session model's canceller
// taps, CNF taps, CFO step (radians per sample) and amplitude gain.
func NewDirectForm(si, pre []complex128, cfoStepRad float64, gain complex128) *DirectForm {
	fused := make([]complex128, len(pre))
	for k, h := range pre {
		fused[k] = gain * h * cmplx.Exp(complex(0, cfoStepRad*float64(k)))
	}
	return &DirectForm{si: si, fused: fused}
}

// Block writes the reference output for one block into out. prevRx and
// prevRef are the previous block's inputs, nil at the start of the
// stream (zero history); they must be at least as long as both filters.
func (d *DirectForm) Block(out, rx, ref, prevRx, prevRef []complex128) {
	hist := len(d.fused) - 1
	if cap(d.c) < hist+len(rx) {
		d.c = make([]complex128, hist+len(rx))
	}
	c := d.c[:hist+len(rx)]
	at := func(cur, prev []complex128, i int) complex128 {
		if i >= 0 {
			return cur[i]
		}
		if prev == nil {
			return 0
		}
		return prev[len(prev)+i]
	}
	for j := range c {
		n := j - hist
		v := at(rx, prevRx, n)
		for m, s := range d.si {
			v -= s * at(ref, prevRef, n-m)
		}
		c[j] = v
	}
	for n := range out {
		var acc complex128
		for k, g := range d.fused {
			acc += g * c[n+hist-k]
		}
		out[n] = acc
	}
}

// Sec 3.5 margins: amplification stays 3 dB under the cancellation (loop
// stability) and the forwarded noise 3 dB under the destination's floor.
const (
	stabilityMarginDB = 3.0
	noiseMarginDB     = 3.0
)

// Bounds are the three Sec 3.5 limits on one session's amplification,
// in dB.
type Bounds struct {
	Cancellation, NoiseRule, PALimit float64
}

// Sec35 computes a session's bounds: cancellation minus the stability
// margin; the residual-aware noise rule, the largest A with
// β·A² + A ≤ 10^((a−3)/10) where β = rx/(n0·C) is the residual the
// session's own transmission leaves behind the canceller (found by
// bisection in the linear domain); and the PA headroom.
func Sec35(cancellationDB, rdAttenDB, paHeadroomDB, rxOverNoiseDB float64) Bounds {
	target := math.Pow(10, (rdAttenDB-noiseMarginDB)/10)
	beta := 0.0
	if !math.IsInf(cancellationDB, 1) {
		beta = math.Pow(10, (rxOverNoiseDB-cancellationDB)/10)
	}
	lo, hi := 0.0, target
	for i := 0; i < 200 && hi-lo > 0; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if beta*mid*mid+mid <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Bounds{
		Cancellation: cancellationDB - stabilityMarginDB,
		NoiseRule:    10 * math.Log10(lo),
		PALimit:      paHeadroomDB,
	}
}

// Binding names the tightest bound and its value.
func (b Bounds) Binding() (string, float64) {
	name, v := "cancellation", b.Cancellation
	if b.NoiseRule < v {
		name, v = "noise_rule", b.NoiseRule
	}
	if b.PALimit < v {
		name, v = "pa_limit", b.PALimit
	}
	return name, v
}

// grantTolDB absorbs the rounding of two ways of solving the same bound.
const grantTolDB = 1e-9

// CheckGrant requires a positive grant to be at or below every bound,
// to equal the tightest one, and to name it.
func CheckGrant(b Bounds, ampDB float64, bound string) error {
	for _, l := range []struct {
		name string
		v    float64
	}{{"cancellation", b.Cancellation}, {"noise_rule", b.NoiseRule}, {"pa_limit", b.PALimit}} {
		if ampDB > l.v+grantTolDB {
			return fmt.Errorf("grant %v dB exceeds the %s bound %v dB", ampDB, l.name, l.v)
		}
	}
	name, v := b.Binding()
	if math.Abs(ampDB-v) > grantTolDB {
		return fmt.Errorf("grant %v dB is not the tightest bound (%s, %v dB)", ampDB, name, v)
	}
	if bound != name {
		return fmt.Errorf("grant names bound %q, the binding one is %q", bound, name)
	}
	return nil
}

// ResidualLoad is one session's contribution β·A to the relay's shared
// noise floor (linear, relative to thermal noise).
func ResidualLoad(cancellationDB, rxOverNoiseDB, ampDB float64) float64 {
	if math.IsInf(cancellationDB, 1) {
		return 0
	}
	return math.Pow(10, (rxOverNoiseDB-cancellationDB)/10) * math.Pow(10, ampDB/10)
}
