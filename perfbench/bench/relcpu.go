package bench

// RelCPU sets the process CPU time of a workload's operations against
// that of a yardstick's passes made in between them. The passes are kept
// at Share of the operations' CPU time, and the run is cut into windows
// of whole rounds lasting at least Window seconds each; a window's ratio
// is its CPU time per operation over its CPU time per pass. Ratio is the
// median over the windows, so a burst that slows a few windows does not
// move it, and a host that runs slower throughout slows the passes with
// the operations.
type RelCPU struct {
	Share  float64
	Window float64

	opCPU, passCPU float64 // run totals, for the share
	passes         int
	// the open window
	wOp, wPass    float64
	wOps, wPasses int
	wStart        float64
	ratios        []float64
}

// Op charges one operation's CPU seconds.
func (r *RelCPU) Op(cpu float64) {
	r.opCPU += cpu
	r.wOp += cpu
	r.wOps++
}

// Due reports whether a pass is needed to keep the passes at their share.
func (r *RelCPU) Due() bool { return r.passCPU < r.Share*r.opCPU }

// Pass charges one yardstick pass's CPU seconds.
func (r *RelCPU) Pass(cpu float64) {
	r.passCPU += cpu
	r.passes++
	r.wPass += cpu
	r.wPasses++
}

// EndRound is called after each whole round with the seconds since the
// run started; it closes the window once the window has lasted long
// enough and holds operations and passes.
func (r *RelCPU) EndRound(now float64) {
	if now-r.wStart < r.Window || r.wOps == 0 || r.wPasses == 0 || r.wPass <= 0 {
		return
	}
	r.ratios = append(r.ratios, (r.wOp/float64(r.wOps))/(r.wPass/float64(r.wPasses)))
	r.wOp, r.wPass, r.wOps, r.wPasses, r.wStart = 0, 0, 0, 0, now
}

// Ratio returns the median window ratio and the number of windows. A run
// too short to close a window reports its open window alone.
func (r *RelCPU) Ratio() (float64, int) {
	if len(r.ratios) == 0 && r.wOps > 0 && r.wPasses > 0 && r.wPass > 0 {
		return (r.wOp / float64(r.wOps)) / (r.wPass / float64(r.wPasses)), 1
	}
	return Median(r.ratios), len(r.ratios)
}

// PassCPU returns the mean CPU seconds of one pass over the run and the
// number of passes.
func (r *RelCPU) PassCPU() (float64, int) {
	if r.passes == 0 {
		return 0, 0
	}
	return r.passCPU / float64(r.passes), r.passes
}
