package bench

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host is the fingerprint printed next to every run's numbers: what the
// machine is, how fast a fixed kernel ran on it, and how much CPU the
// hypervisor took away (steal) and the process used while the run
// measured. Host drift of tens of percent across minutes is common on
// shared VMs; these fields make it visible.
type Host struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibMS    float64 `json:"calibration_ms"`
	StealTicks int64   `json:"steal_ticks"`
	ProcCPUS   float64 `json:"process_cpu_s"`
	WallS      float64 `json:"wall_s"`
}

// HostProbe holds the start-of-run readings a Host is completed from.
type HostProbe struct {
	host   Host
	steal0 int64
	cpu0   float64
	t0     time.Time
}

// StartHost reads the static fingerprint, times the calibration kernel
// and takes the start readings of steal and process CPU time.
func StartHost() *HostProbe {
	p := &HostProbe{host: Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibMS:    Calibrate(),
	}}
	p.steal0 = stealTicks()
	p.cpu0 = ProcessCPU()
	p.t0 = time.Now()
	return p
}

// Finish completes the fingerprint with the deltas accrued since
// StartHost.
func (p *HostProbe) Finish() Host {
	h := p.host
	if s := stealTicks(); s >= 0 && p.steal0 >= 0 {
		h.StealTicks = s - p.steal0
	} else {
		h.StealTicks = -1
	}
	h.ProcCPUS = ProcessCPU() - p.cpu0
	h.WallS = time.Since(p.t0).Seconds()
	return h
}

// calibSink keeps the calibration loop's result observable.
var calibSink float64

// Calibrate times a fixed scalar floating-point kernel and returns the
// median of five repetitions in milliseconds. The kernel allocates
// nothing and touches no memory beyond registers, so it tracks the
// core's speed (and steal) rather than the memory system.
func Calibrate() float64 {
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		x, acc := 1.0, 0.0
		for i := 0; i < 1<<21; i++ {
			x = x*1.0000001 + 1e-9
			acc += x / (1 + float64(i&7))
		}
		calibSink = acc
		reps[r] = float64(time.Since(t0)) / 1e6
	}
	return Median(reps)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks returns the machine-wide steal counter of /proc/stat's
// aggregate cpu line (clock ticks), or -1 where it cannot be read.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// ProcessCPU returns the CPU seconds (user and system, all threads) the
// process has used so far. The kernel charges no steal time to the
// process, so a difference of two readings is the work done in between
// whether or not the hypervisor took the CPU away meanwhile. The
// calling thread's time is exact; another thread running at the moment
// of the reading is charged up to its last scheduler tick.
func ProcessCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
