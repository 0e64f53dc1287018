package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"net"
	"time"
)

// A yardstick is a fixed piece of work of the same kind as a workload's
// operation, written here and never changed with the program. Passes of
// it are interleaved with the operations and both are timed in process
// CPU, so a run can report how much work an operation is relative to a
// pass: a slower or faster host (frequency, a busy neighbour on the same
// core, cache and memory pressure) scales both alike, and the ratio
// keeps still where either time alone does not.
type yardstick interface {
	pass() error
	close() error
}

// stickSpec makes a workload's yardstick. nominal is about the CPU
// seconds of one pass on the quiet host of README.md's figures; it sets
// the scale on which setup_s is reported and nothing else.
type stickSpec struct {
	make    func() (yardstick, error)
	nominal float64
}

// yardsticks gives each workload the yardstick that does its kind of
// work.
var yardsticks = map[string]stickSpec{
	"sim":    {func() (yardstick, error) { return newMatrixStick(), nil }, 150e-6},
	"cancel": {func() (yardstick, error) { return newMatrixStick(), nil }, 150e-6},
	// stream: one 4096-sample block per round trip on a kept connection.
	"stream": {func() (yardstick, error) { return newWireStick(false, streamBlock, 1) }, 160e-6},
	// churn: a new connection per pass carrying four 256-sample blocks.
	"churn": {func() (yardstick, error) { return newWireStick(true, 256, churnBlocks) }, 80e-6},
}

// matrixStick is small complex linear algebra with a heap allocation per
// matrix, as in the MIMO optimizer: 2×2 products, inverses and
// determinants over a set of carriers. A ring of recent results keeps
// the allocations on the heap and some of them live.
type matrixStick struct {
	h    [][4]complex128
	ring [][]complex128
	next int
	sink complex128
}

const (
	matrixCarriers = 26
	matrixSweeps   = 40
)

func newMatrixStick() *matrixStick {
	s := &matrixStick{ring: make([][]complex128, 4096)}
	for k := 0; k < matrixCarriers; k++ {
		f := float64(k + 1)
		s.h = append(s.h, [4]complex128{
			complex(math.Cos(f), math.Sin(f)), complex(0.3/f, -0.2),
			complex(-0.1, 0.25*f/matrixCarriers), complex(math.Sin(2*f), math.Cos(3*f)),
		})
	}
	return s
}

func (s *matrixStick) keep(m []complex128) []complex128 {
	s.ring[s.next] = m
	s.next = (s.next + 1) % len(s.ring)
	return m
}

func (s *matrixStick) mul(a, b []complex128) []complex128 {
	return s.keep([]complex128{
		a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
	})
}

func (s *matrixStick) inv(a []complex128) []complex128 {
	d := a[0]*a[3] - a[1]*a[2]
	if cmplx.Abs(d) < 1e-12 {
		d = 1e-12
	}
	return s.keep([]complex128{a[3] / d, -a[1] / d, -a[2] / d, a[0] / d})
}

func (s *matrixStick) pass() error {
	var acc complex128
	for sweep := 0; sweep < matrixSweeps; sweep++ {
		g := complex(1+0.01*float64(sweep), 0)
		for k := range s.h {
			h := s.keep([]complex128{s.h[k][0] * g, s.h[k][1], s.h[k][2], s.h[k][3] * g})
			hh := s.mul(h, s.inv(h))
			p := s.mul(hh, h)
			acc += p[0]*p[3] - p[1]*p[2] + cmplx.Sqrt(p[0]+1)
		}
	}
	s.sink = acc
	if cmplx.IsNaN(acc) {
		return errors.New("yardstick: matrix pass diverged")
	}
	return nil
}

func (s *matrixStick) close() error { return nil }

// wireStick is a block round trip over loopback TCP to an echo goroutine
// of its own that filters each block the way a session chain does (a
// 24-tap complex FIR and a per-sample phase rotation) before sending it
// back: the syscalls, copies and DSP of a relayd.Client.Process call.
// With redial, each pass dials a new connection, as a short session
// does.
type wireStick struct {
	ln      net.Listener
	served  chan error
	redial  bool
	conn    net.Conn
	samples int
	blocks  int
	out     []byte
	in      []byte
	taps    []complex128
}

const wireTaps = 24

func newWireStick(redial bool, samples, blocks int) (*wireStick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: listen: %w", err)
	}
	s := &wireStick{ln: ln, served: make(chan error, 1), redial: redial, samples: samples, blocks: blocks,
		out: make([]byte, 16*samples), in: make([]byte, 16*samples)}
	for t := 0; t < wireTaps; t++ {
		s.taps = append(s.taps, cmplx.Rect(1/float64(t+1), 0.7*float64(t)))
	}
	for n := 0; n < samples; n++ {
		putSample(s.out[16*n:], cmplx.Rect(1, 0.01*float64(n)))
	}
	go func() { s.served <- s.serve() }()
	return s, nil
}

func putSample(b []byte, v complex128) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(real(v)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
}

func getSample(b []byte) complex128 {
	return complex(math.Float64frombits(binary.LittleEndian.Uint64(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
}

// serve answers one connection at a time until the listener closes.
func (s *wireStick) serve() error {
	buf := make([]byte, 16*s.samples)
	x := make([]complex128, s.samples+wireTaps-1)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		err = s.echo(c, buf, x)
		c.Close()
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
}

func (s *wireStick) echo(c net.Conn, buf []byte, x []complex128) error {
	var phase float64
	for {
		if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return err
		}
		copy(x, x[s.samples:])
		for n := 0; n < s.samples; n++ {
			x[wireTaps-1+n] = getSample(buf[16*n:])
		}
		for n := 0; n < s.samples; n++ {
			var acc complex128
			for t, h := range s.taps {
				acc += h * x[n+wireTaps-1-t]
			}
			sn, cs := math.Sincos(phase)
			phase += 1e-3
			putSample(buf[16*n:], acc*complex(cs, sn))
		}
		if _, err := c.Write(buf); err != nil {
			return err
		}
	}
}

func (s *wireStick) pass() error {
	if s.conn == nil {
		c, err := net.DialTimeout("tcp", s.ln.Addr().String(), 10*time.Second)
		if err != nil {
			return fmt.Errorf("yardstick: dial: %w", err)
		}
		s.conn = c
	}
	if err := s.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	for b := 0; b < s.blocks; b++ {
		if _, err := s.conn.Write(s.out); err != nil {
			return fmt.Errorf("yardstick: write: %w", err)
		}
		if _, err := io.ReadFull(s.conn, s.in); err != nil {
			return fmt.Errorf("yardstick: read: %w", err)
		}
	}
	if v := getSample(s.in); cmplx.IsNaN(v) {
		return errors.New("yardstick: echoed block is not a number")
	}
	if s.redial {
		err := s.conn.Close()
		s.conn = nil
		return err
	}
	return nil
}

// close ends the connection and the echo goroutine and waits for it.
func (s *wireStick) close() error {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.ln.Close()
	return <-s.served
}
