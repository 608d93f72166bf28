package main

import (
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"time"
)

// The shared virtual machines the benchmark runs on change speed by
// 20-40% over minutes (CPU contention from other tenants), which moves
// every timing between runs far more than the program's own run-to-run
// noise; no statistic of the program's own timings (median, best chunk,
// process CPU time) removes it. So between units of work the benchmark
// times a fixed kernel of its own and reports each CPU-bound timing
// divided by the host's slowdown over the phase it was measured in: the
// median kernel time of the phase over calRef, the kernel's median on the
// reference host in a quiet period.
// The progress lines print every scaled figure's raw value and the factor.
//
// The kernel is kept out of the program's reach: it touches no heap memory
// and runs while the program is idle; each sample first waits for a
// garbage-collection cycle the program's allocation started to end and
// holds off the next until the sample is done (debug.SetGCPercent(-1)
// does both), and runs the kernel once untimed so its data is back in
// cache whatever the program left there. It runs on every CPU at once and
// takes the slowest lane's time, so a stall of either vCPU shows, as it
// does in the program's timings. For dist, whose rounds are mostly
// loopback HTTP, each sample adds calRoundTrips one-byte round trips over
// a loopback TCP connection to an echo goroutine: the wake-up path that
// host steal delays most and the compute loop barely sees.

// calRef and calEchoRef are the kernel's median time on the reference
// host (2-vCPU x86 virtual machine, Go 1.24, quiet period) without and
// with the echo.
const calRef, calEchoRef = 370 * time.Microsecond, 600 * time.Microsecond

// calEvery is the minimum spacing of kernel samples.
const calEvery = 40 * time.Millisecond

// calRoundTrips is the number of loopback round trips per sample when the
// echo is on.
const calRoundTrips = 8

type calibrator struct {
	last    time.Time
	samples []float64 // seconds: slowest lane, plus the round trips
	lanes   [nproc]calLane

	// conn is the client end of the loopback echo connection (nil without
	// the echo); echoDone closes when the echo goroutine exits.
	conn     net.Conn
	ln       net.Listener
	echoDone chan struct{}
}

// calLane is one CPU's private kernel state.
type calLane struct {
	a, b, c [32 * 32]float64
	chase   [1 << 14]int32
	took    time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for l := range c.lanes {
		ln := &c.lanes[l]
		for i := range ln.a {
			ln.a[i] = float64(i%7) * 0.1
			ln.b[i] = float64(i%5) * 0.2
		}
		n := len(ln.chase)
		for i := range ln.chase {
			ln.chase[i] = int32((i*7917 + 1) % n) // full-period LCG: one cycle
		}
	}
	return c
}

// tick takes a kernel sample if calEvery has passed since the last one.
func (c *calibrator) tick() {
	if c == nil || time.Since(c.last) < calEvery {
		return
	}
	c.sample()
}

// sample runs the kernel on every lane at once, with no garbage
// collection running, and records the slowest lane's time.
func (c *calibrator) sample() {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var wg sync.WaitGroup
	for l := range c.lanes {
		wg.Add(1)
		go func(ln *calLane) {
			defer wg.Done()
			ln.run() // untimed: brings the lane's data into cache
			t0 := time.Now()
			ln.run()
			ln.took = time.Since(t0)
		}(&c.lanes[l])
	}
	wg.Wait()
	took := c.lanes[0].took
	for _, ln := range c.lanes[1:] {
		took = max(took, ln.took)
	}
	if c.conn != nil {
		var b [1]byte
		t0 := time.Now()
		for i := 0; i < calRoundTrips; i++ {
			if _, err := c.conn.Write(b[:]); err != nil {
				break
			}
			if _, err := io.ReadFull(c.conn, b[:]); err != nil {
				break
			}
		}
		took += time.Since(t0)
	}
	c.last = time.Now()
	c.samples = append(c.samples, took.Seconds())
}

// startEcho adds the loopback round trips to every sample: it connects to
// a loopback listener whose one connection a goroutine echoes back byte
// for byte until the connection closes. The caller must call close.
func (c *calibrator) startEcho() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("calibration echo: %w", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		srv, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- srv
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	srv, ok := <-accepted
	if err != nil || !ok {
		if conn != nil {
			conn.Close()
		}
		if ok {
			srv.Close()
		}
		ln.Close()
		return fmt.Errorf("calibration echo: dial %v, accepted %v", err, ok)
	}
	c.conn, c.ln, c.echoDone = conn, ln, make(chan struct{})
	go func() {
		defer close(c.echoDone)
		defer srv.Close()
		// A plain read/write loop: io.Copy of a TCP connection onto
		// itself takes the kernel's splice path and, measured, halved the
		// dist workload's throughput while the echo sat idle.
		var b [64]byte
		for { // ends when the client end closes
			n, err := srv.Read(b[:])
			if err != nil {
				return
			}
			if _, err := srv.Write(b[:n]); err != nil {
				return
			}
		}
	}()
	return nil
}

// close ends the echo, if any, and waits for its goroutine.
func (c *calibrator) close() {
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.ln.Close()
	<-c.echoDone
}

// run is the compute kernel: dense float multiply-adds and a dependent
// walk through a 64 KiB index table.
func (l *calLane) run() {
	l.c = [32 * 32]float64{}
	for r := 0; r < 4; r++ {
		for i := 0; i < 32; i++ {
			for k := 0; k < 32; k++ {
				aik := l.a[i*32+k]
				for j := 0; j < 32; j++ {
					l.c[i*32+j] += aik * l.b[k*32+j]
				}
			}
		}
	}
	p := int32(0)
	for i := 0; i < 40000; i++ {
		p = l.chase[p]
	}
	l.c[0] += float64(p)
}

// mark returns a position in the sample sequence for slowdownSince.
func (c *calibrator) mark() int { return len(c.samples) }

// slowdownSince is the host's slowdown over the samples taken since mark
// (see slowdownOf).
func (c *calibrator) slowdownSince(mark int) float64 {
	return c.slowdownOf(c.samples[mark:])
}

// slowdownOf is the median of kernel samples over the kernel's reference
// time (1 for no samples): the host's slowdown over one phase of the run.
// A time is divided by it, a rate multiplied. Each phase is scaled by its
// own samples because the host's speed also drifts within a run.
func (c *calibrator) slowdownOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	ref := calRef
	if c.conn != nil {
		ref = calEchoRef
	}
	return median(samples) / ref.Seconds()
}
