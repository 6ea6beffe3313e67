package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The benchmark's host is a shared VM. Its vCPUs share physical cores
// with other tenants, and while a neighbour is busy the same instructions
// take up to twice as long here — for minutes at a time, with no steal
// time reported (README, "Observed spread"). A run often sits wholly
// inside one such spell, so no median over its jobs removes it, and two
// sets of runs ten minutes apart read 40% apart on unchanged code.
//
// What does remove it is a yardstick: a fixed amount of work that belongs
// to the benchmark, not to the program under test, timed between the jobs
// of a run. Its time over its time on a quiet host is how slow the host
// is running just then, and the wall-clock times measured next to it are
// scaled by that. The wall-clock metrics are therefore in seconds of the
// quiet host: what the work would have taken had the neighbours been idle.
// The yardstick calls nothing outside this file, so no change to the
// program can move it.

const (
	// yardstickRounds sizes one sample to ~18 ms per core: long enough to
	// time, short enough to take one every second of load.
	yardstickRounds = 33500
	// yardstickQuietSeconds is what a sample takes on the builder's host
	// (Xeon @ 2.10 GHz, 2 vCPUs) with idle neighbours. It only fixes the
	// unit: on a host that is uniformly faster or slower, every time
	// reported scales by the same factor on every commit alike.
	yardstickQuietSeconds = 0.0185
	// hostSensitivity is the share of the yardstick's slowdown the
	// workloads feel: time scales as slowdown^hostSensitivity. The
	// yardstick retires several instructions a cycle, which is what a
	// neighbour on the sibling hyperthread hurts most; the workloads also
	// wait on memory and on each other and slow down less. Fitted over
	// 20 s windows of all four workloads across quiet and busy spells
	// (README, "The yardstick").
	hostSensitivity = 0.65
	// segmentSeconds of closed loop run between two samples. A busy spell
	// lasts minutes but fluctuates within the second, so it takes a
	// sample every second, averaged over the run, to follow it.
	segmentSeconds = 1.0
)

var yardstickH, yardstickV = func() (h, v [4096]byte) {
	x := uint32(2463534242) // xorshift32: any fixed sequence of 4 letters
	for i := range h {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		h[i], v[i] = byte(x&3), byte(x>>8&3)
	}
	return
}()

// yardstick is an X-drop-style antidiagonal sweep over a 256-cell band:
// every cell of an antidiagonal depends only on the two antidiagonals
// before it, so the core overlaps many of them.
//
//go:noinline
func yardstick(rounds int) int32 {
	const band = 256
	var a, b, c [band + 2]int32
	p0, p1, p2 := &a, &b, &c
	var best int32
	for r := 0; r < rounds; r++ {
		off := r & 2047
		h, v := yardstickH[off:off+band], yardstickV[off:off+band]
		for i := 1; i <= band; i++ {
			s := int32(-1)
			if h[i-1] == v[band-i] {
				s = 1
			}
			x := p0[i-1] + s
			if y := p1[i-1] - 1; y > x {
				x = y
			}
			if y := p1[i] - 1; y > x {
				x = y
			}
			if x < best-15 {
				x = -1 << 20
			}
			p2[i] = x
			if x > best {
				best = x
			}
		}
		p0, p1, p2 = p1, p2, p0
	}
	return best
}

var yardstickSink int32

// hostSpeed collects the yardstick samples taken alongside one timed
// stretch. The zero value is ready; a nil *hostSpeed samples nothing.
type hostSpeed struct {
	slow  []float64     // yardstick time over its quiet-host time, per sample
	spent time.Duration // what the samples themselves took
}

// sample runs the yardstick on every core at once, as the workloads do,
// and records the mean slowdown over the cores.
func (h *hostSpeed) sample() {
	if h == nil {
		return
	}
	start := time.Now()
	n := runtime.GOMAXPROCS(0)
	took := make([]float64, n)
	sink := make([]int32, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			sink[g] = yardstick(yardstickRounds)
			took[g] = time.Since(t).Seconds()
		}()
	}
	wg.Wait()
	sum := 0.0
	for g := range took {
		sum += took[g]
		yardstickSink += sink[g]
	}
	h.slow = append(h.slow, sum/float64(n)/yardstickQuietSeconds)
	h.spent += time.Since(start)
}

// slowdown is the yardstick's mean slowdown over the stretch.
func (h *hostSpeed) slowdown() float64 {
	sum := 0.0
	for _, s := range h.slow {
		sum += s
	}
	return sum / float64(len(h.slow))
}

// factor is what the stretch's wall-clock times are divided by to read in
// quiet-host seconds.
func (h *hostSpeed) factor() float64 {
	return math.Pow(h.slowdown(), hostSensitivity)
}
