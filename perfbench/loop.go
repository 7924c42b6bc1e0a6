package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// phase is the outcome of one measured window.
type phase struct {
	lat       latencies
	attempted int
	failed    int
	errs      []string // the first few failure reasons
	elapsed   float64  // host seconds
	alloc     uint64   // Go heap bytes allocated during the window
	// parts splits a closed loop's ops into whole cycles of its inputs.
	// Its throughput is the median over parts, so a burst of
	// interference from outside the process moves one part, not the
	// result.
	parts []part
	// busy is, in an open loop, the summed server-side execution time of
	// the completed ops; throughput is then ops per busy second, a
	// figure of the server rather than of the offered rate.
	busy float64
}

// part is ops [start, start+n) of a closed loop and their host seconds.
type part struct {
	start, n int
	elapsed  float64
}

const maxErrs = 5

// fail records a failed op.
func (p *phase) fail(k int, err error) {
	p.failed++
	if len(p.errs) < maxErrs {
		p.errs = append(p.errs, fmt.Sprintf("op %d: %v", k, err))
	}
}

// opsPerS is completed (not failed) ops per second: per busy second in an
// open loop, the median over parts of ops per host second in a closed one.
func (p phase) opsPerS() float64 {
	done := func(l latencies) int {
		n := 0
		for _, x := range l {
			if !math.IsInf(x, 1) {
				n++
			}
		}
		return n
	}
	if p.busy > 0 {
		return float64(done(p.lat)) / p.busy
	}
	var per []float64
	for _, pt := range p.parts {
		per = append(per, float64(done(p.lat[pt.start:pt.start+pt.n]))/pt.elapsed)
	}
	return median(per)
}

// add folds q's op counts and latencies into p (a traced run counts the
// ops of both its windows).
func (p phase) add(q phase) phase {
	p.lat = append(append(latencies(nil), p.lat...), q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	return p
}

// minOps is the fewest ops a window runs, so at least ten samples lie
// beyond the 90th percentile.
const minOps = 100

// heapAlloc is the Go heap allocated so far; ReadMemStats stops the
// world, so it is called only at window edges.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// closedLoop is one caller that sends op k+1 once op k has returned. It
// runs whole cycles of the n inputs, so every window weighs each input
// equally, until seconds have passed and at least min ops have run. op is
// the timed call; after, when non-nil, is untimed per-op work (the traced
// run's layer replays) that still falls inside the window. Either
// returning an error fails op k.
func closedLoop(seconds float64, n, min int, op, after func(k int) error) phase {
	runtime.GC()
	var p phase
	a0 := heapAlloc()
	start := time.Now()
	for {
		c0 := time.Now()
		pt := part{start: p.attempted, n: n}
		for i := 0; i < n; i++ {
			k := p.attempted
			t0 := time.Now()
			err := op(k)
			d := time.Since(t0).Seconds()
			if err == nil && after != nil {
				err = after(k)
			}
			p.attempted++
			if err != nil {
				p.fail(k, err)
				d = math.Inf(1)
			}
			p.lat = append(p.lat, d)
		}
		pt.elapsed = time.Since(c0).Seconds()
		p.parts = append(p.parts, pt)
		if time.Since(start).Seconds() >= seconds && p.attempted >= min {
			break
		}
	}
	p.elapsed = time.Since(start).Seconds()
	p.alloc = heapAlloc() - a0
	return p
}
