package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one measured phase observed.
type phase struct {
	lat       []time.Duration // per completed operation
	kind      []string        // per completed operation, as lat
	lag       []time.Duration // how late each operation was sent
	attempted int
	failed    int
	wall      time.Duration
	peaks     []uint64 // peak heap above the baseline, per window
}

// closedLoop runs one client that sends its next operation as soon as
// its previous one completes, until d has passed, so the operations a run
// sends are fixed by the seed and the number completed, and so is the
// order in which they reach the program's caches. op returns the latency
// to record, which lets an operation keep its own bookkeeping out of the
// timed part; lag is the client's turnaround between two operations.
func closedLoop(ctx context.Context, d time.Duration, tr *tracer, kind func(i int) string, op func(ctx context.Context, i int) (time.Duration, error)) *phase {
	ph := &phase{}
	start := time.Now()
	deadline := start.Add(d)
	prev := start
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		octx, sp := tr.open(ctx, "loadgen", kind(i), int64(i)+1)
		lat, err := op(octx, i)
		tr.close(sp)
		ph.attempted++
		if err != nil {
			ph.failed++
		} else {
			ph.lat = append(ph.lat, lat)
			ph.kind = append(ph.kind, kind(i))
		}
		ph.lag = append(ph.lag, t0.Sub(prev))
		prev = time.Now()
	}
	ph.wall = time.Since(start)
	return ph
}

// openLoop sends operation i at start+due[i] whether or not earlier
// operations have completed, over conns concurrent senders (one per
// connection), and times each from its due time, so a stall counts
// against every request queued behind it. Lag is how late each request
// was actually sent. An overloaded system falls ever further behind, so
// requests still unsent a quarter of the phase past the last due time
// are dropped and count as failed: the phase ends in bounded time.
func openLoop(ctx context.Context, conns int, due []time.Duration, tr *tracer, kind func(i int) string, op func(ctx context.Context, i int) error) *phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ph   = &phase{}
		wg   sync.WaitGroup
	)
	start := time.Now()
	var cutoff time.Time
	if n := len(due); n > 0 {
		cutoff = start.Add(due[n-1] + due[n-1]/4)
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				if time.Now().After(cutoff) {
					mu.Lock()
					ph.attempted++
					ph.failed++
					mu.Unlock()
					continue
				}
				sent := time.Now()
				octx, sp := tr.open(ctx, "loadgen", kind(i), int64(i)+1)
				err := op(octx, i)
				tr.close(sp)
				done := time.Now()
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
				} else {
					ph.lat = append(ph.lat, done.Sub(at))
					ph.kind = append(ph.kind, kind(i))
				}
				ph.lag = append(ph.lag, sent.Sub(at))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// heapObjects is the runtime metric heap peaks are read from: bytes of
// heap memory occupied by live and not-yet-swept objects.
const heapObjects = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the Go heap every 2 ms on its own goroutine until
// stop, keeping the highest value seen in each window of the given length
// (one window for the whole sampling when window is 0).
type heapPeak struct {
	stopc  chan struct{}
	done   chan struct{}
	window time.Duration
	peaks  []uint64
}

func startHeapPeak(window time.Duration) *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{}), window: window, peaks: []uint64{heapNow()}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-h.stopc:
				return
			case now := <-t.C:
				if h.window > 0 && now.Sub(start) >= time.Duration(len(h.peaks))*h.window {
					h.peaks = append(h.peaks, 0)
				}
				last := &h.peaks[len(h.peaks)-1]
				*last = max(*last, heapNow())
			}
		}
	}()
	return h
}

// stop ends sampling and returns each window's peak above base (0 where
// the heap never rose above it).
func (h *heapPeak) stop(base uint64) []uint64 {
	close(h.stopc)
	<-h.done
	last := &h.peaks[len(h.peaks)-1]
	*last = max(*last, heapNow())
	out := make([]uint64, len(h.peaks))
	for i, p := range h.peaks {
		if p > base {
			out[i] = p - base
		}
	}
	return out
}

// allocCounts reads the cumulative heap allocation counters.
func allocCounts() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
