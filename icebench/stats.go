package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"ice/internal/trace"
)

// meter collects durations and byte counts from the wrappers the
// benchmark hands to the program, and records a benchmark-side span
// around each call. It is shared by runner goroutines.
type meter struct {
	tracer *trace.Tracer
	mu     sync.Mutex
	durs   map[string][]float64 // milliseconds
	bytes  map[string]int64
}

func newMeter(tracer *trace.Tracer) *meter {
	return &meter{tracer: tracer, durs: map[string][]float64{}, bytes: map[string]int64{}}
}

// begin opens the measurement of one call into layer; the returned
// func ends it, counting n bytes moved.
func (m *meter) begin(layer string) func(n int) {
	t0 := time.Now()
	span := m.tracer.StartTrace("", "bench."+layer, "")
	return func(n int) {
		span.End()
		d := msSince(t0)
		m.mu.Lock()
		m.durs[layer] = append(m.durs[layer], d)
		m.bytes[layer] += int64(n)
		m.mu.Unlock()
	}
}

// snapshot copies the samples so far.
func (m *meter) snapshot() (map[string][]float64, map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	durs := make(map[string][]float64, len(m.durs))
	for k, v := range m.durs {
		durs[k] = append([]float64(nil), v...)
	}
	bytes := make(map[string]int64, len(m.bytes))
	for k, v := range m.bytes {
		bytes[k] = v
	}
	return durs, bytes
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolated q-quantile of xs (NaN when
// empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailOK reports whether a p-quantile over n samples has at least ten
// samples beyond it.
func tailOK(n int, p float64) bool { return float64(n)*(1-p) >= 10 }

// interval is a closed time span [a, b].
type interval struct{ a, b time.Time }

// unionLength is the total time covered by the intervals, clipped to
// [lo, hi].
func unionLength(ivs []interval, lo, hi time.Time) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := iv.a, iv.b
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a.Before(clipped[j].a) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		if i == 0 || iv.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = iv
			continue
		}
		if iv.b.After(cur.b) {
			cur.b = iv.b
		}
	}
	total += cur.b.Sub(cur.a)
	return total
}
