package bench

import (
	"slices"
	"sort"
	"syscall"
	"time"
)

// This file is the one A/B protocol every "feature off vs on"
// experiment shares: interleaved trial pairs, each side's median trial,
// and the overhead as the median of the per-pair ratios. Interleaving
// makes a drift in background load (a concurrent test binary, a noisy
// neighbour) hit both sides alike instead of landing on whichever side
// ran during it, and the median discards the pairs a short burst split.

// abPairs holds the trials of an interleaved A/B run: Off[i] and On[i]
// ran back to back.
type abPairs[T any] struct {
	Off, On []T
}

// runAB runs n interleaved (off, on) trial pairs of trial at opsPerSec
// offered load (0 = unpaced).
func runAB[T any](n int, opsPerSec float64, trial func(on bool, opsPerSec float64) (T, error)) (abPairs[T], error) {
	var p abPairs[T]
	for i := 0; i < n; i++ {
		off, err := trial(false, opsPerSec)
		if err != nil {
			return p, err
		}
		on, err := trial(true, opsPerSec)
		if err != nil {
			return p, err
		}
		p.Off = append(p.Off, off)
		p.On = append(p.On, on)
	}
	return p, nil
}

// median returns one side's median trial by metric.
func (p abPairs[T]) median(on bool, metric func(T) float64) T {
	trials := slices.Clone(p.Off)
	if on {
		trials = slices.Clone(p.On)
	}
	sort.Slice(trials, func(i, j int) bool { return metric(trials[i]) < metric(trials[j]) })
	return trials[len(trials)/2]
}

// overhead returns how much worse the on side is than the off side in
// metric, as a percentage: the median over pairs of each pair's
// relative difference, clamped at 0 (noise making on look better is
// no overhead). higherIsBetter selects a rate (throughput lost) versus
// a cost such as ns/op (cost added).
func (p abPairs[T]) overhead(metric func(T) float64, higherIsBetter bool) float64 {
	pcts := make([]float64, 0, len(p.Off))
	for i := range p.Off {
		off, on := metric(p.Off[i]), metric(p.On[i])
		if off <= 0 {
			continue
		}
		d := (on - off) / off * 100
		if higherIsBetter {
			d = -d
		}
		pcts = append(pcts, d)
	}
	if len(pcts) == 0 {
		return 0
	}
	sort.Float64s(pcts)
	m := pcts[len(pcts)/2]
	if len(pcts)%2 == 0 {
		m = (pcts[len(pcts)/2-1] + m) / 2
	}
	if m < 0 {
		return 0
	}
	return m
}

// pacedRate is the offered load, in ops/s, the paced comparisons run
// at: half a calibrated unpaced throughput. An unthrottled in-memory
// run has no slack for background work (compaction, scraping, GC), so
// it measures only raw speed; at half rate the comparison measures
// what the feature costs a deployment with headroom.
func pacedRate(calibratedKops float64) float64 { return calibratedKops * 1000 * 0.5 }

// waitUntil pauses the pacing loop until the scheduled arrival time
// with time.Sleep. Sleeping (rather than spinning the deadline down)
// matters on small machines: the yielded CPU is exactly the slack the
// compaction goroutines overlap into. Sleep jitter inflates both
// configurations' latencies equally.
func waitUntil(deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
}

// cpuTime returns the process's user+system CPU time so far. Per-op
// costs measured on it charge every goroutine the work starts
// (compaction, a scraper) but not the wall time other processes take
// from this one, which a wall-clock ns/op would count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who or a bad pointer, and
	// neither can happen here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
