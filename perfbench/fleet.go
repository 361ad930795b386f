package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"tebis/internal/cluster"
	"tebis/internal/obs"
	"tebis/internal/shipcodec"
)

// fleet is one running cluster with the registry its nodes export into.
type fleet struct {
	c       *cluster.Cluster
	reg     *obs.Registry
	tr      *obs.Tracer
	clients int
	// newMs is how long cluster.New took.
	newMs float64
}

// openFleet builds a fresh cluster; tr, when non-nil, is its trace ring.
func openFleet(tr *obs.Tracer) (*fleet, error) {
	start := time.Now()
	c, err := cluster.New(sutConfig(tr))
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	f := &fleet{c: c, reg: obs.NewRegistry(), tr: tr, newMs: msSince(start)}
	c.Observe(f.reg)
	return f, nil
}

// connect attaches the closed-loop issuers; traced ones sample into the
// fleet's trace ring.
func (f *fleet) connect(o options, traced bool) ([]*issuer, error) {
	var tr *obs.Tracer
	if traced {
		tr = f.tr
	}
	out := make([]*issuer, issuers)
	for i := range out {
		f.clients++
		name := fmt.Sprintf("bench%d", f.clients)
		cl, err := newClient(f.c, name, tr)
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", name, err)
		}
		out[i] = newIssuer(name, cl, o)
	}
	return out, nil
}

func (f *fleet) close(iss ...[]*issuer) {
	for _, set := range iss {
		for _, is := range set {
			is.cl.Close()
		}
	}
	// Close reports the first server shutdown error; the benchmark has
	// already read everything it measures by then.
	_ = f.c.Close()
}

// snap is the cluster's exported counters and the process's memory
// statistics at one instant.
type snap struct {
	tot cluster.Totals
	// all maps every exported series, as ReadSeries names it, to its value.
	all map[string]float64
	mem runtime.MemStats
}

func (f *fleet) snap() snap {
	s := snap{tot: f.c.Totals(), all: f.reg.ReadSeries()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// series returns every value of family whose labels contain all of
// match, skipping NaN (ratios with nothing behind them yet).
func (s snap) series(family string, match ...string) []float64 {
	var out []float64
	for k, v := range s.all {
		if k != family && !strings.HasPrefix(k, family+"{") || math.IsNaN(v) {
			continue
		}
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(k, m)
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// sum adds every series of family whose labels contain all of match.
func (s snap) sum(family string, match ...string) float64 {
	var total float64
	for _, v := range s.series(family, match...) {
		total += v
	}
	return total
}

// max returns the largest series of family whose labels contain all of
// match, or 0 when there is none.
func (s snap) max(family string, match ...string) float64 {
	var best float64
	for _, v := range s.series(family, match...) {
		best = max(best, v)
	}
	return best
}

// delta is after minus before for one family sum.
func delta(before, after snap, family string, match ...string) float64 {
	return after.sum(family, match...) - before.sum(family, match...)
}

// healthProblems are the cross-signal checks every measured phase must
// pass: no backup evicted, no request shed, and the ship codec never
// put more on the wire than the raw bytes plus one frame header per
// segment.
func healthProblems(before, after snap) []string {
	var out []string
	if ev := delta(before, after, "tebis_backup_evictions_total"); ev != 0 {
		out = append(out, fmt.Sprintf("%v backup evictions: a degraded cluster was measured", ev))
	}
	if shed := delta(before, after, "tebis_admission_shed_total"); shed != 0 {
		out = append(out, fmt.Sprintf("%v requests shed by admission control", shed))
	}
	raw := delta(before, after, "tebis_ship_raw_bytes_total")
	wire := delta(before, after, "tebis_ship_wire_bytes_total")
	segs := delta(before, after, "tebis_ship_segments_total")
	if wire > raw+shipcodec.MaxOverhead*segs {
		out = append(out, fmt.Sprintf("ship codec wire bytes %v exceed raw %v + %d x %v segments",
			wire, raw, shipcodec.MaxOverhead, segs))
	}
	return out
}

// liveSegments counts allocated device segments over every node.
func (f *fleet) liveSegments() uint64 {
	var n uint64
	for _, node := range f.c.Nodes {
		n += node.Device.Stats().SegmentsLive
	}
	return n
}

// spaceAmp is the bytes of every node's allocated device segments per
// live user byte.
func (f *fleet) spaceAmp(liveBytes uint64) float64 {
	return ratio(float64(f.liveSegments()*segmentSize), float64(liveBytes))
}

// liveHeapMiB forces a collection and returns the heap still in use
// outside the MemDevice segment images: those are the simulated disks,
// whose size space_amp already reports, and they would otherwise make
// the heap track how much data the phase wrote.
func (f *fleet) liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(m.HeapAlloc) - float64(f.liveSegments()*segmentSize)) / (1 << 20)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
