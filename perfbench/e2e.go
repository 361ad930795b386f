package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tebis/internal/obs"
	"tebis/internal/ycsb"
)

// phase is what one measured phase moved and cost.
type phase struct {
	ops       uint64
	userBytes uint64
	start     int64 // nanoseconds since clockEpoch
	elapsed   time.Duration
	before    snap
	after     snap
}

// issuerCounts sums the issuers' op and user-byte counters.
func issuerCounts(iss []*issuer) (ops, userBytes uint64) {
	for _, is := range iss {
		ops += is.ops
		userBytes += is.userBytes
	}
	return ops, userBytes
}

// measure runs one phase on f and drains the cluster afterwards, so
// compactions the phase deferred are charged to it (paper §4).
func measure(f *fleet, iss []*issuer, run func() time.Duration) (phase, error) {
	ops0, user0 := issuerCounts(iss)
	p := phase{before: f.snap()}
	p.start = sinceEpoch(time.Now())
	p.elapsed = run()
	ops1, user1 := issuerCounts(iss)
	p.ops, p.userBytes = ops1-ops0, user1-user0
	if err := f.c.FlushAll(); err != nil {
		return p, fmt.Errorf("drain after phase: %w", err)
	}
	p.after = f.snap()
	return p, nil
}

// amplification returns device and network bytes per user byte and
// modelled cycles per op over the phase.
func (p phase) amplification() (io, net, kcyclesPerOp float64) {
	user := float64(p.userBytes)
	io = ratio(float64(p.after.tot.DeviceBytes-p.before.tot.DeviceBytes), user)
	net = ratio(float64(p.after.tot.NetServerBytes-p.before.tot.NetServerBytes), user)
	cycles := p.after.tot.Cycles.Total() - p.before.tot.Cycles.Total()
	kcyclesPerOp = ratio(float64(cycles), float64(p.ops)) / 1000
	return io, net, kcyclesPerOp
}

// window is one measured interval's throughput and latency percentiles.
type window struct {
	kops                           float64
	putP50, putP99, getP50, getP99 float64 // µs; NaN without samples
}

// windowOf summarises the client-call spans of one interval of dur.
func windowOf(spans []opSpan, dur time.Duration) window {
	var put, get []int64
	for _, s := range spans {
		if s.get {
			get = append(get, s.dur)
		} else {
			put = append(put, s.dur)
		}
	}
	put, get = sortedCopy(put), sortedCopy(get)
	return window{
		kops:   float64(len(spans)) / dur.Seconds() / 1000,
		putP50: percentile(put, 50) / 1e3,
		putP99: percentile(put, 99) / 1e3,
		getP50: percentile(get, 50) / 1e3,
		getP99: percentile(get, 99) / 1e3,
	}
}

// split cuts a timed phase that started at start into windows of
// windowLen (one window when the phase is shorter) and summarises each;
// calls started after the last whole window are left out.
func split(spans []opSpan, start int64, phaseLen time.Duration) []window {
	n, size := int(phaseLen/windowLen), windowLen
	if n == 0 {
		n, size = 1, phaseLen
	}
	buckets := make([][]opSpan, n)
	for _, s := range spans {
		if i := int((s.start - start) / int64(size)); i >= 0 && i < n {
			buckets[i] = append(buckets[i], s)
		}
	}
	out := make([]window, n)
	for i, b := range buckets {
		out[i] = windowOf(b, size)
	}
	return out
}

// windowLen is the window the run phases are cut into. Throughput and
// latencies are medians over windows, so a disturbance shorter than
// half the measured time (CPU steal on a shared host comes in bursts of
// a few seconds) moves some windows, not the result.
const windowLen = time.Second

// medianOf is the median of one window field, ignoring windows without
// samples for it.
func medianOf(ws []window, field func(window) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if x := field(w); !math.IsNaN(x) {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

// takeSpans returns the issuers' recorded client-call spans and clears
// them.
func takeSpans(iss []*issuer) []opSpan {
	var out []opSpan
	for _, is := range iss {
		out = append(out, is.spans...)
		is.spans = nil
	}
	return out
}

// timedOpen builds a cluster and connects its issuers, returning the
// set-up time in seconds.
func timedOpen(o options, tr *obs.Tracer) (*fleet, []*issuer, float64, error) {
	runtime.GC()
	start := time.Now()
	f, err := openFleet(tr)
	if err != nil {
		return nil, nil, 0, err
	}
	iss, err := f.connect(o, false)
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, iss, time.Since(start).Seconds(), nil
}

// runEndToEnd is the untraced run that produces the end-to-end metrics.
func runEndToEnd(o options, w workload) (*outcome, error) {
	out := newOutcome()
	var (
		setups                          []float64
		windows, putWindows, getWindows []window
		ios, nets, cycles, spaces, heap []float64
		ops                             uint64
		elapsed                         time.Duration
	)
	// record charges a phase's traffic and cost. Call it after the
	// phase's spans are taken, so they are not counted as live heap.
	record := func(f *fleet, p phase) {
		io, net, kc := p.amplification()
		ios, nets, cycles = append(ios, io), append(nets, net), append(cycles, kc)
		heap = append(heap, f.liveHeapMiB())
		out.problems = append(out.problems, healthProblems(p.before, p.after)...)
		ops += p.ops
		elapsed += p.elapsed
	}

	if !w.preload {
		// load_a: rounds of the same inserts into a fresh cluster until
		// the measured time is spent, each drained and read back. A load
		// is not stationary (its tree deepens as it runs), so each round's
		// load and read-back is one window rather than being cut by time.
		base := loadBase(o.seed)
		// Bring-up takes milliseconds, so more samples steady its median.
		for i := 0; i < bringUpSamples; i++ {
			f, iss, setup, err := timedOpen(o, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
			f.close(iss)
		}
		for elapsed < seconds(o) {
			f, iss, setup, err := timedOpen(o, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
			for _, is := range iss {
				is.record = true
			}
			p, err := measure(f, iss, func() time.Duration {
				return runPhase(iss, loadStreams(iss, base, o.records), 0)
			})
			if err != nil {
				return nil, err
			}
			windows = append(windows, windowOf(takeSpans(iss), p.elapsed))
			record(f, p)
			spaces = append(spaces, f.spaceAmp(p.userBytes))
			backTime := readBack(iss, base, o.records)
			getWindows = append(getWindows, windowOf(takeSpans(iss), backTime))
			out.absorb(iss)
			f.close(iss)
		}
		putWindows = windows
	} else {
		pf, iss, preloads, setupTimes, err := preloaded(o, nil, out)
		if err != nil {
			return nil, err
		}
		setups = setupTimes
		for _, is := range iss {
			is.record = true
		}
		runtime.GC()
		p, err := measure(pf.fleet, iss, func() time.Duration {
			return runPhase(iss, runStreams(iss, w, o.records, o.seed), seconds(o))
		})
		if err != nil {
			return nil, err
		}
		windows = split(takeSpans(iss), p.start, seconds(o))
		record(pf.fleet, p)
		spaces = append(spaces, pf.loadedSpace)
		putWindows, getWindows = windows, windows
		if w.phase == ycsb.RunC {
			// run_c issues no puts; its put latency is the preloads'.
			putWindows = preloads
		}
		out.absorb(iss)
		pf.close(iss)
	}

	v := out.values
	v["throughput_kops"] = medianOf(windows, func(w window) float64 { return w.kops })
	v["put_p50_us"] = medianOf(putWindows, func(w window) float64 { return w.putP50 })
	v["put_p99_us"] = medianOf(putWindows, func(w window) float64 { return w.putP99 })
	v["get_p50_us"] = medianOf(getWindows, func(w window) float64 { return w.getP50 })
	v["get_p99_us"] = medianOf(getWindows, func(w window) float64 { return w.getP99 })
	v["io_amp"] = median(ios)
	v["net_amp"] = median(nets)
	v["space_amp"] = median(spaces)
	v["model_kcycles_per_op"] = median(cycles)
	v["live_heap_mb"] = median(heap)
	v["setup_s"] = median(setups)
	fmt.Printf("perfbench: %s seed %d: %d ops in %.2fs\n", w.name, o.seed, ops, elapsed.Seconds())
	for i, win := range windows {
		fmt.Printf("perfbench: window %d: %.2f kops/s, put p50/p99 %.1f/%.1f us, get p50/p99 %.1f/%.1f us\n",
			i, win.kops, win.putP50, win.putP99, win.getP50, win.getP99)
	}
	fmt.Printf("perfbench: set-up times %.4v s\n", setups)
	return out, nil
}

// bringUpSamples is how many extra clusters load_a builds and closes
// only to time its set-up.
const bringUpSamples = 9

func seconds(o options) time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// preloadedFleet is a cluster loaded with the dataset during set-up.
type preloadedFleet struct {
	*fleet
	// liveBytes is the user data the preload stored, and loadedSpace the
	// store's space amplification once it is drained.
	liveBytes   uint64
	loadedSpace float64
	// preloadS and drainMs time the last preload and its drain.
	preloadS, drainMs float64
}

// preloaded sets up o.setups clusters in turn — cluster.New, a
// closed-loop load of records [0, o.records), and a drain of every L0
// and pending compaction — and keeps the last one. It returns the
// issuers connected to it, one window per preload, and every set-up's
// duration in seconds.
func preloaded(o options, tr *obs.Tracer, out *outcome) (*preloadedFleet, []*issuer, []window, []float64, error) {
	var (
		pf       *preloadedFleet
		iss      []*issuer
		preloads []window
		setups   []float64
	)
	for s := 0; s < o.setups; s++ {
		if pf != nil {
			out.absorb(iss)
			pf.close(iss)
		}
		f, connected, setup, err := timedOpen(o, tr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		pf, iss = &preloadedFleet{fleet: f}, connected
		for _, is := range iss {
			is.record = true
		}
		loadStart := time.Now()
		runPhase(iss, loadStreams(iss, 0, o.records), 0)
		loadTime := time.Since(loadStart)
		pf.preloadS = loadTime.Seconds()
		drainStart := time.Now()
		if err := f.c.FlushAll(); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("drain after preload: %w", err)
		}
		pf.drainMs = msSince(drainStart)
		setups = append(setups, setup+pf.preloadS+pf.drainMs/1e3)
		preloads = append(preloads, windowOf(takeSpans(iss), loadTime))
		_, pf.liveBytes = issuerCounts(iss)
		pf.loadedSpace = f.spaceAmp(pf.liveBytes)
		for _, is := range iss {
			is.record = false
		}
	}
	return pf, iss, preloads, setups, nil
}
