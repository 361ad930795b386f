package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"tebis/internal/btree"
	"tebis/internal/lsm"
	"tebis/internal/memtable"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/vlog"
	"tebis/internal/wire"
	"tebis/internal/ycsb"
)

// The layer pass replays a workload's own generated inputs, at
// o.layerRecords scale, through each layer's public functions in
// isolation and times them from here: ns, allocations and allocated
// bytes per call. Each timed batch of calls is one benchmark span.

// layerInputs are a workload's writes and reads at layer-pass scale.
type layerInputs struct {
	puts []ycsb.Op
	gets [][]byte
}

// layerInputsFor generates the workload's inputs over o.layerRecords
// records: load_a's inserts (read back in order), or run_a's and
// run_c's preload followed by their seeded op streams.
func layerInputsFor(o options, w workload) layerInputs {
	n := o.layerRecords
	var in layerInputs
	base := uint64(0)
	if !w.preload {
		base = loadBase(o.seed)
	}
	load := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.LoadA, Mix: mix})
	load.SetLoadRange(base, base+n)
	for op, ok := load.Next(); ok; op, ok = load.Next() {
		in.puts = append(in.puts, cloneOp(op))
	}
	if !w.preload {
		for _, op := range in.puts {
			in.gets = append(in.gets, op.Key)
		}
		return in
	}
	g := ycsb.NewGenerator(ycsb.Config{Workload: w.phase, Records: n, Mix: mix, Seed: o.seed * 1000})
	for i := uint64(0); i < n; i++ {
		op, _ := g.Next()
		if op.Kind == ycsb.OpRead {
			in.gets = append(in.gets, op.Key)
		} else {
			in.puts = append(in.puts, cloneOp(op))
		}
	}
	return in
}

func cloneOp(op ycsb.Op) ycsb.Op {
	op.Key = append([]byte(nil), op.Key...)
	op.Value = append([]byte(nil), op.Value...)
	return op
}

// layerSpan is one timed batch of calls into a layer.
type layerSpan struct {
	name  string
	calls int
	start time.Time
	dur   time.Duration
}

// cost is what one timed batch of calls took.
type cost struct {
	calls          int
	dur            time.Duration
	allocs, alloc  uint64
	bytesProcessed int
}

func (c cost) nsPerCall() float64     { return ratio(float64(c.dur), float64(c.calls)) }
func (c cost) allocsPerCall() float64 { return ratio(float64(c.allocs), float64(c.calls)) }
func (c cost) bytesPerCall() float64  { return ratio(float64(c.alloc), float64(c.calls)) }
func (c cost) nsPerKiB() float64 {
	return ratio(float64(c.dur), float64(c.bytesProcessed)/1024)
}

// layerPass holds the pass's spans and failed checks.
type layerPass struct {
	spans    []layerSpan
	problems []string
	values   map[string]float64
}

// timed runs fn, which makes calls calls into a layer, and records its
// duration, allocation counts and span.
func (lp *layerPass) timed(name string, calls int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	lp.spans = append(lp.spans, layerSpan{name: name, calls: calls, start: start, dur: dur})
	return cost{calls: calls, dur: dur, allocs: m1.Mallocs - m0.Mallocs, alloc: m1.TotalAlloc - m0.TotalAlloc}
}

func (lp *layerPass) fail(format string, args ...any) {
	lp.problems = append(lp.problems, fmt.Sprintf("layer pass: "+format, args...))
}

// runLayerPass replays in through every layer and fills lp.values.
func runLayerPass(in layerInputs) (*layerPass, error) {
	lp := &layerPass{values: map[string]float64{}}
	v := lp.values
	if len(in.puts) == 0 || len(in.gets) == 0 {
		return nil, fmt.Errorf("layer pass needs puts and gets, got %d and %d", len(in.puts), len(in.gets))
	}

	// memtable: the engine's L0 holds at most L0MaxKeys entries, so the
	// inserts fill a fresh table every l0Keys, and reads probe the last
	// one the way every lsm.Get probes L0 before the levels.
	l0Keys := lsmTemplate().L0MaxKeys
	var table *memtable.Table
	c := lp.timed("memtable.Insert", len(in.puts), func() {
		for i, op := range in.puts {
			if i%l0Keys == 0 {
				table = memtable.New(int64(i))
			}
			table.Insert(op.Key, storage.Offset(i+1), false)
		}
	})
	v["memtable.insert_ns"], v["memtable.insert_allocs"] = c.nsPerCall(), c.allocsPerCall()
	c = lp.timed("memtable.Get", len(in.gets), func() {
		for _, k := range in.gets {
			table.Get(k)
		}
	})
	v["memtable.get_ns"] = c.nsPerCall()

	// vlog: append every write, then read the latest record of every
	// read key back by offset.
	logDev, err := storage.NewMemDevice(segmentSize, 0)
	if err != nil {
		return nil, err
	}
	defer logDev.Close()
	log, err := vlog.New(logDev)
	if err != nil {
		return nil, err
	}
	latest := make(map[string]storage.Offset, len(in.puts))
	offs := make([]storage.Offset, len(in.puts))
	var appendErr error
	c = lp.timed("vlog.Append", len(in.puts), func() {
		for i, op := range in.puts {
			res, err := log.Append(op.Key, op.Value, false)
			if err != nil {
				appendErr = err
				return
			}
			offs[i] = res.Off
		}
	})
	if appendErr != nil {
		return nil, fmt.Errorf("vlog.Append: %w", appendErr)
	}
	v["vlog.append_ns"], v["vlog.append_allocs"] = c.nsPerCall(), c.allocsPerCall()
	want := make(map[string][]byte, len(in.puts))
	for i, op := range in.puts {
		latest[string(op.Key)] = offs[i]
		want[string(op.Key)] = op.Value
	}
	getOffs := make([]storage.Offset, len(in.gets))
	for i, k := range in.gets {
		getOffs[i] = latest[string(k)]
	}
	var vlogBad int
	c = lp.timed("vlog.Get", len(getOffs), func() {
		for i, off := range getOffs {
			pair, _, err := log.Get(off)
			if err != nil || !bytes.Equal(pair.Value, want[string(in.gets[i])]) {
				vlogBad++
			}
		}
	})
	if vlogBad > 0 {
		lp.fail("vlog.Get returned %d wrong records", vlogBad)
	}
	v["vlog.get_ns"], v["vlog.get_allocs"] = c.nsPerCall(), c.allocsPerCall()

	// btree: bulk-build the sorted latest keys, look every read key up,
	// then rewrite every emitted segment's offsets as a backup does.
	keys := make([]string, 0, len(latest))
	for k := range latest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	idxDev, err := storage.NewMemDevice(segmentSize, 0)
	if err != nil {
		return nil, err
	}
	defer idxDev.Close()
	var emitted []btree.EmittedSegment
	var built btree.Built
	var buildErr error
	c = lp.timed("btree.Build", len(keys), func() {
		b, err := btree.NewBuilder(idxDev, nodeSize, func(s btree.EmittedSegment) error {
			s.Data = append([]byte(nil), s.Data...)
			emitted = append(emitted, s)
			return nil
		})
		if err != nil {
			buildErr = err
			return
		}
		for _, k := range keys {
			if err := b.Add([]byte(k), latest[k], false); err != nil {
				buildErr = err
				return
			}
		}
		built, buildErr = b.Finish()
	})
	if buildErr != nil {
		return nil, fmt.Errorf("btree build: %w", buildErr)
	}
	v["btree.build_ns_per_key"] = c.nsPerCall()
	tree := btree.NewTree(idxDev, nodeSize, built.Root)
	fullKey := func(off storage.Offset) ([]byte, error) { return log.GetKey(off) }
	reads0 := idxDev.Stats().ReadOps
	var treeBad int
	c = lp.timed("btree.Get", len(in.gets), func() {
		for i, k := range in.gets {
			off, _, found, err := tree.Get(k, fullKey)
			if err != nil || !found || off != getOffs[i] {
				treeBad++
			}
		}
	})
	if treeBad > 0 {
		lp.fail("btree.Get missed %d keys", treeBad)
	}
	v["btree.get_ns"], v["btree.get_allocs"], v["btree.get_bytes"] = c.nsPerCall(), c.allocsPerCall(), c.bytesPerCall()
	v["btree.nodes_read_per_get"] = ratio(float64(idxDev.Stats().ReadOps-reads0), float64(len(in.gets)))
	identity := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
	var rewriteErr error
	c = lp.timed("btree.RewriteSegment", len(emitted), func() {
		for _, s := range emitted {
			if _, err := btree.RewriteSegment(s.Data, nodeSize, idxDev.Geometry(), identity, identity); err != nil {
				rewriteErr = err
				return
			}
		}
	})
	if rewriteErr != nil {
		lp.fail("btree.RewriteSegment: %v", rewriteErr)
	}
	v["btree.rewrite_ns_per_segment"] = c.nsPerCall()

	if err := lp.engine(in, want); err != nil {
		return nil, err
	}
	if err := lp.wireAndRDMA(in, want); err != nil {
		return nil, err
	}
	return lp, nil
}

// shipCapture is a benchmark-side lsm.Listener keeping a copy of every
// index segment the engine would ship to a backup.
type shipCapture struct {
	mu   sync.Mutex
	segs []capturedSegment
}

type capturedSegment struct {
	job   lsm.CompactionJob
	index int
	data  []byte
}

func (s *shipCapture) OnAppend(vlog.AppendResult, *obs.ReqTrace) {}
func (s *shipCapture) OnCompactionStart(lsm.CompactionJob)       {}
func (s *shipCapture) OnCompactionDone(lsm.CompactionResult)     {}
func (s *shipCapture) OnTrim(storage.Offset)                     {}
func (s *shipCapture) OnIndexSegment(job lsm.CompactionJob, seg btree.EmittedSegment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	index := 0
	for _, c := range s.segs {
		if c.job.ID == job.ID {
			index++
		}
	}
	s.segs = append(s.segs, capturedSegment{job: job, index: index, data: append([]byte(nil), seg.Data...)})
}

// engine runs the writes and reads through one lsm.DB on its own device
// and the captured segments through the ship codec.
func (lp *layerPass) engine(in layerInputs, want map[string][]byte) error {
	v := lp.values
	dev, err := storage.NewMemDevice(segmentSize, 0)
	if err != nil {
		return err
	}
	defer dev.Close()
	capture := &shipCapture{}
	opt := lsmTemplate()
	opt.Device, opt.Listener = dev, capture
	db, err := lsm.New(opt)
	if err != nil {
		return fmt.Errorf("lsm.New: %w", err)
	}
	defer db.Close()
	var putErr error
	c := lp.timed("lsm.Put", len(in.puts), func() {
		for _, op := range in.puts {
			if err := db.Put(op.Key, op.Value); err != nil {
				putErr = err
				return
			}
		}
	})
	if putErr != nil {
		return fmt.Errorf("lsm.Put: %w", putErr)
	}
	v["lsm.put_ns"], v["lsm.put_allocs"] = c.nsPerCall(), c.allocsPerCall()
	if err := db.WaitIdle(); err != nil {
		return fmt.Errorf("lsm.WaitIdle: %w", err)
	}
	read0 := dev.Stats().BytesRead
	var bad int
	c = lp.timed("lsm.Get", len(in.gets), func() {
		for _, k := range in.gets {
			val, found, err := db.Get(k)
			if err != nil || !found || !bytes.Equal(val, want[string(k)]) {
				bad++
			}
		}
	})
	if bad > 0 {
		lp.fail("lsm.Get returned %d wrong values", bad)
	}
	v["lsm.get_ns"], v["lsm.get_allocs"], v["lsm.get_bytes"] = c.nsPerCall(), c.allocsPerCall(), c.bytesPerCall()
	v["lsm.get_device_read_bytes"] = ratio(float64(dev.Stats().BytesRead-read0), float64(len(in.gets)))
	scans := in.gets
	if len(scans) > maxLayerScans {
		scans = scans[:maxLayerScans]
	}
	var scanErr error
	c = lp.timed("lsm.ScanN", len(scans), func() {
		for _, k := range scans {
			if _, err := db.ScanN(k, scanLength); err != nil {
				scanErr = err
				return
			}
		}
	})
	if scanErr != nil {
		lp.fail("lsm.ScanN: %v", scanErr)
	}
	v["lsm.scan_ns"], v["lsm.scan_allocs"] = c.nsPerCall(), c.allocsPerCall()

	capture.mu.Lock()
	segs := capture.segs
	capture.mu.Unlock()
	return lp.shipCodec(segs)
}

const (
	// maxLayerScans bounds the scans the layer pass times.
	maxLayerScans = 2000
	// scanLength is the YCSB short-scan length.
	scanLength = 16
)

// shipCodec encodes every captured segment in full, and as a delta
// against the same-position segment of the previous compaction into
// the same level, then decodes each frame and checks the round trip.
func (lp *layerPass) shipCodec(segs []capturedSegment) error {
	v := lp.values
	if len(segs) == 0 {
		return fmt.Errorf("layer pass: the engine shipped no index segments")
	}
	type key struct{ level, index int }
	prev := map[key][]byte{}
	bases := make([][]byte, len(segs))
	for i, s := range segs {
		k := key{s.job.DstLevel, s.index}
		bases[i] = prev[k]
		prev[k] = s.data
	}
	frames := make([][]byte, len(segs))
	deltas := make([][]byte, len(segs))
	var rawBytes int
	var encErr error
	c := lp.timed("shipcodec.Encode", len(segs), func() {
		for i, s := range segs {
			f, err := shipcodec.Encode(shipcodec.Flate, s.data)
			if err != nil {
				encErr = err
				return
			}
			frames[i] = f
			rawBytes += len(s.data)
			if bases[i] == nil {
				continue
			}
			d, ok, err := shipcodec.EncodeDelta(shipcodec.Flate, s.data, bases[i], nodeSize)
			if err != nil {
				encErr = err
				return
			}
			if ok {
				deltas[i] = d
				rawBytes += len(s.data)
			}
		}
	})
	if encErr != nil {
		return fmt.Errorf("shipcodec encode: %w", encErr)
	}
	c.bytesProcessed = rawBytes
	v["shipcodec.encode_ns_per_kb"] = c.nsPerKiB()
	var bad int
	c = lp.timed("shipcodec.Decode", len(segs), func() {
		for i, s := range segs {
			raw, err := shipcodec.Decode(frames[i], nil, nodeSize)
			if err != nil || !bytes.Equal(raw, s.data) {
				bad++
			}
			if deltas[i] == nil {
				continue
			}
			raw, err = shipcodec.Decode(deltas[i], bases[i], nodeSize)
			if err != nil || !bytes.Equal(raw, s.data) {
				bad++
			}
		}
	})
	c.bytesProcessed = rawBytes
	if bad > 0 {
		lp.fail("shipcodec round trip failed on %d frames", bad)
	}
	v["shipcodec.decode_ns_per_kb"] = c.nsPerKiB()
	return nil
}

// wireAndRDMA encodes each op as the client does (request payload and
// message) and its reply as the server does, decodes both, and writes
// every request message through a simulated RDMA queue pair.
func (lp *layerPass) wireAndRDMA(in layerInputs, want map[string][]byte) error {
	v := lp.values
	msgs := make([][]byte, 0, len(in.puts)+len(in.gets))
	replies := make([][]byte, 0, len(in.gets))
	var encErr error
	enc := lp.timed("wire.Encode", len(in.puts)+2*len(in.gets), func() {
		for i, op := range in.puts {
			msg, err := encodeMessage(wire.OpPut, uint64(i), wire.PutReq{Key: op.Key, Value: op.Value}.Encode(nil))
			if err != nil {
				encErr = err
				return
			}
			msgs = append(msgs, msg)
		}
		for i, k := range in.gets {
			val := want[string(k)]
			msg, err := encodeMessage(wire.OpGet, uint64(i), wire.GetReq{Key: k}.Encode(nil))
			if err != nil {
				encErr = err
				return
			}
			msgs = append(msgs, msg)
			reply, err := encodeMessage(wire.OpGetReply, uint64(i),
				wire.GetReply{Found: true, TotalSize: uint32(len(val)), Value: val}.Encode(nil))
			if err != nil {
				encErr = err
				return
			}
			replies = append(replies, reply)
		}
	})
	if encErr != nil {
		return fmt.Errorf("wire encode: %w", encErr)
	}
	var bad int
	dec := lp.timed("wire.Decode", enc.calls, func() {
		for i, msg := range msgs {
			_, body, err := wire.DecodeMessage(msg)
			if err != nil {
				bad++
				continue
			}
			if i < len(in.puts) {
				req, err := wire.DecodePutReq(body)
				if err != nil || !bytes.Equal(req.Value, in.puts[i].Value) {
					bad++
				}
			} else if req, err := wire.DecodeGetReq(body); err != nil || !bytes.Equal(req.Key, in.gets[i-len(in.puts)]) {
				bad++
			}
		}
		for i, reply := range replies {
			_, body, err := wire.DecodeMessage(reply)
			if err != nil {
				bad++
				continue
			}
			rep, err := wire.DecodeGetReply(body)
			if err != nil || !bytes.Equal(rep.Value, want[string(in.gets[i])]) {
				bad++
			}
		}
	})
	if bad > 0 {
		lp.fail("wire round trip failed on %d messages", bad)
	}
	v["wire.encode_ns"], v["wire.decode_ns"] = enc.nsPerCall(), dec.nsPerCall()
	v["wire.allocs_per_msg"] = ratio(float64(enc.allocs+dec.allocs), float64(enc.calls))

	// rdma: one-sided writes of every request message into a
	// registered region, each waited on like the client waits.
	local, remote := rdma.NewEndpoint("perfbench-client"), rdma.NewEndpoint("perfbench-server")
	region, err := remote.Register(rdmaRegion)
	if err != nil {
		return fmt.Errorf("rdma register: %w", err)
	}
	qp := rdma.Connect(local, remote, 16)
	defer qp.Close()
	var total int
	var writeErr error
	c := lp.timed("rdma.QP.Write", len(msgs), func() {
		off := 0
		for i, msg := range msgs {
			if off+len(msg) > rdmaRegion {
				off = 0
			}
			if err := qp.Write(region.RKey(), off, msg, uint64(i)); err != nil {
				writeErr = err
				return
			}
			if _, err := qp.WaitCompletion(); err != nil {
				writeErr = err
				return
			}
			off += len(msg)
			total += len(msg)
		}
	})
	if writeErr != nil {
		return fmt.Errorf("rdma write: %w", writeErr)
	}
	v["rdma.write_ns"] = c.nsPerCall()
	v["rdma.bytes_per_op"] = ratio(float64(total), float64(len(msgs)))
	return nil
}

// rdmaRegion is the registered region the rdma layer pass writes into,
// the size of a server's request ring.
const rdmaRegion = 1 << 20

// encodeMessage frames payload the way a client frames a request.
func encodeMessage(op wire.Op, id uint64, payload []byte) ([]byte, error) {
	msg := make([]byte, wire.MessageSize(len(payload)))
	_, err := wire.EncodeMessage(msg, wire.Header{Opcode: op, RequestID: id}, payload)
	return msg, err
}
