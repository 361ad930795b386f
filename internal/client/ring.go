// Package client implements the Tebis client library: it caches the
// region map to route each operation to the right primary (§3.1), and
// manages both the request and the reply RDMA buffers of every server
// connection so server workers need no allocation synchronization
// (§3.4.1).
package client

import (
	"fmt"
	"sync"
)

// ring allocates variable-size extents from a circular request buffer.
// Extents are freed out of order (replies arrive out of order) but space
// is reclaimed in FIFO order, exactly like the on-wire buffer the server
// consumes sequentially.
type ring struct {
	mu   sync.Mutex
	cond *sync.Cond
	size int

	head    int // next allocation offset
	extents []*extent
}

type extent struct {
	off  int
	size int
	done bool
	noop bool
}

func newRing(size int) *ring {
	r := &ring{size: size}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// tail returns the offset of the oldest live extent, and whether any
// extents are outstanding.
func (r *ring) tailLocked() (int, bool) {
	if len(r.extents) == 0 {
		return 0, false
	}
	return r.extents[0].off, true
}

// reclaimLocked drops done extents from the front. The head position is
// never reset: it mirrors the server's rendezvous position, which only
// advances (wrapping happens via exact fill or NOOP padding, in
// lockstep with the server's spinning thread).
func (r *ring) reclaimLocked() {
	for len(r.extents) > 0 && r.extents[0].done {
		r.extents = r.extents[1:]
	}
}

// alloc reserves size contiguous bytes, waiting for frees while the
// ring has no room. When the space at the end of the buffer cannot hold
// the message, alloc also reserves that residual as a NOOP extent
// (returned as noopE) and wraps, so that the server's sequential
// rendezvous position stays in lockstep: the caller must transmit a
// NOOP filling noopE (§3.4.2 case b) and free it once acknowledged.
func (r *ring) alloc(size int) (e, noopE *extent, err error) {
	if size > r.size {
		return nil, nil, fmt.Errorf("client: request of %d bytes exceeds buffer %d", size, r.size)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		e, noopE, err := r.tryAllocLocked(size)
		if err != nil || e != nil {
			return e, noopE, err
		}
		r.cond.Wait()
	}
}

// tryAllocLocked is one non-blocking allocation step: it either places
// the request (with its NOOP wrap extent, if the placement wraps), fails
// for good, or returns nil extents and reserves nothing, telling the
// caller to wait for a free. A wrap and the placement after it happen
// in the same step: a waiter never holds a reserved NOOP extent, since
// that extent would head the FIFO and keep every extent freed behind it
// in the front region from being reclaimed — the waiter would wait on
// itself. Caller holds r.mu.
func (r *ring) tryAllocLocked(size int) (e, noopE *extent, err error) {
	r.reclaimLocked()
	tail, busy := r.tailLocked()
	switch {
	case busy && r.head == tail:
		// Extents occupy the whole ring.
		return nil, nil, nil
	case busy && r.head < tail:
		// Free space is [head, tail).
		if r.head+size > tail {
			return nil, nil, nil
		}
		return r.placeLocked(size), nil, nil
	}
	// Free space is [head, end) plus [0, tail) — all of [0, head) when
	// the ring is drained.
	if r.head+size <= r.size {
		return r.placeLocked(size), nil, nil
	}
	// The front region a wrap opens is capped by the wrap position: a
	// request that exceeds it can never be placed, however much is
	// freed.
	if size > r.head {
		return nil, nil, fmt.Errorf("client: request of %d bytes cannot fit ahead of wrap position %d", size, r.head)
	}
	if busy && size > tail {
		// The front region is still occupied: wait without reserving.
		return nil, nil, nil
	}
	noopE = &extent{off: r.head, size: r.size - r.head, noop: true}
	r.extents = append(r.extents, noopE)
	r.head = 0
	return r.placeLocked(size), noopE, nil
}

// placeLocked appends an extent of size bytes at head. The caller has
// checked that it fits. Caller holds r.mu.
func (r *ring) placeLocked(size int) *extent {
	e := &extent{off: r.head, size: size}
	r.head += size
	if r.head == r.size {
		r.head = 0
	}
	r.extents = append(r.extents, e)
	return e
}

// free marks an extent done and reclaims any freed prefix.
func (r *ring) free(e *extent) {
	r.mu.Lock()
	e.done = true
	r.reclaimLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// freeList is a first-fit allocator for the reply buffer.
type freeList struct {
	mu   sync.Mutex
	cond *sync.Cond
	// spans are free [off, off+size) ranges sorted by offset.
	spans []span
}

type span struct{ off, size int }

func newFreeList(size int) *freeList {
	f := &freeList{spans: []span{{0, size}}}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// alloc reserves size bytes, blocking until space is available.
func (f *freeList) alloc(size int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for i := range f.spans {
			if f.spans[i].size >= size {
				off := f.spans[i].off
				f.spans[i].off += size
				f.spans[i].size -= size
				if f.spans[i].size == 0 {
					f.spans = append(f.spans[:i], f.spans[i+1:]...)
				}
				return off
			}
		}
		f.cond.Wait()
	}
}

// free returns a range, coalescing adjacent spans.
func (f *freeList) free(off, size int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := 0
	for i < len(f.spans) && f.spans[i].off < off {
		i++
	}
	f.spans = append(f.spans, span{})
	copy(f.spans[i+1:], f.spans[i:])
	f.spans[i] = span{off, size}
	// Coalesce with neighbours.
	if i+1 < len(f.spans) && f.spans[i].off+f.spans[i].size == f.spans[i+1].off {
		f.spans[i].size += f.spans[i+1].size
		f.spans = append(f.spans[:i+1], f.spans[i+2:]...)
	}
	if i > 0 && f.spans[i-1].off+f.spans[i-1].size == f.spans[i].off {
		f.spans[i-1].size += f.spans[i].size
		f.spans = append(f.spans[:i], f.spans[i+1:]...)
	}
	f.cond.Broadcast()
}
