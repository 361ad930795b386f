package client

import (
	"sync"
	"testing"
)

func mustAlloc(t *testing.T, r *ring, size int) (*extent, *extent) {
	t.Helper()
	e, noopE, err := r.alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return e, noopE
}

func TestRingSequentialAllocFree(t *testing.T) {
	r := newRing(1024)
	var es []*extent
	for i := 0; i < 8; i++ {
		e, noopE := mustAlloc(t, r, 128)
		if noopE != nil {
			t.Fatalf("alloc %d forced a wrap", i)
		}
		es = append(es, e)
	}
	// Buffer exactly full; the next alloc must block until a free.
	done := make(chan *extent, 1)
	go func() {
		e, _, _ := r.alloc(128)
		done <- e
	}()
	select {
	case <-done:
		t.Fatal("alloc succeeded on full ring")
	default:
	}
	r.free(es[0])
	e := <-done
	if e.off != 0 {
		t.Fatalf("wrapped alloc at %d, want 0", e.off)
	}
}

func TestRingWrapReservesNoop(t *testing.T) {
	r := newRing(1024)
	a, noopA := mustAlloc(t, r, 896)
	if noopA != nil {
		t.Fatal("first alloc wrapped")
	}
	r.free(a) // front space free so the wrap can land at 0
	// 128 bytes left at the end; a 256-byte alloc must wrap: the
	// residual is reserved as a NOOP extent and the real extent lands
	// at offset 0.
	e, noopE := mustAlloc(t, r, 256)
	if noopE == nil {
		t.Fatal("no NOOP extent reserved")
	}
	if noopE.off != 896 || noopE.size != 128 || !noopE.noop {
		t.Fatalf("noop extent = %+v", noopE)
	}
	if e.off != 0 || e.size != 256 {
		t.Fatalf("real extent = %+v", e)
	}
	r.free(noopE)
	r.free(e)
}

func TestRingWrapBlocksUntilFrontFree(t *testing.T) {
	r := newRing(1024)
	a, _ := mustAlloc(t, r, 896)
	// Wrap needed but the front is still occupied by a: alloc blocks
	// until a frees, without reserving the NOOP extent while it waits.
	done := make(chan [2]*extent, 1)
	go func() {
		e, noopE, _ := r.alloc(256)
		done <- [2]*extent{e, noopE}
	}()
	select {
	case <-done:
		t.Fatal("alloc succeeded while front occupied")
	default:
	}
	r.mu.Lock()
	held := len(r.extents)
	r.mu.Unlock()
	if held != 1 {
		t.Fatalf("%d extents live while the wrap waits, want only a", held)
	}
	r.free(a)
	got := <-done
	if got[0].off != 0 || got[1] == nil {
		t.Fatalf("post-free alloc = %+v noop %+v", got[0], got[1])
	}
}

func TestRingOutOfOrderFrees(t *testing.T) {
	r := newRing(512)
	a, _ := mustAlloc(t, r, 128)
	b, _ := mustAlloc(t, r, 128)
	c, _ := mustAlloc(t, r, 128)
	r.free(b) // out of order: space not reclaimable yet
	r.free(c)
	d, noopD := mustAlloc(t, r, 128) // fills the ring exactly; head wraps
	if noopD != nil {
		t.Fatal("exact-fill alloc wrapped via noop")
	}
	r.free(a) // now the whole prefix reclaims
	e, noopE := mustAlloc(t, r, 128)
	if noopE != nil || e.off != 0 {
		t.Fatalf("alloc after reclaim = %+v (noop %v)", e, noopE)
	}
	r.free(d)
	r.free(e)
}

func TestRingRejectsOversized(t *testing.T) {
	r := newRing(256)
	if _, _, err := r.alloc(512); err == nil {
		t.Fatal("oversized alloc accepted")
	}
}

func TestFreeListAllocFreeCoalesce(t *testing.T) {
	f := newFreeList(1000)
	a := f.alloc(100)
	b := f.alloc(200)
	c := f.alloc(300)
	if a != 0 || b != 100 || c != 300 {
		t.Fatalf("offsets %d %d %d", a, b, c)
	}
	f.free(b, 200)
	f.free(a, 100)
	// Coalesced [0,300): a 300-byte alloc must fit there.
	if got := f.alloc(300); got != 0 {
		t.Fatalf("coalesced alloc at %d", got)
	}
	f.free(c, 300)
}

func TestFreeListBlocksWhenFull(t *testing.T) {
	f := newFreeList(256)
	a := f.alloc(256)
	got := make(chan int, 1)
	go func() { got <- f.alloc(128) }()
	select {
	case <-got:
		t.Fatal("alloc succeeded while full")
	default:
	}
	f.free(a, 256)
	if off := <-got; off != 0 {
		t.Fatalf("alloc after free at %d", off)
	}
}

func TestFreeListConcurrent(t *testing.T) {
	f := newFreeList(64 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				off := f.alloc(512)
				f.free(off, 512)
			}
		}()
	}
	wg.Wait()
	// All space must be back as one span.
	if off := f.alloc(64 << 10); off != 0 {
		t.Fatalf("full-size alloc at %d after churn", off)
	}
}
