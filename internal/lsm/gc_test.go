package lsm

import (
	"fmt"
	"testing"
)

func TestGCOnceMovesLiveRecords(t *testing.T) {
	db := gcTestDB(t)
	// Every tenth key is written once and never again; the rest are
	// overwritten each round. The early segments turn mostly dead but
	// still hold the keepers' only copies, which GC must move, not lose.
	const keys, rounds = 120, 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			if i%10 == 0 && r > 0 {
				continue
			}
			k := []byte(fmt.Sprintf("key-%04d", i))
			v := []byte(fmt.Sprintf("val-%02d-%04d-0123456789abcdef", r, i))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 0.5, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 || res.RecordsMoved == 0 {
		t.Fatalf("GC did not relocate live records and free their segments: %+v", res)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		round := rounds - 1
		if i%10 == 0 {
			round = 0
		}
		k := fmt.Sprintf("key-%04d", i)
		want := fmt.Sprintf("val-%02d-%04d-0123456789abcdef", round, i)
		v, found, err := db.Get([]byte(k))
		if err != nil || !found || string(v) != want {
			t.Fatalf("Get(%s) after GC = %q, %v, %v; want %q", k, v, found, err, want)
		}
	}
}

func TestGCOnceOnEmptyLog(t *testing.T) {
	db := gcTestDB(t)
	res, err := db.GCOnce(GCPolicy{MaxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victims) != 0 || res.SegmentsFreed != 0 || res.RecordsMoved != 0 {
		t.Fatalf("GC on empty log did work: %+v", res)
	}
}

func TestGCNotifiesListener(t *testing.T) {
	opt, _ := testOptions(t)
	rec := &recordingListener{}
	opt.Listener = rec
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i%100)), []byte("0123456789012345")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	res, err := db.GCOnce(GCPolicy{MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsFreed == 0 {
		t.Fatalf("GC freed nothing: %+v", res)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if fmt.Sprint(rec.released) != fmt.Sprint(res.Victims) {
		t.Fatalf("OnRelease got %v, want the pass's victims %v", rec.released, res.Victims)
	}
}
