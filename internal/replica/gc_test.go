package replica

import (
	"fmt"
	"testing"

	"tebis/internal/lsm"
)

// testGCTrimPropagation covers §4's GC division of labour when every
// key is overwritten, so the oldest log segments are wholly dead: a GC
// pass frees them on the primary, backups in both modes free their
// copies without moving any data, and a post-GC promotion still serves
// everything.
func testGCTrimPropagation(t *testing.T, mode Mode) {
	r := newRig(t, mode, 1)
	// Heavy overwrites make the log head mostly garbage.
	for round := 0; round < 15; round++ {
		for i := 0; i < 250; i++ {
			k := fmt.Sprintf("key%04d", i)
			if err := r.db.Put([]byte(k), []byte(fmt.Sprintf("round-%02d-0123456789", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	backupLiveBefore := r.devB[0].Stats().SegmentsLive
	stats, err := r.db.GCOnce(lsm.GCPolicy{MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsFreed == 0 {
		t.Fatalf("primary GC freed nothing: %+v", stats)
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if mode == BuildIndex {
		if err := r.backups[0].DB().WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	r.checkHealthy()

	// The backup's device must have released the victims' log segments
	// (moves add some new ones, but heavy overwrite nets out negative).
	if got := r.devB[0].Stats().SegmentsLive; got >= backupLiveBefore+uint64(stats.SegmentsFreed) {
		t.Fatalf("backup live segments %d did not shrink (before %d, primary freed %d)",
			got, backupLiveBefore, stats.SegmentsFreed)
	}

	// Post-GC promotion must serve every key's latest value.
	b := r.backups[0]
	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 250; i++ {
		k := fmt.Sprintf("key%04d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != "round-14-0123456789" {
			t.Fatalf("promoted Get(%s) after GC = %q, %v, %v", k, v, found, err)
		}
	}
}

func TestGCTrimPropagationSendIndex(t *testing.T)  { testGCTrimPropagation(t, SendIndex) }
func TestGCTrimPropagationBuildIndex(t *testing.T) { testGCTrimPropagation(t, BuildIndex) }
