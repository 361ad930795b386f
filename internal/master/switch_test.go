package master

import (
	"errors"
	"fmt"
	"testing"

	"tebis/internal/region"
	"tebis/internal/replica"
)

// testMigrateToBackup drives the graceful primary switch: a migration
// onto one of the region's own backups.
func testMigrateToBackup(t *testing.T, mode replica.Mode) {
	h := newHarness(t, 3, mode)
	h.bootstrap(2, 2) // three-way so a third replica also follows the switch

	r0, _ := h.m.Map().ByID(0)
	p, _ := h.servers[r0.Primary].Primary(0)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	target := r0.Backups[0]
	if _, err := h.m.MigrateRegion(0, target); err != nil {
		t.Fatal(err)
	}

	after, _ := h.m.Map().ByID(0)
	if after.Primary != target {
		t.Fatalf("primary = %s, want %s", after.Primary, target)
	}
	if after.Epoch <= r0.Epoch {
		t.Fatalf("epoch %d did not advance past %d", after.Epoch, r0.Epoch)
	}
	// The old primary must now be a backup.
	foundOld := false
	for _, b := range after.Backups {
		if b == r0.Primary {
			foundOld = true
		}
		if b == target {
			t.Fatal("new primary still listed as backup")
		}
	}
	if !foundOld {
		t.Fatalf("old primary %s not demoted into backups %v", r0.Primary, after.Backups)
	}
	for name, srv := range h.servers {
		if srv.Frozen(0) {
			t.Fatalf("%s left region 0 frozen", name)
		}
	}

	// The new primary serves every record.
	np, ok := h.servers[target].Primary(0)
	if !ok {
		t.Fatal("target does not host the primary")
	}
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("key%06d", i)
		v, found, err := np.DB().Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("switched Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}

	// New writes replicate to all three replicas (including the demoted
	// old primary): write, then crash the new primary and promote the
	// old one back via the failure path.
	for i := 0; i < 400; i++ {
		if err := np.DB().Put([]byte(fmt.Sprintf("post%06d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.servers[target].WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := np.Err(); err != nil {
		t.Fatal(err)
	}

	h.servers[target].Crash()
	h.sess[target].Close()
	if err := h.m.HandleServerFailure(target); err != nil {
		t.Fatal(err)
	}
	final, _ := h.m.Map().ByID(0)
	fp, ok := h.servers[final.Primary].Primary(0)
	if !ok {
		t.Fatalf("final primary %s not hosted", final.Primary)
	}
	// Both pre-switch and post-switch writes must survive.
	for _, k := range []string{"key000500", "post000399"} {
		if _, found, err := fp.DB().Get([]byte(k)); err != nil || !found {
			t.Fatalf("Get(%s) after switch+failover = %v, %v", k, found, err)
		}
	}
}

func TestMigrateToBackupSendIndex(t *testing.T)  { testMigrateToBackup(t, replica.SendIndex) }
func TestMigrateToBackupBuildIndex(t *testing.T) { testMigrateToBackup(t, replica.BuildIndex) }

func TestMigrateRejectsUnknownRegion(t *testing.T) {
	h := newHarness(t, 3, replica.SendIndex)
	h.bootstrap(1, 1)
	r0, _ := h.m.Map().ByID(0)
	if _, err := h.m.MigrateRegion(region.ID(99), r0.Backups[0]); err == nil {
		t.Fatal("migration of unknown region accepted")
	}
}

// TestMigrateToBackupAbortKeepsBackup kills the master before a switch
// onto an existing backup commits: the successor rolls it back without
// tearing down that backup, which still replicates and can take the
// switch when it re-runs.
func TestMigrateToBackupAbortKeepsBackup(t *testing.T) {
	for _, phase := range []string{PhasePrepare, PhaseTransfer} {
		t.Run(phase, func(t *testing.T) {
			h := newHarness(t, 2, replica.SendIndex)
			h.bootstrap(1, 1)
			h.seed(0, 500)
			r0, _ := h.m.Map().ByID(0)
			target := r0.Backups[0]

			h.m.ReconfigHook = func(op, ph string) error {
				if ph == phase {
					return errors.New("master killed by test")
				}
				return nil
			}
			if _, err := h.m.MigrateRegion(0, target); !errors.Is(err, ErrReconfigInterrupted) {
				t.Fatalf("err = %v, want interrupted", err)
			}
			m2 := h.successor()
			h.assertConverged(m2)
			if _, ok := h.servers[target].Backup(0); !ok {
				t.Fatalf("abort tore down %s's backup of region 0", target)
			}
			if _, err := m2.MigrateRegion(0, target); err != nil {
				t.Fatalf("switch after abort: %v", err)
			}
			np, ok := h.servers[target].Primary(0)
			if !ok {
				t.Fatal("target does not host the primary")
			}
			if _, found, err := np.DB().Get([]byte("key000499")); err != nil || !found {
				t.Fatalf("Get after re-run switch = %v, %v", found, err)
			}
		})
	}
}
