// Reconfiguration state machine: online region split, merge, and
// index-shipped live migration, plus the load-driven rebalancer that
// composes them. Every operation runs as a durable
// prepare → transfer → switch sequence anchored on an intent znode, so a
// successor master can always tell how far a dead leader got and either
// finish the handoff or roll it back — never leaving a region frozen
// forever and never producing two serving primaries.
package master

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/replica"
)

// ReconfigPath stores the durable intent of the reconfiguration in
// flight (empty when none).
const ReconfigPath = "/tebis/reconfig"

// Reconfiguration operations and phases as recorded in the intent.
const (
	OpSplit   = "split"
	OpMerge   = "merge"
	OpMigrate = "migrate"

	// PhasePrepare freezes the affected regions (leases revoked, ops
	// parked, in-flight ops drained).
	PhasePrepare = "prepare"
	// PhaseTransfer moves state: a migration seeds the destination by
	// shipping the source's built index segments and log tail over the
	// backup ship path; splits and merges move nothing.
	PhaseTransfer = "transfer"
	// PhaseSwitch flips roles and publishes the new map — the commit
	// point — then thaws the frozen regions under fresh leases.
	PhaseSwitch = "switch"
)

// Reconfiguration errors.
var (
	// ErrReconfigBusy rejects a reconfiguration while another is in
	// flight; there is a single intent slot.
	ErrReconfigBusy = errors.New("master: reconfiguration already in flight")
	// ErrReconfigInterrupted wraps a ReconfigHook abort: the master
	// "died" mid-operation and intentionally left its state for a
	// successor to resume.
	ErrReconfigInterrupted = errors.New("master: reconfiguration interrupted")
)

// Intent is the durable record of one in-flight reconfiguration. It is
// written to ReconfigPath before every phase, so the furthest phase a
// dead master could have reached is always known.
type Intent struct {
	Op    string `json:"op"`
	Phase string `json:"phase"`
	// Region is the region being split, merged-into, or migrated.
	Region region.ID `json:"region"`
	// NewID is the split's right child, or the merge's absorbed right
	// sibling.
	NewID    region.ID `json:"new_id,omitempty"`
	SplitKey []byte    `json:"split_key,omitempty"`
	// From and To are a migration's source and destination servers.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// saveIntent durably records the intent.
func (m *Master) saveIntent(it Intent) error {
	data, err := json.Marshal(it)
	if err != nil {
		return err
	}
	if err := m.sess.CreateAll(ReconfigPath); err != nil {
		return err
	}
	return m.sess.Set(ReconfigPath, data)
}

// clearIntent erases the intent record (the operation finished or was
// rolled back).
func (m *Master) clearIntent() error {
	if err := m.sess.CreateAll(ReconfigPath); err != nil {
		return err
	}
	return m.sess.Set(ReconfigPath, nil)
}

// loadIntent reads the recorded intent, reporting whether one exists.
func (m *Master) loadIntent() (Intent, bool, error) {
	data, err := m.sess.Get(ReconfigPath)
	if err != nil || len(data) == 0 {
		return Intent{}, false, nil
	}
	var it Intent
	if err := json.Unmarshal(data, &it); err != nil {
		return Intent{}, false, fmt.Errorf("master: corrupt reconfig intent: %w", err)
	}
	return it, true, nil
}

// hookPoint gives ReconfigHook a chance to abandon the operation, as a
// crash at this exact point would.
func (m *Master) hookPoint(op, phase string) error {
	if m.ReconfigHook == nil {
		return nil
	}
	if err := m.ReconfigHook(op, phase); err != nil {
		return fmt.Errorf("%w: %s/%s: %v", ErrReconfigInterrupted, op, phase, err)
	}
	return nil
}

// beginPhase durably advances the intent to the given phase, then runs
// the crash hook. The switch phase instead records first and hooks after
// its actions (see the callers): the record must precede the commit, and
// the interesting crash point is after it.
func (m *Master) beginPhase(it *Intent, phase string) error {
	it.Phase = phase
	if err := m.saveIntent(*it); err != nil {
		return err
	}
	m.events.Record(obs.Event{
		Type: obs.EvReconfigPhase, Node: m.name,
		Msg: "reconfiguration advanced to a new durable phase",
		Fields: map[string]string{
			"op":     it.Op,
			"phase":  phase,
			"region": fmt.Sprint(it.Region),
		},
	})
	return m.hookPoint(it.Op, phase)
}

// lockReconfig claims the single reconfiguration slot, then waits out
// any failure recovery in progress (see Master.roles).
func (m *Master) lockReconfig() error {
	m.mu.Lock()
	if m.reconfiguring {
		m.mu.Unlock()
		return ErrReconfigBusy
	}
	m.reconfiguring = true
	m.mu.Unlock()
	m.roles.Lock()
	return nil
}

func (m *Master) unlockReconfig() {
	m.roles.Unlock()
	m.mu.Lock()
	m.reconfiguring = false
	m.mu.Unlock()
}

func (m *Master) requireLeader() error {
	lead, _, err := m.elec.IsLeader()
	if err != nil {
		return err
	}
	if !lead {
		return ErrNotLeader
	}
	return nil
}

func (m *Master) host(name string) Host {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hosts[name]
}

// SplitRegion splits a region online at splitKey (nil asks the serving
// host for the sampled median). The split is logical: the right child
// gets the new smallest free ID and serves from the parent's engine on
// the same servers until a migration physically separates them. Client
// requests routed with the pre-split map bounce as wrong-epoch through a
// short freeze window; no acknowledged write is lost. Returns the right
// child's ID.
func (m *Master) SplitRegion(id region.ID, splitKey []byte) (region.ID, error) {
	if err := m.requireLeader(); err != nil {
		return 0, err
	}
	if err := m.lockReconfig(); err != nil {
		return 0, err
	}
	defer m.unlockReconfig()

	m.mu.Lock()
	r, err := m.rmap.ByID(id)
	newID := m.rmap.NextID()
	host := m.hosts[r.Primary]
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if host == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoHost, r.Primary)
	}
	if splitKey == nil {
		if splitKey, err = host.SplitKey(id); err != nil {
			return 0, err
		}
	}

	it := Intent{Op: OpSplit, Region: id, NewID: newID, SplitKey: splitKey, From: r.Primary}
	run := func() error {
		if err := m.beginPhase(&it, PhasePrepare); err != nil {
			return err
		}
		if err := host.Freeze(id); err != nil {
			return err
		}

		// Transfer: a split ships nothing — it installs the shared-engine
		// alias on the serving host.
		if err := m.beginPhase(&it, PhaseTransfer); err != nil {
			return err
		}
		m.mu.Lock()
		if err := m.rmap.Split(id, splitKey, newID); err != nil {
			m.mu.Unlock()
			return err
		}
		left, _ := m.rmap.ByID(id)
		right, _ := m.rmap.ByID(newID)
		m.mu.Unlock()
		if err := host.SplitHosted(left, right); err != nil {
			return err
		}

		it.Phase = PhaseSwitch
		if err := m.saveIntent(it); err != nil {
			return err
		}
		if err := m.publishMap(); err != nil {
			return err
		}
		if err := m.hookPoint(OpSplit, PhaseSwitch); err != nil {
			return err
		}
		if err := host.Unfreeze(left, region.Lease{
			Region: id, Epoch: left.Epoch, Holder: r.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.splits++
		m.mu.Unlock()
		return m.clearIntent()
	}
	if err := run(); err != nil {
		if errors.Is(err, ErrReconfigInterrupted) {
			return 0, err
		}
		m.abortIntent(it)
		return 0, err
	}
	return newID, nil
}

// MergeRegion folds a split's right child back into its left sibling
// while both still share an engine. The merged region's epoch advances
// so stale-map requests bounce into a refresh.
func (m *Master) MergeRegion(leftID, rightID region.ID) error {
	if err := m.requireLeader(); err != nil {
		return err
	}
	if err := m.lockReconfig(); err != nil {
		return err
	}
	defer m.unlockReconfig()

	m.mu.Lock()
	left, err := m.rmap.ByID(leftID)
	host := m.hosts[left.Primary]
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if host == nil {
		return fmt.Errorf("%w: %s", ErrNoHost, left.Primary)
	}

	it := Intent{Op: OpMerge, Region: leftID, NewID: rightID, From: left.Primary}
	run := func() error {
		if err := m.beginPhase(&it, PhasePrepare); err != nil {
			return err
		}
		if err := host.Freeze(leftID); err != nil {
			return err
		}
		if err := host.Freeze(rightID); err != nil {
			return err
		}

		if err := m.beginPhase(&it, PhaseTransfer); err != nil {
			return err
		}
		m.mu.Lock()
		if err := m.rmap.Merge(leftID, rightID); err != nil {
			m.mu.Unlock()
			return err
		}
		merged, _ := m.rmap.ByID(leftID)
		m.mu.Unlock()
		// MergeHosted also thaws the right child's parked ops; the entry is
		// gone, so they bounce as unknown-region into a map refresh.
		if err := host.MergeHosted(merged, rightID); err != nil {
			return err
		}

		it.Phase = PhaseSwitch
		if err := m.saveIntent(it); err != nil {
			return err
		}
		if err := m.publishMap(); err != nil {
			return err
		}
		if err := m.hookPoint(OpMerge, PhaseSwitch); err != nil {
			return err
		}
		if err := host.Unfreeze(merged, region.Lease{
			Region: leftID, Epoch: merged.Epoch, Holder: left.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.merges++
		m.mu.Unlock()
		return m.clearIntent()
	}
	if err := run(); err != nil {
		if errors.Is(err, ErrReconfigInterrupted) {
			return err
		}
		m.abortIntent(it)
		return err
	}
	return nil
}

// MigrateRegion moves a region's serving role to another server,
// seeding the destination over the replica ship path — built index
// segments plus the sealed log tail, no re-compaction — inside a freeze
// window, so no acknowledged write is lost and no read sees the region
// mid-handoff. A split child migrating away gets its own engine for the
// first time (this is what physically separates a split); a whole region
// moves with its replica group rewired behind it. Onto one of the
// region's own backups it is the graceful primary switch of load
// balancing (§3.1): nothing ships and the old primary stays as a
// backup. Returns the bytes shipped to seed the destination.
func (m *Master) MigrateRegion(id region.ID, to string) (int64, error) {
	if err := m.requireLeader(); err != nil {
		return 0, err
	}
	if m.mode == replica.NoReplication {
		return 0, errors.New("master: migration requires a replication mode (the destination is seeded over the backup ship path)")
	}
	if err := m.lockReconfig(); err != nil {
		return 0, err
	}
	defer m.unlockReconfig()

	m.mu.Lock()
	r, err := m.rmap.ByID(id)
	var blocked bool
	for _, x := range m.rmap.Regions {
		if x.HasParent && x.Parent == id {
			blocked = true
		}
	}
	src := m.hosts[r.Primary]
	dst := m.hosts[to]
	dstLive := m.live[to]
	snap := m.rmap.Clone()
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if blocked {
		return 0, fmt.Errorf("master: region %d has split children sharing its engine; migrate or merge them first", id)
	}
	if to == r.Primary {
		return 0, fmt.Errorf("master: region %d is already served by %s", id, to)
	}
	if src == nil || dst == nil {
		return 0, fmt.Errorf("%w: %s or %s", ErrNoHost, r.Primary, to)
	}
	if !dstLive {
		return 0, fmt.Errorf("%w: %s is down", ErrNoCapacity, to)
	}

	it := Intent{Op: OpMigrate, Region: id, From: r.Primary, To: to}
	var shipped int64
	run := func() error {
		owner := id
		if r.HasParent {
			root, err := rootOwner(snap, r)
			if err != nil {
				return err
			}
			owner = root.ID
		} else if kids := src.AliasChildren(id); len(kids) > 0 {
			return fmt.Errorf("master: region %d still owns the engine of split children %v", id, kids)
		}
		p, nb, err := m.handoff(&it, r, owner, src, dst, &shipped)
		if err != nil {
			return err
		}
		if r.HasParent {
			return m.switchChild(&it, r, owner, p, nb, src, dst)
		}
		return m.switchWhole(&it, r, p, src, dst)
	}
	if err := run(); err != nil {
		if errors.Is(err, ErrReconfigInterrupted) {
			return shipped, err
		}
		m.abortIntent(it)
		return shipped, err
	}
	m.mu.Lock()
	m.migrations++
	m.shipBytes[id] += shipped
	m.mu.Unlock()
	return shipped, nil
}

// handoff runs a migration's prepare and transfer phases, the same for
// a split child and a whole region. Prepare freezes the engine owner
// and every split child sharing its engine (they share one log).
// Transfer drains the owner's compactions and seals its log tail, so
// every replica's log map covers every acknowledged record, then seeds
// the destination as a backup of the owner's primary — unless r is a
// whole region the destination already backs up (switchOnto), which
// makes the migration a graceful primary switch (§3.1) that ships
// nothing. It returns the owner's
// primary and the destination's backup.
func (m *Master) handoff(it *Intent, r region.Region, owner region.ID, src, dst Host, shipped *int64) (*replica.Primary, *replica.Backup, error) {
	if err := m.beginPhase(it, PhasePrepare); err != nil {
		return nil, nil, err
	}
	for _, id := range append([]region.ID{owner}, src.AliasChildren(owner)...) {
		if err := src.Freeze(id); err != nil {
			return nil, nil, err
		}
	}

	if err := m.beginPhase(it, PhaseTransfer); err != nil {
		return nil, nil, err
	}
	p, ok := src.Primary(owner)
	if !ok {
		return nil, nil, fmt.Errorf("master: %s does not host primary of region %d", it.From, owner)
	}
	if err := p.DB().WaitIdle(); err != nil {
		return nil, nil, err
	}
	if err := p.SealTail(); err != nil {
		return nil, nil, err
	}
	if switchOnto(r, it.To) {
		nb, ok := dst.Backup(r.ID)
		if !ok {
			return nil, nil, fmt.Errorf("master: %s does not host backup of region %d", it.To, r.ID)
		}
		return p, nb, nil
	}
	nb, n, err := m.seed(p, r, dst)
	*shipped = n
	return p, nb, err
}

// switchOnto reports whether migrating r to the server to is a graceful
// switch onto one of r's own backups, which ships nothing. Only a whole
// region qualifies: a split child's row mirrors its engine owner's
// backups, which replicate the owner, not the child.
func switchOnto(r region.Region, to string) bool {
	return !r.HasParent && slices.Contains(r.Backups, to)
}

// switchChild completes a split child's migration: the destination,
// seeded as a backup of the engine owner, is promoted to the child's
// primary. The child leaves the parent link behind, gets a fresh epoch,
// and its replica set is re-seeded from the new primary.
func (m *Master) switchChild(it *Intent, r region.Region, owner region.ID, p *replica.Primary, nb *replica.Backup, src, dst Host) error {
	it.Phase = PhaseSwitch
	if err := m.saveIntent(*it); err != nil {
		return err
	}
	p.Detach(nb)
	if _, _, err := m.promote(r.ID, it.To, nil); err != nil {
		return err
	}
	nr := r.Clone()
	nr.Primary = it.To
	nr.Backups = nil // parent-keyed replicas can't serve it; re-seeded below
	nr.HasParent = false
	nr.Parent = 0
	nr.Epoch++
	m.mu.Lock()
	err := m.rmap.SetRegion(nr)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.publishMap(); err != nil {
		return err
	}
	if err := m.hookPoint(OpMigrate, PhaseSwitch); err != nil {
		return err
	}

	// Thaw: destination first (it serves the new epoch), then drop the
	// source's alias (parked ops bounce to a refresh), then the rest of
	// the sibling set under fresh leases.
	if err := dst.Unfreeze(nr, region.Lease{
		Region: nr.ID, Epoch: nr.Epoch, Holder: it.To,
	}); err != nil {
		return err
	}
	if err := src.DropRegion(r.ID); err != nil {
		return err
	}
	m.mu.Lock()
	snap := m.rmap.Clone()
	m.mu.Unlock()
	for _, sid := range append([]region.ID{owner}, src.AliasChildren(owner)...) {
		sr, err := snap.ByID(sid)
		if err != nil {
			return err
		}
		if err := src.Unfreeze(sr, region.Lease{
			Region: sid, Epoch: sr.Epoch, Holder: it.From,
		}); err != nil {
			return err
		}
	}
	// Restore the migrated region's replication factor from its new
	// primary, and publish the refilled backup list.
	if err := m.refillBackup(nr, ""); err != nil {
		return err
	}
	if err := m.publishMap(); err != nil {
		return err
	}
	return m.clearIntent()
}

// switchWhole completes a non-split region's migration: the destination
// backup is promoted, the surviving backups re-attach to it, and the
// old primary is demoted to a backup of the new one.
func (m *Master) switchWhole(it *Intent, r region.Region, p *replica.Primary, src, dst Host) error {
	it.Phase = PhaseSwitch
	if err := m.saveIntent(*it); err != nil {
		return err
	}
	p.DetachAll()
	survivors := m.liveBackups(r, it.To)
	newP, oldToNew, err := m.promote(r.ID, it.To, survivors)
	if err != nil {
		return err
	}
	oldB, err := src.DemoteToBackup(r.ID, oldToNew)
	if err != nil {
		return err
	}
	replica.Attach(newP, oldB)

	nr := r.Clone()
	nr.Primary = it.To
	nr.Backups = append(survivors, it.From)
	nr.Epoch++
	m.mu.Lock()
	err = m.rmap.SetRegion(nr)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.publishMap(); err != nil {
		return err
	}
	if err := m.hookPoint(OpMigrate, PhaseSwitch); err != nil {
		return err
	}
	if err := dst.Unfreeze(nr, region.Lease{
		Region: nr.ID, Epoch: nr.Epoch, Holder: it.To,
	}); err != nil {
		return err
	}
	// The source keeps the region as a backup; thawing it bounces parked
	// ops (stale epoch or not-primary) into a client map refresh.
	if err := src.Unfreeze(nr, region.Lease{}); err != nil {
		return err
	}
	return m.clearIntent()
}

// resumeReconfig finishes or rolls back the reconfiguration a dead
// leader left in flight. The published map is the commit point: if it
// already reflects the operation, only post-commit cleanup (thaw, drop,
// re-seed) remains and is replayed; otherwise every pre-commit step is
// undone. Either way exactly one primary serves the region afterwards.
func (m *Master) resumeReconfig() error {
	it, ok, err := m.loadIntent()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if m.intentCommitted(it) {
		return m.completeIntent(it)
	}
	return m.abortIntent(it)
}

// intentCommitted reports whether the published map already reflects the
// recorded operation.
func (m *Master) intentCommitted(it Intent) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch it.Op {
	case OpSplit:
		_, err := m.rmap.ByID(it.NewID)
		return err == nil
	case OpMerge:
		_, err := m.rmap.ByID(it.NewID)
		return err != nil
	case OpMigrate:
		r, err := m.rmap.ByID(it.Region)
		return err == nil && r.Primary == it.To
	}
	return false
}

// completeIntent replays the post-commit cleanup of a committed
// operation: every step is idempotent, so it is safe no matter how far
// the dead leader got past the publish.
func (m *Master) completeIntent(it Intent) error {
	m.mu.Lock()
	snap := m.rmap.Clone()
	m.mu.Unlock()
	switch it.Op {
	case OpSplit:
		left, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		right, err := snap.ByID(it.NewID)
		if err != nil {
			return err
		}
		h := m.host(left.Primary)
		if h == nil {
			return fmt.Errorf("%w: %s", ErrNoHost, left.Primary)
		}
		// Ensure the alias exists (idempotent), then thaw the left child.
		if err := h.SplitHosted(left, right); err != nil {
			return err
		}
		if err := h.Unfreeze(left, region.Lease{
			Region: left.ID, Epoch: left.Epoch, Holder: left.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.splits++
		m.mu.Unlock()

	case OpMerge:
		merged, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		h := m.host(merged.Primary)
		if h == nil {
			return fmt.Errorf("%w: %s", ErrNoHost, merged.Primary)
		}
		root, err := rootOwner(snap, merged)
		if err != nil {
			return err
		}
		for _, kid := range h.AliasChildren(root.ID) {
			if kid == it.NewID {
				if err := h.MergeHosted(merged, it.NewID); err != nil {
					return err
				}
			}
		}
		if err := h.Unfreeze(merged, region.Lease{
			Region: merged.ID, Epoch: merged.Epoch, Holder: merged.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.merges++
		m.mu.Unlock()

	case OpMigrate:
		rg, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		dst := m.host(it.To)
		if dst == nil {
			return fmt.Errorf("%w: %s", ErrNoHost, it.To)
		}
		if err := dst.Unfreeze(rg, region.Lease{
			Region: rg.ID, Epoch: rg.Epoch, Holder: it.To,
		}); err != nil {
			return err
		}
		if src := m.host(it.From); src != nil {
			if _, isBackup := src.Backup(it.Region); isBackup {
				// Whole-region flavor: the source stays as a backup.
				if src.Frozen(it.Region) {
					if err := src.Unfreeze(rg, region.Lease{}); err != nil {
						return err
					}
				}
			} else {
				// Child flavor: drop the stale alias if it survived.
				_ = src.DropRegion(it.Region)
			}
			// Thaw whatever else froze for the handoff (the engine owner
			// and its other children, for a child migration).
			for _, pr := range snap.Regions {
				if pr.Primary == it.From && src.Frozen(pr.ID) {
					if err := src.Unfreeze(pr, region.Lease{
						Region: pr.ID, Epoch: pr.Epoch, Holder: it.From,
					}); err != nil {
						return err
					}
				}
			}
		}
		if len(rg.Backups) == 0 {
			if err := m.refillBackup(rg, ""); err != nil {
				return err
			}
			if err := m.publishMap(); err != nil {
				return err
			}
		}
		m.mu.Lock()
		m.migrations++
		m.mu.Unlock()
	}
	return m.clearIntent()
}

// abortIntent rolls an uncommitted reconfiguration back to the last
// published map: host-side scaffolding (aliases, half-seeded backups) is
// torn down, every region frozen for the operation is thawed under a
// fresh lease, and the intent is cleared. Used both by a successor's
// resume and as the cleanup path of a failed operation.
func (m *Master) abortIntent(it Intent) error {
	data, err := m.sess.Get(RegionMapPath)
	if err != nil {
		return err
	}
	pub, err := region.Decode(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = pub.Clone()
	m.mu.Unlock()

	thaw := func(h Host, name string) error {
		for _, pr := range pub.Regions {
			if pr.Primary == name && h.Frozen(pr.ID) {
				if err := h.Unfreeze(pr, region.Lease{
					Region: pr.ID, Epoch: pr.Epoch, Holder: name,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	switch it.Op {
	case OpSplit:
		r, err := pub.ByID(it.Region)
		if err == nil {
			if h := m.host(r.Primary); h != nil {
				_ = h.DropRegion(it.NewID) // alias, if the split got that far
				// Restore the full pre-split descriptor and thaw.
				if err := h.Unfreeze(r, region.Lease{
					Region: r.ID, Epoch: r.Epoch, Holder: r.Primary,
				}); err != nil {
					return err
				}
			}
		}

	case OpMerge:
		left, lerr := pub.ByID(it.Region)
		right, rerr := pub.ByID(it.NewID)
		if lerr == nil && rerr == nil {
			if h := m.host(left.Primary); h != nil {
				// Re-ensure the right child's alias (MergeHosted may have
				// removed it before the map was republished), then thaw both.
				if err := h.SplitHosted(left, right); err != nil {
					return err
				}
				if err := thaw(h, left.Primary); err != nil {
					return err
				}
			}
		}

	case OpMigrate:
		r, err := pub.ByID(it.Region)
		if err != nil {
			break
		}
		if dst := m.host(it.To); dst != nil {
			if nb, ok := dst.Backup(it.Region); ok && !switchOnto(r, it.To) {
				// Detach the half-seeded backup from whichever primary was
				// shipping to it before tearing it down. (A switch onto an
				// existing backup seeded nothing; that replica stays.)
				root, rerr := rootOwner(pub, r)
				if rerr == nil {
					if src := m.host(it.From); src != nil {
						if p, ok := src.Primary(root.ID); ok {
							p.Detach(nb)
						}
					}
				}
				_ = dst.DropRegion(it.Region)
			} else if _, ok := dst.Primary(it.Region); ok {
				// Promoted but never published: tear the orphan down; the
				// frozen source still has everything.
				_ = dst.DropRegion(it.Region)
			}
		}
		if src := m.host(it.From); src != nil {
			if err := thaw(src, it.From); err != nil {
				return err
			}
		}
	}

	m.mu.Lock()
	m.reconfAborts++
	m.mu.Unlock()
	return m.clearIntent()
}

// RebalanceReport describes what one rebalancing round did.
type RebalanceReport struct {
	// Action is "split+migrate", "migrate", or "none".
	Action string
	// Region is the hot region acted on; NewRegion the split child that
	// moved (split+migrate only).
	Region    region.ID
	NewRegion region.ID
	From, To  string
	// ShipBytes is the index+log volume shipped to seed the destination.
	ShipBytes int64
}

// Rebalance runs one load-driven rebalancing round: it diffs each
// serving region's cumulative op counters against the previous round to
// find the hottest region, picks the coldest live server as the target,
// splits the hot region at its sampled median, and migrates the new
// child there over the ship path. Regions too small to split move whole.
// A round with no traffic since the last one is a no-op.
func (m *Master) Rebalance() (RebalanceReport, error) {
	if err := m.requireLeader(); err != nil {
		return RebalanceReport{}, err
	}
	m.mu.Lock()
	type liveHost struct {
		name string
		h    Host
	}
	var hs []liveHost
	for name, h := range m.hosts {
		if m.live[name] {
			hs = append(hs, liveHost{name, h})
		}
	}
	rmap := m.rmap.Clone()
	last := m.lastLoads
	m.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })

	loads := map[region.ID]uint64{}
	for _, lh := range hs {
		for id, l := range lh.h.RegionLoads() {
			loads[id] = l.Ops()
		}
	}
	deltas := map[region.ID]uint64{}
	for id, ops := range loads {
		d := ops
		if prev, ok := last[id]; ok && prev <= ops {
			d = ops - prev
		}
		deltas[id] = d
	}
	m.mu.Lock()
	m.lastLoads = loads
	m.mu.Unlock()

	var hot region.ID
	var hotDelta uint64
	ids := make([]region.ID, 0, len(deltas))
	for id := range deltas {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if deltas[id] > hotDelta {
			hot, hotDelta = id, deltas[id]
		}
	}
	if hotDelta == 0 {
		return RebalanceReport{Action: "none"}, nil
	}

	hotR, err := rmap.ByID(hot)
	if err != nil {
		return RebalanceReport{}, err
	}
	// Target: the live server carrying the least traffic this round.
	perServer := map[string]uint64{}
	for _, lh := range hs {
		perServer[lh.name] = 0
	}
	for _, r := range rmap.Regions {
		if _, ok := perServer[r.Primary]; ok {
			perServer[r.Primary] += deltas[r.ID]
		}
	}
	target := ""
	for _, lh := range hs {
		if lh.name == hotR.Primary {
			continue
		}
		if target == "" || perServer[lh.name] < perServer[target] {
			target = lh.name
		}
	}
	if target == "" {
		return RebalanceReport{Action: "none"}, nil
	}

	rep := RebalanceReport{Region: hot, From: hotR.Primary, To: target}
	newID, err := m.SplitRegion(hot, nil)
	if err != nil {
		// Too small to split (or already a sliver): move the whole region.
		shipped, merr := m.MigrateRegion(hot, target)
		if merr != nil {
			return rep, fmt.Errorf("master: rebalance: split failed (%v); whole-region migrate failed: %w", err, merr)
		}
		rep.Action, rep.ShipBytes = "migrate", shipped
		return rep, nil
	}
	rep.NewRegion = newID
	shipped, err := m.MigrateRegion(newID, target)
	if err != nil {
		return rep, err
	}
	rep.Action, rep.ShipBytes = "split+migrate", shipped
	return rep, nil
}

// ShipBytes reports the cumulative bytes shipped to seed migration
// destinations, per migrated region.
func (m *Master) ShipBytes() map[region.ID]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[region.ID]int64, len(m.shipBytes))
	for id, n := range m.shipBytes {
		out[id] = n
	}
	return out
}
